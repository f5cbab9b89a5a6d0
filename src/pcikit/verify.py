"""The checks behind ``pcikit verify``: the certificate that the engine's
idempotents are the primitive central idempotents of Q[G] and that the
Wedderburn component counts agree with the element-order census.

``run_checks`` returns one Check per check, in a fixed order; rendering
them is the CLI's job.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, exact_sum, lattice_sum
from .cyclotomic import CycloAlgebraElement, reduce_rows
from .diagram import (
    PciVertex,
    cyclic_rational_pcis,
    extension_children,
    galois_orbit_collapse,
    galois_orbit_sums,
    lift_into_extension,
    part_diagrams,
    pci_records,
    record_arrays,
    splitting_field_pcis,
)
from .groups import (
    AbelianGroupSpec,
    GroupElement,
    PrimaryGroupSpec,
    element_index,
    extend_subgroup,
    in_subgroup,
    subgroup_closure,
)
from .errors import InconsistencyError, InvariantError
from .kernels import int_array, squares_to_rows
from .oracle import compare_pci_sets, oracle_pci_set, wedderburn_profile

SPLIT_CHECK_LIMIT = 64  # largest cyclic group whose splitting field is checked


@dataclass(frozen=True)
class Check:
    """One check's result; detail is a short note for the report, or None."""

    name: str
    ok: bool
    detail: str | None = None


def certify_idempotents(
    elements: list[AlgebraElement], total: AlgebraElement
) -> tuple[list[int], bool]:
    """The indices of the elements that are not idempotent, and whether the
    elements are idempotents with e_i e_j = 0 for all i != j, given their
    sum total: one idempotency test per element and one more, all as one
    stack of rows (see kernels.squares_to_rows).

    Q[G] is commutative and semisimple, so its complex characters are ring
    homomorphisms that together separate elements.  Each maps every
    idempotent e_i to 0 or 1, so it maps total to the number of e_i it
    sends to 1.  So total is idempotent iff no character sends two e_i to 1,
    that is iff e_i e_j = 0 for all i != j."""
    ok = squares_to_rows(
        [e.nums for e in elements] + [total.nums],
        [e.den for e in elements] + [total.den],
        total.spec.factor_orders,
    )
    bad = np.flatnonzero(~ok[:-1]).tolist()
    return bad, not bad and bool(ok[-1])


def collapse_matches_closed_form(
    splitting: list[CycloAlgebraElement], m: int, closed: list[AlgebraElement]
) -> tuple[list[AlgebraElement], bool]:
    """The Galois-orbit collapse of the splitting-field idempotents of C_m,
    and whether it equals the closed-form rational set `closed`."""
    collapsed = galois_orbit_collapse(splitting, m)
    return collapsed, compare_pci_sets(collapsed, closed).equal


def run_checks(spec: AbelianGroupSpec, alternate_order: bool) -> list[Check]:
    """Every check of the engine's result for spec, in report order; each
    covers every idempotent, every pair of them and every diagram vertex."""
    checks: list[Check] = []

    def check(name: str, ok: bool, detail: str | None = None):
        checks.append(Check(name, ok, detail))

    diagrams = part_diagrams(spec)
    elements = [rec.element for rec in record_arrays(spec, diagrams)]
    count = len(elements)

    total = lattice_sum(elements)
    bad, orthogonal = certify_idempotents(elements, total)
    check(
        "engine_idempotency",
        not bad,
        f"failures at {bad}" if bad else f"{count} idempotents",
    )
    if orthogonal:
        detail = f"{count * (count - 1) // 2} pairs checked (full)"
    else:
        detail = "not every element is idempotent" if bad else "some pair is not orthogonal"
    check("engine_orthogonality", orthogonal, detail)
    check("engine_sum_to_identity", total == AlgebraElement.one(spec))

    cmp = compare_pci_sets(elements, oracle_pci_set(spec))
    check(
        "engine_matches_oracle",
        cmp.equal,
        None
        if cmp.equal
        else f"witness on {cmp.witness_side} side: {cmp.witness.to_strings()}",
    )

    vertices = [
        (diag.spec, v) for diag in diagrams for level in diag.levels for v in level
    ]
    check(
        "factored_form_structure",
        all(v.trivial == (v.form.primed is None) for _, v in vertices),
    )

    kernel_failures = vertex_kernel_failures(vertices)
    check(
        "vertex_kernels",
        not kernel_failures,
        f"failures: {kernel_failures[:3]}"
        if kernel_failures
        else f"{len(vertices)} vertices checked (full)",
    )

    for part, diag in zip(spec.parts, diagrams):
        profile = wedderburn_profile(part)  # raises on census disagreement
        leaf_counts = Counter(v.field_index for v in diag.leaves)
        check(
            f"component_counts_p{part.p}",
            all(leaf_counts[row.r] == row.census for row in profile.rows),
            "; ".join(
                f"r={row.r}: census={row.census} formula={row.formula} "
                f"variant={row.statement_variant}"
                for row in profile.rows
            ),
        )

    if len(spec.factor_orders) == 1:
        part = spec.parts[0]
        n = part.classes[0][0]
        closed = cyclic_rational_pcis(part.p, n)
        # the records of a cyclic group, re-homed onto its one part
        leaves = [AlgebraElement(part, e.nums, e.den) for e in elements]
        check(
            "cyclic_closed_form",
            len(closed) == n + 1 and compare_pci_sets(closed, leaves).equal,
            f"{n + 1} idempotents",
        )
        if part.order <= SPLIT_CHECK_LIMIT:
            sound = _splitting_field_coherent(part, closed)
            check("splitting_field_coherence", sound, f"modulus {part.order}")

    if alternate_order:
        alt = [r.element for r in pci_records(spec, alternate_order=True)]
        alt_ok = compare_pci_sets(alt, oracle_pci_set(spec)).equal
        check("alternate_order_soundness", alt_ok)
    return checks


def vertex_kernel_failures(
    vertices: list[tuple[PrimaryGroupSpec, PciVertex]],
) -> list[tuple[int, int, int, str]]:
    """(p, level, index, what) for each (part, vertex) whose kernel
    generators do not span a subgroup of the recorded order ("size"), or
    span one that is not the kernel of the vertex's expansion ("kernel"),
    for vertices listed part by part and level by level.

    The span K is the kernel of the expansion e exactly when the primed
    element z lies outside K (or there is none; then e is the average of
    K).  For z outside K, the numerators of e over p|K| are
    p 1_K - sum_{c<p} 1_{z^c K}: at least 1 on K, as zK != K, and at most
    0 off K.  A translation fixes e only if it keeps e(1), so
    K <= Stab(e) <= {g : e(g) = e(1)} = K.  For z in K there is no such
    expansion.

    A vertex's generators are its parent's, or those plus one, so each
    span is looked up among the previous level's spans and, failing that,
    grown from its prefix's span by one coset walk (see extend_subgroup);
    a tuple with no known prefix is closed from scratch.  Only two levels
    of spans are held at once, and the leaves' spans are not kept."""
    failures = []
    spans: dict[tuple, np.ndarray] = {}  # this level's, by generator tuple
    last: dict[tuple, np.ndarray] = {}  # the previous level's
    where = None
    for part, v in vertices:
        if (part, v.level) != where:
            where, last, spans = (part, v.level), spans, {}
        gens = v.form.kernel_gens
        tracked = last.get(gens)
        if tracked is None:
            prefix = last.get(gens[:-1]) if gens else None
            if prefix is None:
                tracked = subgroup_closure(part, gens)
            else:
                tracked = extend_subgroup(part, prefix, gens[-1])
        if v.level < part.num_generators:  # no level follows the leaves
            spans[gens] = tracked
        primed = v.form.primed
        if len(tracked) != v.kernel_order:
            failures.append((part.p, v.level, v.index, "size"))
        elif primed is not None and in_subgroup(tracked, element_index(primed)):
            failures.append((part.p, v.level, v.index, "kernel"))
    return failures


def _splitting_field_coherent(part, closed: list[AlgebraElement]) -> bool:
    """The p^n splitting-field idempotents of C_{p^n} over Q(zeta_{p^n}) are
    idempotent and sum to 1, so pairwise orthogonal (Q(zeta_{p^n})[G] is
    commutative and semisimple; see certify_idempotents); their Galois-orbit
    sums are the closed-form rational set; and they are the extension
    children of the idempotents one chain step down.

    The idempotents are checked as one stack of lattice numerator rows.
    Each row is tested for e*e == e on the lattice Q[G x C_m] it is held
    on, all at once by squares_to_rows.  Equality there implies equality
    modulo the m-th cyclotomic polynomial, so a pass is exact; a failure
    may still be equality in Q(zeta_m)[G], so for that row alone the
    product is formed and compared reduced.  Every row is then reduced
    modulo the cyclotomic polynomial in one step (reduce_rows): the sum,
    the orbit sums and the match with the children all read those rows.
    A level below whose idempotents are not lifted splitting idempotents,
    or an orbit sum that is not rational, fails the check."""
    p, n, m = part.p, part.classes[0][0], part.order
    reduced = _reduced_idempotent_rows(splitting_field_pcis(p, n), m)
    if reduced is None:
        return False
    total, den = exact_sum(reduced)
    if total[0] != den or total[1:].any():  # the sum is not 1
        return False
    gen = GroupElement(part, (1,))
    try:
        collapsed = galois_orbit_sums(part, m, reduced)
        children = [
            child
            for eta in splitting_field_pcis(p, n - 1)
            for child in extension_children(lift_into_extension(eta), gen)
        ]
    except (InconsistencyError, InvariantError):
        return False
    if not compare_pci_sets(collapsed, closed).equal:
        return False
    kids = reduce_rows(np.stack([c.nums for c in children]), m)
    kids_reduced = zip(kids, [c.den for c in children])
    return np.array_equal(
        _sorted_lowest_terms(reduced), _sorted_lowest_terms(kids_reduced)
    )


def _reduced_idempotent_rows(
    elements: list[CycloAlgebraElement], m: int
) -> list[tuple[np.ndarray, int]] | None:
    """Each element's reduced numerator row (see reduce_rows) and its
    denominator, or None when some element is not idempotent.  The
    elements are tested as one stack by squares_to_rows, and an element
    that fails there forms its product (see _splitting_field_coherent)."""
    stack, dens = np.stack([e.nums for e in elements]), [e.den for e in elements]
    passed = squares_to_rows(stack, dens, elements[0].lattice_orders)
    failed = [elements[i] for i in np.flatnonzero(~passed)]
    if not all(e * e == e for e in failed):
        return None
    return list(zip(reduce_rows(stack, m), dens))


def _sorted_lowest_terms(reduced) -> np.ndarray:
    """The (den, numerators...) rows of these (numerators, den) pairs in
    lowest terms, lexsorted: two runs give equal matrices exactly when they
    hold the same rationals equally often."""
    nums, dens = zip(*reduced)
    keys = np.column_stack((int_array(dens), np.stack(nums)))
    keys //= np.gcd.reduce(keys, axis=1)[:, None]
    keys = int_array(keys.ravel()).reshape(keys.shape)  # int64 whenever it fits
    if keys.dtype == object:
        return keys[np.lexsort(keys.T)]
    # any total order will do: sort int64 rows as byte strings, in one step
    # where lexsort takes one pass per column
    rows = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    return np.sort(keys.view(rows).ravel())

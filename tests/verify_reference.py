"""References of the tests for verify's checks.

The element reference builds one AlgebraElement per record: run_checks
certifies the elements as one stack with their lattice sum, and compares
them with the oracle's set, built one character at a time, by
compare_pci_sets.  verify.run_checks reads the record blocks and the
oracle's rows and builds no element unless a comparison fails.

The vertex-kernel reference closes each vertex's kernel span from scratch,
forms its expansion, and searches for the stabiliser of that expansion to
compare with the span.  verify.vertex_kernel_failures checks each diagram
level in one array pass: it reads each span's size, and whether the
primed element lies in it, off the previous level's boolean span rows by
gathers over the run of powers of the one new generator (V_l x ord(g)
cells for a level of V_l vertices), grows the span rows of the non-leaf
levels by coset-union doubling, and closes from scratch only a tuple
with no known prefix, and its children.  It tests only whether the primed
element lies in the span, not the stabiliser.

The splitting-field reference checks one element at a time: one
idempotency test per element, a lattice sum, the Galois collapse of the
elements, and the extension children formed as products and compared by
Counter.  verify._splitting_field_coherent checks one stack of rows.  The
tests compare the two."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from pcikit import verify
from pcikit.algebra import (
    AlgebraElement,
    expansion_numerators,
    fixing_subgroup,
    lattice_sum,
)
from pcikit.cyclotomic import CycloAlgebraElement, CycloNumber, ramanujan_sum
from pcikit.diagram import (
    PciVertex,
    galois_orbit_collapse,
    lift_into_extension,
    splitting_field_pcis,
)
from pcikit.errors import InconsistencyError, InvariantError
from pcikit.groups import (
    AbelianGroupSpec,
    GroupElement,
    GroupSpec,
    PrimaryGroupSpec,
    element_index,
    element_order,
    enumeration,
    identity,
    subgroup_closure,
)
from pcikit.kernels import squares_to, squares_to_rows
from pcikit.oracle import (
    CharacterIndex,
    compare_pci_sets,
    dual_characters,
    wedderburn_profile,
)
from pcikit.verify import Check


def character_numerators(spec: GroupSpec, chi: CharacterIndex) -> np.ndarray:
    """The numerators over |G| of chi's rational idempotent, one character
    at a time: c_m(a) at g, where chi(g^-1) = zeta_m^a and m = ord(chi)."""
    L, m = spec.exponent, chi.order
    digits = enumeration(spec.factor_orders).digits
    weights = np.array(
        [t * (L // d) for t, d in zip(chi.t, spec.factor_orders)], dtype=np.int64
    )
    q, rem = np.divmod((digits @ weights) % L, L // m)
    if rem.any():
        raise InconsistencyError("character value outside its own root lattice")
    return np.array([ramanujan_sum(m, -a) for a in q.tolist()], dtype=np.int64)


def oracle_pci_set(spec: GroupSpec) -> list[AlgebraElement]:
    """oracle.oracle_pci_set one character at a time: one idempotent per
    Galois orbit, in the order of each orbit's first character, with every
    member's numerators compared with the first's."""
    enum = enumeration(spec.factor_orders)
    L = spec.exponent
    units = np.array([k for k in range(1, L + 1) if math.gcd(k, L) == 1])
    chars = dual_characters(spec)
    out, seen = [], set()
    for i, chi in enumerate(chars):
        if i in seen:
            continue
        orbit = set(enum.power(i, units[:, None]).tolist())
        seen |= orbit
        row = character_numerators(spec, chi)
        for j in orbit - {i}:
            if not np.array_equal(character_numerators(spec, chars[j]), row):
                raise InconsistencyError(f"characters {chi.t} and {chars[j].t} differ")
        out.append(AlgebraElement(spec, row, spec.order))
    return out


def element_blocks(elements: list[AlgebraElement], size: int):
    """The elements as the blocks verify.certify_idempotents reads: a
    stack of the numerators of up to size elements, and their dens."""
    return [
        (np.stack([e.nums for e in part]), [e.den for e in part])
        for part in (elements[i : i + size] for i in range(0, len(elements), size))
    ]


def certify_idempotents(
    elements: list[AlgebraElement], total: AlgebraElement
) -> tuple[list[int], bool]:
    """verify.certify_idempotents on elements and their sum total, given:
    the elements and the sum tested as one stack of rows."""
    ok = squares_to_rows(
        [e.nums for e in elements] + [total.nums],
        [e.den for e in elements] + [total.den],
        total.spec.factor_orders,
    )
    bad = np.flatnonzero(~ok[:-1]).tolist()
    return bad, not bad and bool(ok[-1])


def records(on: GroupSpec, spec: AbelianGroupSpec, diagrams) -> list[AlgebraElement]:
    """The records verify reads (verify.record_blocks), one element each,
    as elements of Q[on], a group with the same enumeration."""
    return [
        AlgebraElement(on, nums, den)
        for block in verify.record_blocks(spec, diagrams)
        for nums, den in zip(block.nums, block.dens)
    ]


def run_checks(spec: AbelianGroupSpec, alternate_order: bool) -> list[Check]:
    """verify.run_checks with one element per record: the certificate on
    the elements and their lattice_sum, every set comparison by
    compare_pci_sets, and the oracle one character at a time.  The checks
    of the diagram's vertices, the census and the splitting field are
    verify's own."""
    checks: list[Check] = []

    def check(name: str, ok: bool, detail: str | None = None):
        checks.append(Check(name, ok, detail))

    diagrams = verify.part_diagrams(spec)
    elements = records(spec, spec, diagrams)
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
    oracle = oracle_pci_set(spec)
    cmp = compare_pci_sets(elements, oracle)
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
    failures = verify.vertex_kernel_failures(vertices)
    check(
        "vertex_kernels",
        not failures,
        f"failures: {failures[:3]}"
        if failures
        else f"{len(vertices)} vertices checked (full)",
    )
    for part, diag in zip(spec.parts, diagrams):
        profile = wedderburn_profile(part)
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
        closed = verify.cyclic_rational_pcis(part.p, n)
        leaves = [AlgebraElement(part, e.nums, e.den) for e in elements]
        check(
            "cyclic_closed_form",
            len(closed) == n + 1 and compare_pci_sets(closed, leaves).equal,
            f"{n + 1} idempotents",
        )
        if part.order <= verify.SPLIT_CHECK_LIMIT:
            sound = verify._splitting_field_coherent(part, closed)
            check("splitting_field_coherence", sound, f"modulus {part.order}")
    if alternate_order:
        alternate = records(spec, spec, verify.part_diagrams(spec, alternate_order=True))
        check("alternate_order_soundness", compare_pci_sets(alternate, oracle).equal)
    return checks


def vertex_kernel_failures(
    vertices: list[tuple[PrimaryGroupSpec, PciVertex]],
) -> list[tuple[int, int, int, str]]:
    """(p, level, index, what) for each (part, vertex) whose kernel
    generators do not span a subgroup of the recorded order ("size"), or
    span one that is not the stabiliser of the vertex's expansion
    ("kernel").  A primed element inside the span raises InvariantError,
    as the expansion does not exist."""
    failures = []
    for part, v in vertices:
        tracked = subgroup_closure(part, v.form.kernel_gens)
        if len(tracked) != v.kernel_order:
            failures.append((part.p, v.level, v.index, "size"))
            continue
        # the kernel of the expansion, read off its numerators: scaling by
        # the denominator does not change which translations fix it
        nums, _ = expansion_numerators(part, tracked, v.form.primed)
        if not np.array_equal(fixing_subgroup(part, nums), tracked):
            failures.append((part.p, v.level, v.index, "kernel"))
    return failures


def _root_average_factor(
    spec: PrimaryGroupSpec, m: int, g: GroupElement, root_exp: int
) -> CycloAlgebraElement:
    """(1/p) * sum over c < p of (zeta^root_exp * g)^c."""
    p = spec.p
    nums = np.zeros(spec.order * m, dtype=np.int64)
    w = identity(spec)
    e = 0
    for _ in range(p):
        nums[element_index(w) * m + e] += 1
        w = w * g
        e = (e + root_exp) % m
    return CycloAlgebraElement(spec, m, nums, p)


def extension_children(
    eta: CycloAlgebraElement, top_gen: GroupElement
) -> list[CycloAlgebraElement]:
    """diagram.extension_children by products: eta times each of the p
    root-twisted averages of top_gen, eta's root exponent found by
    comparing its attached coefficient with each zeta^e, e divisible by p."""
    spec, m = eta.spec, eta.m
    p = spec.p
    if top_gen.spec != spec or element_order(top_gen) != spec.order:
        raise InvariantError("top generator must generate the whole group")
    if spec.order == p:
        if eta != CycloAlgebraElement.one(spec, m):
            raise InvariantError("the only level-0 idempotent is the identity")
        root_exp = 0
    else:
        attached = spec.order // p * eta.cyclo_coeff(element_index(top_gen**p))
        matches = [e for e in range(0, m, p) if CycloNumber.zeta(m, e) == attached]
        if len(matches) != 1:
            raise InvariantError("input is not a lifted splitting idempotent")
        root_exp = matches[0] // p
    step = m // p
    return [
        eta * _root_average_factor(spec, m, top_gen, (root_exp + i * step) % m)
        for i in range(p)
    ]


def splitting_field_coherent(
    part: PrimaryGroupSpec, closed: list[AlgebraElement]
) -> bool:
    """The verdict of verify's splitting_field_coherence check, one element
    at a time: every splitting idempotent squares to itself (squares_to on
    its lattice, else the product compared reduced), they sum to 1, their
    Galois collapse is the closed form `closed`, and the extension children
    of the level below are the same elements equally often.  A level below
    that extension_children refuses, or an orbit sum that is not rational,
    fails it."""
    p, n, m = part.p, part.classes[0][0], part.order
    splitting = splitting_field_pcis(p, n)
    if not all(
        squares_to(e.nums, e.den, e.lattice_orders) or e * e == e for e in splitting
    ):
        return False
    if lattice_sum(splitting) != CycloAlgebraElement.one(part, m):
        return False
    gen = GroupElement(part, (1,))
    try:
        collapsed = galois_orbit_collapse(splitting, m)
        children = [
            child
            for eta in splitting_field_pcis(p, n - 1)
            for child in extension_children(lift_into_extension(eta), gen)
        ]
    except (InconsistencyError, InvariantError):
        return False
    return compare_pci_sets(collapsed, closed).equal and Counter(children) == Counter(
        splitting
    )

"""The checks behind ``pcikit verify``: the certificate that the engine's
idempotents are the primitive central idempotents of Q[G] and that the
Wedderburn component counts agree with the element-order census.

``run_checks`` returns one Check per check, in a fixed order; rendering
them is the CLI's job.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .algebra import AlgebraElement, exact_sum, lowest_terms
from .cyclotomic import CycloAlgebraElement, reduce_rows
from .diagram import (
    PciVertex,
    RecordBlock,
    cyclic_rational_pcis,
    extension_children,
    galois_orbit_collapse,
    galois_orbit_sums,
    lift_into_extension,
    part_diagrams,
    record_blocks,
    splitting_field_pcis,
)
from .groups import (
    AbelianGroupSpec,
    GroupElement,
    PrimaryGroupSpec,
    enumeration,
    subgroup_closure,
)
from . import kernels
from .errors import InconsistencyError, InvariantError
from .kernels import int_array, squares_to_rows
from .oracle import (
    PciSetComparison,
    RowSet,
    compare_pci_sets,
    oracle_rows,
    wedderburn_profile,
)

SPLIT_CHECK_LIMIT = 64  # largest cyclic group whose splitting field is checked


@dataclass(frozen=True)
class Check:
    """One check's result; detail is a short note for the report, or None."""

    name: str
    ok: bool
    detail: str | None = None


def certify_idempotents(
    blocks: Iterable[tuple[np.ndarray, list[int]]], orders: tuple[int, ...]
) -> tuple[list[int], bool, tuple[np.ndarray, int]]:
    """For the rows x/den of blocks of (numerators, one den per row) over
    the group with these cyclic factor orders: the indices of the rows
    that are not idempotent, whether the rows are idempotents with
    e_i e_j = 0 for all i != j, and their sum in lowest terms.  Each block
    is tested as one stack of rows (see kernels.squares_to_rows) and summed
    by denominator (see algebra.exact_sum) as it passes; the sum of those
    sums is tested last, as one more row.

    Q[G] is commutative and semisimple, so its complex characters are ring
    homomorphisms that together separate elements.  Each maps every
    idempotent e_i to 0 or 1, so it maps total to the number of e_i it
    sends to 1.  So total is idempotent iff no character sends two e_i to 1,
    that is iff e_i e_j = 0 for all i != j."""
    bad, start, sums = [], 0, []
    for nums, dens in blocks:
        ok = squares_to_rows(nums, dens, orders)
        bad += (start + np.flatnonzero(~ok)).tolist()
        start += len(dens)
        sums.append(exact_sum(list(zip(nums, dens))))
    total, den = lowest_terms(*exact_sum(sums))
    orthogonal = not bad and bool(squares_to_rows(total[None], [den], orders)[0])
    return bad, orthogonal, (total, den)


def collapse_matches_closed_form(
    splitting: list[CycloAlgebraElement], m: int, closed: list[AlgebraElement]
) -> tuple[list[AlgebraElement], bool]:
    """The Galois-orbit collapse of the splitting-field idempotents of C_m,
    and whether it equals the closed-form rational set `closed`."""
    collapsed = galois_orbit_collapse(splitting, m)
    return collapsed, compare_pci_sets(collapsed, closed).equal


def _looked_up(blocks: Iterable[RecordBlock], sets: list[RowSet], found: list[list]):
    """The (numerators, dens) of each record block, each row looked up in
    every set on the way (see RowSet.find): found[k] gets set k's result
    for each block in turn."""
    for block in blocks:
        for rows, hits in zip(sets, found):
            hits.append(rows.find(block.nums, block.dens))
        yield block.nums, block.dens


def _compare(rows: RowSet, found: list, on, spec, diagrams) -> PciSetComparison:
    """The records of Q[spec] from diagrams, whose lookups in rows gave
    found, and rows, compared as multisets of elements of Q[on] (a group
    with spec's enumeration): equal when they match row for row (see
    RowSet.matched); otherwise compare_pci_sets on one element per record
    (left) and per row, which decides and finds the witness."""
    if rows.matched(found):
        return PciSetComparison(True)
    records = [
        AlgebraElement(on, nums, den)
        for block in record_blocks(spec, diagrams)
        for nums, den in zip(block.nums, block.dens)
    ]
    return compare_pci_sets(records, rows.elements(on))


def run_checks(spec: AbelianGroupSpec, alternate_order: bool) -> list[Check]:
    """Every check of the engine's result for spec, in report order; each
    covers every idempotent, every pair of them and every diagram vertex.

    The records are read block by block (diagram.record_blocks) in one
    pass that certifies them and looks each row up in the oracle's rows,
    and, for a cyclic group, in the closed form's; no element is built
    per record unless a comparison fails and needs its witness."""
    checks: list[Check] = []

    def check(name: str, ok: bool, detail: str | None = None):
        checks.append(Check(name, ok, detail))

    diagrams = part_diagrams(spec)
    oracle = oracle_rows(spec)
    sets = [oracle]
    cyclic = len(spec.factor_orders) == 1
    if cyclic:
        part = spec.parts[0]
        n = part.classes[0][0]
        closed = cyclic_rational_pcis(part.p, n)
        over = [e.nums * (part.order // e.den) for e in closed]  # all over |G|
        sets.append(RowSet(np.stack(over), part.order))
    found = [[] for _ in sets]
    bad, orthogonal, (total, den) = certify_idempotents(
        _looked_up(record_blocks(spec, diagrams), sets, found), spec.factor_orders
    )
    count = sum(map(len, found[0]))
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
    is_one = den == 1 and total[0] == 1 and not total[1:].any()
    check("engine_sum_to_identity", bool(is_one))

    cmp = _compare(oracle, found[0], spec, spec, diagrams)
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

    if cyclic:
        # the records of a cyclic group, re-homed onto its one part
        same = _compare(sets[1], found[1], part, spec, diagrams).equal
        check(
            "cyclic_closed_form", len(closed) == n + 1 and same, f"{n + 1} idempotents"
        )
        if part.order <= SPLIT_CHECK_LIMIT:
            sound = _splitting_field_coherent(part, closed)
            check("splitting_field_coherence", sound, f"modulus {part.order}")

    if alternate_order:
        alternate = part_diagrams(spec, alternate_order=True)
        hits = [oracle.find(b.nums, b.dens) for b in record_blocks(spec, alternate)]
        same = _compare(oracle, hits, spec, spec, alternate).equal
        check("alternate_order_soundness", same)
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
    level is checked in one array pass over the previous level's spans
    (see _part_failures); only two levels of spans are held at once."""
    failures = []
    for part, run in itertools.groupby(vertices, lambda pv: pv[0]):
        failures += _part_failures(part, [v for _, v in run])
    return failures


def _part_failures(part, run):
    """vertex_kernel_failures for the vertices run of one part.  Each
    generator tuple, keyed by its element indices, is looked up among the
    previous level's (first, the empty tuple's): a vertex whose tuple is a
    held one, or one plus g, has that vertex's span S, or <S, g> (see
    _level_pass; g is the identity for the former).  A tuple with no held
    prefix, and so each of its children, is closed from scratch."""
    enum, n = enumeration(part.factor_orders), part.order
    # index each element object once, keyed by id (unique while run holds
    # them all): a vertex's generators are mostly its parent's objects
    forms = [v.form for v in run]
    found = {id(g): g for f in forms for g in (*f.kernel_gens, f.primed) if g is not None}
    exps = np.array([g.exps for g in found.values()], dtype=np.int64)
    exps = exps.reshape(len(found), len(enum.orders))
    at = dict(zip(found, (exps @ enum.strides).tolist()))  # element indices
    keys = [tuple([at[id(g)] for g in f.kernel_gens]) for f in forms]
    z = [-1 if f.primed is None else at[id(f.primed)] for f in forms]
    cuts = [i for i in range(1, len(run)) if run[i].level != run[i - 1].level]
    levels = list(zip([0, *cuts], [*cuts, len(run)]))  # each level's (lo, hi)
    held, base, step, fresh = {(): 0}, [], [], {}
    for lo, hi in levels:
        for i in range(lo, hi):
            key = keys[i]
            grows = key not in held
            if grows and key[:-1] not in held:  # no held prefix
                fresh[i] = subgroup_closure(part, forms[i].kernel_gens)
            base.append(held.get(key[:-1] if grows else key, 0))
            step.append(key[-1] if grows and i not in fresh else 0)  # 0: the identity
        held = {keys[i]: i - lo for i in range(lo, hi) if i not in fresh}
    recorded = [v.kernel_order for v in run]
    base, step, z, recorded = np.array((base, step, z, recorded), dtype=np.int64)
    orders = (enum.mods // np.gcd(enum.digits[step], enum.mods)).max(axis=1, initial=1)
    sizes, inside = np.empty_like(base), np.empty(len(run), dtype=bool)
    rows, held_sizes = np.eye(1, n, dtype=bool), np.ones(1, dtype=np.int64)
    for lo, hi in levels:
        grow = run[lo].level < part.num_generators  # no level follows the leaves
        k, inside[lo:hi], rows = _level_pass(
            enum, rows, base[lo:hi], step[lo:hi], orders[lo:hi], z[lo:hi], grow
        )
        held_sizes = sizes[lo:hi] = held_sizes[base[lo:hi]] * k
    for i, span in fresh.items():
        sizes[i], inside[i] = len(span), z[i] in span
    wrong_size = sizes != recorded
    bad = wrong_size | ((z >= 0) & inside)
    return [
        (part.p, run[i].level, run[i].index, "size" if wrong_size[i] else "kernel")
        for i in np.flatnonzero(bad).tolist()
    ]


def _level_pass(enum, rows, base, g, orders, z, grow):
    """For spans <S, g> with S = rows[base] and ord(g) = orders: the index
    k of each S in <S, g>, whether z lies in <S, g> (for z >= 0), and, if
    grow, the rows of the spans.

    Both are read off S's row by gathers over c = 1 ... ord(g), for the
    vertices of one order at a time: k is the least c such that c g lies
    in S, and z lies in <S, g> exactly when z - c g lies in S for some
    c < k (a larger c adds nothing: S + c g lies in <S, g>).  If grow, a
    span's row is grown from S by the coset union R <- R u (R + 2^j g),
    j = 0, 1, ..., until 2^j reaches the largest k of its block.  Each
    block holds at most kernels._BLOCK_CELLS cells."""
    n = rows.shape[1]
    cells, at_row = rows.reshape(-1), base * n  # S's row starts at cell at_row
    k, inside = np.ones_like(g), cells[at_row + z]  # as for ord(g) = 1
    spans = rows[base] if grow else None
    for o in set(orders.tolist()) - {1}:
        which = np.flatnonzero(orders == o)
        per_block = max(1, kernels._BLOCK_CELLS // (n if grow else o * len(enum.orders)))
        for start in range(0, len(which), per_block):
            at = which[start : start + per_block]
            c, s = np.arange(o + 1), at_row[at, None]
            cg = enum.power(g[at, None], c[:, None])  # c g, for c = 0 ... o
            k[at] = cells[s + cg[:, 1:]].argmax(axis=1) + 1
            c = c[: k[at].max()]
            shifted = enum.product(z[at, None], enum.inverse[cg[:, c]])  # z - c g
            inside[at] = cells[s + shifted].any(axis=1)
            if grow:
                block = spans[at]
                grown = block.reshape(-1)
                for j in range(int(c[-1]).bit_length()):
                    members = np.flatnonzero(grown)  # r n + x for x in row r's span
                    x = members % n
                    grown[members - x + enum.product(x, cg[members // n, 2**j])] = True
                spans[at] = block
    return k, inside, spans


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

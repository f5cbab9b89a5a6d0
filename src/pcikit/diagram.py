"""Inductive construction of the primitive central idempotents of Q[G].

Along a composition chain G_0 < G_1 < ... < G_N (one new chain generator
per step), the idempotent set of each level refines the previous one:

* the trivial idempotent (full subgroup average) splits into the new
  average and its complement;
* a nontrivial idempotent with kernel K and primed element z persists
  unchanged when the quotient G_{l+1}/K stays cyclic, which happens exactly
  when no element of the new coset u*G_l has its p-th power inside K;
* otherwise any such coset element w gives the p enlarged kernels
  <K, z^i * w> (w = u itself whenever u^p lies in K, which covers every
  split in elementary abelian and cyclic chains), and the vertex splits
  into those p children, keeping the same primed element.

Leaves at the last level are the complete set of primitive central
idempotents of Q[G].  The same chain refines over Q(zeta_m), where every
level splits into p one-dimensional components; summing those over Galois
orbits collapses back to the rational set.

A vertex is given by its parent, the one kernel generator it adds to its
parent's (or none), its primed element, its kernel order and its field
index, so the diagram holds each level as those int64 columns (see
DiagramLevel) and nothing per vertex.  The vertex objects (PciVertex) and
the edges are views of the columns, built on first access.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, FactoredIdempotent, exact_sum, expand_factored
from . import cyclotomic, kernels
from .cyclotomic import CycloAlgebraElement, reduce_rows
from .errors import (
    GroupSpecError,
    InconsistencyError,
    InvariantError,
    SpecMismatchError,
)
from .groups import (
    AbelianGroupSpec,
    Enumeration,
    GroupElement,
    LongGenerator,
    PrimaryGroupSpec,
    element_index,
    element_order,
    embed_generator,
    enumeration,
    long_generator_sequence,
)
from .kernels import max_abs
from .numtheory import euler_phi


@dataclass(frozen=True)
class PciVertex:
    """One idempotent of Q[G_level]: a factored form plus tracked kernel
    size and the index r of the component field Q(zeta_{p^r})."""

    level: int
    index: int
    form: FactoredIdempotent
    trivial: bool
    kernel_order: int
    field_index: int

    def expansion(self) -> AlgebraElement:
        return expand_factored(self.form)


class DiagramLevel(NamedTuple):
    """The vertices of one diagram level as int64 columns, one entry per
    vertex in index order; vertex 0 is the trivial one.  A vertex's kernel
    generators are its parent's, then added when that is an element."""

    parent: np.ndarray  # its index in the level above; -1 for the root
    kernel_order: np.ndarray
    field_index: np.ndarray
    primed: np.ndarray  # element index of the primed element; -1 for none
    added: np.ndarray  # element index of the generator it adds; -1 for none


@dataclass(frozen=True, eq=False)
class PciDiagram:
    """Leveled refinement graph of idempotents along a composition chain.
    Holding arrays, a diagram compares by identity: compare its levels."""

    spec: PrimaryGroupSpec
    generators: tuple[GroupElement, ...]
    generator_labels: tuple[LongGenerator, ...]
    columns: tuple[DiagramLevel, ...]
    # Row g: the digits c_i < p with element g = prod generators[i]^c_i.
    chain_digits: np.ndarray
    # Row i - 1 for each nontrivial leaf i (leaf 0 is the trivial one): the
    # character of G whose kernel is the leaf's kernel, by its values on the
    # generators (see build_pci_diagram).
    characters: np.ndarray

    @functools.cached_property
    def levels(self) -> tuple[tuple[PciVertex, ...], ...]:
        """The vertices of each level as objects, read off the columns."""
        element = element_names(self, lambda exps: GroupElement(self.spec, tuple(exps)))
        levels, gens = [], [()]
        for l, level in enumerate(self.columns):
            vertices = []
            for i, (parent, k, f, z, g) in enumerate(zip(*(c.tolist() for c in level))):
                kernel_gens = gens[max(parent, 0)] + ((element[g],) if g >= 0 else ())
                form = FactoredIdempotent(self.spec, kernel_gens, element.get(z))
                vertices.append(PciVertex(l, i, form, i == 0, k, f))
            levels.append(tuple(vertices))
            gens = [v.form.kernel_gens for v in vertices]
        return tuple(levels)

    @functools.cached_property
    def edges(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """((l, parent), (l + 1, child)) for each vertex below the root."""
        return tuple(
            ((l, parent), (l + 1, i))
            for l, level in enumerate(self.columns[1:])
            for i, parent in enumerate(level.parent.tolist())
        )

    @property
    def leaves(self) -> tuple[PciVertex, ...]:
        return self.levels[-1]

    def leaf_rows(self, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The expansions of the leaves at the indices in the int array
        leaves (any order, repeats allowed): a (len(leaves) x |G|) int64
        array of numerators and an int64 array of one denominator per row,
        not in lowest terms, as algebra.expansion_numerators gives them.
        They are read off the leaves' characters by one product: phi(g) mod
        E = exp G over the enumeration of G is the chain digits of g times
        phi's values on the chain generators, so a row that is not a
        character shows in the result.  A digit is below p and a value below
        E <= |G|, so with N generators each sum is below p*E*N.  With z the
        primed element, phi(z) = E/p, so K = {phi = 0} and <K, z> = {phi in
        (E/p)Z}: the numerators over p|K| are p on K minus 1 on <K, z>.
        Leaf 0, the trivial one, is 1 everywhere over |G|."""
        spec, p, exponent = self.spec, self.spec.p, self.spec.exponent
        nums = np.empty((len(leaves), spec.order), dtype=np.int64)
        dens = self.columns[-1].kernel_order[leaves] * p
        if len(self.characters):  # else G is trivial and its one leaf is 0
            numerator = np.zeros(exponent, dtype=np.int64)  # by the value of phi
            numerator[:: exponent // p] = -1
            numerator[0] = p - 1
            # row i - 1 of characters is leaf i's; leaf 0's row is set below
            phi = self.characters.take(leaves - 1, axis=0) @ self.chain_digits.T
            phi %= exponent
            # phi indexes numerator, so "clip" changes nothing; numpy's
            # default mode takes about twice as long
            numerator.take(phi, out=nums, mode="clip")
        if np.count_nonzero(leaves) < len(leaves):
            trivial = leaves == 0
            nums[trivial] = 1
            dens[trivial] = spec.order
        return nums, dens

    def leaf_expansions(self) -> list[AlgebraElement]:
        """Each leaf's expansion: the rows of leaf_rows as elements."""
        nums, dens = self.leaf_rows(np.arange(len(self.columns[-1].parent)))
        return [AlgebraElement(self.spec, row, den) for row, den in zip(nums, dens.tolist())]

    def level_sizes(self) -> list[int]:
        return [len(level.parent) for level in self.columns]


def cyclic_group_spec(p: int, n: int) -> PrimaryGroupSpec:
    """The cyclic group of order p^n (trivial for n = 0)."""
    if n < 0:
        raise GroupSpecError(f"negative exponent {n}")
    return PrimaryGroupSpec(p, ((n, 1),) if n >= 1 else ())


def _validate_generator_order(spec: PrimaryGroupSpec, labels: Sequence[LongGenerator]):
    canonical = long_generator_sequence(spec)
    if sorted(labels, key=lambda g: (g.place, g.power)) != sorted(
        canonical, key=lambda g: (g.place, g.power)
    ):
        raise GroupSpecError("generator order is not a permutation of the chain generators")
    # Power-monotone per factor: each new generator's p-th power must already
    # be available, otherwise the refinement steps are not defined.
    depth: dict[tuple[int, int], int] = {}
    for g in labels:
        if depth.get(g.place, 0) != g.power - 1:
            raise GroupSpecError("generator order is not power-monotone per factor")
        depth[g.place] = g.power


def alternate_generator_labels(spec: PrimaryGroupSpec) -> list[LongGenerator]:
    """A non-canonical but power-monotone chain order: exponent classes
    ascending and copies ascending."""
    out = []
    for r, l in reversed(spec.classes):
        for j in range(1, l + 1):
            for a in range(1, r + 1):
                out.append(LongGenerator((r, j), a))
    return out


def _chain_digits(spec: PrimaryGroupSpec, gens: Sequence[GroupElement]) -> np.ndarray:
    """Row g holds the digits c_i < p with element g = prod gens[i]^c_i,
    for gens in a power-monotone chain order; so the level G_l is where the
    digits from l on are zero.  The generators of one cyclic factor add
    distinct base-p digits to its exponent, so the index of such a product
    is the sum of c_i * index(gens[i]).  Raises InconsistencyError when the
    products do not cover G."""
    p = spec.p
    t = np.arange(spec.order, dtype=np.int64)
    digits = t[:, None] // p ** np.arange(len(gens), dtype=np.int64)
    np.remainder(digits, p, out=digits)
    chain = digits @ np.array([element_index(g) for g in gens], dtype=np.int64)
    covered = np.zeros(spec.order, dtype=bool)
    covered[chain] = True
    if not covered.all():
        raise InconsistencyError("chain generator does not extend the subgroup")
    by_index = np.empty_like(digits)
    by_index[chain] = digits
    by_index.setflags(write=False)
    return by_index


def _split_witnesses(
    u: int,
    up: np.ndarray,
    rows: np.ndarray,
    digits: np.ndarray,
    p: int,
    exponent: int,
) -> tuple[np.ndarray, np.ndarray]:
    """For each row phi of rows (the values of the character of a vertex
    of level l that splits on the l generators of G_l, with up its value
    phi(u^p), u the index of the next chain generator) the index of an
    element w = u*g of the coset u*G_l with w^p in K = ker phi, and phi(g).

    w^p = u^p g^p lies in K exactly when p*phi(g) + phi(u^p) = 0 mod exp G.
    w := u (g = 1) when u^p lies in K, else the first hit scanning g over
    G_l in index order, as the per-vertex build does, for reproducible
    output.  G_l is where the chain digits (digits, see _chain_digits) from
    l on are zero, and u adds digit l, so u*g has index u + index(g).  The
    (|G_l| x rows) table of that test is formed for the rows that scan in
    pieces of at most kernels._BLOCK_CELLS cells (and at least one row)."""
    witnesses = np.full(len(rows), u, dtype=np.int64)
    phi_g = np.zeros(len(rows), dtype=np.int64)
    scan, l = up.nonzero()[0], rows.shape[1]
    if not scan.size:
        return witnesses, phi_g
    level = np.flatnonzero(~digits[:, l:].any(axis=1))  # G_l, of order p^l
    step = max(1, kernels._BLOCK_CELLS // p**l)
    for start in range(0, scan.size, step):
        at = scan[start : start + step]
        phi = digits[level, :l] @ rows[at].T
        phi %= exponent
        hits = (p * phi + up[at]) % exponent == 0
        first = hits.argmax(axis=0)
        cols = np.arange(at.size)
        if not hits[first, cols].all():
            raise InconsistencyError("no coset witness despite a non-cyclic quotient")
        witnesses[at] = u + level[first]
        phi_g[at] = phi[first, cols]
    return witnesses, phi_g


def build_pci_diagram(
    spec: PrimaryGroupSpec,
    generator_labels: Sequence[LongGenerator] | None = None,
) -> PciDiagram:
    """Build the full refinement diagram for an abelian p-group.

    The leaves are the complete primitive central idempotent set of Q[G].
    A subgroup K with G_l/K cyclic is the kernel of a character phi of G_l
    into Z/E, E = exp G, and a nontrivial vertex of level l is held as one
    int64 row: phi's values mod E on the chain generators (0 on those
    outside G_l), scaled so that phi(z) = E/p for its primed element z.
    Each level is one batch over all its vertices (see _next_level), kept
    as the columns of a DiagramLevel.
    """
    if generator_labels is None:
        labels = long_generator_sequence(spec)
    else:
        labels = list(generator_labels)
        _validate_generator_order(spec, labels)
    gens = [embed_generator(spec, lab) for lab in labels]
    digits = _chain_digits(spec, gens)
    enum = enumeration(spec.factor_orders)
    column = {lab: i for i, lab in enumerate(labels)}
    # the column of each generator's p-th power, the generator below it in
    # its factor, or None when that power is the identity
    below = [column.get(LongGenerator(lab.place, lab.power - 1)) for lab in labels]

    levels = [DiagramLevel(*np.array([[-1], [1], [0], [-1], [-1]]))]  # the root
    # the character row of each nontrivial vertex of the current level
    rows = np.zeros((0, len(gens)), dtype=np.int64)
    for l in range(len(gens)):
        level, rows = _next_level(l, gens[l], below[l], levels[l], rows, digits, enum)
        levels.append(level)
    return PciDiagram(spec, tuple(gens), tuple(labels), tuple(levels), digits, rows)


def _next_level(
    l: int,
    gen: GroupElement,
    below: int | None,
    current: DiagramLevel,
    rows: np.ndarray,
    digits: np.ndarray,
    enum: Enumeration,
) -> tuple[DiagramLevel, np.ndarray]:
    """Level l+1 of the diagram from level l (current, with the character
    row of each nontrivial vertex): its columns and its rows.  gen is the
    chain generator gens[l], u its index and below the column of u^p."""
    spec, u = gen.spec, element_index(gen)
    p, exponent = spec.p, spec.exponent
    up = rows[:, below] if below is not None else np.zeros(len(rows), dtype=np.int64)
    # |G_l/K| = p^field_index; the vertex splits when u^|G_l/K| lies in K
    split = p ** current.field_index[1:] // p * up % exponent == 0
    if (up[~split] % p).any():
        raise InconsistencyError("phi(u^p) of a carried vertex is not divisible by p")
    witnesses, phi_g = _split_witnesses(u, up[split], rows[split, :l], digits, p, exponent)
    counts = np.where(split, p, 1)
    # phi on G_{l+1} keeps phi on G_l: a carried vertex takes phi(u) =
    # phi(u^p)/p, split child i takes phi(u) = -(i*E/p + phi(g)), so that
    # phi(z^i w) = 0 for w = u*g
    grown = np.repeat(up // p, counts)
    starts = (np.cumsum(counts) - counts)[split]
    children = starts[:, None] + np.arange(p)
    steps = np.arange(p) * (exponent // p)
    grown[children] = -(steps + phi_g[:, None]) % exponent
    next_rows = np.zeros((1 + len(grown), rows.shape[1]), dtype=np.int64)
    next_rows[1:] = np.repeat(rows, counts, axis=0)
    next_rows[1:, l] = grown
    next_rows[0, l] = exponent // p  # the new vertex: kernel G_l, primed u
    # the columns each vertex of level l hands its children: its index,
    # its kernel order (times p for a split), its field index (plus one
    # when carried), its primed element and no added generator.  The
    # trivial vertex has two: the trivial vertex of level l+1 and the new
    # vertex, with kernel G_l and primed u.
    k0 = current.kernel_order[0]
    handed = np.array(current)
    handed[0] = np.arange(len(handed[0]))
    handed[1, 1:] *= counts
    handed[2, 1:] += ~split
    handed[4] = -1
    handed[:, 0] = 0, k0, 1, u, -1
    cols = np.repeat(handed, np.concatenate(([2], counts)), axis=1)
    cols[:, 0] = 0, k0 * p, 0, -1, u
    # the children of a split are the subgroups <K, z^i w>, i < p, each
    # generator read off the digits (no product table)
    z, w = (enum.digits[a][:, None] for a in (current.primed[1:][split], witnesses))
    cols[4, 2:][children] = (z * np.arange(p)[:, None] + w) % enum.mods @ enum.strides
    return DiagramLevel(*cols), next_rows


def cyclic_rational_pcis(p: int, n: int) -> list[AlgebraElement]:
    """Closed-form primitive central idempotents of Q[C_{p^n}]: the full
    average, plus one difference of consecutive chain-subgroup averages per
    chain step (n + 1 idempotents in total)."""
    spec = cyclic_group_spec(p, n)
    if n == 0:
        return [AlgebraElement.one(spec)]
    order = spec.order

    def chain_average(i: int) -> AlgebraElement:
        # Average over the subgroup of order p^i.
        nums = np.zeros(order, dtype=np.int64)
        nums[:: p ** (n - i)] = 1
        return AlgebraElement(spec, nums, p**i)

    return [chain_average(n)] + [
        chain_average(i - 1) - chain_average(i) for i in range(1, n + 1)
    ]


def splitting_field_rows(p: int, n: int) -> np.ndarray:
    """The p^n primitive idempotents of Q(zeta_m)[C_m], m = p^n, from the
    character formula, as one int64 stack of numerators over den m on the
    lattice C_m x C_m (see cyclotomic._CycloLattice): index t carries the
    character sending the group generator x to zeta^t, and row t is
    (1/m) * sum_k zeta^(-t*k) x^k, a 1 at (k, -t*k mod m) for each group
    index k.  extension_rows builds the same set along the chain; verify
    compares the two."""
    m = p**n
    k = np.arange(m)
    rows = np.zeros((m, m * m), dtype=np.int64)
    rows[k[:, None], k * m + (-k[:, None] * k) % m] = 1
    return rows


def splitting_field_blocks(m: int) -> Iterator[tuple[np.ndarray, int]]:
    """The reduced (order x phi(m)) numerator matrices of the rows of
    splitting_field_rows of C_m, as blocks (matrices, den m) of consecutive
    rows of at most min(kernels._BLOCK_CELLS, 2^13) cells (at least one
    row): split formats a block at some 90 bytes a cell, and a larger
    block is no faster.  Row t has one zeta power per group index, so its
    matrix is one gather from the table of reduced powers of zeta: row k
    is cyclotomic._zeta_rows(m)[-t*k]."""
    table = cyclotomic._zeta_rows(m)
    k, step = np.arange(m), max(1, min(kernels._BLOCK_CELLS, 2**13) // table.size)
    for start in range(0, m, step):
        t = np.arange(start, min(m, start + step))
        yield table[(-t[:, None] * k) % m], m


def splitting_field_pcis(p: int, n: int) -> list[CycloAlgebraElement]:
    """The rows of splitting_field_rows as elements of Q(zeta_m)[C_m]."""
    spec = cyclic_group_spec(p, n)
    rows = splitting_field_rows(p, n)
    return [CycloAlgebraElement(spec, spec.order, row, spec.order) for row in rows]


def _cyclic_spec(eta: CycloAlgebraElement) -> PrimaryGroupSpec:
    """eta's group, checked to be a cyclic p-group whose order is eta's modulus."""
    spec = eta.spec
    if not isinstance(spec, PrimaryGroupSpec) or len(spec.factor_orders) > 1:
        raise InvariantError("input must live over a cyclic p-power group")
    if eta.m != spec.order:
        raise SpecMismatchError("modulus must equal the group order")
    return spec


def lifted_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """Rows of numerators on the lattice C_m x C_m reindexed into
    C_pm x C_pm by one index map: the small group embeds as the subgroup of
    p-th powers, and zeta_m becomes the p-th power of the larger root of
    unity, so (g, e) goes to (p g, p e)."""
    m = math.isqrt(rows.shape[1])
    big = m * p
    g, e = np.divmod(np.arange(m * m), m)
    out = np.zeros((len(rows), big * big), dtype=rows.dtype)
    out[:, g * p * big + e * p] = rows
    return out


def lift_into_extension(eta: CycloAlgebraElement) -> CycloAlgebraElement:
    """Reindex a splitting idempotent of C_{p^(n-1)} into C_{p^n} (see
    lifted_rows)."""
    small = _cyclic_spec(eta)
    n_small = small.classes[0][0] if small.classes else 0
    big = cyclic_group_spec(small.p, n_small + 1)
    nums = lifted_rows(eta.nums[None], small.p)[0]
    return CycloAlgebraElement(big, big.order, nums, eta.den)


def extension_rows(rows: np.ndarray, den: int, top_gen: GroupElement) -> np.ndarray:
    """The p idempotents refining each lifted splitting idempotent rows[j]/den
    one level up, as rows j*p ... j*p + p - 1 over den * p.

    The rows are numerators on the lattice C_m x C_m of top_gen's group
    C_m (see lifted_rows); top_gen generates it.  Row j's children
    multiply it by the p root-twisted averages (1/p) sum_{c<p} (zeta^r *
    top_gen)^c whose roots zeta^r are the p-th roots of row j's own top
    root.  That root is found from the coefficient at top_gen^p: times
    |G|/p it must be zeta^e for exactly one e, and only an e divisible by
    p is accepted; its reduced row is compared with those of zeta^0,
    zeta^p, ... from cyclotomic._zeta_rows, each row at once.  For m = p
    every row must be the identity.  Each product adds up p index shifts
    of the row, one gather per term, accumulated in blocks of at most
    kernels._BLOCK_CELLS output cells."""
    m, p = top_gen.spec.order, top_gen.spec.p
    grid = rows.reshape(len(rows), m, m)
    if m == p:
        reduced = reduce_rows(rows, m)
        if (reduced[:, 0] != den).any() or reduced[:, 1:].any():
            raise InvariantError("the only level-0 idempotent is the identity")
        roots = np.zeros(len(rows), dtype=np.int64)
    else:
        # in Python ints when a product may not fit int64
        attached, scale = reduce_rows(grid[:, element_index(top_gen**p)], m), m // p
        powers = cyclotomic._zeta_rows(m)[::p]
        if max(max_abs(attached) * scale, max_abs(powers) * den) >= 2**63:
            attached, powers = attached.astype(object), powers.astype(object)
        matches = (attached[:, None] * scale == powers * den).all(axis=2)
        if (matches.sum(axis=1) != 1).any():
            raise InvariantError("input is not a lifted splitting idempotent")
        roots = matches.argmax(axis=1)
    if max_abs(grid) * p >= 2**63:
        grid = grid.astype(object)
    # child i of row j at (h, z) sums row j at (h - top_gen^c, z - c * r_ji)
    # over c < p, r_ji = roots[j] + i * m / p
    at = np.arange(m)
    moves = [element_index(top_gen**c) for c in range(p)]
    out = np.zeros((len(rows), p, m, m), dtype=grid.dtype)
    step = max(1, kernels._BLOCK_CELLS // out[0].size)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        twist = roots[block, None] + np.arange(p) * (m // p)  # [j, i]
        j = np.arange(len(twist))[:, None, None, None]
        for c, move in enumerate(moves):
            cols = (at - c * twist[..., None]) % m  # [j, i, z]
            shifted = ((at - move) % m)[:, None]  # [h]
            out[block] += grid[block][j, shifted, cols[:, :, None]]
    return out.reshape(len(rows) * p, m * m)


def extension_children(
    eta: CycloAlgebraElement, top_gen: GroupElement
) -> list[CycloAlgebraElement]:
    """The p idempotents refining eta one level up (see extension_rows).
    eta must be a splitting idempotent of the index-p subgroup, already
    lifted into the big group's algebra (see lift_into_extension); top_gen
    is the new chain generator."""
    spec = _cyclic_spec(eta)
    if top_gen.spec != spec or element_order(top_gen) != spec.order:
        raise InvariantError("top generator must generate the whole group")
    rows = extension_rows(eta.nums[None], eta.den, top_gen)
    return [CycloAlgebraElement(spec, eta.m, row, eta.den * spec.p) for row in rows]


def galois_orbits(m: int) -> list[list[int]]:
    """Orbits of Z/m under multiplication by units, sorted by least member."""
    units = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    orbits = []
    seen: set[int] = set()
    for t in range(m):
        if t in seen:
            continue
        orbit = sorted({(k * t) % m for k in units})
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def galois_orbit_collapse(
    splitting: Sequence[CycloAlgebraElement], m: int
) -> list[AlgebraElement]:
    """Sum the splitting idempotents over each unit-multiplication orbit of
    the character index; every sum is rational and the results are exactly
    the rational primitive central idempotents.  The sums are taken on the
    members' reduced matrices (see galois_orbit_sums)."""
    if len(splitting) != m:
        raise InvariantError("need one splitting idempotent per character index")
    spec = splitting[0].spec
    for e in splitting:
        if e.spec != spec or e.m != m:
            raise SpecMismatchError("splitting idempotents of different algebras")
    reduced = [e.reduced() for e in splitting]
    return galois_orbit_sums(spec, m, [(nums[None], den) for den, nums in reduced])


def galois_orbit_sums(
    spec: PrimaryGroupSpec, m: int, blocks: Iterable[tuple[np.ndarray, int]]
) -> list[AlgebraElement]:
    """galois_orbit_collapse on the splitting idempotents' reduced
    coordinates, given as blocks (rows, den) of consecutive character
    indices: rows[i] is the (order x phi(m)) numerator matrix of one
    idempotent, in any shape, over den, not necessarily in lowest terms
    (see cyclotomic.reduce_rows).  Each orbit's members are summed on their
    least common denominator (see algebra.exact_sum) as the blocks pass.
    A sum is rational when every coordinate but the constant one is zero."""
    orbits = galois_orbits(m)
    orbit_of = np.empty(m, dtype=np.int64)
    for i, orbit in enumerate(orbits):
        orbit_of[orbit] = i
    sums: list[list] = [[] for _ in orbits]
    start = 0
    for rows, den in blocks:
        rows = rows.reshape(len(rows), -1)
        which = orbit_of[start : start + len(rows)]
        for i in set(which.tolist()):
            sums[i] = [exact_sum(sums[i] + [(row, den) for row in rows[which == i]])]
        start += len(rows)
    out = []
    for orbit, [(total, den)] in zip(orbits, sums):
        total = total.reshape(spec.order, euler_phi(m))
        if total[:, 1:].any():
            raise InconsistencyError(f"orbit {orbit} does not sum to a rational element")
        out.append(AlgebraElement(spec, total[:, 0], den))
    return out


class PciRecord(NamedTuple):
    """A primitive central idempotent of Q[spec], nums/den with nums an int64
    array (an object array when a value does not fit) and den not always in
    lowest terms, with its bookkeeping.  Holding an array, a record has no
    value equality or hash: compare the elements."""

    spec: AbelianGroupSpec | PrimaryGroupSpec
    nums: np.ndarray
    den: int
    kernel_order: int
    quotient_order: int

    @property
    def element(self) -> AlgebraElement:
        """The idempotent in lowest terms, built anew on each access."""
        return AlgebraElement(self.spec, self.nums, self.den)


def _tensor_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Row i of the result is the tensor product of row i of each part's
    (rows x |P|) numerator block (parts occupy disjoint factor blocks, the
    last part's fastest): one broadcast multiply per part after the first,
    so one part is its own block.  It is formed in int64 when every block
    is int64 and the product of their largest |numerator| fits, and on
    Python ints otherwise."""
    nums, *rest = rows or [np.ones((1, 1), dtype=np.int64)]  # the empty product
    # a zero top makes the bound 0 even when another block is an object one
    objects = any(block.dtype == object for block in rows)
    if rest and (objects or math.prod(max_abs(block) for block in rows) >= 2**63):
        nums = nums.astype(object)
    for block in rest:
        nums = (nums[:, :, None] * block[:, None, :]).reshape(len(nums), -1)
    return nums


def cross_prime_product(
    spec: AbelianGroupSpec, per_part_sets: Sequence[Sequence[AlgebraElement]]
) -> list[AlgebraElement]:
    """All products of one idempotent per primary part, in
    itertools.product order, lifted to Q[G]: the tensor products of the
    per-part coefficient vectors (see _tensor_rows)."""
    if len(per_part_sets) != len(spec.parts):
        raise SpecMismatchError("need one idempotent set per primary part")
    for part, pcis in zip(spec.parts, per_part_sets):
        for e in pcis:
            if e.spec != part:
                raise SpecMismatchError("idempotent does not match its primary part")
    combos = list(itertools.product(*per_part_sets))
    if not combos:
        return []
    rows = [np.stack([combo[i].nums for combo in combos]) for i in range(len(spec.parts))]
    return [
        AlgebraElement(spec, nums, math.prod(e.den for e in combo))
        for nums, combo in zip(_tensor_rows(rows), combos)
    ]


def part_diagrams(spec, alternate_order: bool = False) -> list[PciDiagram]:
    """The diagram of each primary part of spec, in order; a primary group
    is its own one part."""
    parts = (spec,) if isinstance(spec, PrimaryGroupSpec) else spec.parts
    return [
        build_pci_diagram(
            part, alternate_generator_labels(part) if alternate_order else None
        )
        for part in parts
    ]


class RecordBlock(NamedTuple):
    """The records of Q[spec] with indices start, start + 1, ... (see
    record_blocks): their numerators as one (rows x |G|) array (int64, or
    object when a value does not fit), one denominator per row (not always
    in lowest terms), and each record's kernel order and quotient order."""

    start: int
    nums: np.ndarray
    dens: list[int]
    kernel_orders: list[int]
    quotient_orders: list[int]


def record_blocks(spec, diagrams: Sequence[PciDiagram]) -> Iterator[RecordBlock]:
    """The records of Q[spec] from already-built diagrams, one per primary
    part of spec in order, in blocks of at most kernels._BLOCK_CELLS
    entries (and at least one record).  Record r is the product of one leaf
    per part, last part fastest: its numerators are the tensor product of
    the leaves' rows (see PciDiagram.leaf_rows and _tensor_rows), and its
    den, kernel order and quotient order are the products of theirs.  A
    p-group is its one part, and the trivial group, with none, has the one
    record 1."""
    counts = [len(d.columns[-1].parent) for d in diagrams]
    total, step = math.prod(counts), max(1, kernels._BLOCK_CELLS // spec.order)
    # a leaf's den (|P|, or p|K| with K of index p or more), kernel order
    # and quotient order are at most |P|, so a record's are at most |G|,
    # below 2^63 in every block: a block has |G| columns
    for start in range(0, total, step):
        records = np.arange(start, min(start + step, total))
        # each part's leaf in each record; the leading axis of length 1
        # lets the trivial group's empty shape through
        picks = np.unravel_index(records, [1, *counts])[1:]
        rows, values = [], np.ones((3, len(records)), dtype=np.int64)
        for d, pick in zip(diagrams, picks):
            nums, dens = d.leaf_rows(pick)
            rows.append(nums)
            leaf = d.columns[-1]
            values *= dens, leaf.kernel_order[pick], d.spec.p ** leaf.field_index[pick]
        yield RecordBlock(start, _tensor_rows(rows), *values.tolist())


def pci_records(spec, alternate_order: bool = False) -> list[PciRecord]:
    """The primitive central idempotents of Q[spec] with their bookkeeping:
    the rows of record_blocks, from the diagram of each primary part.

    >>> from pcikit import parse_group_spec
    >>> *_, rec = pci_records(parse_group_spec("2:[2,1]"))
    >>> rec.element.to_strings(), rec.kernel_order, rec.quotient_order, rec.den
    (['1/4', '-1/4', '0/1', '0/1', '-1/4', '1/4', '0/1', '0/1'], 2, 4, 4)
    """
    return [
        PciRecord(spec, nums, den, kernel, quotient)
        for block in record_blocks(spec, part_diagrams(spec, alternate_order))
        for nums, den, kernel, quotient in zip(
            block.nums, block.dens, block.kernel_orders, block.quotient_orders
        )
    ]


def element_names(diagram: PciDiagram, name) -> dict:
    """name(exps), exps its list of exponents, for each element that is a
    primed element or an added kernel generator in diagram, by element
    index: a name table for kernel_generator_texts."""
    used = np.zeros(diagram.spec.order + 1, dtype=bool)  # the last one for -1: none
    for c in diagram.columns:
        used[c.primed] = used[c.added] = True
    used = np.flatnonzero(used[:-1])
    digits = enumeration(diagram.spec.factor_orders).digits[used].tolist()
    return dict(zip(used.tolist(), map(name, digits)))


def kernel_generator_texts(diagram: PciDiagram, names: dict, sep: str) -> Iterator[list]:
    """For each level of diagram in turn, the text of each vertex's kernel
    generators: names[g] for each generator's element index g, joined by
    sep.  A vertex's text is its parent's, extended by the generator it
    adds, so each level is one pass over the parent column."""
    texts = [""]  # the previous level's, each name preceded by sep
    for level in diagram.columns:
        texts = [
            texts[max(parent, 0)] + (sep + names[g] if g >= 0 else "")
            for parent, g in zip(level.parent.tolist(), level.added.tolist())
        ]
        yield [text[len(sep) :] for text in texts]


def vertex_descriptions(diagram: PciDiagram) -> Iterator[list[str]]:
    """For each level of diagram in turn, each vertex as dot and text
    output describe it: "trivial", or "K=<kernel generators>; z=primed",
    each element as str(GroupElement) writes it."""
    names = element_names(diagram, lambda exps: "(" + ",".join(map(str, exps)) + ")")
    texts = kernel_generator_texts(diagram, names, ",")
    for level, gens in zip(diagram.columns, texts):
        yield [
            "trivial" if i == 0 else f"K=<{g}>; z={names[z]}"
            for i, (z, g) in enumerate(zip(level.primed.tolist(), gens))
        ]


def emit_dot(diagrams: Sequence[PciDiagram]) -> Iterator[str]:
    """Graphviz rendering: one rank per level, factored-form labels, leaves
    annotated with their component field.  Yields the text a level at a
    time, then the edges of each diagram."""
    yield "digraph pci_diagram {\n  node [shape=box];\n"
    clustered = len(diagrams) > 1
    for diagram in diagrams:
        p = diagram.spec.p
        indent = "  "
        if clustered:
            yield f'  subgraph cluster_p{p} {{\n    label="p={p} part";\n'
            indent = "    "
        last = len(diagram.columns) - 1
        for l, labels in enumerate(vertex_descriptions(diagram)):
            if l == last:
                fields = diagram.columns[l].field_index.tolist()
                labels = [f"{a}\\nQ(zeta_{p**f})" for a, f in zip(labels, fields)]
            ids = [f"p{p}_v{l}_{i}" for i in range(len(labels))]
            lines = [f"{indent}{{ rank=same; {' '.join(i + ';' for i in ids)} }}\n"]
            lines += [f'{indent}{i} [label="{a}"];\n' for i, a in zip(ids, labels)]
            yield "".join(lines)
        if clustered:
            yield "  }\n"
    for diagram in diagrams:
        p = diagram.spec.p
        yield "".join(
            f"  p{p}_v{l}_{parent} -> p{p}_v{l + 1}_{i};\n"
            for l, level in enumerate(diagram.columns[1:])
            for i, parent in enumerate(level.parent.tolist())
        )
    yield "}\n"

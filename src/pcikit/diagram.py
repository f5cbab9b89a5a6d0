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
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

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
    elements_from_indices,
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


@dataclass(frozen=True)
class PciDiagram:
    """Leveled refinement graph of idempotents along a composition chain."""

    spec: PrimaryGroupSpec
    generators: tuple[GroupElement, ...]
    generator_labels: tuple[LongGenerator, ...]
    levels: tuple[tuple[PciVertex, ...], ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    # Row g: the digits c_i < p with element g = prod generators[i]^c_i.
    chain_digits: np.ndarray = field(compare=False)
    # Row i - 1 for each nontrivial leaf i (leaf 0 is the trivial one): the
    # character of G whose kernel is the leaf's kernel, by its values on the
    # generators (see build_pci_diagram).  Neither array takes part in ==
    # and hash: they follow from the generators and the levels, and arrays
    # do not compare as one value.
    characters: np.ndarray = field(compare=False)

    @property
    def leaves(self) -> tuple[PciVertex, ...]:
        return self.levels[-1]

    def leaf_blocks(self) -> Iterator[tuple[np.ndarray, list[int]]]:
        """The leaves' expansions in blocks of consecutive leaves, at most
        kernels._BLOCK_CELLS entries (and at least one leaf) each: a (rows x
        |G|) int64 array of numerators and one denominator per row, not yet
        in lowest terms, as algebra.expansion_numerators gives them.  They
        are read off the leaves' characters by one product: phi(g) mod E =
        exp G over the enumeration of G is the chain digits of g times
        phi's values on the chain generators, so a row that is not a
        character shows in the result.  A digit is below p and a value
        below E <= |G|, so with N generators each sum is below p*E*N.  With
        z the primed element, phi(z) = E/p, so K = {phi = 0} and <K, z> =
        {phi in (E/p)Z}: the numerators over p|K| are p on K minus 1 on
        <K, z>.  Leaf 0, the trivial one, is 1 everywhere over |G|."""
        spec, leaves = self.spec, self.leaves
        if len(leaves) == 1:  # the trivial group
            yield np.ones((1, spec.order), dtype=np.int64), [spec.order]
            return
        p, exponent = spec.p, spec.exponent
        numerator = np.zeros(exponent, dtype=np.int64)  # by the value of phi
        numerator[:: exponent // p] = -1
        numerator[0] = p - 1
        dens = [spec.order] + [p * v.kernel_order for v in leaves[1:]]
        step = max(1, kernels._BLOCK_CELLS // spec.order)
        for start in range(0, len(leaves), step):
            stop = min(start + step, len(leaves))
            nums = np.ones((stop - start, spec.order), dtype=np.int64)
            # row i - 1 of characters is leaf i's; row 0 of the first block
            # stays the trivial leaf
            phi = self.characters[max(start, 1) - 1 : stop - 1] @ self.chain_digits.T
            phi %= exponent
            # phi indexes numerator, so "clip" changes nothing; numpy's
            # default mode takes about twice as long
            np.take(numerator, phi, out=nums[1:] if start == 0 else nums, mode="clip")
            yield nums, dens[start:stop]

    def leaf_numerators(self) -> list[tuple[np.ndarray, int]]:
        """Each leaf's (numerators, denominator): the rows of leaf_blocks."""
        return [
            (row, den) for nums, dens in self.leaf_blocks() for row, den in zip(nums, dens)
        ]

    def leaf_expansions(self) -> list[AlgebraElement]:
        return [AlgebraElement(self.spec, nums, den) for nums, den in self.leaf_numerators()]

    def level_sizes(self) -> list[int]:
        return [len(level) for level in self.levels]


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
    l on are zero, and u adds digit l, so u*g has index u + index(g).  One
    (|G_l| x rows) table serves every row that scans."""
    witnesses = np.full(len(rows), u, dtype=np.int64)
    phi_g = np.zeros(len(rows), dtype=np.int64)
    scan = up.nonzero()[0]
    if scan.size:
        l = rows.shape[1]
        level = np.flatnonzero(~digits[:, l:].any(axis=1))
        phi = digits[level, :l] @ rows[scan].T
        phi %= exponent
        hits = (p * phi + up[scan]) % exponent == 0
        first = hits.argmax(axis=0)
        cols = np.arange(scan.size)
        if not hits[first, cols].all():
            raise InconsistencyError("no coset witness despite a non-cyclic quotient")
        witnesses[scan] = u + level[first]
        phi_g[scan] = phi[first, cols]
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
    Each level is one batch over all its vertices (see _next_level); only
    the factored forms carry GroupElements.
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

    root = PciVertex(0, 0, FactoredIdempotent(spec, ()), True, 1, 0)
    levels: list[tuple[PciVertex, ...]] = [(root,)]
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    # per nontrivial vertex of the current level: its character row and the
    # index of its primed element
    rows = np.zeros((0, len(gens)), dtype=np.int64)
    primed = np.zeros(0, dtype=np.int64)
    for l in range(len(gens)):
        vertices, rows, primed = _next_level(
            l, gens, below[l], levels[l], rows, primed, digits, edges, enum
        )
        levels.append(vertices)
    return PciDiagram(
        spec, tuple(gens), tuple(labels), tuple(levels), tuple(edges), digits, rows
    )


def _next_level(
    l: int,
    gens: Sequence[GroupElement],
    below: int | None,
    current: tuple[PciVertex, ...],
    rows: np.ndarray,
    primed: np.ndarray,
    digits: np.ndarray,
    edges: list,
    enum: Enumeration,
) -> tuple[tuple[PciVertex, ...], np.ndarray, np.ndarray]:
    """Level l+1 of the diagram from level l (the vertices current, with
    the character row and primed element index of each nontrivial one):
    its vertices, their rows and primed element indices; appends the edges
    into level l+1 to edges.  below is the column of u^p, u = gens[l]."""
    gen = gens[l]
    spec, u = gen.spec, element_index(gen)
    p, exponent = spec.p, spec.exponent
    up = rows[:, below] if below is not None else np.zeros(len(rows), dtype=np.int64)
    # |G_l/K| = p^field_index; the vertex splits when u^|G_l/K| lies in K
    quotients = p ** np.array([v.field_index for v in current[1:]], dtype=np.int64)
    split = quotients // p * up % exponent == 0
    if (up[~split] % p).any():
        raise InconsistencyError("phi(u^p) of a carried vertex is not divisible by p")
    witnesses, phi_g = _split_witnesses(
        u, up[split], rows[split, :l], digits, p, exponent
    )
    counts = np.where(split, p, 1)
    # phi on G_{l+1} keeps phi on G_l: a carried vertex takes phi(u) =
    # phi(u^p)/p, split child i takes phi(u) = -(i*E/p + phi(g)), so that
    # phi(z^i w) = 0 for w = u*g
    grown = np.repeat(up // p, counts)
    starts = (np.cumsum(counts) - counts)[split]
    steps = np.arange(p) * (exponent // p)
    grown[starts[:, None] + np.arange(p)] = -(steps + phi_g[:, None]) % exponent
    next_rows = np.zeros((1 + len(grown), rows.shape[1]), dtype=np.int64)
    next_rows[1:] = np.repeat(rows, counts, axis=0)
    next_rows[1:, l] = grown
    next_rows[0, l] = exponent // p  # the new vertex: kernel G_l, primed u
    next_primed = np.concatenate(([u], np.repeat(primed, counts)))
    # the children of a split are the subgroups <K, z^i w>, i < p
    z = primed[split][:, None]
    extras = enum.product(enum.power(z, np.arange(p)[:, None]), witnesses[:, None])
    new_gens = iter(elements_from_indices(spec, extras.ravel()))

    nxt: list[PciVertex] = []

    def attach(parent: int, vertex: PciVertex):
        nxt.append(vertex)
        edges.append(((l, parent), (l + 1, vertex.index)))

    trivial = current[0]
    form = FactoredIdempotent(spec, tuple(gens[: l + 1]))
    attach(0, PciVertex(l + 1, 0, form, True, trivial.kernel_order * p, 0))
    form = FactoredIdempotent(spec, trivial.form.kernel_gens, gen)
    attach(0, PciVertex(l + 1, 1, form, False, trivial.kernel_order, 1))
    for i, splits in enumerate(split.tolist(), 1):
        v = current[i]
        if not splits:
            # The component stays simple; the vertex carries over.
            vertex = PciVertex(
                l + 1, len(nxt), v.form, False, v.kernel_order, v.field_index + 1
            )
            attach(i, vertex)
            continue
        for _ in range(p):
            gens_i = v.form.kernel_gens + (next(new_gens),)
            form = FactoredIdempotent(spec, gens_i, v.form.primed)
            vertex = PciVertex(
                l + 1, len(nxt), form, False, v.kernel_order * p, v.field_index
            )
            attach(i, vertex)
    return tuple(nxt), next_rows, next_primed


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


def splitting_field_pcis(p: int, n: int) -> list[CycloAlgebraElement]:
    """The p^n primitive idempotents of Q(zeta_{p^n})[C_{p^n}], from the
    character formula: index t carries the character sending the group
    generator x to zeta^t, and the t-th result is
    (1/p^n) * sum_k zeta^(-t*k) x^k.  extension_children builds the same
    set along the chain; verify compares the two."""
    spec = cyclic_group_spec(p, n)
    m = spec.order
    return [
        CycloAlgebraElement.from_zeta_powers(spec, m, [-t * k for k in range(m)], m)
        for t in range(m)
    ]


def _cyclic_spec(eta: CycloAlgebraElement) -> PrimaryGroupSpec:
    """eta's group, checked to be a cyclic p-group whose order is eta's modulus."""
    spec = eta.spec
    if not isinstance(spec, PrimaryGroupSpec) or len(spec.factor_orders) > 1:
        raise InvariantError("input must live over a cyclic p-power group")
    if eta.m != spec.order:
        raise SpecMismatchError("modulus must equal the group order")
    return spec


def lift_into_extension(eta: CycloAlgebraElement) -> CycloAlgebraElement:
    """Reindex a splitting idempotent of C_{p^(n-1)} into C_{p^n}: the small
    group embeds as the subgroup of p-th powers, and zeta_{p^(n-1)} becomes
    the p-th power of the larger root of unity."""
    small = _cyclic_spec(eta)
    p = small.p
    n_small = small.classes[0][0] if small.classes else 0
    big = cyclic_group_spec(p, n_small + 1)
    m_big = big.order
    nums = np.zeros(big.order * m_big, dtype=eta.nums.dtype)
    at = np.flatnonzero(eta.nums)
    g, e = np.divmod(at, eta.m)
    nums[g * p * m_big + e * p] = eta.nums[at]
    return CycloAlgebraElement(big, m_big, nums, eta.den)


def extension_children(
    eta: CycloAlgebraElement, top_gen: GroupElement
) -> list[CycloAlgebraElement]:
    """The p idempotents refining eta one level up.

    eta must be a splitting idempotent of the index-p subgroup, already
    lifted into the big group's algebra (see lift_into_extension); top_gen
    is the new chain generator.  Children multiply eta by the p root-twisted
    averages (1/p) sum_{c<p} (zeta^r * top_gen)^c whose roots zeta^r are the
    p-th roots of eta's own top root.  Each product adds up p index shifts
    of eta's (group, zeta power) numerator array, one per term.
    """
    spec, m = _cyclic_spec(eta), eta.m
    p = spec.p
    if top_gen.spec != spec or element_order(top_gen) != spec.order:
        raise InvariantError("top generator must generate the whole group")
    if spec.order == p:
        if eta != CycloAlgebraElement.one(spec, m):
            raise InvariantError("the only level-0 idempotent is the identity")
        root_exp = 0
    else:
        # The coefficient at top_gen^p times |G|/p must be zeta^e for exactly
        # one e, and only an e divisible by p is accepted: compare its
        # reduced row, in Python ints, with those of zeta^0, zeta^p, ...
        at = element_index(top_gen**p)
        block = eta.nums[at * m : (at + 1) * m][None]
        attached = reduce_rows(block, m).astype(object) * (spec.order // p)
        # the table reduce_rows reads, looked up the same way
        roots = cyclotomic._zeta_rows(m)[::p].astype(object) * eta.den
        matches = np.flatnonzero((roots == attached).all(axis=1))
        if len(matches) != 1:
            raise InvariantError("input is not a lifted splitting idempotent")
        root_exp = int(matches[0])
    # child i at (h, z) sums eta at (h - top_gen^c, z - c * r_i) over c < p,
    # r_i = root_exp + i * m / p: one gather of p * p shifted copies
    grid = eta.nums.reshape(spec.order, m)
    if max_abs(grid) * p >= 2**63:
        grid = grid.astype(object)
    c = np.arange(p)
    moves = [element_index(top_gen**k) for k in range(p)]
    rows = (np.arange(spec.order) - np.array(moves)[:, None]) % spec.order
    twists = c[:, None] * (root_exp + c * (m // p))  # [c, i]
    cols = (np.arange(m) - twists[..., None]) % m
    summed = grid[rows[:, None, :, None], cols[:, :, None, :]].sum(axis=0)
    return [
        CycloAlgebraElement(spec, m, nums.ravel(), eta.den * p) for nums in summed
    ]


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
    the rational primitive central idempotents.

    Each sum is taken on the members' reduced (order x phi(m)) matrices,
    the coordinates split prints (see algebra.exact_sum).  A sum is
    rational when every coordinate but the constant one is zero."""
    if len(splitting) != m:
        raise InvariantError("need one splitting idempotent per character index")
    spec = splitting[0].spec
    for e in splitting:
        if e.spec != spec or e.m != m:
            raise SpecMismatchError("splitting idempotents of different algebras")
    return galois_orbit_sums(spec, m, [e.reduced()[::-1] for e in splitting])


def galois_orbit_sums(
    spec: PrimaryGroupSpec, m: int, reduced: Sequence[tuple[np.ndarray, int]]
) -> list[AlgebraElement]:
    """galois_orbit_collapse on the splitting idempotents' reduced
    coordinates: reduced[t] is the t-th one's (order x phi(m)) numerator
    matrix, flattened, and its denominator, not necessarily in lowest
    terms (see cyclotomic.reduce_rows)."""
    out = []
    for orbit in galois_orbits(m):
        total, den = exact_sum([reduced[t] for t in orbit])
        total = total.reshape(spec.order, euler_phi(m))
        if total[:, 1:].any():
            raise InconsistencyError(
                f"orbit {orbit} does not sum to a rational element"
            )
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


def lift_to_product(
    spec: AbelianGroupSpec, part_index: int, a: AlgebraElement
) -> AlgebraElement:
    """Embed an element of one primary part's algebra into Q[G]: its tensor
    product with the identity of every other part."""
    sets = [[AlgebraElement.one(q)] for q in spec.parts]
    sets[part_index] = [a]
    return cross_prime_product(spec, sets)[0]


def _tensor_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Row i of the result is the tensor product of row i of each part's
    (rows x |P|) numerator block (parts occupy disjoint factor blocks, the
    last part's fastest): one broadcast multiply per part.  It is formed
    in int64 when every block is int64 and the product of their largest
    |numerator| fits, and on Python ints otherwise."""
    # a zero top makes the bound 0 even when another block is an object one
    bound = math.prod(max_abs(block) for block in rows)
    fits = bound < 2**63 and all(block.dtype != object for block in rows)
    dtype = np.int64 if fits else object
    nums = np.ones((len(rows[0]) if rows else 1, 1), dtype=dtype)
    for block in rows:  # the empty product: 1 in Q[C_1]
        block = block.astype(dtype, copy=False)
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
    """The records of Q[spec] with indices start, start + 1, ...: their
    numerators as one (rows x |G|) array (int64, or object when a value
    does not fit), one denominator per row (not always in lowest terms),
    and each record's kernel order and quotient order."""

    start: int
    nums: np.ndarray
    dens: list[int]
    kernel_orders: list[int]
    quotient_orders: list[int]


def record_blocks(spec, diagrams: Sequence[PciDiagram]) -> Iterator[RecordBlock]:
    """The records of Q[spec] from already-built diagrams, one per primary
    part of spec in order, in blocks of at most kernels._BLOCK_CELLS
    entries (and at least one record): each leaf's numerators (see
    PciDiagram.leaf_blocks), or the tensor products of one leaf per part,
    last part fastest (see _tensor_rows)."""
    if not diagrams:  # the trivial group: its one idempotent is 1
        yield RecordBlock(0, np.ones((1, 1), dtype=np.int64), [1], [1], [1])
        return
    kernel_orders = [[v.kernel_order for v in d.leaves] for d in diagrams]
    quotient_orders = [[d.spec.p**v.field_index for v in d.leaves] for d in diagrams]
    if len(diagrams) == 1:
        start = 0
        for nums, dens in diagrams[0].leaf_blocks():
            stop = start + len(dens)
            orders = kernel_orders[0][start:stop], quotient_orders[0][start:stop]
            yield RecordBlock(start, nums, dens, *orders)
            start = stop
        return
    # each part's leaves whole: with two primes or more, a part is at
    # most half of the group
    parts = [list(d.leaf_blocks()) for d in diagrams]
    leaves = [np.concatenate([nums for nums, _ in blocks]) for blocks in parts]
    # per part, a (3 x leaves) table of each leaf's den, kernel order and
    # quotient order, in Python ints so that their products are exact
    values = [
        np.array([[den for _, dens in blocks for den in dens], ks, qs], dtype=object)
        for blocks, ks, qs in zip(parts, kernel_orders, quotient_orders)
    ]
    counts = [len(rows) for rows in leaves]
    total = math.prod(counts)
    step = max(1, kernels._BLOCK_CELLS // math.prod(rows.shape[1] for rows in leaves))
    for start in range(0, total, step):
        picks = np.unravel_index(np.arange(start, min(start + step, total)), counts)
        nums = _tensor_rows([rows[pick] for rows, pick in zip(leaves, picks)])
        chosen = [v[:, pick] for v, pick in zip(values, picks)]
        products = functools.reduce(operator.mul, chosen)
        yield RecordBlock(start, nums, *products.tolist())


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


def pci_set(spec, alternate_order: bool = False):
    """Just the idempotents, without bookkeeping."""
    return [r.element for r in pci_records(spec, alternate_order)]


def _vertex_label(spec: PrimaryGroupSpec, v: PciVertex, is_leaf: bool, name) -> str:
    # name: str of an element, formatted once per emit_dot call
    if v.trivial:
        label = "trivial"
    else:
        gens = ",".join(map(name, v.form.kernel_gens))
        label = f"K=<{gens}>; z={name(v.form.primed)}"
    if is_leaf:
        label += f"\\nQ(zeta_{spec.p ** v.field_index})"
    return label


def emit_dot(diagrams: Sequence[PciDiagram]) -> Iterator[str]:
    """Graphviz rendering: one rank per level, factored-form labels, leaves
    annotated with their component field.  Yields the text a level at a
    time, then the edges of each diagram."""
    yield "digraph pci_diagram {\n  node [shape=box];\n"
    name = functools.cache(str)  # each distinct element is formatted once per call
    clustered = len(diagrams) > 1
    for diagram in diagrams:
        p = diagram.spec.p
        indent = "  "
        if clustered:
            yield f'  subgraph cluster_p{p} {{\n    label="p={p} part";\n'
            indent = "    "
        last = len(diagram.levels) - 1
        for l, level in enumerate(diagram.levels):
            names = " ".join(f"p{p}_v{l}_{v.index};" for v in level)
            lines = [f"{indent}{{ rank=same; {names} }}\n"]
            for v in level:
                label = _vertex_label(diagram.spec, v, l == last, name)
                lines.append(f'{indent}p{p}_v{l}_{v.index} [label="{label}"];\n')
            yield "".join(lines)
        if clustered:
            yield "  }\n"
    for diagram in diagrams:
        p = diagram.spec.p
        yield "".join(
            f"  p{p}_v{pl}_{pi} -> p{p}_v{cl}_{ci};\n"
            for (pl, pi), (cl, ci) in diagram.edges
        )
    yield "}\n"

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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    FactoredIdempotent,
    expand_factored,
    expand_from_subgroup,
    expansion_numerators,
    int_array,
)
from .cyclotomic import CycloAlgebraElement, CycloNumber
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
    identity,
    long_generator_sequence,
)
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
    # Sorted element indices of each leaf's kernel.  Left out of == and
    # hash: they follow from the levels, and arrays do not compare as one
    # value.
    leaf_kernels: tuple[np.ndarray, ...] = field(compare=False)

    @property
    def leaves(self) -> tuple[PciVertex, ...]:
        return self.levels[-1]

    def leaf_expansions(self) -> list[AlgebraElement]:
        # Kernel subgroups were accumulated during the build; reusing them
        # here skips one closure computation per leaf.
        return [
            expand_from_subgroup(self.spec, kernel, v.form.primed)
            for v, kernel in zip(self.leaves, self.leaf_kernels)
        ]

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


# Cells of the boolean mask one chunk of _grown_kernels scatters into; the
# chunk's int64 temporaries hold at most as many entries each.
_SCATTER_CELLS = 2**18


def _split_witnesses(
    gen: GroupElement, level: np.ndarray, kernels: np.ndarray, enum: Enumeration
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of kernels (the sorted kernels K of one order below |G_l|)
    whose vertex splits, and for each the index of an element w of the
    coset u*G_l with w^p in K, where u is the chain generator gen.

    A vertex persists when G_{l+1}/K stays cyclic, which holds exactly
    when u^p generates the cyclic G_l/K, that is when u^|G_l/K| lies
    outside K (it lies in K whenever u^p does).
    Otherwise a witness exists and the p subgroups <K, z^i w> are the
    children kernels; w := u when u^p lies in K, else the first hit
    scanning the coset in the order of level, for reproducible output.
    One lookup per power tests it in every row, and one 2-D lookup over
    the coset serves every row that needs the scan.
    """
    p, u = gen.spec.p, element_index(gen)
    probe = element_index(gen ** (len(level) // kernels.shape[1]))
    split = (kernels == probe).any(axis=1).nonzero()[0]
    if not split.size:
        return split, split
    witnesses = np.full(split.size, u)
    scan = (~(kernels == element_index(gen**p)).any(axis=1)[split]).nonzero()[0]
    if scan.size:
        rows = np.arange(scan.size)
        in_kernel = np.zeros((scan.size, enum.order), dtype=bool)
        in_kernel[rows[:, None], kernels[split[scan]]] = True
        coset = enum.product(u, level)
        hits = in_kernel[:, enum.power(coset, p)]
        first = hits.argmax(axis=1)
        if not hits[rows, first].all():
            raise InconsistencyError("no coset witness despite a non-cyclic quotient")
        witnesses[scan] = coset[first]
    return split, witnesses


def _grown_kernels(
    kernels: np.ndarray,
    parents: np.ndarray,
    extras: np.ndarray,
    outside: np.ndarray,
    p: int,
    enum: Enumeration,
) -> np.ndarray:
    """The subgroups <K, e> for each parent row K = kernels[parents[j]] and
    each e in extras[j] (p of them), as the rows of one sorted, read-only
    int64 array, parent-major; each <K, e> is the union of the cosets
    K*e^c, c < p, valid since e^p lies in K.  Raises InconsistencyError
    when some union is not p*|K| elements (its cosets are not distinct)
    or holds outside[j].

    Chunks of parents scatter into a (rows x |G|) boolean mask that is read
    back row-major, so every row comes out sorted without a sort."""
    n, k, order = len(parents), kernels.shape[1], enum.order
    width = p * k
    out = np.empty((n * p, width), dtype=np.int64)
    step = max(1, _SCATTER_CELLS // (p * order))
    shifts = np.arange(1, p)[:, None]
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = (stop - start) * p
        offsets = np.arange(0, rows * order, order).reshape(-1, p, 1)
        kernel = kernels[parents[start:stop]]
        mask = np.zeros(rows * order, dtype=bool)
        mask[offsets + kernel[:, None]] = True  # c = 0
        sums = enum.code[enum.power(extras[start:stop, :, None], shifts)][..., None]
        members = enum.table[sums + enum.code[kernel][:, None, None]]
        members += offsets[..., None]
        mask[members] = True
        found = mask.nonzero()[0]
        holds_outside = mask[offsets[..., 0] + outside[start:stop, None]].any()
        if found.size != rows * width or holds_outside:
            raise InconsistencyError("split produced an invalid child kernel")
        np.subtract(
            found.reshape(rows, width),
            offsets.reshape(rows, 1),
            out=out[start * p : stop * p],
        )
    out.setflags(write=False)
    return out


def build_pci_diagram(
    spec: PrimaryGroupSpec,
    generator_labels: Sequence[LongGenerator] | None = None,
) -> PciDiagram:
    """Build the full refinement diagram for an abelian p-group.

    The leaves are the complete primitive central idempotent set of Q[G].
    The level subgroups and vertex kernels are held as sorted arrays of
    element indices (see groups.element_index); only the factored forms
    carry GroupElements.  Each level is one batch per kernel order: one
    _split_witnesses call, one (n, p) product for the children's extra
    generators and one _grown_kernels call for their kernels.
    """
    if generator_labels is None:
        labels = long_generator_sequence(spec)
    else:
        labels = list(generator_labels)
        _validate_generator_order(spec, labels)
    gens = [embed_generator(spec, lab) for lab in labels]
    p = spec.p
    enum = enumeration(spec.factor_orders)
    # chain[t] is the product of gens[i]^(digit i of t in base p, least
    # significant first), so its first p^l entries are the level G_l.  In a
    # power-monotone order the generators of one cyclic factor add distinct
    # base-p digits to its exponent, so the index of a product is the sum of
    # the indices of its factors.
    us = np.array([element_index(g) for g in gens], dtype=np.int64)
    chain = (np.arange(enum.order)[:, None] // p ** np.arange(len(us)) % p) @ us
    in_level = np.zeros(enum.order, dtype=bool)

    root = PciVertex(0, 0, FactoredIdempotent(spec, ()), True, 1, 0)
    levels: list[tuple[PciVertex, ...]] = [(root,)]
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    level = np.zeros(1, dtype=np.int64)  # the identity has index 0
    level.setflags(write=False)
    # per vertex of the current level: its kernel and the index of its
    # primed element (the trivial vertex, always first, has none)
    kernels: list[np.ndarray | None] = [level]
    primed = [-1]

    for l in range(len(gens)):
        in_level[chain[: p ** (l + 1)]] = True
        next_level = in_level.nonzero()[0]  # sorted
        if len(next_level) != p * len(level):
            raise InconsistencyError("chain generator does not extend the subgroup")
        next_level.setflags(write=False)
        vertices, kernels, primed = _next_level(
            l, gens, levels[l], kernels, primed, level, next_level, edges, enum
        )
        levels.append(vertices)
        level = next_level

    return PciDiagram(
        spec, tuple(gens), tuple(labels), tuple(levels), tuple(edges), tuple(kernels)
    )


def _next_level(
    l: int,
    gens: Sequence[GroupElement],
    current: tuple[PciVertex, ...],
    kernels: list,
    primed: list[int],
    level: np.ndarray,
    next_level: np.ndarray,
    edges: list,
    enum: Enumeration,
) -> tuple[tuple[PciVertex, ...], list, list[int]]:
    """Level l+1 of the diagram from level l (the vertices current, with
    the kernel and primed element index of each, which it consumes): its
    vertices, their kernels and primed element indices; appends the edges
    into level l+1 to edges.  Every array this makes dies on return except
    the kernels of level l+1."""
    gen = gens[l]
    spec, u = gen.spec, element_index(gen)
    p = spec.p
    powers = np.arange(p)[:, None]
    by_order: dict[int, list[int]] = {}
    for i in range(1, len(current)):  # index 0 is the trivial vertex
        by_order.setdefault(current[i].kernel_order, []).append(i)
    # per nontrivial vertex: its children's kernels, and their new kernel
    # generators when it splits (None when it carries over)
    children: list = [None] * len(current)
    for members in by_order.values():
        stacked = np.array([kernels[i] for i in members])
        for i in members:
            kernels[i] = None  # the stacked copy replaces them
        split, witnesses = _split_witnesses(gen, level, stacked, enum)
        if split.size:
            # the children of a split are the subgroups <K, z^i w>, i < p
            z = np.array([primed[members[j]] for j in split.tolist()])
            extras = enum.product(enum.power(z[:, None], powers), witnesses[:, None])
            grown = _grown_kernels(stacked, split, extras, z, p, enum)
            new_gens = elements_from_indices(spec, extras.ravel())
            for j, s in enumerate(split.tolist()):
                block = slice(j * p, (j + 1) * p)
                children[members[s]] = (grown[block], new_gens[block])
        if split.size < len(members):
            if split.size:  # keep only the carried rows
                carried = np.ones(len(members), dtype=bool)
                carried[split] = False
                stacked = stacked[carried]
            stacked.setflags(write=False)
            kept = iter(stacked)
            for i in members:
                if children[i] is None:
                    children[i] = ((next(kept),), None)

    nxt: list[PciVertex] = []
    next_kernels: list[np.ndarray] = []
    next_primed: list[int] = []

    def attach(parent: int, vertex: PciVertex, kernel, z: int):
        nxt.append(vertex)
        next_kernels.append(kernel)
        next_primed.append(z)
        edges.append(((l, parent), (l + 1, vertex.index)))

    trivial = current[0]
    form = FactoredIdempotent(spec, tuple(gens[: l + 1]))
    vertex = PciVertex(l + 1, 0, form, True, trivial.kernel_order * p, 0)
    attach(0, vertex, next_level, -1)
    form = FactoredIdempotent(spec, trivial.form.kernel_gens, gen)
    attach(0, PciVertex(l + 1, 1, form, False, trivial.kernel_order, 1), level, u)
    for i in range(1, len(current)):
        v = current[i]
        rows, new_gens = children[i]
        if new_gens is None:
            # The component stays simple; the vertex carries over.
            vertex = PciVertex(
                l + 1, len(nxt), v.form, False, v.kernel_order, v.field_index + 1
            )
            attach(i, vertex, rows[0], primed[i])
            continue
        for row, g in zip(rows, new_gens):
            form = FactoredIdempotent(spec, v.form.kernel_gens + (g,), v.form.primed)
            vertex = PciVertex(
                l + 1, len(nxt), form, False, v.kernel_order * p, v.field_index
            )
            attach(i, vertex, row, primed[i])
    return tuple(nxt), next_kernels, next_primed


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
        step = p ** (n - i)
        nums = [0] * order
        for j in range(0, order, step):
            nums[j] = 1
        return AlgebraElement(spec, nums, p**i)

    return [chain_average(n)] + [
        chain_average(i - 1) - chain_average(i) for i in range(1, n + 1)
    ]


def _root_average_factor(
    spec: PrimaryGroupSpec, m: int, g: GroupElement, root_exp: int
) -> CycloAlgebraElement:
    """(1/p) * sum over c < p of (zeta^root_exp * g)^c."""
    p = spec.p
    nums = [0] * (spec.order * m)
    w = identity(spec)
    e = 0
    for _ in range(p):
        nums[element_index(w) * m + e] += 1
        w = w * g
        e = (e + root_exp) % m
    return CycloAlgebraElement(spec, m, nums, p)


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
    nums = [0] * (big.order * m_big)
    for i, v in enumerate(eta.nums):
        if v:
            g, e = divmod(i, eta.m)
            nums[(g * p) * m_big + e * p] = v
    return CycloAlgebraElement(big, m_big, nums, eta.den)


def extension_children(
    eta: CycloAlgebraElement, top_gen: GroupElement
) -> list[CycloAlgebraElement]:
    """The p idempotents refining eta one level up.

    eta must be a splitting idempotent of the index-p subgroup, already
    lifted into the big group's algebra (see lift_into_extension); top_gen
    is the new chain generator.  Children multiply eta by the p root-twisted
    averages of top_gen whose roots are the p-th roots of eta's own top root.
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
        sub_order = spec.order // p
        attached = sub_order * eta.cyclo_coeff(element_index(top_gen**p))
        # only a root exponent divisible by p is accepted, so only those are tried
        matches = [e for e in range(0, m, p) if CycloNumber.zeta(m, e) == attached]
        if len(matches) != 1:
            raise InvariantError("input is not a lifted splitting idempotent")
        root_exp = matches[0] // p
    step = m // p
    return [
        eta * _root_average_factor(spec, m, top_gen, (root_exp + i * step) % m)
        for i in range(p)
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
    the coordinates split prints, over their least common denominator: in
    int64 when max|entry| * scale * orbit size and that denominator are
    below 2^63, on Python ints otherwise.  A sum is rational when every
    coordinate but the constant one is zero."""
    if len(splitting) != m:
        raise InvariantError("need one splitting idempotent per character index")
    spec = splitting[0].spec
    for e in splitting:
        if e.spec != spec or e.m != m:
            raise SpecMismatchError("splitting idempotents of different algebras")
    width = euler_phi(m)
    reduced = [(den, int_array(flat)) for den, flat in (e.reduced() for e in splitting)]
    out = []
    for orbit in galois_orbits(m):
        members = [reduced[t] for t in orbit]
        den = math.lcm(*(d for d, _ in members))
        # an entry outside int64 (an object array) makes top at least 2^63;
        # a zero member's scale must fit as well
        top = max(max(int(v.max()), -int(v.min())) * (den // d) for d, v in members)
        dtype = np.int64 if max(top * len(orbit), den) < 2**63 else object
        total = sum(v.astype(dtype, copy=False) * (den // d) for d, v in members)
        total = total.reshape(spec.order, width)
        if total[:, 1:].any():
            raise InconsistencyError(
                f"orbit {orbit} does not sum to a rational element"
            )
        out.append(AlgebraElement._from_int64(spec, total[:, 0], den))
    return out


@dataclass(frozen=True)
class PciRecord:
    """A primitive central idempotent with its component bookkeeping."""

    element: AlgebraElement
    kernel_order: int
    quotient_order: int


class RecordArrays(NamedTuple):
    """A primitive central idempotent as it leaves the engine: numerators
    nums over den, not necessarily in lowest terms, in an int64 array, or
    an object array of Python ints when one does not fit, with its
    component bookkeeping.  PciRecord is the same idempotent as an
    AlgebraElement."""

    nums: np.ndarray
    den: int
    kernel_order: int
    quotient_order: int


def lift_to_product(
    spec: AbelianGroupSpec, part_index: int, a: AlgebraElement
) -> AlgebraElement:
    """Embed an element of one primary part's algebra into Q[G]."""
    part = spec.parts[part_index]
    if a.spec != part:
        raise SpecMismatchError("element does not belong to the given part")
    after = math.prod(q.order for q in spec.parts[part_index + 1 :])
    nums = [0] * spec.order
    for idx, v in enumerate(a.nums):
        if v:
            nums[idx * after] = v
    return AlgebraElement(spec, nums, a.den)


def _tensor_products(
    per_part: Sequence[Sequence[tuple[np.ndarray, int]]],
) -> list[tuple[np.ndarray, int]]:
    """For each choice of one (numerators, denominator) per part, in
    itertools.product order, the numerators of their tensor product (parts
    occupy disjoint factor blocks) over the product of the denominators.
    Each is one np.multiply.outer per part, in int64 when every chosen
    array is int64 and the product of their largest |numerator| fits, and
    on Python ints otherwise."""
    tops = [
        [(vec, max(int(vec.max()), -int(vec.min())), den) for vec, den in vectors]
        for vectors in per_part
    ]
    out = []
    for combo in itertools.product(*tops):
        # a zero top makes the bound 0 even when another part is an object vector
        bound = math.prod(top for _, top, _ in combo)
        fits = bound < 2**63 and all(vec.dtype != object for vec, _, _ in combo)
        dtype = np.int64 if fits else object
        nums = np.ones(1, dtype=dtype)  # the empty product: 1 in Q[C_1]
        for vec, _, _ in combo:
            nums = np.multiply.outer(nums, vec.astype(dtype, copy=False)).ravel()
        out.append((nums, math.prod(den for _, _, den in combo)))
    return out


def cross_prime_product(
    spec: AbelianGroupSpec, per_part_sets: Sequence[Sequence[AlgebraElement]]
) -> list[AlgebraElement]:
    """All products of one idempotent per primary part, lifted to Q[G]:
    the tensor products of the per-part coefficient vectors (see
    _tensor_products)."""
    if len(per_part_sets) != len(spec.parts):
        raise SpecMismatchError("need one idempotent set per primary part")
    for part, pcis in zip(spec.parts, per_part_sets):
        for e in pcis:
            if e.spec != part:
                raise SpecMismatchError("idempotent does not match its primary part")
    products = _tensor_products(
        [[(int_array(e.nums), e.den) for e in pcis] for pcis in per_part_sets]
    )
    return [AlgebraElement._from_int64(spec, nums, den) for nums, den in products]


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


def record_arrays(diagrams: Sequence[PciDiagram]) -> list[RecordArrays]:
    """The records of Q[G] from already-built diagrams, one per primary
    part of G in order: the products of one leaf per part, each straight
    from the leaf expansion's int64 numerators (expansion_numerators) or
    from the cross-prime tensor product of those."""
    parts = [
        [
            RecordArrays(
                *expansion_numerators(d.spec, kernel, v.form.primed),
                v.kernel_order,
                d.spec.p**v.field_index,
            )
            for v, kernel in zip(d.leaves, d.leaf_kernels)
        ]
        for d in diagrams
    ]
    if len(parts) == 1:
        return parts[0]
    products = _tensor_products([[(r.nums, r.den) for r in recs] for recs in parts])
    return [
        RecordArrays(
            nums,
            den,
            math.prod(r.kernel_order for r in combo),
            math.prod(r.quotient_order for r in combo),
        )
        for (nums, den), combo in zip(products, itertools.product(*parts))
    ]


def pci_records(spec, alternate_order: bool = False) -> list[PciRecord]:
    """Engine-side primitive central idempotents of Q[G] with component
    bookkeeping; primary groups come from the diagram leaves, multi-prime
    groups from the product of the per-part leaf sets."""
    return records_from_diagrams(spec, part_diagrams(spec, alternate_order))


def leaf_records(diagram: PciDiagram) -> list[PciRecord]:
    """The records of a primary group, one per leaf of its diagram."""
    return records_from_diagrams(diagram.spec, [diagram])


def records_from_diagrams(spec, diagrams: Sequence[PciDiagram]) -> list[PciRecord]:
    """record_arrays, each idempotent an element of Q[spec] in lowest terms."""
    return [
        PciRecord(
            AlgebraElement._from_int64(spec, r.nums, r.den),
            r.kernel_order,
            r.quotient_order,
        )
        for r in record_arrays(diagrams)
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


def emit_dot(diagrams: Sequence[PciDiagram]) -> str:
    """Graphviz rendering: one rank per level, factored-form labels, leaves
    annotated with their component field."""
    lines = ["digraph pci_diagram {", "  node [shape=box];"]
    name = functools.cache(str)  # each distinct element is formatted once per call
    clustered = len(diagrams) > 1
    for diagram in diagrams:
        p = diagram.spec.p
        indent = "  "
        if clustered:
            lines.append(f"  subgraph cluster_p{p} {{")
            lines.append(f'    label="p={p} part";')
            indent = "    "
        last = len(diagram.levels) - 1
        for l, level in enumerate(diagram.levels):
            names = " ".join(f"p{p}_v{l}_{v.index};" for v in level)
            lines.append(f"{indent}{{ rank=same; {names} }}")
            for v in level:
                label = _vertex_label(diagram.spec, v, l == last, name)
                lines.append(f'{indent}p{p}_v{l}_{v.index} [label="{label}"];')
        if clustered:
            lines.append("  }")
    for diagram in diagrams:
        p = diagram.spec.p
        for (pl, pi), (cl, ci) in diagram.edges:
            lines.append(f"  p{p}_v{pl}_{pi} -> p{p}_v{cl}_{ci};")
    lines.append("}")
    return "\n".join(lines) + "\n"

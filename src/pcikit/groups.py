"""Finite abelian groups given by prime-power cyclic factors.

A primary (one-prime) group is described by its partition data: classes
(r, l) meaning l cyclic factors of order p^r, with exponents strictly
decreasing.  Elements are exponent vectors in the short-generator basis,
one residue per cyclic factor, and are enumerated mixed-radix
lexicographically.  The long presentation refines each factor of order p^s
into a chain of s generators x_{(s,j),a} with x^p at depth a equal to the
generator at depth a-1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Union

import numpy as np

from .errors import CapExceededError, GroupSpecError, SpecMismatchError
from .numtheory import MR_LIMIT, is_prime


@dataclass(frozen=True)
class LongGenerator:
    """Chain generator x_{(s,j),a}: the p^(s-a) power of the short generator
    of the cyclic factor at place (s, j)."""

    place: tuple[int, int]  # (exponent s of the factor order p^s, copy index j)
    power: int  # depth a in the chain, 1 <= a <= s

    def __str__(self) -> str:
        return f"x{{{self.place},{self.power}}}"


@dataclass(frozen=True)
class PrimaryGroupSpec:
    """Abelian p-group: classes is a tuple of (exponent r, multiplicity l)
    with exponents strictly decreasing.  An empty tuple is the trivial group.
    """

    p: int
    classes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise GroupSpecError(f"{self.p} is not prime")
        object.__setattr__(
            self, "classes", tuple((int(r), int(l)) for r, l in self.classes)
        )
        prev = None
        for r, l in self.classes:
            if r < 1 or l < 1:
                raise GroupSpecError(f"invalid class ({r},{l})")
            if prev is not None and r >= prev:
                raise GroupSpecError("exponents must be strictly decreasing")
            prev = r

    @cached_property
    def factor_orders(self) -> tuple[int, ...]:
        return tuple(self.p**r for r, l in self.classes for _ in range(l))

    @cached_property
    def factor_places(self) -> tuple[tuple[int, int], ...]:
        return tuple((r, j) for r, l in self.classes for j in range(1, l + 1))

    @cached_property
    def order(self) -> int:
        return self.p ** self.num_generators

    @cached_property
    def num_generators(self) -> int:
        # One long generator per composition step.
        return sum(r * l for r, l in self.classes)

    @cached_property
    def exponent(self) -> int:
        return self.p ** self.classes[0][0] if self.classes else 1

    def spec_text(self) -> str:
        exps = [str(r) for r, l in self.classes for _ in range(l)]
        return f"{self.p}:[{','.join(exps)}]"

    def __str__(self) -> str:
        if not self.classes:
            return "C_1"
        return " x ".join(f"C_{d}" for d in self.factor_orders)


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Finite abelian group as a product of primary parts with strictly
    increasing primes."""

    parts: tuple[PrimaryGroupSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        primes = [part.p for part in self.parts]
        if any(q <= p for p, q in zip(primes, primes[1:])):
            raise GroupSpecError("primary parts must have strictly increasing primes")

    @cached_property
    def factor_orders(self) -> tuple[int, ...]:
        return tuple(d for part in self.parts for d in part.factor_orders)

    @cached_property
    def order(self) -> int:
        return math.prod(part.order for part in self.parts)

    @cached_property
    def exponent(self) -> int:
        return math.prod(part.exponent for part in self.parts)

    def spec_text(self) -> str:
        return ";".join(part.spec_text() for part in self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "C_1"
        return " x ".join(str(part) for part in self.parts)


GroupSpec = Union[PrimaryGroupSpec, AbelianGroupSpec]


_PART_RE = re.compile(r"^(\d+):\[(\d+(?:,\d+)*)\]$")
_SHOWN_CHARS = 40  # an error message quotes at most this much of the input


def _shown(chunk: str) -> str:
    """repr of a group part for an error message, cut to _SHOWN_CHARS."""
    if len(chunk) <= _SHOWN_CHARS:
        return repr(chunk)
    return repr(chunk[:_SHOWN_CHARS]) + "..."


def _check_part_cap(n: int, p_text: str, exp_texts: list[str], cap: int):
    """Refuse part n when its order p^N must exceed cap, judged from the
    literals' lengths before any of them is converted, so no giant number is
    parsed, tested for primality or raised to a power."""
    bits = cap.bit_length()  # p^N > cap once N > bits, as p >= 2
    if len(p_text) > len(str(cap)) or int(p_text) > cap:
        raise CapExceededError(f"prime of part {n} exceeds cap {cap}")
    if any(len(e) > len(str(bits)) for e in exp_texts):
        raise CapExceededError(f"group order of part {n} exceeds cap {cap}")
    total = sum(map(int, exp_texts))
    if total > bits:
        raise CapExceededError(f"group order {p_text}^{total} exceeds cap {cap}")


def parse_group_spec(text: str, max_order: int | None = None) -> AbelianGroupSpec:
    """Parse the group grammar  prime ":[" exponents "]" (";"-separated parts).

    Exponents are listed with repetition and may come in any order.  With
    max_order, a group of larger order raises CapExceededError, in time
    bounded by the length of the text.  A prime at or above
    numtheory.MR_LIMIT raises GroupSpecError, as is_prime cannot test it
    quickly.

    >>> str(parse_group_spec("2:[2,1,1]"))
    'C_4 x C_2 x C_2'
    >>> parse_group_spec("2:[1];3:[2]").order
    18
    """
    if max_order is not None and max_order < 1:
        raise GroupSpecError("max order must be at least 1")
    compact = text.replace(" ", "")
    if not compact:
        raise GroupSpecError("empty group spec")
    parts = []
    for n, chunk in enumerate(compact.split(";"), 1):
        m = _PART_RE.match(chunk)
        if m is None:
            raise GroupSpecError(f"cannot parse group part {_shown(chunk)}")
        # Literals without leading zeros, so their lengths measure them.
        p_text = m.group(1).lstrip("0") or "0"
        exp_texts = [e.lstrip("0") or "0" for e in m.group(2).split(",")]
        if max_order is not None:
            _check_part_cap(n, p_text, exp_texts, max_order)
        if len(p_text) > len(str(MR_LIMIT)) or int(p_text) >= MR_LIMIT:
            raise GroupSpecError(f"prime of part {n} is beyond the primality test")
        p = int(p_text)
        try:
            exps = sorted(map(int, exp_texts), reverse=True)
        except ValueError:  # past the interpreter's digit limit for int()
            raise GroupSpecError(f"exponent too long in {_shown(chunk)}") from None
        if exps[-1] < 1:
            raise GroupSpecError(f"exponents must be positive in {_shown(chunk)}")
        classes = []
        for r in exps:
            if classes and classes[-1][0] == r:
                classes[-1][1] += 1
            else:
                classes.append([r, 1])
        parts.append(PrimaryGroupSpec(p, tuple((r, l) for r, l in classes)))
    primes = [part.p for part in parts]
    if len(set(primes)) != len(primes):
        raise GroupSpecError("duplicate prime in group spec")
    parts.sort(key=lambda part: part.p)
    spec = AbelianGroupSpec(tuple(parts))
    if max_order is not None and spec.order > max_order:
        raise CapExceededError(f"group order {spec.order} exceeds cap {max_order}")
    return spec


@dataclass(frozen=True)
class GroupElement:
    """Exponent vector of a group element, one reduced residue per factor."""

    spec: GroupSpec
    exps: tuple[int, ...]

    def __post_init__(self):
        orders = self.spec.factor_orders
        if len(self.exps) != len(orders):
            raise GroupSpecError("exponent vector has wrong length")
        if any(not 0 <= e < d for e, d in zip(self.exps, orders)):
            raise GroupSpecError("exponent out of range; use element() to reduce")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return group_mul(self, other)

    def __pow__(self, k: int) -> "GroupElement":
        return _raw_element(
            self.spec,
            tuple((e * k) % d for e, d in zip(self.exps, self.spec.factor_orders)),
        )

    def inverse(self) -> "GroupElement":
        return self**-1

    def __hash__(self) -> int:
        # the group spec is deliberately left out: element containers are
        # per-group, and hashing it on every set lookup dominates closures.
        return hash(self.exps)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.exps) + ")"


def _raw_element(spec: GroupSpec, exps: tuple[int, ...]) -> GroupElement:
    # Internal constructor for values already reduced; skips validation.
    g = object.__new__(GroupElement)
    object.__setattr__(g, "spec", spec)
    object.__setattr__(g, "exps", exps)
    return g


def element(spec: GroupSpec, exps: Iterable[int]) -> GroupElement:
    """Build an element, reducing each exponent modulo its factor order."""
    return GroupElement(
        spec, tuple(int(e) % d for e, d in zip(exps, spec.factor_orders))
    )


def identity(spec: GroupSpec) -> GroupElement:
    return _raw_element(spec, (0,) * len(spec.factor_orders))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Enumeration:
    """The canonical enumeration of a group with cyclic factor orders
    `orders`, and all index arithmetic on it.

    Index i enumerates exponent vectors mixed-radix lexicographically
    (first factor most significant): digits[i] is the exponent vector, mods
    holds the factor orders m_j and strides the place values, so
    i = digits[i] @ strides.

    Products use a carry-free code per element,
    code[i] = sum_j digits[i][j] * C_j with C_j = prod_{t>j} (2 m_t - 1).
    Two digits of factor j sum to at most 2 m_j - 2, so adding two codes
    never carries from one factor into the next, and the product table,
    over every code sum s, holds
    table[s] = sum_j ((s // C_j) % (2 m_j - 1) % m_j) * strides[j].
    So product(a, b) = table[code[a] + code[b]]: one add and one gather.
    The table has prod_j (2 m_j - 1) <= 2^k |G| entries for k factors.
    Over every group the default order cap of 4096 admits that is at most
    3^12 = 531,441 entries (4.25 MB), at C_2^12; an order admitted only by
    a larger cap grows it as 2^k |G| does.

    >>> C4C2 = Enumeration((4, 2))
    >>> C4C2.digits[5].tolist(), int(C4C2.product(5, 7)), int(C4C2.inverse[5])
    ([2, 1], 2, 5)
    >>> int(C4C2.power(3, 2)), len(C4C2.table)
    (4, 21)
    """

    def __init__(self, orders: tuple[int, ...]):
        self.orders = orders
        self.order = math.prod(orders)
        strides = [math.prod(orders[j + 1 :]) for j in range(len(orders))]
        self.mods = _read_only(np.array(orders, dtype=np.int64))
        self.strides = _read_only(np.array(strides, dtype=np.int64))
        idx = np.arange(self.order, dtype=np.int64)
        digits = idx[:, None] // self.strides
        np.remainder(digits, self.mods, out=digits)  # no second full-size temporary
        self.digits = _read_only(digits)

    # The code, table and inverse are built on first use, so callers that
    # only read digits (the oracle's characters, the order census) never
    # pay for the table.

    @cached_property
    def code(self) -> np.ndarray:
        orders = self.orders
        sum_strides = [  # C_j
            math.prod(2 * m - 1 for m in orders[j + 1 :]) for j in range(len(orders))
        ]
        return _read_only(self.digits @ np.array(sum_strides, dtype=np.int64))

    @cached_property
    def table(self) -> np.ndarray:
        # code sums are mixed-radix over the spans 2 m_j - 1, first factor
        # most significant; a digit sum d of factor j stands for d % m_j
        table = np.zeros(1, dtype=np.int64)
        for m, stride in zip(self.orders, self.strides.tolist()):
            shift = np.arange(2 * m - 1, dtype=np.int64) % m * stride
            table = (table[:, None] + shift).reshape(-1)
        return _read_only(table)

    @cached_property
    def inverse(self) -> np.ndarray:
        return _read_only((-self.digits % self.mods) @ self.strides)

    def product(self, a, b):
        """Indices of the products of the elements indexed by a and b,
        broadcast like numpy arrays."""
        return self.table[self.code[a] + self.code[b]]

    def translation(self, i):
        """The permutation j -> index of (element i) * (element j)."""
        return self.table[self.code[i] + self.code]

    def power(self, a, k):
        """Indices of the k-th powers of the elements indexed by a; k may
        be an array that broadcasts against the digit rows digits[a]."""
        return ((self.digits[a] * k) % self.mods) @ self.strides


@cache
def enumeration(orders: tuple[int, ...]) -> Enumeration:
    """The Enumeration for these factor orders, built on first use."""
    return Enumeration(orders)


def index_set(mask: np.ndarray) -> np.ndarray:
    """The positions set in a boolean mask over the enumeration, as the one
    subgroup form: a sorted, read-only int64 array of element indices."""
    members = np.flatnonzero(mask)
    members.setflags(write=False)
    return members


def element_index(g: GroupElement) -> int:
    """Position of g in the mixed-radix lexicographic enumeration."""
    idx = 0
    for e, d in zip(g.exps, g.spec.factor_orders):
        idx = idx * d + e
    return idx


def member_index(spec: GroupSpec, g) -> int:
    """element_index(g), once g is checked to be a GroupElement of spec;
    anything else (an element of another group, an exponent tuple) raises
    SpecMismatchError."""
    if not isinstance(g, GroupElement) or (g.spec is not spec and g.spec != spec):
        raise SpecMismatchError(f"not an element of {spec}")
    return element_index(g)


def element_from_index(spec: GroupSpec, idx: int) -> GroupElement:
    exps = []
    for d in reversed(spec.factor_orders):
        exps.append(idx % d)
        idx //= d
    return _raw_element(spec, tuple(reversed(exps)))


def elements_from_indices(spec: GroupSpec, indices: np.ndarray) -> list[GroupElement]:
    """element_from_index of each index in a 1-D array, from one lookup
    in the enumeration's digit table."""
    rows = enumeration(spec.factor_orders).digits[indices].tolist()
    return [_raw_element(spec, tuple(row)) for row in rows]


def elements(spec: GroupSpec):
    """All group elements in canonical enumeration order."""
    for idx in range(spec.order):
        yield element_from_index(spec, idx)


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.spec is not b.spec and a.spec != b.spec:
        raise SpecMismatchError("elements belong to different groups")
    return _raw_element(
        a.spec,
        tuple((x + y) % d for x, y, d in zip(a.exps, b.exps, a.spec.factor_orders)),
    )


def element_order(g: GroupElement) -> int:
    """Least k >= 1 with g^k = identity."""
    return math.lcm(
        *(d // math.gcd(e, d) for e, d in zip(g.exps, g.spec.factor_orders)), 1
    )


def extend_subgroup(spec: GroupSpec, sub: np.ndarray, g: GroupElement) -> np.ndarray:
    """The subgroup <S, g>, for a subgroup S given in the one subgroup form
    (see index_set), in that form.

    With k the least c >= 1 such that g^c lies in S, <S, g> is the disjoint
    union of the cosets g^c S, c < k: one run of powers of g, cut at k, and
    one product of those powers with S.

    >>> C4C2 = parse_group_spec("2:[2,1]")
    >>> extend_subgroup(C4C2, np.array([0, 4]), element(C4C2, (1, 0))).tolist()
    [0, 2, 4, 6]
    """
    enum = enumeration(spec.factor_orders)
    powers = enum.power(member_index(spec, g), np.arange(spec.exponent)[:, None])
    at = np.minimum(np.searchsorted(sub, powers[1:]), len(sub) - 1)
    inside = sub[at] == powers[1:]
    k = 1 + int(inside.argmax()) if inside.any() else spec.exponent
    span = np.sort(enum.product(powers[:k, None], sub), axis=None)
    span.setflags(write=False)
    return span


def subgroup_closure(spec: GroupSpec, gens: Iterable[GroupElement]) -> np.ndarray:
    """Smallest subgroup containing gens (the identity if gens is empty), as
    the sorted, read-only int64 array of its element indices: the trivial
    subgroup extended by each generator in turn (see extend_subgroup).

    >>> C9 = PrimaryGroupSpec(3, ((2, 1),))
    >>> subgroup_closure(C9, [element(C9, (6,))]).tolist()
    [0, 3, 6]
    >>> C4C2 = parse_group_spec("2:[2,1]")
    >>> subgroup_closure(C4C2, [element(C4C2, (1, 1))]).tolist()
    [0, 3, 4, 7]
    """
    span = index_set(np.arange(spec.order) == 0)  # the identity has index 0
    for g in gens:
        span = extend_subgroup(spec, span, g)
    return span


def long_generator_sequence(spec: PrimaryGroupSpec) -> list[LongGenerator]:
    """Canonical composition-chain order of the long generators.

    Classes come exponent-descending, copies within a class descending, and
    the chain inside one factor depth-ascending, so every length-l prefix
    generates a subgroup of order p^l.

    >>> [str(g) for g in long_generator_sequence(PrimaryGroupSpec(3, ((1, 2),)))]
    ['x{(1, 2),1}', 'x{(1, 1),1}']
    """
    out = []
    for r, l in spec.classes:
        for j in range(l, 0, -1):
            for a in range(1, r + 1):
                out.append(LongGenerator((r, j), a))
    return out


def embed_generator(spec: PrimaryGroupSpec, gen: LongGenerator) -> GroupElement:
    """Long generator as an exponent vector: x_{(s,j),a} has exponent
    p^(s-a) in its own factor and 0 elsewhere."""
    places = spec.factor_places
    if gen.place not in places:
        raise GroupSpecError(f"no cyclic factor at place {gen.place}")
    s = gen.place[0]
    if not 1 <= gen.power <= s:
        raise GroupSpecError(f"power index {gen.power} out of range for place {gen.place}")
    pos = places.index(gen.place)
    exps = [0] * len(places)
    exps[pos] = spec.p ** (s - gen.power)
    return GroupElement(spec, tuple(exps))

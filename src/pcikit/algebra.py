"""Exact arithmetic in the rational group algebra Q[G].

Elements are dense coefficient vectors over the canonical element
enumeration, stored as integer numerators on one common denominator and
fully reduced, so equality is plain tuple comparison with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InconsistencyError, InvariantError, SpecMismatchError
from .groups import (
    GroupElement,
    GroupSpec,
    PrimaryGroupSpec,
    element_index,
    elements,
    enumeration,
    identity,
    index_set,
    member_index,
    subgroup_closure,
)
from .kernels import convolve_ints, squares_to
from .numtheory import euler_phi, prime_power


def lowest_terms(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """nums/den in lowest terms: den > 0, gcd(den, *nums) == 1, and den == 1
    for the zero vector.  Every exact type normalises through this, or
    through its int64 twin lowest_terms_int64.

    >>> lowest_terms((2, -4), -6)
    ((-1, 2), 3)
    >>> lowest_terms((6, 9), 12)
    ((2, 3), 4)
    >>> lowest_terms((0, 0), 5)
    ((0, 0), 1)
    """
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        nums = tuple(-v for v in nums)
        den = -den
    g = math.gcd(den, *nums)  # == den for the zero vector
    if g > 1:
        nums = tuple(v // g for v in nums)
        den //= g
    return nums, den


def lowest_terms_int64(nums: np.ndarray, den: int) -> tuple[tuple[int, ...], int]:
    """lowest_terms of an int64 array, normalised by np.gcd.reduce, which is
    exact on int64; the entries and their negatives must fit in int64."""
    den = int(den)
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        nums, den = -nums, -den
    g = math.gcd(int(np.gcd.reduce(nums)), den)  # == den for the zero vector
    if g > 1:
        nums, den = nums // g, den // g
    return tuple(nums.tolist()), den


def integer_form(values: Iterable) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    fracs = [Fraction(c) for c in values]
    den = math.lcm(1, *(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def fraction_strings(nums: Sequence[int], den: int) -> list[str]:
    """Each nums[i]/den as an exact "num/den" string in lowest terms.  Each
    distinct numerator is formatted once; equal entries share one string.

    >>> fraction_strings((0, -2, 3, 2**64, 3), 6)
    ['0/1', '-1/3', '1/2', '9223372036854775808/3', '1/2']
    >>> fraction_strings((0, 5, -7), 1)
    ['0/1', '5/1', '-7/1']
    """
    text = {}
    for v in set(nums):
        g = math.gcd(v, den)
        text[v] = f"{v // g}/{den // g}"
    return list(map(text.__getitem__, nums))


class _Lattice:
    """Exact element on an integer lattice: numerators nums, indexed
    mixed-radix over the cyclic orders _orders, on one denominator den, kept
    in lowest terms.  Sums, scaling and the convolution product are exact
    integer operations.  Subclasses give _orders and their own equality,
    and override _like when their constructor takes more than
    (spec, nums, den)."""

    __slots__ = ("spec", "nums", "den")

    def __init__(self, spec: GroupSpec, nums: Iterable[int], den: int = 1):
        self._assign(spec, *lowest_terms(tuple(map(int, nums)), int(den)))

    def _assign(self, spec: GroupSpec, nums: tuple[int, ...], den: int):
        object.__setattr__(self, "spec", spec)
        if len(nums) != math.prod(self._orders):
            raise InvariantError("numerator count != lattice size")
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _in_lowest_terms(cls, spec: GroupSpec, nums: tuple[int, ...], den: int):
        """The element nums/den of a lattice whose state is (spec, nums,
        den), taken as given: nums a tuple of ints already in lowest terms
        over den (see lowest_terms)."""
        self = object.__new__(cls)
        self._assign(spec, nums, den)
        return self

    @classmethod
    def _from_int64(cls, spec: GroupSpec, nums: np.ndarray, den: int):
        """The element nums/den from an int64 array (see lowest_terms_int64)."""
        return cls._in_lowest_terms(spec, *lowest_terms_int64(nums, den))

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, nums: Iterable[int], den: int):
        return type(self)(self.spec, nums, den)

    def _check(self, other: "_Lattice"):
        if type(other) is not type(self) or self.spec != other.spec:
            raise SpecMismatchError("elements belong to different group algebras")

    def __add__(self, other):
        return lattice_sum((self, other))

    def __sub__(self, other):
        return lattice_sum((self, -other))

    def __neg__(self):
        return self._like((-v for v in self.nums), self.den)

    def scaled(self, c):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return self._like((v * c.numerator for v in self.nums), self.den * c.denominator)

    def _product(self, other):
        """Convolution over the lattice's cyclic orders."""
        self._check(other)
        nums = convolve_ints(self.nums, other.nums, self._orders)
        return self._like(nums, self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, _Lattice):
            return self._product(other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)


def lattice_sum(terms: Iterable[_Lattice]) -> _Lattice:
    """Exact sum of a nonempty run of elements of one algebra: terms on one
    denominator are added column-wise, those partial sums are scaled to the
    least common denominator, and the total is normalised once.

    >>> from pcikit.groups import parse_group_spec
    >>> spec = parse_group_spec("2:[1]")
    >>> halves = [AlgebraElement(spec, (1, 1), 2), AlgebraElement(spec, (1, -1), 2)]
    >>> lattice_sum(halves + [AlgebraElement(spec, (0, 1), 3)]).to_strings()
    ['1/1', '1/3']
    """
    terms = list(terms)
    if not terms:
        raise InvariantError("empty sum")
    by_den: dict[int, list[tuple[int, ...]]] = {}
    for t in terms:
        terms[0]._check(t)
        by_den.setdefault(t.den, []).append(t.nums)
    den = math.lcm(*by_den)
    scaled = [
        [v * (den // d) for v in map(sum, zip(*rows))] for d, rows in by_den.items()
    ]
    return terms[0]._like(map(sum, zip(*scaled)), den)


class AlgebraElement(_Lattice):
    """Element of Q[G] with exact rational coefficients; the lattice is G."""

    __slots__ = ()

    @property
    def _orders(self) -> tuple[int, ...]:
        return self.spec.factor_orders

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls(spec, (0,) * spec.order)

    @classmethod
    def one(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls.basis(spec, identity(spec))

    @classmethod
    def basis(cls, spec: GroupSpec, g: GroupElement) -> "AlgebraElement":
        nums = [0] * spec.order
        nums[member_index(spec, g)] = 1
        return cls(spec, nums)

    @classmethod
    def from_coeffs(cls, spec: GroupSpec, coeffs) -> "AlgebraElement":
        nums, den = integer_form(coeffs)
        return cls(spec, nums, den)

    # -- accessors ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.nums) if v)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.spec == other.spec
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        group = self.spec.spec_text() or self.spec  # the trivial group is "C_1"
        return f"AlgebraElement({group}, {list(self.to_strings())})"

    # -- serialization ------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as exact "num/den" strings in enumeration order."""
        return fraction_strings(self.nums, self.den)

    @classmethod
    def from_strings(cls, spec: GroupSpec, strings: Sequence[str]) -> "AlgebraElement":
        return cls.from_coeffs(spec, strings)


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Group-algebra product: coefficient of g*h accumulates a_g * b_h."""
    return a._product(b)


def _rational(a) -> None:
    """Raise SpecMismatchError unless a is in Q[G] (no CycloAlgebraElement is)."""
    if not isinstance(a, AlgebraElement):
        raise SpecMismatchError("not an element of Q[G]")


def is_idempotent(a: AlgebraElement) -> bool:
    """a*a == a, tested pointwise on the transform by kernels.squares_to."""
    _rational(a)
    return squares_to(a.nums, a.den, a.spec.factor_orders)


def are_orthogonal(a: AlgebraElement, b: AlgebraElement) -> bool:
    """a*b == 0, by forming the product."""
    _rational(a)
    return convolve(a, b).is_zero()


def translate(g: GroupElement, a: AlgebraElement) -> AlgebraElement:
    """Left multiplication by the group element g (a basis permutation)."""
    _rational(a)
    perm = enumeration(a.spec.factor_orders).translation(member_index(a.spec, g))
    nums = [0] * a.spec.order
    for j, v in enumerate(a.nums):
        if v:
            nums[perm[j]] = v
    return AlgebraElement(a.spec, nums, a.den)


@dataclass(frozen=True)
class FactoredIdempotent:
    """Symbolic idempotent: the average over the subgroup generated by
    kernel_gens, optionally times (1 - average of the primed element's
    p-th-root cycle)."""

    spec: PrimaryGroupSpec
    kernel_gens: tuple[GroupElement, ...]
    primed: GroupElement | None = None


def expand_from_subgroup(
    spec: PrimaryGroupSpec,
    kernel: np.ndarray,
    primed: GroupElement | None,
) -> AlgebraElement:
    """Expansion of K-average times (1 - (1 + z + ... + z^(p-1))/p) for an
    already-computed subgroup K, given as an array of distinct element
    indices; with primed None, the average of K alone."""
    size = len(kernel)
    nums = np.zeros(spec.order, dtype=np.int64)
    if primed is None:
        nums[kernel] = 1
        return AlgebraElement._from_int64(spec, nums, size)
    z = element_index(primed)
    if (kernel == z).any():
        raise InvariantError("primed element lies in the averaged subgroup")
    p, enum = spec.p, enumeration(spec.factor_orders)
    # common denominator p*|K|: p at kernel positions minus the z-cycle counts
    nums[kernel] = p
    cur = kernel
    for _ in range(p):
        nums[cur] -= 1  # each translate of K has distinct indices
        cur = enum.product(z, cur)
    return AlgebraElement._from_int64(spec, nums, p * size)


def expand_factored(f: FactoredIdempotent) -> AlgebraElement:
    """Exact coefficient vector of a factored idempotent.

    With K the subgroup generated by kernel_gens and z the primed element,
    the expansion is K-average times (1 - (1 + z + ... + z^(p-1))/p).
    """
    return expand_from_subgroup(
        f.spec, subgroup_closure(f.spec, f.kernel_gens), f.primed
    )


def fraction_free_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination; all intermediate values stay integral."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            factor = m[i][col]
            for j in range(col, n_cols):
                m[i][j] = (pivot * m[i][j] - factor * m[rank][j]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


@dataclass(frozen=True)
class KernelInfo:
    """Kernel subgroup of an idempotent, as sorted element indices, plus
    the invariants of the simple component it generates.  The kernel is
    left out of == and hash, since arrays do not compare as one value."""

    kernel: np.ndarray = field(compare=False)
    quotient_order: int
    dim: int

    @property
    def field_index(self) -> int | None:
        """r with quotient order p^r, or None when it is not a prime power."""
        if self.quotient_order == 1:
            return 0
        pp = prime_power(self.quotient_order)
        return pp[1] if pp else None


def kernel_subgroup(e: AlgebraElement) -> np.ndarray:
    """{g : g*e = e} as sorted element indices, grown as a stabiliser.

    A translation g fixing e maps the support onto itself keeping values,
    so g*s0 has the value of s0 for the first support index s0; only those
    candidates g are tested, each on the whole support (enough, as
    translation is a bijection).  With S the fixing subgroup found so far,
    a fixing candidate c grows S to S<c>, at least doubling it; a failing
    one rules out its whole coset cS, as cs fixes e only if c does.  So
    the tests number at most the S-cosets among the candidates plus
    log2|G|.  The zero element is fixed by all of G."""
    _rational(e)
    spec = e.spec
    try:
        vals = np.array(e.nums, dtype=np.int64)
    except OverflowError:  # entries beyond int64: compare the exact ints
        vals = np.array(e.nums, dtype=object)
    supp = np.flatnonzero(vals)
    if not supp.size:
        return index_set(np.ones(spec.order, dtype=bool))
    enum = enumeration(spec.factor_orders)
    s0 = supp[0]
    same = supp[vals[supp] == vals[s0]]
    undecided = enum.product(same, enum.inverse[s0])
    fixed = np.zeros(spec.order, dtype=bool)  # S, the identity at index 0
    fixed[0] = True
    decided = fixed.copy()  # in S, or in a coset known not to fix e
    while (undecided := undecided[~decided[undecided]]).size:
        c, members = undecided[0], np.flatnonzero(fixed)
        if not (vals[enum.product(c, supp)] == vals[supp]).all():
            decided[enum.product(c, members)] = True
            continue
        power = c
        while not fixed[power]:  # add the cosets c^k S, up to c^k in S
            fixed[enum.product(power, members)] = True
            power = enum.product(power, c)
        decided |= fixed
    return index_set(fixed)


def kernel_and_field(e: AlgebraElement) -> KernelInfo:
    """Kernel, cyclic quotient order and exact component dimension of a
    primitive idempotent; raises if e is not idempotent or not primitive."""
    if not is_idempotent(e):
        raise InvariantError("input is not an idempotent")
    spec = e.spec
    # the distinct translates of e span Q[G]e, so their rank is its dimension
    rows = dict.fromkeys(translate(g, e).nums for g in elements(spec))
    kernel = kernel_subgroup(e)
    quotient = spec.order // len(kernel)
    dim = fraction_free_rank(list(rows))
    if dim != euler_phi(quotient):
        raise InconsistencyError(
            f"component dimension {dim} != phi({quotient}); input is not primitive"
        )
    return KernelInfo(kernel, quotient, dim)

"""Exact arithmetic in the rational group algebra Q[G].

Elements are dense coefficient vectors over the canonical element
enumeration, stored as integer numerators on one common denominator and
fully reduced, so equality is plain tuple comparison with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantError, SpecMismatchError
from .groups import (
    GroupElement,
    GroupSpec,
    PrimaryGroupSpec,
    element_index,
    enumeration,
    identity,
    index_set,
    member_index,
    subgroup_closure,
)
from .kernels import convolve_ints, squares_to


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


def int_array(values) -> np.ndarray:
    """values as an int64 array, or as an object array of Python ints when
    one of them does not fit int64.  The dtype is always given: numpy left
    to itself reads [2**63, 1] as float64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def lowest_terms_int64(nums: np.ndarray, den: int) -> tuple[tuple[int, ...], int]:
    """lowest_terms of an int64 array, normalised by np.gcd.reduce, which is
    exact on int64 when the entries and their negatives fit in int64, and on
    an object array of Python ints (see int_array)."""
    den = int(den)
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        nums, den = -nums, -den
    g = math.gcd(int(np.gcd.reduce(nums)), den)  # == den for the zero vector
    if g > 1:
        if g >= 2**63:  # only the zero vector of an int64 array gets here
            nums = nums.astype(object)
        nums, den = nums // g, den // g
    return tuple(nums.tolist()), den


def integer_form(values: Iterable) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    fracs = [Fraction(c) for c in values]
    den = math.lcm(1, *(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


class FractionList:
    """The rationals nums[i]/den as exact "num/den" strings in lowest terms,
    held as a table of the distinct strings plus, for each entry, the
    position of its string in that table.  One sort and one binary search
    find them (np.unique with return_inverse took 2-8 times as long on pci
    rows), only the distinct numerators are reduced and formatted, and
    writing the list is one gather and one join.  cli's JSON writer writes
    it as a list of strings.  nums may be an int64 or object array (see
    int_array), which is read as it is, with no copy.

    >>> f = FractionList((0, -2, 3, 2**64, 3), 6)
    >>> f.table, f.index.tolist()
    (['-1/3', '0/1', '1/2', '9223372036854775808/3'], [1, 0, 2, 3, 2])
    >>> f.join(", ")
    '0/1, -1/3, 1/2, 9223372036854775808/3, 1/2'
    """

    __slots__ = ("table", "index")

    def __init__(self, nums: Sequence[int] | np.ndarray, den: int):
        vals = nums if isinstance(nums, np.ndarray) else int_array(nums)
        ordered = np.sort(vals)
        starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1  # a new value
        distinct = np.concatenate((ordered[:1], ordered[starts]))
        den = int(den)
        table = []
        for v in distinct.tolist():
            g = math.gcd(v, den)
            table.append(f"{v // g}/{den // g}")
        self.table, self.index = table, np.searchsorted(distinct, vals)

    def __len__(self) -> int:
        return len(self.index)

    def strings(self, form=None) -> list[str]:
        """The strings in entry order, each first passed through form when
        it is given (once per distinct string)."""
        table = self.table if form is None else list(map(form, self.table))
        return np.array(table, dtype=object)[self.index].tolist()

    def join(self, sep: str, form=None) -> str:
        return sep.join(self.strings(form))


def fraction_strings(nums: Sequence[int], den: int) -> list[str]:
    """Each nums[i]/den as an exact "num/den" string in lowest terms (see
    FractionList).

    >>> fraction_strings((0, -2, 3, 2**64, 3), 6)
    ['0/1', '-1/3', '1/2', '9223372036854775808/3', '1/2']
    >>> fraction_strings((0, 5, -7), 1)
    ['0/1', '5/1', '-7/1']
    """
    return FractionList(nums, den).strings()


class _Lattice:
    """Exact element on an integer lattice: numerators nums, indexed
    mixed-radix over the cyclic orders lattice_orders, on one denominator
    den, kept in lowest terms.  Sums, scaling and the convolution product
    are exact integer operations.  Subclasses give lattice_orders and their
    own equality, and override _like when their constructor takes more than
    (spec, nums, den)."""

    __slots__ = ("spec", "nums", "den")

    def __init__(self, spec: GroupSpec, nums: Iterable[int], den: int = 1):
        self._assign(spec, *lowest_terms(tuple(map(int, nums)), int(den)))

    def _assign(self, spec: GroupSpec, nums: tuple[int, ...], den: int):
        object.__setattr__(self, "spec", spec)
        if len(nums) != math.prod(self.lattice_orders):
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
        """The element nums/den from an int64 array, or an object array of
        Python ints (see lowest_terms_int64)."""
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
        nums = convolve_ints(self.nums, other.nums, self.lattice_orders)
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
    def lattice_orders(self) -> tuple[int, ...]:
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


def expansion_numerators(
    spec: PrimaryGroupSpec,
    kernel: np.ndarray,
    primed: GroupElement | None,
) -> tuple[np.ndarray, int]:
    """expand_from_subgroup's element as int64 numerators over a
    denominator, not yet in lowest terms."""
    size = len(kernel)
    nums = np.zeros(spec.order, dtype=np.int64)
    if primed is None:
        nums[kernel] = 1
        return nums, size
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
    return nums, p * size


def expand_from_subgroup(
    spec: PrimaryGroupSpec,
    kernel: np.ndarray,
    primed: GroupElement | None,
) -> AlgebraElement:
    """Expansion of K-average times (1 - (1 + z + ... + z^(p-1))/p) for an
    already-computed subgroup K, given as an array of distinct element
    indices; with primed None, the average of K alone."""
    return AlgebraElement._from_int64(spec, *expansion_numerators(spec, kernel, primed))


def expand_factored(f: FactoredIdempotent) -> AlgebraElement:
    """Exact coefficient vector of a factored idempotent.

    With K the subgroup generated by kernel_gens and z the primed element,
    the expansion is K-average times (1 - (1 + z + ... + z^(p-1))/p).
    """
    return expand_from_subgroup(
        f.spec, subgroup_closure(f.spec, f.kernel_gens), f.primed
    )


def kernel_subgroup(e: AlgebraElement) -> np.ndarray:
    """{g : g*e = e} as sorted element indices (see fixing_subgroup).  The
    zero element is fixed by all of G."""
    _rational(e)
    return fixing_subgroup(e.spec, int_array(e.nums))


def fixing_subgroup(spec: GroupSpec, vals: np.ndarray) -> np.ndarray:
    """{g : g*v = v} as sorted element indices, for the coefficient array
    vals of v over spec's enumeration, grown as a stabiliser.  Scaling vals
    by a nonzero factor does not change it.

    A translation g fixing v maps the support onto itself keeping values,
    so g*s0 has the value of s0 for the first support index s0; only those
    candidates g are tested, each on the whole support (enough, as
    translation is a bijection).  With S the fixing subgroup found so far,
    a fixing candidate c grows S to S<c>, at least doubling it; a failing
    one rules out its whole coset cS, as cs fixes v only if c does.  So
    the tests number at most the S-cosets among the candidates plus
    log2|G|."""
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

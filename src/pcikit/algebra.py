"""Exact arithmetic in the rational group algebra Q[G].

Elements are dense coefficient vectors over the canonical element
enumeration, stored as integer numerators on one common denominator and
fully reduced: one read-only array (see kernels.int_array), built by the
one normaliser lowest_terms, so equality is a comparison of the arrays with
zero tolerance.
"""

from __future__ import annotations

import math
import operator
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
from .kernels import convolve_ints, int_array, max_abs, squares_to_rows


def lowest_terms(nums, den: int) -> tuple[np.ndarray, int]:
    """nums/den in lowest terms: the numerators as one read-only array (see
    int_array), den > 0, gcd(den, *nums) == 1, and den == 1 for the zero
    vector.  nums may be any integers: an iterable, an int64 array or an
    object array.  Every exact type normalises through this.

    >>> nums, den = lowest_terms((2, -4), -6); nums.tolist(), den
    ([-1, 2], 3)
    >>> nums, den = lowest_terms((6, 9), 12); nums.tolist(), den
    ([2, 3], 4)
    >>> nums, den = lowest_terms((0, 0), 5); nums.tolist(), den
    ([0, 0], 1)
    """
    den = operator.index(den)
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    arr = int_array(nums)
    if den < 0:
        arr, den = -arr, -den
    if den > 1:
        g = math.gcd(int(np.gcd.reduce(arr)), den)  # == den for the zero vector
        if g > 1:
            den //= g
            if arr.dtype == object:
                arr = int_array(arr // g)  # the quotients may fit int64
            elif g < 2**63:  # else arr is zero, as g divides every entry
                arr = arr // g
    if arr is nums and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr, den


def exact_sum(terms: Sequence[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """The sum of the nonempty run of rationals nums/den, each nums an
    integer array (see int_array) of one length, as numerators over the
    least common denominator, not yet in lowest terms.  It is formed in
    int64 when the sum over the terms of max|nums| * (lcm / den) is below
    2^63, which bounds every partial sum, and on Python ints otherwise."""
    den = math.lcm(*(d for _, d in terms))
    tops = [max_abs(v) for v, _ in terms]
    bound = sum(top * (den // d) for top, (_, d) in zip(tops, terms))
    dtype = np.int64 if bound < 2**63 else object
    by_den: dict[int, np.ndarray] = {}  # terms on one denominator, added first
    for top, (v, d) in zip(tops, terms):
        if d in by_den:
            by_den[d] += v.astype(dtype, copy=False)
        elif top:  # a zero term's scale need not fit int64
            by_den[d] = v.astype(dtype)
    total = np.zeros(len(terms[0][0]), dtype=dtype)
    for d, part in by_den.items():
        total += part if d == den else part * (den // d)
    return total, den


def integer_form(values: Iterable) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    fracs = [Fraction(c) for c in values]
    den = math.lcm(1, *(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _fraction(num: int, den: int) -> str:
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


class FractionList:
    """The rationals nums[..., j]/den as exact "num/den" strings in lowest
    terms: a 1-D nums over one den, or a 2-D block of rows over one den or
    a list of one den per row.  They are held as a table of the distinct strings, one per
    distinct (den, numerator), plus, for each entry, the position of its
    string in that table.  Only the distinct fractions are reduced and
    formatted, and writing the entries is one gather and one join.

    The distinct numerators are found by one sort and one binary search per
    den.  nums may be an int64 or object array (see int_array), which is
    read as it is, with no copy.

    >>> f = FractionList((0, -2, 3, 2**64, 3), 6)
    >>> f.table, f.index.tolist()
    (['-1/3', '0/1', '1/2', '9223372036854775808/3'], [1, 0, 2, 3, 2])
    >>> ", ".join(f.strings())
    '0/1, -1/3, 1/2, 9223372036854775808/3, 1/2'
    >>> rows = FractionList(np.array([[2, 0, -2], [2, 2, 0]]), [4, 2])
    >>> rows.strings()
    [['1/2', '0/1', '-1/2'], ['1/1', '1/1', '0/1']]
    >>> rows.rows_text(" ", ["a: ", "; b: "], ".")
    'a: 1/2 0/1 -1/2; b: 1/1 1/1 0/1.'
    """

    __slots__ = ("table", "index")

    def __init__(self, nums: Sequence[int] | np.ndarray, den: int | list[int]):
        vals = nums if isinstance(nums, np.ndarray) else int_array(nums)
        block = vals if vals.ndim == 2 else vals.reshape(1, -1)
        # den: one for every row, or a list of one per row
        distinct = list(dict.fromkeys(den)) if isinstance(den, list) else [den]
        slots = None
        if len(distinct) > 1:
            slot = {d: s for s, d in enumerate(distinct)}
            slots = np.array([slot[d] for d in den], dtype=np.int64)
        table: list[str] = []
        index = np.empty(block.shape, dtype=np.int64)
        for s, d in enumerate(distinct):
            rows = slice(None) if slots is None else slots == s
            part = block[rows]
            ordered = np.sort(part, axis=None)
            starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1  # a new value
            values = np.concatenate((ordered[:1], ordered[starts]))
            index[rows] = len(table) + np.searchsorted(values, part)
            table += [_fraction(v, int(d)) for v in values.tolist()]
        self.table, self.index = table, index.reshape(vals.shape)

    def _formed(self, form) -> list[str]:
        # the table, each string passed through form when it is given
        return self.table if form is None else list(map(form, self.table))

    def strings(self, form=None) -> list:
        """The strings in entry order (a list of row lists for a block),
        each first passed through form when it is given (once per distinct
        string)."""
        return np.array(self._formed(form), dtype=object)[self.index].tolist()

    def rows_text(self, sep: str, heads: Sequence[str], end: str, form=None) -> str:
        """heads[0] + row 0's strings joined by sep + heads[1] + row 1's
        ... + end, for a block; form as in strings.  One gather over the
        table with sep already prefixed, one tolist and one join."""
        if not self.index.size:
            return "".join(heads) + end
        table = self._formed(form)
        cells = np.array([sep + s for s in table], dtype=object)[self.index]
        firsts = self.index[:, 0].tolist()
        cells[:, 0] = [head + table[i] for head, i in zip(heads, firsts)]
        cells[-1, -1] += end
        return "".join(cells.ravel().tolist())


def fraction_strings(nums: Sequence[int], den: int) -> list[str]:
    """Each nums[i]/den as an exact "num/den" string in lowest terms (see
    FractionList).

    >>> fraction_strings((0, -2, 3, 2**64, 3), 6)
    ['0/1', '-1/3', '1/2', '9223372036854775808/3', '1/2']
    >>> fraction_strings((0, 5, -7), 1)
    ['0/1', '5/1', '-7/1']
    """
    return FractionList(nums, den).strings()


def _numerator_key(arr: np.ndarray):
    """A hashable value that two canonical numerator arrays of one length
    share exactly when they are equal: the bytes of an int64 array, the
    tuple of an object one (see int_array)."""
    return tuple(arr.tolist()) if arr.dtype == object else arr.tobytes()


class _Lattice:
    """Exact element on an integer lattice: numerators nums, indexed
    mixed-radix over the cyclic orders lattice_orders, on one denominator
    den, kept in lowest terms (see lowest_terms).  Sums, scaling and the
    convolution product are exact integer operations.  Subclasses give
    lattice_orders, override _value when equality compares another form,
    and override _like when their constructor takes more than
    (spec, nums, den)."""

    __slots__ = ("spec", "nums", "den", "_hash")

    def __init__(self, spec: GroupSpec, nums: Iterable[int], den: int = 1):
        nums, den = lowest_terms(nums, den)
        object.__setattr__(self, "spec", spec)
        if nums.shape != (math.prod(self.lattice_orders),):
            raise InvariantError("numerator count != lattice size")
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, nums: Iterable[int], den: int):
        return type(self)(self.spec, nums, den)

    def _check(self, other: "_Lattice"):
        if type(other) is not type(self) or self.spec != other.spec:
            raise SpecMismatchError("elements belong to different group algebras")

    def _value(self) -> tuple:
        """What == and hash compare besides the group: a hashable head and a
        numerator array (see _numerator_key); here den and nums."""
        return self.den, self.nums

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        (head, nums), (other_head, other_nums) = self._value(), other._value()
        return (
            head == other_head
            and (self.spec is other.spec or self.spec == other.spec)
            and _numerator_key(nums) == _numerator_key(other_nums)
        )

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            head, nums = self._value()
            cached = hash((head, _numerator_key(nums)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def is_zero(self) -> bool:
        return not self._value()[1].any()

    def __add__(self, other):
        return lattice_sum((self, other))

    def __sub__(self, other):
        return lattice_sum((self, -other))

    def __neg__(self):
        return self._like(-self.nums, self.den)

    def scaled(self, c):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        nums = self.nums
        if max(max_abs(nums), 1) * abs(c.numerator) >= 2**63:
            nums = nums.astype(object)
        return self._like(nums * c.numerator, self.den * c.denominator)

    def _product(self, other):
        """Convolution over the lattice's cyclic orders."""
        self._check(other)
        # as lists: perfbench's tracer counts the nonzeros of convolve_ints'
        # arguments with list.count
        nums = convolve_ints(self.nums.tolist(), other.nums.tolist(), self.lattice_orders)
        return self._like(nums, self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, _Lattice):
            return self._product(other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)


def lattice_sum(terms: Iterable[_Lattice]) -> _Lattice:
    """Exact sum of a nonempty run of elements of one algebra (see
    exact_sum), normalised once.

    >>> from pcikit.groups import parse_group_spec
    >>> spec = parse_group_spec("2:[1]")
    >>> halves = [AlgebraElement(spec, (1, 1), 2), AlgebraElement(spec, (1, -1), 2)]
    >>> lattice_sum(halves + [AlgebraElement(spec, (0, 1), 3)]).to_strings()
    ['1/1', '1/3']
    """
    terms = list(terms)
    if not terms:
        raise InvariantError("empty sum")
    for t in terms:
        terms[0]._check(t)
    return terms[0]._like(*exact_sum([(t.nums, t.den) for t in terms]))


class AlgebraElement(_Lattice):
    """Element of Q[G] with exact rational coefficients; the lattice is G."""

    __slots__ = ()

    @property
    def lattice_orders(self) -> tuple[int, ...]:
        return self.spec.factor_orders

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls(spec, np.zeros(spec.order, dtype=np.int64))

    @classmethod
    def one(cls, spec: GroupSpec) -> "AlgebraElement":
        return cls.basis(spec, identity(spec))

    @classmethod
    def basis(cls, spec: GroupSpec, g: GroupElement) -> "AlgebraElement":
        nums = np.zeros(spec.order, dtype=np.int64)
        nums[member_index(spec, g)] = 1
        return cls(spec, nums)

    @classmethod
    def from_coeffs(cls, spec: GroupSpec, coeffs) -> "AlgebraElement":
        nums, den = integer_form(coeffs)
        return cls(spec, nums, den)

    # -- accessors ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums.tolist())

    def __repr__(self) -> str:
        group = self.spec.spec_text() or self.spec  # the trivial group is "C_1"
        return f"AlgebraElement({group}, {list(self.to_strings())})"

    # -- serialization ------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as exact "num/den" strings in enumeration order."""
        return fraction_strings(self.nums, self.den)


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Group-algebra product: coefficient of g*h accumulates a_g * b_h."""
    return a._product(b)


def _rational(a) -> None:
    """Raise SpecMismatchError unless a is in Q[G] (no CycloAlgebraElement is)."""
    if not isinstance(a, AlgebraElement):
        raise SpecMismatchError("not an element of Q[G]")


def is_idempotent(a: AlgebraElement) -> bool:
    """a*a == a, tested pointwise on the transform by kernels.squares_to_rows."""
    _rational(a)
    return bool(squares_to_rows([a.nums], [a.den], a.spec.factor_orders)[0])


def are_orthogonal(a: AlgebraElement, b: AlgebraElement) -> bool:
    """a*b == 0, by forming the product."""
    _rational(a)
    return convolve(a, b).is_zero()


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
    return AlgebraElement(spec, *expansion_numerators(spec, kernel, primed))


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
    return fixing_subgroup(e.spec, e.nums)


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

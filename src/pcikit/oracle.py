"""Independent ground truth for the engine.

Classical character theory gives every primitive central idempotent of Q[G]
directly: sum the complex character idempotents over a Galois orbit, which
reduces to Ramanujan sums and stays exactly rational.  This module also
computes the element-order census and the closed-form component counts it
certifies, without touching the inductive construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import AlgebraElement
from .cyclotomic import ramanujan_sum
from .errors import (
    GroupSpecError,
    InconsistencyError,
    SpecMismatchError,
    VerificationError,
)
from .groups import Enumeration, GroupSpec, PrimaryGroupSpec, enumeration
from .kernels import _BLOCK_CELLS, max_abs
from .numtheory import euler_phi


@cache
def _ramanujan_table(m: int) -> np.ndarray:
    # c_m(j) for j < m; read-only, as every caller shares it
    table = np.array([ramanujan_sum(m, j) for j in range(m)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _value_table(L: int, m: int, dtype) -> np.ndarray:
    """For a character of order m of a group of exponent L, the numerator
    over |G| at g, by the exponent w < L of chi(g) = zeta_L^w: c_m(a) with
    chi(g^-1) = zeta_m^a, a = -w / (L/m) mod m.  A w that L/m does not
    divide lies outside the character's own root lattice; its entry is the
    least value of dtype, which must lie below -phi(m) <= every c_m."""
    table = np.full(L, np.iinfo(dtype).min, dtype=dtype)
    table[:: L // m] = _ramanujan_table(m)[-np.arange(m) % m]
    return table


def _character_rows(
    table: np.ndarray, weights: np.ndarray, digits: np.ndarray, L: int
) -> np.ndarray:
    """The numerators over |G| of the rational idempotents of a block of
    characters of one order, from that order's _value_table: row c is the
    gather of table at w = weights[c] @ digits.T mod L, the exponents of
    the character's values on every element."""
    w = weights @ digits.T
    w %= L
    rows = np.take(table, w, mode="clip")  # w indexes table, so "clip" changes nothing
    if rows.size and rows.min() == np.iinfo(table.dtype).min:
        raise InconsistencyError("character value outside its own root lattice")
    return rows


class RowSet:
    """Rows of rationals nums[i] / den over one denominator, nums a 2-D
    integer array of a fixed-width dtype, each found by its bytes in that
    dtype.  A multiset of idempotents held this way is compared with
    blocks of records row by row, with no element per row (see find and
    matched)."""

    def __init__(self, nums: np.ndarray, den: int):
        self.den, self.dtype = den, nums.dtype
        self._keys = [row.tobytes() for row in nums]
        self._index = {key: i for i, key in enumerate(self._keys)}
        # two equal rows share one key, so find never gives the second
        self.distinct = len(self._index) == len(self._keys)

    def elements(self, spec: GroupSpec) -> list[AlgebraElement]:
        return [
            AlgebraElement(spec, np.frombuffer(key, self.dtype).astype(np.int64), self.den)
            for key in self._keys
        ]

    def find(self, nums: np.ndarray, dens: list[int]) -> np.ndarray:
        """For each row nums[i] / dens[i] of a block (a 2-D integer array,
        see kernels.int_array), the index of the set's row equal to it, or
        -1: the row is put over den, in the set's dtype, and looked up by
        its bytes.  A row whose denominator does not divide den, or whose
        numerators over den do not fit int64, is not found even when it is
        equal; one that does not fit the set's dtype equals no row."""
        found = np.full(len(dens), -1, dtype=np.int64)
        factors = np.array(
            [self.den // d if d > 0 and self.den % d == 0 else 0 for d in dens],
            dtype=np.int64,
        )
        if nums.dtype == object or max_abs(nums) * int(factors.max()) >= 2**63:
            return found
        over = nums * factors[:, None]
        info = np.iinfo(self.dtype)
        fits = (factors > 0) & (over.min(axis=1) >= info.min) & (over.max(axis=1) <= info.max)
        narrow = over.astype(self.dtype)  # exact on the rows that fit
        for i in np.flatnonzero(fits).tolist():
            found[i] = self._index.get(narrow[i].tobytes(), -1)
        return found

    def matched(self, found: list[np.ndarray]) -> bool:
        """Whether the rows whose find results are the arrays `found` are
        this set's rows, each as often: every one was found, and every row
        of the set, all distinct, exactly once.  False does not say that
        the multisets differ (see find)."""
        hits = np.sort(np.concatenate(found))
        return self.distinct and np.array_equal(hits, np.arange(len(self._keys)))


def _element_orders(digits: np.ndarray, factor_orders: tuple[int, ...]) -> np.ndarray:
    """The order of each element of the enumeration with these digit rows:
    the lcm over its digits e, one per cyclic factor of order d, of
    d // gcd(e, d), formed one digit column at a time."""
    orders = np.ones(len(digits), dtype=np.int64)
    for column, d in zip(digits.T, factor_orders):
        orders = np.lcm(orders, d // np.gcd(column, d))
    return orders


def _orbit_firsts(enum: Enumeration, L: int) -> np.ndarray:
    """For each character index, the least index in its Galois orbit
    {chi^k : k a unit mod L}: Enumeration.power over the units, in blocks."""
    units = np.array([k for k in range(1, L + 1) if math.gcd(k, L) == 1])
    index = np.arange(enum.order)
    firsts = index.copy()
    step = max(1, _BLOCK_CELLS // max(1, enum.digits.size))
    for start in range(0, len(units), step):
        powers = enum.power(index, units[start : start + step, None, None])
        np.minimum(firsts, powers.min(axis=0), out=firsts)
    return firsts


def oracle_rows(spec: GroupSpec) -> RowSet:
    """The complete set of primitive central idempotents of Q[G], one per
    Galois orbit of characters in the order of each orbit's first
    character, as numerator rows over |G|: the coefficient of g is the
    Ramanujan sum c_m(a) with chi(g^-1) = zeta_m^a and m = ord(chi).

    The rows of all |G| characters are formed as array passes, over the
    characters of one order m at a time, in blocks of at most
    kernels._BLOCK_CELLS entries: w = weights @ digits.T mod exp G, then
    one gather from m's _value_table, which also checks that every value
    lies in the character's own root lattice.  Each row is asserted equal
    to its orbit's first row, which is kept: equality of the idempotents
    within each orbit, on their numerators over the one denominator |G|.
    The kept rows take the narrowest dtype that holds every |c_m| <= phi(m)."""
    orders = spec.factor_orders
    enum = enumeration(orders)
    n, L, digits = spec.order, spec.exponent, enum.digits
    weights = digits * np.array([L // d for d in orders], dtype=np.int64)
    char_orders = _element_orders(digits, orders)
    firsts = _orbit_firsts(enum, L)
    slot = np.cumsum(firsts == np.arange(n)) - 1  # each first's row
    # np.bincount, as np.unique imports numpy.ma: milliseconds in a fresh process
    present = np.flatnonzero(np.bincount(char_orders)).tolist()
    dtype = np.min_scalar_type(-1 - max(euler_phi(m) for m in present))
    rows = np.empty((slot[-1] + 1, n), dtype=dtype)
    step = max(1, _BLOCK_CELLS // n)
    for m in present:
        table = _value_table(L, m, dtype)
        members = np.flatnonzero(char_orders == m)
        for start in range(0, len(members), step):
            chars = members[start : start + step]
            block = _character_rows(table, weights[chars], digits, L)
            first = firsts[chars] == chars
            rows[slot[chars[first]]] = block[first]
            others = chars[~first]
            differ = (rows[slot[firsts[others]]] != block[~first]).any(axis=1)
            if differ.any():
                j = others[differ.argmax()]
                raise InconsistencyError(
                    f"characters {tuple(digits[firsts[j]].tolist())} and "
                    f"{tuple(digits[j].tolist())} share a Galois orbit "
                    "but produced different idempotents"
                )
    return RowSet(rows, n)


def oracle_pci_set(spec: GroupSpec) -> list[AlgebraElement]:
    """oracle_rows as elements of Q[G]."""
    return oracle_rows(spec).elements(spec)


def order_census(spec: PrimaryGroupSpec) -> dict[int, int]:
    """Count elements by exact order, by full enumeration (see
    _element_orders)."""
    digits = enumeration(spec.factor_orders).digits
    counts = np.bincount(_element_orders(digits, spec.factor_orders))
    values = counts.nonzero()[0]
    return dict(zip(values.tolist(), counts[values].tolist()))


@dataclass(frozen=True)
class WedderburnRow:
    """Multiplicity of Q(zeta_{p^r}) in Q[G]: the exhaustive census value,
    the closed-form polynomial-in-p value, and the variant with the
    off-by-one exponent that the census rules out."""

    r: int
    cyclotomic_order: int
    a: int
    b: int
    c: int
    census: int
    formula: int
    statement_variant: int
    agree: bool


@dataclass(frozen=True)
class WedderburnProfile:
    p: int
    exponent: int
    rows: tuple[WedderburnRow, ...]


def wedderburn_profile(spec: PrimaryGroupSpec) -> WedderburnProfile:
    """Component multiplicities of Q[G] for a p-group.

    census(r) counts cyclic subgroups of order p^r (elements of that order
    divided by phi(p^r)); the closed form is
    p^(c_r + (r-1)(b_r - 1)) * (p^b_r - 1)/(p - 1) with a_s the multiplicity
    of C_{p^s}, b_r = a_r + ... + a_n and c_r = sum of s*a_s over s < r.
    A disagreement raises VerificationError.
    """
    if not isinstance(spec, PrimaryGroupSpec):
        raise GroupSpecError("component profile requires a one-prime group")
    p = spec.p
    n = spec.classes[0][0] if spec.classes else 0
    mult = dict(spec.classes)

    def a(r: int) -> int:
        return mult.get(r, 0)

    def b(r: int) -> int:
        return sum(a(s) for s in range(max(r, 1), n + 1))

    def c(r: int) -> int:
        return sum(s * a(s) for s in range(1, r))

    census_counts = order_census(spec)
    rows = [WedderburnRow(0, 1, 0, b(0), 0, 1, 1, 1, True)]
    for r in range(1, n + 1):
        e_count = census_counts.get(p**r, 0)
        phi_r = euler_phi(p**r)
        if e_count % phi_r:
            raise InconsistencyError(
                f"census {e_count} of order-{p**r} elements not divisible by phi"
            )
        census = e_count // phi_r
        geometric = (p ** b(r) - 1) // (p - 1)
        formula = p ** (c(r) + (r - 1) * (b(r) - 1)) * geometric
        variant = p ** (c(r) + (r - 1) * b(r - 1)) * geometric
        rows.append(
            WedderburnRow(
                r, p**r, a(r), b(r), c(r), census, formula, variant, formula == census
            )
        )
    total = sum(row.census * euler_phi(row.cyclotomic_order) for row in rows)
    if total != spec.order:
        raise InconsistencyError(
            f"census dimensions sum to {total}, expected {spec.order}"
        )
    bad = [row.r for row in rows if not row.agree]
    if bad:
        raise VerificationError(
            f"closed form disagrees with the census at r={bad} for {spec}"
        )
    return WedderburnProfile(p, n, tuple(rows))


@dataclass(frozen=True)
class PciSetComparison:
    equal: bool
    witness: AlgebraElement | None = None
    witness_side: str | None = None  # "left" or "right"


def compare_pci_sets(
    left: list[AlgebraElement], right: list[AlgebraElement]
) -> PciSetComparison:
    """Multiset comparison of the elements; on failure the witness is the
    first element, by (den, numerators), present more often on the named
    side."""
    both = left + right
    for e in both:
        if not isinstance(e, AlgebraElement) or e.spec != both[0].spec:
            raise SpecMismatchError("sets of Q[G] elements over different groups")
    lc, rc = Counter(left), Counter(right)
    if lc == rc:
        return PciSetComparison(True)
    for e in sorted(lc.keys() | rc.keys(), key=lambda e: (e.den, e.nums.tolist())):
        if lc[e] != rc[e]:
            return PciSetComparison(False, e, "left" if lc[e] > rc[e] else "right")
    raise AssertionError("unreachable")

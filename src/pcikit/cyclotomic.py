"""Exact arithmetic in cyclotomic fields Q(zeta_m) and in group algebras
with cyclotomic coefficients.

Both live on one integer lattice over (group element, zeta power), on one
common denominator, with the arithmetic of algebra's lattice core: products
are plain convolutions over the extended abelian group G x C_m (zeta is a
formal m-th root of unity), and reduction modulo the m-th cyclotomic
polynomial happens lazily, only for comparisons and output.
CycloAlgebraElement is Q(zeta_m)[G]; CycloNumber is Q(zeta_m), the same
lattice over the trivial group.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import cache
from typing import Iterable

import numpy as np

from .algebra import (
    _Lattice,
    fraction_strings,
    integer_form,
    lattice_sum,
    lowest_terms,
)
from .errors import InvariantError, SpecMismatchError
from .groups import AbelianGroupSpec, GroupElement, GroupSpec, member_index
from .kernels import int_array, max_abs
from .numtheory import cyclotomic_poly, euler_phi, mobius


def ramanujan_sum(m: int, t: int) -> int:
    """Sum of zeta_m^(t*k) over the k in 1..m coprime to m, as an exact
    integer via the closed form mu(m/d) * phi(m) / phi(m/d), d = gcd(t, m).

    >>> ramanujan_sum(4, 2)
    -2
    >>> ramanujan_sum(5, 0)
    4
    """
    if m < 1:
        raise InvariantError(f"modulus must be positive, got {m}")
    d = math.gcd(t % m, m)
    q = m // d
    return mobius(q) * (euler_phi(m) // euler_phi(q))


def ramanujan_sum_direct(m: int, t: int) -> "CycloNumber":
    """Same sum evaluated term by term in Q(zeta_m); the independent twin of
    the closed form."""
    return lattice_sum(
        CycloNumber.zeta(m, t * k) for k in range(1, m + 1) if math.gcd(k, m) == 1
    )


@cache
def _zeta_rows(m: int) -> np.ndarray:
    # Row j: the phi(m) coordinates of zeta^j over 1, zeta, zeta^2, ...:
    # row j + 1 is row j times zeta, with zeta^phi(m) written as minus the
    # lower terms of the m-th cyclotomic polynomial.  Read-only, as every
    # caller shares it.
    low = [-a for a in cyclotomic_poly(m)[:-1]]
    row = [1] + [0] * (len(low) - 1)
    rows = []
    for _ in range(m):
        rows.append(row)
        row = [s + row[-1] * a for s, a in zip([0] + row[:-1], low)]
    rows = np.array(rows, dtype=np.int64)
    rows.flags.writeable = False
    return rows


@cache
def _zeta_top(m: int) -> int:
    # max |entry| of _zeta_rows(m), for the int64 bound in reduce_rows
    return max_abs(_zeta_rows(m))


_TRIVIAL_GROUP = AbelianGroupSpec(())


def reduce_rows(matrix: np.ndarray, m: int) -> np.ndarray:
    """Each row of a matrix of numerators on a lattice G x C_m reduced
    modulo the m-th cyclotomic polynomial: row i of the result is the
    (order x phi(m)) matrix, flattened, that adds each nonzero numerator of
    row i times the reduced coordinates of its power of zeta (see
    _zeta_rows) into its group's row, all rows in one np.add.at.  The
    result is not in lowest terms.  It is int64 when every group's row
    fits, that is when max|numerator| * max|table entry| times the most
    nonzeros in one matrix row is below 2^63, and Python ints otherwise.
    matrix is a 2-D integer array (see int_array).

    >>> reduce_rows(np.array([[1, 0, 0, 1], [0, 0, 2, 0]]), 4).tolist()  # zeta^2 = -1
    [[1, -1], [-2, 0]]
    """
    table = _zeta_rows(m)
    flat = np.flatnonzero(matrix)
    cell, power = np.divmod(flat, m)  # cell: matrix row * order + group index
    vals, coords = matrix.reshape(-1)[flat], table[power]
    # a group's row sums at most the nonzeros of its matrix row, and so at
    # most len(flat); count per matrix row only when that bound is too loose
    top = max_abs(vals) * _zeta_top(m)
    if top * len(flat) >= 2**63:
        most = int(np.bincount(cell // (matrix.shape[1] // m)).max())
        if top * most >= 2**63:
            vals, coords = vals.astype(object), coords.astype(object)
    out = np.zeros((matrix.size // m, table.shape[1]), dtype=vals.dtype)
    np.add.at(out, cell, vals[:, None] * coords)
    return out.reshape(len(matrix), -1)


def _modulus(m) -> int:
    """m as an int, checked to be a valid cyclotomic modulus (at least 1)."""
    m = int(m)
    if m < 1:
        raise InvariantError(f"modulus must be positive, got {m}")
    return m


def _zeros(spec: GroupSpec, m, dtype=np.int64) -> np.ndarray:
    """Zero numerators on the lattice G x C_m, for a checked modulus m."""
    return np.zeros(spec.order * _modulus(m), dtype=dtype)


class _CycloLattice(_Lattice):
    """Exact element of Q(zeta_m)[G] on the integer lattice G x C_m of
    (group index, zeta power); index = group_index * m + zeta_power.
    Equality and hashing compare the reduction modulo the m-th cyclotomic
    polynomial, so this is not a Q[G] element even for m = 1."""

    __slots__ = ("m", "_reduced")

    def __init__(self, spec: GroupSpec, m: int, nums: Iterable[int], den: int = 1):
        object.__setattr__(self, "m", _modulus(m))
        super().__init__(spec, nums, den)

    @property
    def lattice_orders(self) -> tuple[int, ...]:
        return self.spec.factor_orders + (self.m,)

    def _check(self, other: "_CycloLattice"):
        super()._check(other)
        if self.m != other.m:
            raise SpecMismatchError("cyclotomic moduli differ")

    def reduced(self) -> tuple[int, np.ndarray]:
        """(den, read-only integer matrix of shape order x phi(m), flattened)
        with every zeta block reduced modulo the cyclotomic polynomial, in
        lowest terms: the one-row case of reduce_rows."""
        cached = getattr(self, "_reduced", None)
        if cached is None:
            nums, den = lowest_terms(reduce_rows(self.nums[None], self.m)[0], self.den)
            cached = (den, nums)
            object.__setattr__(self, "_reduced", cached)
        return cached

    def _value(self) -> tuple:
        den, nums = self.reduced()
        return (self.m, den), nums

    def is_rational(self) -> bool:
        """True when every coefficient lies in Q (zeta components vanish)."""
        flat = self.reduced()[1]
        return not flat.reshape(self.spec.order, -1)[:, 1:].any()


class CycloNumber(_CycloLattice):
    """Element of Q(zeta_m): the cyclotomic lattice over the trivial group,
    so nums/den are the m coordinates over 1, zeta, ..., zeta^(m-1) and
    .coeffs the phi(m) coordinates reduced modulo the m-th cyclotomic
    polynomial.  The constructor takes any rationals (an array must hold
    integers), coordinates of any length, and folds them modulo x^m - 1
    (exact: Phi_m divides it).

    >>> i = CycloNumber.zeta(4)
    >>> i * i == CycloNumber.from_rational(4, -1)
    True
    >>> (i * i).nums.tolist()
    [0, 0, 1, 0]
    >>> (i * i).coeffs
    (Fraction(-1, 1), Fraction(0, 1))
    """

    __slots__ = ()

    def __init__(self, m: int, coeffs: Iterable, den: int = 1):
        if isinstance(coeffs, np.ndarray):
            nums = coeffs  # integers, checked by the normaliser
        else:
            coeffs = tuple(coeffs)
            try:
                nums = int_array(coeffs)
            except TypeError:  # Fraction, str, float, ...
                nums, scale = integer_form(coeffs)
                nums, den = int_array(nums), den * scale
        m = _modulus(m)
        if len(nums) < m:
            nums = np.concatenate((nums, np.zeros(m - len(nums), dtype=nums.dtype)))
        elif len(nums) > m:
            vals = nums.tolist()
            nums = [sum(vals[r::m]) for r in range(m)]
        super().__init__(_TRIVIAL_GROUP, m, nums, den)

    def _like(self, nums: Iterable[int], den: int) -> "CycloNumber":
        return CycloNumber(self.m, nums, den)

    @classmethod
    def zero(cls, m: int) -> "CycloNumber":
        return cls(m, ())

    @classmethod
    def one(cls, m: int) -> "CycloNumber":
        return cls(m, (1,))

    @classmethod
    def from_rational(cls, m: int, value) -> "CycloNumber":
        return cls(m, (value,))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CycloNumber":
        """The root of unity zeta_m^k."""
        m = _modulus(m)
        return cls(m, (0,) * (k % m) + (1,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced coordinates as Fractions (a read-only view)."""
        den, flat = self.reduced()
        return tuple(Fraction(v, den) for v in flat.tolist())

    def to_json(self) -> dict:
        den, flat = self.reduced()
        return {"m": self.m, "coeffs": fraction_strings(flat, den)}

    def __repr__(self) -> str:
        return f"CycloNumber({self.m}, {[str(c) for c in self.coeffs]})"


def galois_apply(k: int, a: CycloNumber) -> CycloNumber:
    """Field automorphism zeta -> zeta^k (k coprime to the modulus): a
    permutation of the lattice entries, as i -> i*k mod m is a bijection."""
    if not isinstance(a, CycloNumber):
        raise SpecMismatchError("not an element of Q(zeta_m)")
    if math.gcd(k, a.m) != 1:
        raise InvariantError(f"{k} is not coprime to the modulus {a.m}")
    out = np.empty_like(a.nums)
    out[np.arange(a.m) * (k % a.m) % a.m] = a.nums
    return CycloNumber(a.m, out, a.den)


class CycloAlgebraElement(_CycloLattice):
    """Element of Q(zeta_m)[G] on the lattice G x C_m (see _CycloLattice)."""

    __slots__ = ()

    def _like(self, nums: Iterable[int], den: int) -> "CycloAlgebraElement":
        return CycloAlgebraElement(self.spec, self.m, nums, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: GroupSpec, m: int) -> "CycloAlgebraElement":
        return cls(spec, m, _zeros(spec, m))

    @classmethod
    def one(cls, spec: GroupSpec, m: int) -> "CycloAlgebraElement":
        nums = _zeros(spec, m)
        nums[0] = 1
        return cls(spec, m, nums)

    @classmethod
    def monomial(
        cls, spec: GroupSpec, m: int, g: GroupElement, zeta_exp: int, den: int = 1
    ) -> "CycloAlgebraElement":
        """den^-1 * zeta^zeta_exp * g."""
        nums = _zeros(spec, m)
        nums[member_index(spec, g) * m + zeta_exp % m] = 1
        return cls(spec, m, nums, den)

    # -- coefficients -------------------------------------------------

    def cyclo_coeff(self, at) -> CycloNumber:
        """The Q(zeta_m) coefficient at a group element or an element index."""
        idx = int(at) if isinstance(at, numbers.Integral) else member_index(self.spec, at)
        if not 0 <= idx < self.spec.order:
            raise InvariantError(f"element index {idx} is outside range({self.spec.order})")
        m = self.m
        return CycloNumber(m, self.nums[idx * m : (idx + 1) * m], self.den)

    @property
    def coeffs(self) -> tuple[CycloNumber, ...]:
        return tuple(self.cyclo_coeff(i) for i in range(self.spec.order))

    def to_json(self) -> dict:
        """{"m": m, "coeffs": [CycloNumber.to_json() of each coefficient]},
        formatted from the reduced matrix: an entry's lowest terms do not
        depend on the denominator it is stored over."""
        den, flat = self.reduced()
        deg = euler_phi(self.m)
        strings = fraction_strings(flat, den)
        return {
            "m": self.m,
            "coeffs": [
                {"m": self.m, "coeffs": strings[i : i + deg]}
                for i in range(0, len(strings), deg)
            ],
        }

    def __repr__(self) -> str:
        group = self.spec.spec_text() or self.spec  # the trivial group is "C_1"
        return f"CycloAlgebraElement({group}, m={self.m})"

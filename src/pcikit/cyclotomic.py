"""Exact arithmetic in cyclotomic fields Q(zeta_m) and in group algebras
with cyclotomic coefficients.

CycloNumber keeps the canonical reduced form: integer coordinates over the
power basis 1, zeta, ..., zeta^(phi(m)-1) modulo the m-th cyclotomic
polynomial, on one common denominator.  CycloAlgebraElement stores an
integer lattice over (group element, zeta power), also on one common
denominator, with the arithmetic of algebra's lattice core; products are then
plain convolutions over the extended abelian group G x C_m (zeta is a formal
m-th root of unity), and reduction modulo the cyclotomic polynomial happens
lazily, only for comparisons and output.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .algebra import (
    AlgebraElement,
    _Lattice,
    fraction_strings,
    integer_form,
    lowest_terms,
)
from .errors import InconsistencyError, InvariantError, SpecMismatchError
from .groups import GroupElement, GroupSpec, element_index, translate_indices
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
    total = CycloNumber.zero(m)
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            total = total + CycloNumber.zeta(m, t * k)
    return total


@cache
def _cyclotomic_terms(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # phi(m) and the nonzero (power, coefficient) terms of the m-th
    # cyclotomic polynomial below its leading 1.
    phi_poly = cyclotomic_poly(m)
    deg = len(phi_poly) - 1
    return deg, tuple((t, a) for t, a in enumerate(phi_poly[:deg]) if a)


def _reduce_mod_cyclotomic(coeffs: Sequence[int], m: int) -> list[int]:
    # Integer polynomial remainder modulo the (monic) m-th cyclotomic
    # polynomial: the phi(m) reduced power-basis coordinates.
    deg, terms = _cyclotomic_terms(m)
    c = list(coeffs)
    if len(c) < deg:
        c += [0] * (deg - len(c))
    for j in range(len(c) - 1, deg - 1, -1):
        v = c[j]
        if v:
            base = j - deg
            for t, a in terms:
                c[base + t] -= v * a
    return c[:deg]


class CycloNumber:
    """Element of Q(zeta_m): integer coordinates nums over the reduced power
    basis 1, zeta, ..., zeta^(phi(m)-1), on one denominator den, in lowest
    terms.  The constructor takes any rationals (coordinates of any length,
    reduced modulo the m-th cyclotomic polynomial) over an integer den."""

    __slots__ = ("m", "nums", "den")

    def __init__(self, m: int, coeffs: Iterable, den: int = 1):
        coeffs = tuple(coeffs)
        try:
            nums = list(map(operator.index, coeffs))
        except TypeError:  # Fraction, str, float, ...
            nums, scale = integer_form(coeffs)
            den *= scale
        m = int(m)
        nums, den = lowest_terms(tuple(_reduce_mod_cyclotomic(nums, m)), den)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("CycloNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions (a read-only view)."""
        return tuple(Fraction(v, self.den) for v in self.nums)

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
        k %= m
        return cls(m, (0,) * k + (1,))

    def _check_modulus(self, other: "CycloNumber"):
        if self.m != other.m:
            raise SpecMismatchError("cyclotomic moduli differ")

    def __add__(self, other: "CycloNumber") -> "CycloNumber":
        self._check_modulus(other)
        return CycloNumber(
            self.m,
            [a * other.den + b * self.den for a, b in zip(self.nums, other.nums)],
            self.den * other.den,
        )

    def __sub__(self, other: "CycloNumber") -> "CycloNumber":
        self._check_modulus(other)
        return CycloNumber(
            self.m,
            [a * other.den - b * self.den for a, b in zip(self.nums, other.nums)],
            self.den * other.den,
        )

    def __neg__(self) -> "CycloNumber":
        return CycloNumber(self.m, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, CycloNumber):
            return cyclo_mul(self, other)
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        return CycloNumber(
            self.m, [a * other.numerator for a in self.nums], self.den * other.denominator
        )

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloNumber)
            and self.m == other.m
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.m, self.den, self.nums))

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise InvariantError("value is not rational")
        return Fraction(self.nums[0], self.den)

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": fraction_strings(self.nums, self.den)}

    @classmethod
    def from_json(cls, data: dict) -> "CycloNumber":
        return cls(data["m"], data["coeffs"])

    def __repr__(self) -> str:
        return f"CycloNumber({self.m}, {[str(c) for c in self.coeffs]})"


def cyclo_mul(a: CycloNumber, b: CycloNumber) -> CycloNumber:
    """Field product: polynomial product reduced modulo the cyclotomic
    polynomial of the shared modulus."""
    a._check_modulus(b)
    out = [0] * (2 * len(a.nums) - 1)
    for i, ai in enumerate(a.nums):
        if ai:
            for j, bj in enumerate(b.nums):
                if bj:
                    out[i + j] += ai * bj
    return CycloNumber(a.m, out, a.den * b.den)


def galois_apply(k: int, a: CycloNumber) -> CycloNumber:
    """Field automorphism zeta -> zeta^k (k coprime to the modulus)."""
    if math.gcd(k, a.m) != 1:
        raise InvariantError(f"{k} is not coprime to the modulus {a.m}")
    out = [0] * a.m
    for i, c in enumerate(a.nums):
        if c:
            out[(i * k) % a.m] += c
    return CycloNumber(a.m, out, a.den)


class CycloAlgebraElement(_Lattice):
    """Element of Q(zeta_m)[G] on the integer lattice G x C_m of
    (group index, zeta power); index = group_index * m + zeta_power.
    Equality and hashing compare the reduction modulo the cyclotomic
    polynomial, so this is not a Q[G] element even for m = 1."""

    __slots__ = ("m", "_reduced")

    def __init__(self, spec: GroupSpec, m: int, nums: Iterable[int], den: int = 1):
        object.__setattr__(self, "m", int(m))
        super().__init__(spec, nums, den)

    @property
    def _orders(self) -> tuple[int, ...]:
        return self.spec.factor_orders + (self.m,)

    def _like(self, nums: Iterable[int], den: int) -> "CycloAlgebraElement":
        return CycloAlgebraElement(self.spec, self.m, nums, den)

    def _check(self, other: "CycloAlgebraElement"):
        super()._check(other)
        if self.m != other.m:
            raise SpecMismatchError("cyclotomic moduli differ")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec: GroupSpec, m: int) -> "CycloAlgebraElement":
        return cls(spec, m, (0,) * (spec.order * m))

    @classmethod
    def one(cls, spec: GroupSpec, m: int) -> "CycloAlgebraElement":
        nums = [0] * (spec.order * m)
        nums[0] = 1
        return cls(spec, m, nums)

    @classmethod
    def from_rational_element(cls, a: AlgebraElement, m: int) -> "CycloAlgebraElement":
        nums = [0] * (a.spec.order * m)
        for g, v in enumerate(a.nums):
            nums[g * m] = v
        return cls(a.spec, m, nums, a.den)

    @classmethod
    def monomial(
        cls, spec: GroupSpec, m: int, g: GroupElement, zeta_exp: int, den: int = 1
    ) -> "CycloAlgebraElement":
        """den^-1 * zeta^zeta_exp * g."""
        nums = [0] * (spec.order * m)
        nums[element_index(g) * m + zeta_exp % m] = 1
        return cls(spec, m, nums, den)

    # -- canonical form -----------------------------------------------

    def reduced(self) -> tuple[int, tuple[int, ...]]:
        """(den, integer matrix of shape order x phi(m), flattened) with every
        zeta block reduced modulo the cyclotomic polynomial, in lowest terms."""
        cached = getattr(self, "_reduced", None)
        if cached is None:
            m = self.m
            flat: list[int] = []
            for start in range(0, len(self.nums), m):
                flat.extend(_reduce_mod_cyclotomic(self.nums[start : start + m], m))
            nums, den = lowest_terms(tuple(flat), self.den)
            cached = (den, nums)
            object.__setattr__(self, "_reduced", cached)
        return cached

    def cyclo_coeff(self, at) -> CycloNumber:
        idx = element_index(at) if isinstance(at, GroupElement) else int(at)
        den, flat = self.reduced()
        deg = euler_phi(self.m)
        return CycloNumber(self.m, flat[idx * deg : (idx + 1) * deg], den)

    @property
    def coeffs(self) -> tuple[CycloNumber, ...]:
        return tuple(self.cyclo_coeff(i) for i in range(self.spec.order))

    # -- arithmetic ---------------------------------------------------

    def zeta_scale(self, k: int) -> "CycloAlgebraElement":
        """Multiply by the root of unity zeta^k (a rotation of every block)."""
        k %= self.m
        nums = [0] * len(self.nums)
        for g in range(self.spec.order):
            base = g * self.m
            for e in range(self.m):
                v = self.nums[base + e]
                if v:
                    nums[base + (e + k) % self.m] = v
        return self._like(nums, self.den)

    def group_translate(self, g: GroupElement) -> "CycloAlgebraElement":
        """Left multiplication by the group element g."""
        if g.spec != self.spec:
            raise SpecMismatchError("element from a different group")
        perm = translate_indices(element_index(g), self.spec.factor_orders)
        nums = [0] * len(self.nums)
        for j in range(self.spec.order):
            tgt = int(perm[j]) * self.m
            src = j * self.m
            nums[tgt : tgt + self.m] = self.nums[src : src + self.m]
        return self._like(nums, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloAlgebraElement):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.m == other.m
            and self.reduced() == other.reduced()
        )

    def __hash__(self) -> int:
        return hash((self.m, self.reduced()))

    def is_zero(self) -> bool:
        return not any(self.reduced()[1])

    # -- rationality --------------------------------------------------

    def is_rational(self) -> bool:
        """True when every coefficient lies in Q (zeta components vanish)."""
        den, flat = self.reduced()
        deg = euler_phi(self.m)
        for g in range(self.spec.order):
            if any(flat[g * deg + 1 : (g + 1) * deg]):
                return False
        return True

    def rational_part(self) -> AlgebraElement:
        if not self.is_rational():
            raise InconsistencyError("element has irrational coefficients")
        den, flat = self.reduced()
        deg = euler_phi(self.m)
        return AlgebraElement(
            self.spec, (flat[g * deg] for g in range(self.spec.order)), den
        )

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
        return f"CycloAlgebraElement({self.spec.spec_text()}, m={self.m})"


"""Element helpers that only the tests use: conversions between pcikit's
exact types and their text, Fraction and rational forms, each of which
rebuilds an element from a form the library writes or reads it back."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from pcikit.algebra import AlgebraElement
from pcikit.cyclotomic import CycloAlgebraElement, CycloNumber
from pcikit.errors import InconsistencyError, InvariantError
from pcikit.groups import GroupSpec


def from_strings(spec: GroupSpec, strings: Sequence[str]) -> AlgebraElement:
    """The element of Q[spec] whose coefficients are these "num/den"
    strings (AlgebraElement.to_strings read back)."""
    return AlgebraElement.from_coeffs(spec, strings)


def as_fraction(a: CycloNumber) -> Fraction:
    """A rational element of Q(zeta_m) as a Fraction."""
    if not a.is_rational():
        raise InvariantError("value is not rational")
    den, flat = a.reduced()
    return Fraction(int(flat[0]), den)


def from_json(data: dict) -> CycloNumber:
    """CycloNumber.to_json read back."""
    return CycloNumber(data["m"], data["coeffs"])


def from_rational_element(a: AlgebraElement, m: int) -> CycloAlgebraElement:
    """a in Q(zeta_m)[G]: each coefficient on the zeta^0 coordinate."""
    nums = np.zeros(a.spec.order * m, dtype=a.nums.dtype)
    nums[::m] = a.nums
    return CycloAlgebraElement(a.spec, m, nums, a.den)


def rational_part(e: CycloAlgebraElement) -> AlgebraElement:
    """A rational element of Q(zeta_m)[G] as an element of Q[G]."""
    if not e.is_rational():
        raise InconsistencyError("element has irrational coefficients")
    den, flat = e.reduced()
    return AlgebraElement(e.spec, flat.reshape(e.spec.order, -1)[:, 0], den)

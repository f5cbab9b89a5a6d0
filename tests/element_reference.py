"""Element helpers that only the tests use: conversions between pcikit's
exact types and their text, Fraction and rational forms, each of which
rebuilds an element from a form the library writes or reads it back; and
the element-level definitions the array engine is tested against (group
elements by index, translation, the Ramanujan sum term by term, the
idempotents as a list of elements)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from pcikit.algebra import AlgebraElement, lattice_sum
from pcikit.cyclotomic import CycloAlgebraElement, CycloNumber
from pcikit.diagram import pci_records
from pcikit.errors import InconsistencyError, InvariantError, SpecMismatchError
from pcikit.groups import GroupElement, GroupSpec, enumeration, member_index


def element_from_index(spec: GroupSpec, idx: int) -> GroupElement:
    """The element at position idx of the canonical enumeration (the
    inverse of groups.element_index)."""
    exps = []
    for d in reversed(spec.factor_orders):
        exps.append(idx % d)
        idx //= d
    return GroupElement(spec, tuple(reversed(exps)))


def elements(spec: GroupSpec) -> Iterator[GroupElement]:
    """All group elements in canonical enumeration order."""
    for idx in range(spec.order):
        yield element_from_index(spec, idx)


def translate(g: GroupElement, a: AlgebraElement) -> AlgebraElement:
    """Left multiplication by the group element g (a basis permutation):
    the definition algebra.kernel_subgroup's stabiliser is tested against."""
    if not isinstance(a, AlgebraElement):
        raise SpecMismatchError("not an element of Q[G]")
    enum = enumeration(a.spec.factor_orders)
    perm = enum.product(member_index(a.spec, g), np.arange(a.spec.order))
    nums = np.empty_like(a.nums)
    nums[perm] = a.nums
    return AlgebraElement(a.spec, nums, a.den)


def ramanujan_sum_direct(m: int, t: int) -> CycloNumber:
    """cyclotomic.ramanujan_sum evaluated term by term in Q(zeta_m): the
    independent twin of the closed form."""
    return lattice_sum(
        CycloNumber.zeta(m, t * k) for k in range(1, m + 1) if math.gcd(k, m) == 1
    )


def pci_set(spec, alternate_order: bool = False) -> list[AlgebraElement]:
    """The idempotents of pci_records, without bookkeeping."""
    return [r.element for r in pci_records(spec, alternate_order)]


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

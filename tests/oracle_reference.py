"""The oracle one character at a time: a character as its index vector,
the |G| characters of a group, and the rational idempotent of one
character, built from the same value tables as oracle.oracle_rows.  The
tests compare the blocked rows with these."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pcikit.algebra import AlgebraElement
from pcikit.errors import SpecMismatchError
from pcikit.groups import GroupSpec, enumeration
from pcikit.oracle import _character_rows, _value_table


@dataclass(frozen=True)
class CharacterIndex:
    """Index vector of a complex irreducible character: the character sends
    the i-th short generator to the t_i-th power of a d_i-th root of unity."""

    spec: GroupSpec
    t: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.lcm(
            *(d // math.gcd(t, d) for t, d in zip(self.t, self.spec.factor_orders)), 1
        )


def dual_characters(spec: GroupSpec) -> list[CharacterIndex]:
    """All |G| characters, in the canonical element enumeration order."""
    digits = enumeration(spec.factor_orders).digits
    return [CharacterIndex(spec, tuple(row)) for row in digits.tolist()]


def rational_pci_of_character(spec: GroupSpec, chi: CharacterIndex) -> AlgebraElement:
    """The rational idempotent attached to chi: coefficient of g is the
    Ramanujan sum c_m(a) / |G| where chi(g^-1) = zeta_m^a and m = ord(chi)."""
    if chi.spec != spec:
        raise SpecMismatchError("character belongs to a different group")
    L = spec.exponent
    weights = np.array([[t * (L // d) for t, d in zip(chi.t, spec.factor_orders)]])
    table = _value_table(L, chi.order, np.int64)
    digits = enumeration(spec.factor_orders).digits
    (row,) = _character_rows(table, weights.astype(np.int64), digits, L)
    return AlgebraElement(spec, row, spec.order)

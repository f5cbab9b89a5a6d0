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
from .groups import GroupSpec, PrimaryGroupSpec, enumeration
from .numtheory import euler_phi


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


@cache
def _ramanujan_table(m: int) -> np.ndarray:
    # c_m(j) for j < m; read-only, as every caller shares it
    table = np.array([ramanujan_sum(m, j) for j in range(m)], dtype=np.int64)
    table.flags.writeable = False
    return table


def rational_pci_of_character(spec: GroupSpec, chi: CharacterIndex) -> AlgebraElement:
    """The rational idempotent attached to chi: coefficient of g is the
    Ramanujan sum c_m(a) / |G| where chi(g^-1) = zeta_m^a and m = ord(chi)."""
    return AlgebraElement(spec, _character_numerators(spec, chi), spec.order)


def _character_numerators(spec: GroupSpec, chi: CharacterIndex) -> np.ndarray:
    """rational_pci_of_character's numerators over |G|, not in lowest terms."""
    if chi.spec != spec:
        raise SpecMismatchError("character belongs to a different group")
    L = spec.exponent
    m = chi.order
    digits = enumeration(spec.factor_orders).digits
    weights = np.array(
        [t * (L // d) for t, d in zip(chi.t, spec.factor_orders)], dtype=np.int64
    )
    w = (digits @ weights) % L
    q, rem = np.divmod(w, L // m)
    if rem.any():
        raise InconsistencyError("character value outside its own root lattice")
    return _ramanujan_table(m)[(-q) % m]


def oracle_pci_set(spec: GroupSpec) -> list[AlgebraElement]:
    """Complete set of primitive central idempotents of Q[G], one per Galois
    orbit of characters; equality of the idempotents within each orbit is
    asserted along the way, on their numerators over the one denominator
    |G|."""
    enum = enumeration(spec.factor_orders)
    L = spec.exponent
    units = np.array([k for k in range(1, L + 1) if math.gcd(k, L) == 1])
    chars = dual_characters(spec)
    out = []
    seen: set[int] = set()
    for i in range(len(chars)):
        if i in seen:
            continue
        orbit = set(enum.power(i, units[:, None]).tolist())
        seen |= orbit
        row = _character_numerators(spec, chars[i])
        for j in orbit - {i}:
            if _character_numerators(spec, chars[j]).tobytes() != row.tobytes():
                raise InconsistencyError(
                    f"characters {chars[i].t} and {chars[j].t} share a Galois orbit "
                    "but produced different idempotents"
                )
        out.append(AlgebraElement(spec, row, spec.order))
    return out


def order_census(spec: PrimaryGroupSpec) -> dict[int, int]:
    """Count elements by exact order, by full enumeration: the order of an
    element is the lcm over its digits e, one per cyclic factor of order
    d, of d // gcd(e, d), formed one digit column at a time."""
    digits = enumeration(spec.factor_orders).digits
    orders = np.ones(len(digits), dtype=np.int64)
    for column, d in zip(digits.T, spec.factor_orders):
        orders = np.lcm(orders, d // np.gcd(column, d))
    counts = np.bincount(orders)
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

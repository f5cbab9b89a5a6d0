import math
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import partitions, primary_corpus, spec_from_partition
from oracle_reference import CharacterIndex, dual_characters, rational_pci_of_character
from pcikit import (
    AlgebraElement,
    PrimaryGroupSpec,
    compare_pci_sets,
    parse_group_spec,
    wedderburn_profile,
)
from pcikit.algebra import are_orthogonal, is_idempotent
from pcikit.groups import enumeration
from pcikit.numtheory import euler_phi
from pcikit.oracle import RowSet, oracle_pci_set, order_census
from rank_reference import kernel_and_field

C2 = PrimaryGroupSpec(2, ((1, 1),))
C4 = PrimaryGroupSpec(2, ((2, 1),))
C4C2 = PrimaryGroupSpec(2, ((2, 1), (1, 1)))
C9C3 = PrimaryGroupSpec(3, ((2, 1), (1, 1)))
C2C2 = PrimaryGroupSpec(2, ((1, 2),))


def test_dual_characters_count_and_orders():
    for spec in (C2, C4, C4C2, parse_group_spec("2:[1];3:[1]")):
        chars = dual_characters(spec)
        assert len(chars) == spec.order
    assert [chi.t for chi in dual_characters(C2)] == [(0,), (1,)]
    assert CharacterIndex(C4C2, (1, 1)).order == 4


def test_rational_pci_of_character_values():
    assert rational_pci_of_character(C2, CharacterIndex(C2, (0,))) == (
        AlgebraElement.from_coeffs(C2, [Fraction(1, 2), Fraction(1, 2)])
    )
    assert rational_pci_of_character(C2, CharacterIndex(C2, (1,))) == (
        AlgebraElement.from_coeffs(C2, [Fraction(1, 2), Fraction(-1, 2)])
    )
    # C_4, t = 1: Ramanujan values (2, 0, -2, 0)/4
    assert rational_pci_of_character(C4, CharacterIndex(C4, (1,))) == (
        AlgebraElement.from_coeffs(C4, [Fraction(1, 2), 0, Fraction(-1, 2), 0])
    )


def test_rational_pci_is_idempotent():
    for spec in (C4, C4C2, C9C3):
        for chi in dual_characters(spec):
            assert is_idempotent(rational_pci_of_character(spec, chi))


def test_galois_orbit_invariance():
    spec = C9C3
    L = spec.exponent
    for chi in dual_characters(spec):
        m = chi.order
        base = rational_pci_of_character(spec, chi)
        for k in range(1, L + 1):
            if math.gcd(k, m) == 1:
                twisted = CharacterIndex(
                    spec,
                    tuple((k * t) % d for t, d in zip(chi.t, spec.factor_orders)),
                )
                assert rational_pci_of_character(spec, twisted) == base


def test_oracle_pci_set_counts():
    assert len(oracle_pci_set(C4)) == 3
    assert len(oracle_pci_set(PrimaryGroupSpec(3, ((1, 2),)))) == 5
    for spec in (C4, C4C2, C9C3, parse_group_spec("2:[2];3:[1]")):
        pcis = oracle_pci_set(spec)
        assert sum(kernel_and_field(e).dim for e in pcis) == spec.order
        for i in range(len(pcis)):
            for j in range(i + 1, len(pcis)):
                assert are_orthogonal(pcis[i], pcis[j])


def test_order_census():
    assert order_census(PrimaryGroupSpec(3, ((2, 1),))) == {1: 1, 3: 2, 9: 6}
    assert order_census(PrimaryGroupSpec(2, ((1, 2),)))[2] == 3
    census = order_census(C9C3)
    assert census[3] == 8 and census[9] == 18


def test_wedderburn_profile_c9c3():
    profile = wedderburn_profile(C9C3)
    assert [(row.r, row.census) for row in profile.rows] == [(0, 1), (1, 4), (2, 3)]
    assert all(row.agree for row in profile.rows)
    assert profile.rows[1].b == 2 and profile.rows[1].c == 0
    assert profile.rows[2].b == 1 and profile.rows[2].c == 1


def test_wedderburn_profile_c2c2():
    profile = wedderburn_profile(PrimaryGroupSpec(2, ((1, 2),)))
    assert profile.rows[1].census == 3 and profile.rows[1].formula == 3


def test_wedderburn_statement_variant_differs_on_c4():
    profile = wedderburn_profile(C4)
    row = profile.rows[2]
    assert row.census == 1 and row.formula == 1
    assert row.statement_variant == 2


def test_wedderburn_geometric_factor_coprime():
    # closed form = p-power times (1 + p + ... + p^(b_r - 1)), the second
    # factor coprime to p
    for spec in (C4, C4C2, C9C3, PrimaryGroupSpec(2, ((3, 1), (1, 2)))):
        profile = wedderburn_profile(spec)
        p = profile.p
        for row in profile.rows[1:]:
            geometric = (p**row.b - 1) // (p - 1)
            power = p ** (row.c + (row.r - 1) * (row.b - 1))
            assert row.formula == power * geometric
            assert math.gcd(geometric, p) == 1


def test_dimension_sum_identity():
    for spec in (C4, C4C2, C9C3):
        profile = wedderburn_profile(spec)
        assert (
            sum(row.census * euler_phi(row.cyclotomic_order) for row in profile.rows)
            == spec.order
        )


def order_census_reference(spec):
    """order_census as the loop over the digit rows that it replaced."""
    counts = Counter()
    for row in enumeration(spec.factor_orders).digits.tolist():
        counts[
            math.lcm(*(d // math.gcd(e, d) for e, d in zip(row, spec.factor_orders)), 1)
        ] += 1
    return dict(sorted(counts.items()))


def assert_census_matches_reference(spec):
    census = order_census(spec)
    assert census == order_census_reference(spec)
    assert list(census) == sorted(census)
    assert all(type(k) is int and type(v) is int for k, v in census.items())


def test_order_census_matches_loop_on_acceptance_corpus():
    for spec in primary_corpus():
        assert_census_matches_reference(spec)


# Every p-group of order <= 4096 for p <= 11, the trivial ones included.
P_GROUPS = [
    spec_from_partition(p, part)
    for p in (2, 3, 5, 7, 11)
    for n in range(13)
    if p**n <= 4096
    for part in partitions(n)
]


@given(st.sampled_from(P_GROUPS))
@settings(max_examples=60, deadline=None)
def test_order_census_matches_loop(spec):
    assert_census_matches_reference(spec)


def test_engine_component_census_matches_profile():
    # number of engine idempotents with field index r == census coefficient
    from collections import Counter

    from conftest import engine_records, primary_corpus

    for spec in primary_corpus():
        profile = wedderburn_profile(spec)
        counts = Counter(rec.quotient_order for rec in engine_records(spec))
        for row in profile.rows:
            assert counts.get(row.cyclotomic_order, 0) == row.census, (spec, row.r)


def test_compare_pci_sets():
    pcis = oracle_pci_set(C4C2)
    assert compare_pci_sets(pcis, list(reversed(pcis))).equal
    report = compare_pci_sets(pcis, pcis[1:])
    assert not report.equal
    assert report.witness == pcis[0] or report.witness in pcis
    assert report.witness_side == "left"
    report = compare_pci_sets(pcis[1:], pcis)
    assert report.witness_side == "right"


def row_set(elements):
    """The elements as a RowSet, over their least common denominator."""
    den = math.lcm(*(e.den for e in elements))
    return RowSet(np.stack([e.nums * (den // e.den) for e in elements]), den)


@st.composite
def row_multisets(draw):
    """Two lists of (numerators, den) rows over C_2 x C_2: the right one the
    left one shuffled, with rows dropped, repeated, rescaled or changed."""
    row = st.tuples(
        st.lists(st.integers(-2, 2), min_size=4, max_size=4),
        st.sampled_from([1, 2, 4, 3]),
    )
    left = draw(st.lists(row, min_size=1, max_size=6))
    right = list(draw(st.permutations(left)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(right) - 1))
        nums, den = right[i]
        kind = draw(st.sampled_from(["drop", "repeat", "rescale", "change"]))
        if kind == "drop" and len(right) > 1:
            del right[i]
        elif kind == "repeat":
            right.append(right[i])
        elif kind == "rescale":
            right[i] = ([2 * v for v in nums], 2 * den)
        elif kind == "change":
            right[i] = ([nums[0] + 1, *nums[1:]], den)
    return left, right


@given(row_multisets())
@settings(max_examples=200, deadline=None)
def test_row_set_matches_only_equal_multisets(data):
    # RowSet.matched is sound: it says yes only for equal multisets.  It
    # must say yes when they are equal, its rows distinct, and every den
    # on the right divides its denominator.
    left, right = data
    elements = [AlgebraElement(C2C2, nums, den) for nums, den in left]
    rows = row_set(elements)
    found = [rows.find(np.array([nums]), [den]) for nums, den in right]
    equal = Counter(elements) == Counter(AlgebraElement(C2C2, *r) for r in right)
    divides = all(rows.den % den == 0 for _, den in right)
    assert rows.matched(found) == (equal and rows.distinct and divides)
    for (nums, den), (hit,) in zip(right, found):
        if hit >= 0:
            assert elements[hit] == AlgebraElement(C2C2, nums, den)


def test_row_set_find_skips_rows_it_cannot_put_over_its_den():
    rows = row_set(oracle_pci_set(C4))
    assert rows.den == 4 and rows.distinct
    nums = np.array([[1, 1, 1, 1], [3, 3, 3, 3], [2**62, 0, 0, 0]])
    assert rows.find(nums, [4, 12, 1]).tolist() == [-1, -1, -1]
    assert rows.find(nums[:2], [4, 4]).tolist() == [0, -1]
    huge = np.array([[2**64, 0, 0, 0]], dtype=object)
    assert rows.find(huge, [1]).tolist() == [-1]


def test_row_set_find_checks_its_dtype_range():
    # 300 does not fit int8; taken modulo 2^8 it would read 44 and match
    rows = RowSet(np.array([[44, 0, 0, 0]], dtype=np.int8), 1)
    nums = np.array([[300, 0, 0, 0], [44, 0, 0, 0], [-212, 0, 0, 0]])
    assert rows.find(nums, [1, 1, 1]).tolist() == [-1, 0, -1]

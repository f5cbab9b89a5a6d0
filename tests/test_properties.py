from fractions import Fraction

import functools
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import element_reference
from cli_reference import cyclo_json
from conftest import partitions, spec_from_partition
from element_reference import element_from_index, elements, pci_set, translate
from pcikit import (
    AbelianGroupSpec,
    AlgebraElement,
    InvariantError,
    PrimaryGroupSpec,
    SpecMismatchError,
    build_pci_diagram,
    compare_pci_sets,
    parse_group_spec,
)
from pcikit.algebra import (
    are_orthogonal,
    convolve,
    expand_factored,
    expansion_numerators,
    fixing_subgroup,
    fraction_strings,
    integer_form,
    is_idempotent,
    kernel_subgroup,
    lattice_sum,
    lowest_terms,
)
from pcikit.cyclotomic import CycloAlgebraElement, CycloNumber
from pcikit.diagram import alternate_generator_labels, cross_prime_product
from pcikit.groups import (
    element_index,
    element_order,
    enumeration,
    extend_subgroup,
    group_mul,
    identity,
    subgroup_closure,
)
from pcikit.kernels import _convolve_bigint, _row_norms, convolve_ints, int_array
from pcikit.numtheory import cyclotomic_poly, factorize
from pcikit.verify import certify_idempotents
from verify_reference import element_blocks

SPECS = [
    PrimaryGroupSpec(2, ((2, 1),)),
    PrimaryGroupSpec(2, ((1, 2),)),
    PrimaryGroupSpec(3, ((2, 1),)),
    PrimaryGroupSpec(2, ((2, 1), (1, 1))),
    PrimaryGroupSpec(3, ((1, 2),)),
    parse_group_spec("2:[1];3:[1]"),
]

spec_st = st.sampled_from(SPECS)


@st.composite
def spec_and_elements(draw, count):
    spec = draw(spec_st)
    idx = st.integers(min_value=0, max_value=spec.order - 1)
    return spec, [element_from_index(spec, draw(idx)) for _ in range(count)]


@st.composite
def spec_and_algebra_elements(draw, count):
    spec = draw(spec_st)
    nums = st.lists(
        st.integers(min_value=-9, max_value=9), min_size=spec.order, max_size=spec.order
    )
    den = st.integers(min_value=1, max_value=6)
    return spec, [AlgebraElement(spec, draw(nums), draw(den)) for _ in range(count)]


@given(spec_and_elements(3))
@settings(max_examples=60, deadline=None)
def test_group_laws(data):
    spec, (a, b, c) = data
    assert group_mul(a, b) == group_mul(b, a)
    assert group_mul(group_mul(a, b), c) == group_mul(a, group_mul(b, c))
    assert group_mul(a, identity(spec)) == a
    assert group_mul(a, a.inverse()) == identity(spec)
    enum = enumeration(spec.factor_orders)
    product = enum.product(element_index(a), element_index(b))
    assert element_from_index(spec, int(product)) == group_mul(a, b)


# The enumeration's index arithmetic against GroupElement arithmetic: the
# small groups above, one large cyclic factor, twelve factors of order 2
# (the largest product table the default cap admits) and the trivial group.
ENUMERATION_GROUPS = SPECS + [
    parse_group_spec("2:[12]"),
    parse_group_spec("2:[" + ",".join(["1"] * 12) + "]"),
    PrimaryGroupSpec(2, ()),
]


@given(st.sampled_from(ENUMERATION_GROUPS), st.data())
@settings(max_examples=120, deadline=None)
def test_enumeration_matches_group_elements(spec, data):
    enum = enumeration(spec.factor_orders)
    index = st.integers(min_value=0, max_value=spec.order - 1)
    i = data.draw(index)
    others = data.draw(st.lists(index, min_size=1, max_size=6))
    bound = 2 * spec.exponent
    k = data.draw(st.integers(min_value=-bound, max_value=bound))
    a = element_from_index(spec, i)
    products = [element_index(a * element_from_index(spec, j)) for j in others]
    assert enum.product(i, others).tolist() == products
    assert element_from_index(spec, int(enum.inverse[i])) == a.inverse()
    assert element_from_index(spec, int(enum.power(i, k))) == a**k


# The cap ladder: C_2^8 to C_2^12, the widest groups of other exponents and
# primes up to the default cap of 4096, the cyclic 2^12, and the cyclic
# groups split runs on.
CAP_LADDER = [
    "2:[" + ",".join(["1"] * n) + "]" for n in range(8, 13)
] + ["2:[2,2,2,2,2,2]", "3:[1,1,1,1,1,1,1]", "5:[1,1,1,1,1]", "2:[12]"] + [
    f"2:[{n}]" for n in range(5, 10)
]


def test_product_table_stays_small_on_the_cap_ladder():
    for text in CAP_LADDER:
        orders = parse_group_spec(text).factor_orders
        table = enumeration(orders).table
        assert len(table) == math.prod(2 * m - 1 for m in orders)
        assert len(table) <= 3**12, text


def test_product_table_bound_below_the_default_cap():
    """prod (2 m_j - 1) over the cyclic factors is largest, for a given
    order, when every factor has prime order, so the largest table of any
    group of order at most 4096 has prod (2 p - 1)^e entries for some
    order prod p^e <= 4096: 3^12, at C_2^12."""
    largest = max(
        math.prod((2 * p - 1) ** e for p, e in factorize(n).items())
        for n in range(1, 4097)
    )
    assert largest == 3**12


@st.composite
def int64_lattices(draw):
    """A group with random or zero int64 numerators and a nonzero
    denominator of either sign, all times a common factor, so that
    normalising has work to do."""
    groups = [parse_group_spec("2:[2,1]"), parse_group_spec("3:[1];5:[1]")]
    spec = draw(st.sampled_from(groups + [PrimaryGroupSpec(2, ())]))
    entry = st.integers(min_value=-(2**40), max_value=2**40)
    nums = draw(
        st.lists(entry, min_size=spec.order, max_size=spec.order)
        | st.just([0] * spec.order)
    )
    scale = draw(st.integers(min_value=1, max_value=12))
    return spec, [v * scale for v in nums], draw(entry.filter(bool)) * scale


@given(int64_lattices())
@settings(max_examples=120, deadline=None)
def test_lattice_from_int64_matches_public_constructor(data):
    spec, nums, den = data
    fast = AlgebraElement(spec, np.array(nums, dtype=np.int64), den)
    slow = AlgebraElement(spec, nums, den)
    assert fast == slow and hash(fast) == hash(slow)
    assert (fast.nums.tolist(), fast.den) == (slow.nums.tolist(), slow.den)
    assert fast.nums.dtype == slow.nums.dtype == np.int64


def _cross_prime_product_reference(spec, per_part_sets):
    """The tensor product on Python ints, one list comprehension per part,
    normalised by the public constructor."""
    out = []
    for combo in itertools.product(*per_part_sets):
        nums, den = [1], 1  # the empty product: 1 in Q[C_1]
        for e in combo:
            nums = [x * y for x in nums for y in e.nums.tolist()]
            den *= e.den
        out.append(AlgebraElement(spec, nums, den))
    return out


MULTI_PRIME_SPECS = [
    parse_group_spec("2:[1];3:[1]"),
    parse_group_spec("2:[1,1];3:[1]"),
    parse_group_spec("2:[1];3:[1];5:[1]"),
]


@st.composite
def per_part_sets(draw):
    """A multi-prime group and one to three elements per primary part, with
    numerators whose products stay in int64, reach its edge or pass it."""
    spec = draw(st.sampled_from(MULTI_PRIME_SPECS))
    value = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.sampled_from([2**31, -(2**31), 2**32 - 1, 2**63 - 1, -(2**63), 2**64]),
    )
    sets = []
    for part in spec.parts:
        element = st.builds(
            lambda nums, den, part=part: AlgebraElement(part, nums, den),
            st.lists(value, min_size=part.order, max_size=part.order),
            st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2**40)),
        )
        sets.append(draw(st.lists(element, min_size=1, max_size=3)))
    return spec, sets


def _c6_sets(top2, top3):
    spec = MULTI_PRIME_SPECS[0]
    c2, c3 = spec.parts
    return spec, [[AlgebraElement(c2, [top2, -1])], [AlgebraElement(c3, [top3, 1, 0], 3)]]


def _c6_sets_with_zero_part():
    # one part needs Python ints, the other is zero: the bound product is 0
    spec = MULTI_PRIME_SPECS[0]
    c2, c3 = spec.parts
    return spec, [[AlgebraElement(c2, [0, 2**64])], [AlgebraElement(c3, [0, 0, 0])]]


def _c30_zero_over_a_wide_denominator():
    # int64 numerators, all zero, over a denominator past 2^63
    spec = MULTI_PRIME_SPECS[2]
    c2, c3, c5 = spec.parts
    return spec, [
        [AlgebraElement(c2, [0, 1], 2**40 + 1)],
        [AlgebraElement(c3, [0, 0, 1], 2**40 + 1)],
        [AlgebraElement(c5, [0] * 5)],
    ]


@given(per_part_sets())
@example(_c6_sets_with_zero_part())
@example(_c30_zero_over_a_wide_denominator())
# products of the largest |numerator| just under, at and past 2^63
@example(_c6_sets(2**32 - 1, 2**31))
@example(_c6_sets(2**32, 2**31))
@example(_c6_sets(2**63 - 1, 1))
@example(_c6_sets(2**40, 2**40))
@settings(max_examples=120, deadline=None)
def test_cross_prime_product_matches_python_reference(data):
    spec, sets = data
    fast = cross_prime_product(spec, sets)
    slow = _cross_prime_product_reference(spec, sets)
    assert [(e.nums.tolist(), e.den) for e in fast] == [
        (e.nums.tolist(), e.den) for e in slow
    ]
    assert [e.nums.dtype for e in fast] == [e.nums.dtype for e in slow]


def test_cross_prime_product_of_no_parts_matches_python_reference():
    trivial = AbelianGroupSpec(())
    assert cross_prime_product(trivial, []) == _cross_prime_product_reference(trivial, [])


@given(spec_and_elements(1))
@settings(max_examples=60, deadline=None)
def test_element_order_divides_group_order(data):
    spec, (a,) = data
    k = element_order(a)
    assert spec.order % k == 0
    assert a**k == identity(spec)


def _closure_reference(spec, gens):
    """Slow reference: breadth-first closure over GroupElement sets."""
    seen = {identity(spec)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for h in frontier:
            for g in gens:
                w = group_mul(h, g)
                if w not in seen:
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    return frozenset(seen)


# 0 to 4 generators, so the empty closure and 3 or more generators occur
spec_and_generators = st.integers(min_value=0, max_value=4).flatmap(spec_and_elements)


@given(spec_and_generators)
@settings(max_examples=80, deadline=None)
def test_closure_matches_element_set_reference(data):
    spec, gens = data
    event(f"{len(gens)} generators")
    expected = sorted(element_index(g) for g in _closure_reference(spec, gens))
    assert subgroup_closure(spec, gens).tolist() == expected


@given(spec_and_generators)
@settings(max_examples=40, deadline=None)
def test_closure_is_subgroup(data):
    spec, gens = data
    sub = subgroup_closure(spec, gens)
    members = set(sub.tolist())
    assert spec.order % len(sub) == 0
    assert element_index(identity(spec)) in members
    assert {element_index(g) for g in gens} <= members
    for i in sub[:5]:
        g = element_from_index(spec, i)
        assert element_index(g.inverse()) in members
        for j in sub[:5]:
            assert element_index(group_mul(g, element_from_index(spec, j))) in members


# extend_subgroup on the small groups, one large cyclic 2-group and one
# large cyclic group of prime order, where a generator's powers run long.
EXTEND_GROUPS = SPECS + [parse_group_spec("2:[12]"), parse_group_spec("4093:[1]")]


@given(st.sampled_from(EXTEND_GROUPS), st.data())
@settings(max_examples=80, deadline=None)
def test_extend_subgroup_matches_closure(spec, data):
    index = st.integers(min_value=0, max_value=spec.order - 1)
    gens = [element_from_index(spec, i) for i in data.draw(st.lists(index, max_size=3))]
    g = element_from_index(spec, data.draw(index))
    grown = extend_subgroup(spec, subgroup_closure(spec, gens), g)
    # the fold in another order, and the element-set closure
    assert grown.tolist() == subgroup_closure(spec, [g, *gens]).tolist()
    expected = sorted(element_index(h) for h in _closure_reference(spec, [g, *gens]))
    assert grown.tolist() == expected
    assert not grown.flags.writeable


@given(spec_and_algebra_elements(3))
@settings(max_examples=40, deadline=None)
def test_convolution_ring_laws(data):
    spec, (a, b, c) = data
    assert convolve(a, b) == convolve(b, a)
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
    assert convolve(a, b + c) == convolve(a, b) + convolve(a, c)
    assert convolve(AlgebraElement.one(spec), a) == a


@given(spec_and_algebra_elements(1))
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip(data):
    spec, (a,) = data
    assert element_reference.from_strings(spec, a.to_strings()) == a


cyclo_st = st.builds(
    lambda m, nums: CycloNumber(m, [Fraction(v, 3) for v in nums]),
    st.sampled_from([3, 4, 5, 8, 9, 12]),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=12, max_size=12),
)


@given(cyclo_st, cyclo_st)
@settings(max_examples=40, deadline=None)
def test_cyclo_mul_commutes_when_compatible(a, b):
    if a.m != b.m:
        return
    assert a * b == b * a


# -- Q(zeta_m) and Q(zeta_m)[G] against a Fraction-tuple reference ------------
# The reference keeps one Fraction per power-basis coordinate and reduces by
# long division by the m-th cyclotomic polynomial: the representation
# CycloNumber had before it moved to integers over one denominator.


def _ref_reduce(m, coeffs):
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    c = [Fraction(v) for v in coeffs]
    c += [Fraction(0)] * (deg - len(c))
    for j in range(len(c) - 1, deg - 1, -1):
        v = c[j]
        if v:
            c[j] = Fraction(0)
            for t in range(deg):
                c[j - deg + t] -= v * phi[t]
    return tuple(c[:deg])


def _ref_mul(m, a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_reduce(m, out)


# Small and beyond-int64 numerators and denominators.
big_int_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**100), max_value=2**100),
)
big_den_st = st.one_of(
    st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2**70)
)
rational_st = st.builds(Fraction, big_int_st, big_den_st)


# Values at the int64 edges, where the one numerator form switches dtype:
# -2^63 fits int64 but counts as not fitting.
edge_int_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([0, 2**63 - 1, 2**63, 2**63 + 1, -(2**63) + 1, -(2**63), -(2**63) - 1]),
    st.sampled_from([2**70, -(2**70)]),
)


@given(st.lists(edge_int_st, min_size=1, max_size=8), edge_int_st.filter(bool))
@example([-(2**63), 2], -2)
@example([0, 0], 2**70)
@settings(max_examples=150, deadline=None)
def test_lowest_terms_matches_fraction_reference(nums, den):
    fracs = [Fraction(v, den) for v in nums]
    ref_den = math.lcm(1, *(f.denominator for f in fracs))
    ref = [f.numerator * (ref_den // f.denominator) for f in fracs]
    dtype = np.int64 if all(abs(v) < 2**63 for v in ref) else object
    inputs = [nums, np.array(nums, dtype=object)]
    if all(-(2**63) <= v < 2**63 for v in nums):
        inputs.append(np.array(nums, dtype=np.int64))
    for given_nums in inputs:
        arr, d = lowest_terms(given_nums, den)
        assert (arr.tolist(), d) == (ref, ref_den)
        assert arr.dtype == dtype and not arr.flags.writeable


def test_one_value_has_one_numerator_form():
    # The same element from Python ints, an int64 array, an object array,
    # a sum and a product has one dtype, one == and one hash.
    spec = parse_group_spec("2:[1,1]")
    one = AlgebraElement.one(spec)
    for vals, den in (
        ([1, -2, 3, 0], 6),
        ([2**63 - 1, 0, 1, -1], 3),
        ([2**64, -(2**63), 0, 2], 7),
    ):
        ref = AlgebraElement(spec, vals, den)
        forms = [
            AlgebraElement(spec, np.array(vals, dtype=object), den),
            AlgebraElement(spec, [3 * v for v in vals], 3 * den),
            lattice_sum([AlgebraElement(spec, vals, 2 * den)] * 2),
            ref * one,
            one * ref,
        ]
        if all(-(2**63) <= v < 2**63 for v in vals):
            forms.append(AlgebraElement(spec, np.array(vals, dtype=np.int64), den))
        for e in forms:
            assert e == ref and hash(e) == hash(ref)
            assert (e.nums.dtype, e.nums.tolist(), e.den) == (
                ref.nums.dtype, ref.nums.tolist(), ref.den
            )


@given(st.lists(big_int_st, max_size=40), big_den_st)
@settings(max_examples=100, deadline=None)
def test_fraction_strings_match_fraction_reference(nums, den):
    expected = [f"{f.numerator}/{f.denominator}" for f in (Fraction(v, den) for v in nums)]
    assert fraction_strings(nums, den) == expected


@st.composite
def cyclo_pairs(draw):
    """m in 1..30 and two coordinate lists of any length up to m + 4, past
    phi(m), so the constructor reduces them."""
    m = draw(st.integers(min_value=1, max_value=30))
    coords = st.lists(rational_st, max_size=m + 4)
    return m, draw(coords), draw(coords)


@given(cyclo_pairs(), rational_st)
@settings(max_examples=100, deadline=None)
def test_cyclo_number_matches_fraction_reference(pair, c):
    m, xs, ys = pair
    a, b = CycloNumber(m, xs), CycloNumber(m, ys)
    ra, rb = _ref_reduce(m, xs), _ref_reduce(m, ys)
    assert a.coeffs == ra and b.coeffs == rb
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ra, rb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ra, rb))
    assert (-a).coeffs == tuple(-x for x in ra)
    assert (a * b).coeffs == _ref_mul(m, ra, rb)
    assert (a * c).coeffs == (c * a).coeffs == tuple(x * c for x in ra)
    assert (a == b) == (ra == rb)
    assert a.to_json() == {
        "m": m,
        "coeffs": [f"{x.numerator}/{x.denominator}" for x in ra],
    }
    assert element_reference.from_json(a.to_json()) == a


@given(cyclo_pairs(), big_int_st, st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_cyclo_number_equality_and_hash_ignore_representation(pair, s, shift):
    # xs + s * zeta^shift * Phi_m is the same field element as xs.
    m, xs, _ = pair
    alt = list(xs) + [0] * (shift + len(cyclotomic_poly(m)))
    for t, coef in enumerate(cyclotomic_poly(m)):
        alt[shift + t] += s * coef
    a, b = CycloNumber(m, xs), CycloNumber(m, alt)
    assert a == b and hash(a) == hash(b)
    assert a.to_json() == b.to_json()


@given(
    st.integers(min_value=1, max_value=30),
    st.lists(big_int_st, max_size=60),
    big_int_st.filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_cyclo_number_integer_constructor(m, nums, den):
    # Integers over a denominator of either sign, as the arithmetic builds them.
    a = CycloNumber(m, nums, den)
    assert a.coeffs == _ref_reduce(m, [Fraction(v, den) for v in nums])
    assert a.den > 0 and math.gcd(a.den, *a.nums) == 1


LATTICE_GROUPS = [
    PrimaryGroupSpec(2, ((1, 1),)),
    PrimaryGroupSpec(3, ((1, 1),)),
    PrimaryGroupSpec(2, ((2, 1),)),
    PrimaryGroupSpec(2, ((1, 2),)),
]


@st.composite
def cyclo_elements(draw):
    spec = draw(st.sampled_from(LATTICE_GROUPS))
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9]))
    size = spec.order * m
    nums = st.lists(big_int_st, min_size=size, max_size=size)
    den = big_int_st.filter(bool)
    x = CycloAlgebraElement(spec, m, draw(nums), draw(den))
    y = CycloAlgebraElement(spec, m, draw(nums), draw(den))
    return spec, m, x, y, draw(rational_st)


@given(cyclo_elements())
@settings(max_examples=40, deadline=None)
def test_cyclo_algebra_matches_coefficientwise_field_arithmetic(data):
    spec, m, x, y, c = data
    n = spec.order
    xc = [x.cyclo_coeff(g) for g in range(n)]
    yc = [y.cyclo_coeff(g) for g in range(n)]
    inverse = [element_index(element_from_index(spec, g).inverse()) for g in range(n)]
    for g in range(n):
        gel = element_from_index(spec, g)
        expected = CycloNumber.zero(m)
        for h in range(n):
            k = element_index(group_mul(gel, element_from_index(spec, inverse[h])))
            expected = expected + xc[h] * yc[k]
        assert (x * y).cyclo_coeff(g) == expected
        assert (x + y).cyclo_coeff(g) == xc[g] + yc[g]
        assert (x - y).cyclo_coeff(g) == xc[g] - yc[g]
        assert (x * c).cyclo_coeff(g) == xc[g] * c
    assert (x == y) == (xc == yc)
    assert cyclo_json(x) == {"m": m, "coeffs": [c.to_json() for c in xc]}
    assert (x - x).is_zero() and x - x == CycloAlgebraElement.zero(spec, m)
    # den of either sign reaches the shared normaliser
    assert CycloAlgebraElement(spec, m, [-v for v in x.nums], -x.den) == x
    assert AlgebraElement(spec, [-v for v in range(n)], -3) == AlgebraElement.from_coeffs(
        spec, [Fraction(v, 3) for v in range(n)]
    )


def test_lattice_types_do_not_mix():
    spec = LATTICE_GROUPS[0]
    a = AlgebraElement.one(spec)
    x = CycloAlgebraElement.one(spec, 1)
    assert a != x and x != a
    for op in (lambda: a + x, lambda: x + a, lambda: a * x, lambda: x * a):
        with pytest.raises(SpecMismatchError):
            op()
    c4 = parse_group_spec("2:[2]")
    g = element_from_index(c4, 3)
    for check in (
        lambda: are_orthogonal(a, x),
        lambda: are_orthogonal(x, x),
        lambda: is_idempotent(x),
        lambda: translate(identity(spec), x),
        lambda: translate(g, CycloAlgebraElement.one(c4, 4)),
        lambda: kernel_subgroup(x),
        lambda: kernel_subgroup(CycloAlgebraElement.monomial(c4, 4, g, 3)),
        lambda: compare_pci_sets([a], [x]),
        lambda: compare_pci_sets([x], [x]),
    ):
        with pytest.raises(SpecMismatchError):
            check()


@st.composite
def lattice_terms(draw):
    """1-6 elements of one algebra, Q[G] or Q(zeta_m)[G], whose
    denominators mix small shared values with ones beyond int64."""
    spec = draw(st.sampled_from(LATTICE_GROUPS))
    m = draw(st.sampled_from([None, 1, 3, 4, 8]))
    size = spec.order * (m or 1)
    nums = st.lists(big_int_st, min_size=size, max_size=size)
    den = st.one_of(st.sampled_from([1, 2, 3, 4, 6]), big_den_st)
    count = draw(st.integers(min_value=1, max_value=6))
    if m is None:
        terms = [AlgebraElement(spec, draw(nums), draw(den)) for _ in range(count)]
    else:
        terms = [
            CycloAlgebraElement(spec, m, draw(nums), draw(den)) for _ in range(count)
        ]
    return terms


@given(lattice_terms())
@settings(max_examples=80, deadline=None)
def test_lattice_sum_matches_left_fold_and_fractions(terms):
    total = lattice_sum(terms)
    assert type(total) is type(terms[0])
    assert total == functools.reduce(operator.add, terms)
    # one Fraction per lattice entry, rebuilt without lattice_sum
    rows = [(t.nums.tolist(), t.den) for t in terms]
    fracs = [sum(Fraction(nums[i], den) for nums, den in rows) for i in range(len(total.nums))]
    nums, den = lowest_terms(*integer_form(fracs))
    assert (total.nums.tolist(), total.den) == (nums.tolist(), den)
    assert total.nums.dtype == nums.dtype


def test_lattice_sum_refuses_empty_and_mixed_input():
    spec, other = LATTICE_GROUPS[0], LATTICE_GROUPS[1]
    with pytest.raises(InvariantError):
        lattice_sum([])
    with pytest.raises(InvariantError):
        lattice_sum(iter(()))
    mixed = [
        [AlgebraElement.one(spec), AlgebraElement.one(other)],
        [AlgebraElement.one(spec), CycloAlgebraElement.one(spec, 1)],
        [CycloAlgebraElement.one(spec, 3), CycloAlgebraElement.one(spec, 4)],
        [CycloAlgebraElement.one(spec, 3), CycloAlgebraElement.one(other, 3)],
    ]
    for terms in mixed:
        with pytest.raises(SpecMismatchError):
            lattice_sum(terms)
        with pytest.raises(SpecMismatchError):
            lattice_sum(terms[::-1])


# Trivial, elementary, mixed and long cyclic axes: (128,) and (3, 81) are
# split four-step, (2, 128) mixes a split axis with a short one.
KERNEL_ORDERS = [
    (), (2,), (2, 2, 2), (2,) * 6, (3, 3), (9, 3), (5, 5, 5), (4, 2, 8),
    (128,), (3, 81), (2, 128), (32,),
]


@st.composite
def kernel_operands(draw):
    orders = draw(st.sampled_from(KERNEL_ORDERS))
    n = math.prod(orders)

    def vector():
        # 2^0 .. 2^40 reaches the direct and bigint paths; the density
        # covers monomial, sparse and dense operands.
        mag = 2 ** draw(st.integers(min_value=0, max_value=40))
        density = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
        seed = draw(st.integers(min_value=0, max_value=2**32))
        rng = random.Random(seed)
        out = [0] * n
        for i in range(n):
            if rng.random() < density:
                out[i] = rng.randint(-mag, mag)
        out[rng.randrange(n)] = rng.choice([-mag, mag])
        return out

    return orders, vector(), vector()


def _kernel_path(a, b, orders):
    (a1, b1), (a_inf, b_inf) = _row_norms(np.stack((int_array(a), int_array(b))))
    if a1 == 0 or b1 == 0:
        return "zero"
    return "bigint" if min(a1 * b_inf, b1 * a_inf) >= 2**63 else "direct"


@given(kernel_operands())
@settings(max_examples=150, deadline=None)
def test_convolve_ints_matches_bigint_reference(data):
    orders, a, b = data
    event(_kernel_path(a, b, orders))
    assert convolve_ints(a, b, orders).tolist() == _convolve_bigint(a, b, orders).tolist()


def test_kernel_magnitudes_reach_every_path():
    orders = (2, 2, 2)
    seen = set()
    for mag in (1, 2**20, 2**30, 2**40):
        a = [mag, -mag, 0, mag, 1, 0, 2, -1]
        b = [mag - 1, 3, -mag, 0, 0, 1, mag, 5]
        seen.add(_kernel_path(a, b, orders))
        assert convolve_ints(a, b, orders).tolist() == _convolve_bigint(a, b, orders).tolist()
    assert seen == {"direct", "bigint"}


NEAR_MISS_GROUPS = [
    parse_group_spec(t) for t in ("2:[2,1]", "3:[1,1]", "2:[1];3:[1]", "5:[2]")
]


@st.composite
def pci_near_misses(draw):
    spec = draw(st.sampled_from(NEAR_MISS_GROUPS))
    pcis = pci_set(spec)
    i = draw(st.integers(min_value=0, max_value=len(pcis) - 1))
    j = draw(st.integers(min_value=0, max_value=len(pcis) - 1))
    pos = draw(st.integers(min_value=0, max_value=spec.order - 1))
    step = draw(st.sampled_from([-1, 1]))
    e = pcis[i]
    nums = e.nums.tolist()
    nums[pos] += step
    return pcis[i], pcis[j], AlgebraElement(spec, nums, e.den), i == j


@given(pci_near_misses())
@settings(max_examples=80, deadline=None)
def test_pointwise_verdicts_match_products(data):
    e, f, moved, same = data
    assert is_idempotent(e) and is_idempotent(f)
    assert is_idempotent(moved) == (convolve(moved, moved) == moved)
    assert not is_idempotent(moved)
    assert are_orthogonal(e, f) == convolve(e, f).is_zero() == (not same)
    assert are_orthogonal(moved, f) == convolve(moved, f).is_zero()
    assert are_orthogonal(f, moved) == convolve(f, moved).is_zero()


@given(spec_and_algebra_elements(2))
@settings(max_examples=60, deadline=None)
def test_pointwise_verdicts_match_products_on_random_elements(data):
    spec, (a, b) = data
    assert is_idempotent(a) == (convolve(a, a) == a)
    assert are_orthogonal(a, b) == convolve(a, b).is_zero()


# Every p-group of order <= 256 for p = 2, 3, 5, the trivial group included.
SMALL_P_GROUPS = [
    spec_from_partition(p, part)
    for p, top in ((2, 8), (3, 5), (5, 3))
    for n in range(top + 1)
    for part in partitions(n)
]


@given(st.sampled_from(SMALL_P_GROUPS), st.booleans())
@example(PrimaryGroupSpec(2, ((2, 2),)), False)  # C_4 x C_4: the scanned
@example(PrimaryGroupSpec(2, ((2, 2),)), True)  # witness, not u, splits one vertex
@settings(max_examples=20, deadline=None)
def test_diagram_kernels_match_closure_reference(spec, alternate):
    labels = alternate_generator_labels(spec) if alternate else None
    diag = build_pci_diagram(spec, labels)
    rows = zip(*diag.leaf_rows(np.arange(len(diag.leaves))))
    for v, (nums, den) in zip(diag.leaves, rows):
        closure = subgroup_closure(spec, v.form.kernel_gens)
        assert len(closure) == v.kernel_order
        expected_nums, expected_den = expansion_numerators(spec, closure, v.form.primed)
        assert np.array_equal(nums, expected_nums) and den == expected_den
    assert diag.leaf_expansions() == [expand_factored(v.form) for v in diag.leaves]


@st.composite
def subgroup_and_outside_element(draw):
    """A small p-group, a proper subgroup K with random generators and a
    random z outside K."""
    spec = draw(st.sampled_from([g for g in SMALL_P_GROUPS if g.order > 1]))
    index = st.integers(min_value=0, max_value=spec.order - 1)
    gens = [element_from_index(spec, i) for i in draw(st.lists(index, max_size=3))]
    kernel = subgroup_closure(spec, gens)
    assume(len(kernel) < spec.order)
    outside = np.setdiff1d(np.arange(spec.order), kernel)
    z = element_from_index(spec, int(draw(st.sampled_from(outside.tolist()))))
    return spec, kernel, z


@given(subgroup_and_outside_element())
@settings(max_examples=80, deadline=None)
def test_expansion_kernel_is_the_span_for_z_outside(data):
    # The lemma behind verify's vertex_kernels check: for z outside K the
    # expansion's numerators are p on K less the z^c K counts, at least 1
    # on K and at most 0 off K, so its stabiliser is K.
    spec, kernel, z = data
    nums, _ = expansion_numerators(spec, kernel, z)
    assert fixing_subgroup(spec, nums).tolist() == kernel.tolist()
    assert nums[kernel].min() >= 1
    assert np.delete(nums, kernel).max(initial=0) <= 0


def _kernel_reference(e):
    return [element_index(g) for g in elements(e.spec) if translate(g, e) == e]


# Groups whose stabilisers can need several generators, or can hold the
# square of an element that is not in them.
PERIODIC_GROUPS = [
    parse_group_spec(t)
    for t in ("2:[2,1]", "2:[2,2]", "2:[3,1]", "2:[1,1,1,1]", "3:[2,1]", "2:[1];3:[1,1]")
]


@st.composite
def coset_periodic(draw):
    """Random values constant on the cosets of a random subgroup H: the
    stabiliser contains H, and is rarely a value class."""
    spec = draw(st.sampled_from(PERIODIC_GROUPS))
    index = st.integers(min_value=0, max_value=spec.order - 1)
    gens = [element_from_index(spec, i) for i in draw(st.lists(index, max_size=3))]
    sub = subgroup_closure(spec, gens)
    enum = enumeration(spec.factor_orders)
    values = draw(st.lists(st.integers(0, 2), min_size=spec.order, max_size=spec.order))
    # each element takes the value drawn for the least index of its coset
    least = enum.product(np.arange(spec.order)[:, None], sub).min(axis=1)
    return AlgebraElement(spec, [values[j] for j in least])


@st.composite
def kernel_inputs(draw):
    kind = draw(st.sampled_from(["pci", "huge pci", "random", "zero", "coset-periodic"]))
    if kind == "coset-periodic":
        return draw(coset_periodic())
    spec = draw(st.sampled_from(SPECS + NEAR_MISS_GROUPS))
    if kind == "zero":
        return AlgebraElement.zero(spec)
    if kind == "random":
        nums = draw(
            st.lists(st.integers(-2, 2), min_size=spec.order, max_size=spec.order)
        )
        return AlgebraElement(spec, nums)
    pcis = pci_set(spec)
    e = pcis[draw(st.integers(min_value=0, max_value=len(pcis) - 1))]
    # numerators beyond int64 take the exact-int comparison
    return e.scaled(2**70 + 1) if kind == "huge pci" else e


@given(kernel_inputs())
# On C_4 x C_2, periodic on {(0,0), (2,0)}: the candidate (1,0) fails, but
# its square is in the stabiliser, so only the coset of S may be ruled out.
@example(AlgebraElement(parse_group_spec("2:[2,1]"), [1, 2, 1, 0, 1, 2, 1, 0]))
# On C_9, periodic mod 3 with the first support index s0 = 1: the candidates
# are the value class times s0^-1 = 8, not times s0.
@example(AlgebraElement(parse_group_spec("3:[2]"), [0, 1, 2] * 3))
@settings(max_examples=150, deadline=None)
def test_kernel_subgroup_matches_translation_reference(e):
    reference = _kernel_reference(e)
    event(f"stabiliser order {len(reference)}")
    assert kernel_subgroup(e).tolist() == reference


@st.composite
def idempotent_multisets(draw):
    """Idempotents of a small group, each a PCI or a sum of two distinct
    PCIs, repeats allowed."""
    spec = draw(st.sampled_from(SPECS + NEAR_MISS_GROUPS))
    pcis = pci_set(spec)
    index = st.integers(min_value=0, max_value=len(pcis) - 1)
    picks = draw(
        st.lists(st.sets(index, min_size=1, max_size=2), min_size=1, max_size=8)
    )
    zero = AlgebraElement.zero(spec)
    return spec, [sum((pcis[i] for i in pick), zero) for pick in picks]


@given(idempotent_multisets())
@settings(max_examples=100, deadline=None)
def test_orthogonality_by_sum_matches_pairwise_sweep(data):
    spec, members = data
    total = sum(members, AlgebraElement.zero(spec))
    pairwise = all(are_orthogonal(a, b) for a, b in itertools.combinations(members, 2))
    event(f"orthogonal: {pairwise}")
    bad, orthogonal, (nums, den) = certify_idempotents(
        element_blocks(members, 3), spec.factor_orders
    )
    assert (bad, orthogonal) == ([], pairwise)
    assert AlgebraElement(spec, nums, den) == total


@given(st.sampled_from(NEAR_MISS_GROUPS), st.data())
@settings(max_examples=60, deadline=None)
def test_orthogonality_by_sum_refuses_non_idempotents(spec, data):
    # distinct PCIs with e_0 split into e_0 + d and -d: the sum is still an
    # idempotent, but the members are not all idempotents
    pcis = pci_set(spec)
    index = st.integers(min_value=0, max_value=len(pcis) - 1)
    chosen = data.draw(st.lists(index, min_size=1, unique=True))
    nums = data.draw(
        st.lists(st.integers(-2, 2), min_size=spec.order, max_size=spec.order)
    )
    d = AlgebraElement(spec, nums, data.draw(st.integers(1, 4)))
    members = [pcis[i] for i in chosen[1:]] + [pcis[chosen[0]] + d, -d]
    assume(any(convolve(m, m) != m for m in members))
    total = sum(members, AlgebraElement.zero(spec))
    assert is_idempotent(total)
    bad, orthogonal, (nums, den) = certify_idempotents(
        element_blocks(members, 2), spec.factor_orders
    )
    assert bad and not orthogonal
    assert AlgebraElement(spec, nums, den) == total

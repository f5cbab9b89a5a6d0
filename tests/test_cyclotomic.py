from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import element_reference
from element_reference import pci_set, ramanujan_sum_direct
from pcikit import (
    AbelianGroupSpec,
    AlgebraElement,
    InvariantError,
    PrimaryGroupSpec,
    SpecMismatchError,
    parse_group_spec,
)
from pcikit.cyclotomic import (
    CycloAlgebraElement,
    CycloNumber,
    ramanujan_sum,
    reduce_rows,
)
from pcikit.diagram import cyclic_group_spec
from pcikit.groups import element, identity
from pcikit.kernels import int_array
from pcikit.numtheory import cyclotomic_poly, divisors, euler_phi, poly_divmod, poly_mul

C4 = PrimaryGroupSpec(2, ((2, 1),))


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # product over divisors reconstructs x^m - 1
    for m in range(1, 61):
        prod = [1]
        for d in divisors(m):
            prod = poly_mul(prod, list(cyclotomic_poly(d)))
        assert prod == [-1] + [0] * (m - 1) + [1]
        assert len(cyclotomic_poly(m)) - 1 == euler_phi(m)


def test_cyclo_mul():
    z4 = CycloNumber.zeta(4)
    assert z4 * z4 == CycloNumber.from_rational(4, -1)
    assert CycloNumber.zeta(3) * CycloNumber.zeta(3, 2) == CycloNumber.one(3)
    a = CycloNumber.one(5) + CycloNumber.zeta(5)
    b = CycloNumber.one(5) + CycloNumber.zeta(5, 4)
    assert a * b == CycloNumber(5, (1, 0, -1, -1))
    with pytest.raises(SpecMismatchError):
        CycloNumber.zeta(3) * CycloNumber.zeta(4)
    with pytest.raises(SpecMismatchError):
        CycloNumber.one(4) * CycloAlgebraElement.one(C4, 4)


@pytest.mark.parametrize("m", [0, -3])
def test_modulus_must_be_positive(m):
    spec = cyclic_group_spec(2, 1)
    with pytest.raises(InvariantError):
        CycloNumber(m, (1,))
    with pytest.raises(InvariantError):
        CycloNumber.zeta(m)
    with pytest.raises(InvariantError):
        CycloAlgebraElement(spec, m, [])
    with pytest.raises(InvariantError):
        CycloAlgebraElement.zero(spec, m)


def test_ramanujan_sum_values():
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum(5, 1) == -1
    for m in (1, 2, 3, 4, 6, 9, 12):
        assert ramanujan_sum(m, 0) == euler_phi(m)


def test_ramanujan_direct_agrees():
    for m in (1, 2, 3, 4, 5, 8, 9, 12, 15):
        for t in range(m):
            direct = ramanujan_sum_direct(m, t)
            assert direct.is_rational()
            assert element_reference.as_fraction(direct) == ramanujan_sum(m, t)


def test_cyclo_number_json_round_trip():
    a = CycloNumber(8, (Fraction(1, 2), 0, Fraction(-3, 4), 5))
    data = a.to_json()
    assert data["m"] == 8 and len(data["coeffs"]) == euler_phi(8)
    assert element_reference.from_json(data) == a


def test_cyclo_algebra_rationality_and_coeffs():
    a = AlgebraElement.from_coeffs(C4, [1, Fraction(1, 2), 0, -2])
    lifted = element_reference.from_rational_element(a, 4)
    assert lifted.is_rational()
    assert element_reference.rational_part(lifted) == a
    assert lifted.cyclo_coeff(1) == CycloNumber.from_rational(4, Fraction(1, 2))

    twisted = CycloAlgebraElement.monomial(C4, 4, identity(C4), 1) * lifted
    assert not twisted.is_rational()
    assert twisted.cyclo_coeff(3) == CycloNumber(4, (0, -2))


def test_cyclo_algebra_product_and_translate():
    m = 4
    one = CycloAlgebraElement.one(C4, m)
    z = CycloAlgebraElement.monomial(C4, m, element(C4, (1,)), 1)
    assert z * one == z
    # (zeta*x)^4 = zeta^4 * x^4 = 1
    acc = one
    for _ in range(4):
        acc = acc * z
    assert acc == one
    x2 = CycloAlgebraElement.monomial(C4, m, element(C4, (2,)), 0)
    assert x2 * one == x2
    # x^2 * (zeta * x) moves every coefficient by x^2
    assert (x2 * z).cyclo_coeff(3) == CycloNumber.zeta(m)
    assert (x2 * z).cyclo_coeff(1).is_zero()


def test_cyclo_coeff_refuses_an_index_outside_the_group():
    e = CycloAlgebraElement.one(C4, 4)
    for idx in (-1, 4, 10):
        with pytest.raises(InvariantError):
            e.cyclo_coeff(idx)


def test_cyclo_algebra_mixed_modulus_rejected():
    with pytest.raises(SpecMismatchError):
        CycloAlgebraElement.one(C4, 4) + CycloAlgebraElement.one(C4, 2)


def test_repr_names_every_group():
    trivial = AbelianGroupSpec(())
    assert repr(pci_set(trivial)) == "[AlgebraElement(C_1, ['1/1'])]"
    assert repr(CycloAlgebraElement.one(trivial, 4)) == "CycloAlgebraElement(C_1, m=4)"
    spec = parse_group_spec("2:[2,1]")
    assert repr(CycloAlgebraElement.one(spec, 4)) == "CycloAlgebraElement(2:[2,1], m=4)"
    assert repr(pci_set(spec)[0]).startswith("AlgebraElement(2:[2,1], ['1/8', ")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_rows_matches_polynomial_remainder(data):
    # Each row's zeta blocks, reduced in one step for the whole stack, are
    # the remainders modulo the cyclotomic polynomial; entries near 2^62
    # put some stacks on Python ints.
    m = data.draw(st.sampled_from([1, 2, 4, 6, 8, 9, 12, 25]))
    order = data.draw(st.sampled_from([1, 2, 3]))
    value = st.integers(-3, 3)
    if data.draw(st.booleans()):
        value |= st.sampled_from([2**62, -(2**62), 2**70])
    row = st.lists(value, min_size=order * m, max_size=order * m)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    matrix = np.stack([int_array(r) for r in rows])  # an object matrix if any row is
    got = reduce_rows(matrix, m)
    event(f"dtype {got.dtype}")
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    for r, out in zip(rows, got.tolist()):
        want = []
        for g in range(order):
            rem = poly_divmod(r[g * m : (g + 1) * m], phi)[1]
            want += rem + [0] * (deg - len(rem))
        assert out == want

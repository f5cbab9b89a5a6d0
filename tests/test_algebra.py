from fractions import Fraction

import numpy as np
import pytest

from pcikit import (
    AlgebraElement,
    InconsistencyError,
    InvariantError,
    PrimaryGroupSpec,
    SpecMismatchError,
    build_pci_diagram,
    parse_group_spec,
)
from pcikit.algebra import (
    FactoredIdempotent,
    are_orthogonal,
    convolve,
    expand_factored,
    expand_from_subgroup,
    expansion_numerators,
    fixing_subgroup,
    is_idempotent,
    kernel_subgroup,
)
from pcikit.cyclotomic import CycloAlgebraElement
from pcikit.diagram import cyclic_rational_pcis
from pcikit.groups import element, element_index, group_mul, subgroup_closure
import element_reference
from element_reference import element_from_index, translate
from conftest import engine_records
from rank_reference import fraction_free_rank, kernel_and_field

C2 = PrimaryGroupSpec(2, ((1, 1),))
C4 = PrimaryGroupSpec(2, ((2, 1),))


def brute_convolve(a, b):
    # Independent oracle: build the product from the group multiplication
    # table entry by entry.
    spec = a.spec
    out = [Fraction(0)] * spec.order
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        gi = element_from_index(spec, i)
        for j, cb in enumerate(b.coeffs):
            if not cb:
                continue
            k = element_index(group_mul(gi, element_from_index(spec, j)))
            out[k] += ca * cb
    return AlgebraElement.from_coeffs(spec, out)


def average(spec, gens):
    """The idempotent (1/|H|) * sum of H for H = <gens>."""
    return expand_from_subgroup(spec, subgroup_closure(spec, gens), None)


def from_exps(spec, exps_list):
    coeffs = [Fraction(0)] * spec.order
    for exps in exps_list:
        coeffs[element_index(element(spec, exps))] += Fraction(1, len(exps_list))
    return AlgebraElement.from_coeffs(spec, coeffs)


def test_convolve_identity():
    a = AlgebraElement.from_coeffs(C4, [Fraction(1, 3), 2, 0, Fraction(-1, 7)])
    assert convolve(AlgebraElement.one(C4), a) == a


def test_convolve_c2_average_is_idempotent():
    e = from_exps(C2, [(0,), (1,)])
    assert convolve(e, e) == e


def test_convolve_c4_half_sum_not_idempotent():
    e = from_exps(C4, [(0,), (1,)])  # (1+x)/2 with x of order 4
    sq = convolve(e, e)
    assert sq == AlgebraElement.from_coeffs(
        C4, [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), 0]
    )
    assert sq == brute_convolve(e, e)
    assert sq != e
    assert not is_idempotent(e)


def test_convolve_matches_brute_force():
    a = AlgebraElement.from_coeffs(C4, [1, Fraction(-2, 3), 0, 5])
    b = AlgebraElement.from_coeffs(C4, [Fraction(1, 2), 0, 7, Fraction(3, 4)])
    assert convolve(a, b) == brute_convolve(a, b)
    spec = parse_group_spec("2:[1];3:[1]")
    c = AlgebraElement.from_coeffs(spec, [1, 2, 3, 4, 5, 6])
    d = AlgebraElement.from_coeffs(spec, [Fraction(1, 6), 0, -1, 0, 2, Fraction(7, 2)])
    assert convolve(c, d) == brute_convolve(c, d)
    with pytest.raises(SpecMismatchError):
        convolve(a, AlgebraElement.one(C2))


def test_expand_factored():
    x = element(C2, (1,))
    assert expand_factored(FactoredIdempotent(C2, (x,))) == from_exps(C2, [(0,), (1,)])
    # kernel <x^2> with primed x in C_4: the faithful-component idempotent
    e = expand_factored(FactoredIdempotent(C4, (element(C4, (2,)),), element(C4, (1,))))
    assert e == AlgebraElement.from_coeffs(
        C4, [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 4)]
    )
    # trivial kernel with primed x^2
    e1 = expand_factored(FactoredIdempotent(C4, (), element(C4, (2,))))
    assert e1 == AlgebraElement.from_coeffs(C4, [Fraction(1, 2), 0, Fraction(-1, 2), 0])
    with pytest.raises(InvariantError):
        expand_factored(FactoredIdempotent(C4, (element(C4, (1,)),), element(C4, (2,))))


def test_is_idempotent_subgroup_averages():
    spec = PrimaryGroupSpec(2, ((2, 1), (1, 1)))
    for gens in ([], [element(spec, (2, 0))], [element(spec, (1, 1))]):
        avg = average(spec, gens)
        assert is_idempotent(avg)
    assert is_idempotent(AlgebraElement.zero(spec))


def test_orthogonality():
    e = from_exps(C2, [(0,), (1,)])
    ep = AlgebraElement.one(C2) - e
    assert are_orthogonal(e, ep)
    assert not are_orthogonal(e, e)
    _, e1, e2 = cyclic_rational_pcis(2, 2)
    assert are_orthogonal(e1, e2)


def test_absorption_and_prefix_average():
    # Convolving the literal (1 + x_i + ... + x_i^(p-1))/p chain factors
    # produces the chain-subgroup averages, and those absorb:
    # A_i * A_j = A_j for i <= j.
    for p, n in ((2, 3), (3, 2)):
        spec = PrimaryGroupSpec(p, ((n, 1),))
        averages = []
        prefix = AlgebraElement.one(spec)
        for i in range(1, n + 1):
            xi = element(spec, (p ** (n - i),))
            factor = from_exps(spec, [((p ** (n - i)) * c,) for c in range(p)])
            prefix = convolve(prefix, factor)
            assert prefix == average(spec, [xi])
            averages.append(prefix)
        for i in range(len(averages)):
            for j in range(i, len(averages)):
                assert convolve(averages[i], averages[j]) == averages[j]


def test_subgroup_average_invariance():
    spec = PrimaryGroupSpec(3, ((1, 2),))
    sub = subgroup_closure(spec, [element(spec, (1, 1))])
    avg = average(spec, [element(spec, (1, 1))])
    assert convolve(avg, avg) == avg
    for h in sub:
        assert translate(element_from_index(spec, h), avg) == avg


def test_kernel_and_field():
    full = average(C4, [element(C4, (1,))])
    info = kernel_and_field(full)
    assert info.kernel.tolist() == [0, 1, 2, 3]
    assert info.quotient_order == 1 and info.dim == 1
    assert info.field_index == 0

    info = kernel_and_field(AlgebraElement.from_coeffs(C2, [Fraction(1, 2), Fraction(-1, 2)]))
    assert len(info.kernel) == 1 and info.quotient_order == 2 and info.dim == 1
    assert info.field_index == 1

    info = kernel_and_field(
        AlgebraElement.from_coeffs(C4, [Fraction(1, 2), 0, Fraction(-1, 2), 0])
    )
    assert len(info.kernel) == 1 and info.quotient_order == 4 and info.dim == 2
    assert info.field_index == 2

    with pytest.raises(InvariantError):
        kernel_and_field(from_exps(C4, [(0,), (1,)]))
    # idempotent but not primitive
    with pytest.raises(InconsistencyError):
        kernel_and_field(AlgebraElement.one(C4) - full)


def test_component_dimension_invariant():
    # dim Q[G]e = phi(|G|/|kernel|) for every engine idempotent, and the
    # diagram bookkeeping matches the algebraic kernel data.
    for text in ("2:[2,1]", "3:[1,1]", "2:[1,1,1]", "3:[2,1]", "2:[1];3:[1]"):
        spec = parse_group_spec(text)
        for rec in engine_records(spec):
            info = kernel_and_field(rec.element)
            assert len(info.kernel) == rec.kernel_order
            assert info.quotient_order == rec.quotient_order


def test_fixing_subgroup_reads_the_kernel_off_unreduced_numerators():
    # The vertex-kernel reference (verify_reference.py) feeds the int64
    # numerators of each expansion, over no denominator, straight to the
    # stabiliser search; verify's vertex_kernels check relies on the lemma
    # that the search returns the span (see vertex_kernel_failures).
    for text in ("2:[2,1]", "3:[1,1]", "2:[1,1,1]", "3:[2,1]", "5:[1]"):
        spec = parse_group_spec(text).parts[0]
        for level in build_pci_diagram(spec).levels:
            for v in level:
                kernel = subgroup_closure(spec, v.form.kernel_gens)
                nums, den = expansion_numerators(spec, kernel, v.form.primed)
                e = expand_from_subgroup(spec, kernel, v.form.primed)
                assert e == AlgebraElement(spec, nums.tolist(), den)
                assert fixing_subgroup(spec, nums).tolist() == kernel.tolist()
                assert fixing_subgroup(spec, -3 * nums).tolist() == kernel.tolist()
                assert kernel_subgroup(e).tolist() == kernel.tolist()


def test_fraction_free_rank():
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([[0, 0], [0, 0]]) == 0
    assert fraction_free_rank([[1, 2], [2, 4]]) == 1
    assert fraction_free_rank([[2, 3, 5], [7, 11, 13], [1, 1, 1]]) == 3
    assert fraction_free_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_serialization_round_trip():
    a = AlgebraElement.from_coeffs(C4, [Fraction(-1, 4), 0, 3, Fraction(5, 6)])
    strings = a.to_strings()
    assert strings[0] == "-1/4" and strings[1] == "0/1"
    assert element_reference.from_strings(C4, strings) == a


def test_scalar_arithmetic():
    a = AlgebraElement.from_coeffs(C2, [1, Fraction(1, 2)])
    assert (a - a).is_zero()
    assert Fraction(1, 2) * a == AlgebraElement.from_coeffs(
        C2, [Fraction(1, 2), Fraction(1, 4)]
    )
    assert -a + a == AlgebraElement.zero(C2)


@pytest.mark.parametrize(
    "bad", [2.5, np.float64(0.9), Fraction(1, 2), "1"], ids=["float", "float64", "Fraction", "str"]
)
def test_non_integral_numerators_and_denominators_are_refused(bad):
    for build in (
        lambda: AlgebraElement(C2, [bad, 1]),
        lambda: AlgebraElement(C2, [1, 1], bad),
        lambda: CycloAlgebraElement(C2, 2, [bad, 0, 0, 1]),
        lambda: CycloAlgebraElement(C2, 2, [1, 0, 0, 1], bad),
    ):
        with pytest.raises(TypeError):
            build()


def test_element_numerators_are_read_only_and_unshared():
    # the normaliser copies a writeable array it would otherwise keep
    buf = np.array([1, 3])
    a = AlgebraElement(C2, buf)
    buf[0] = 5
    assert a.nums.tolist() == [1, 3] and not a.nums.flags.writeable
    with pytest.raises(ValueError):
        a.nums[0] = 2


def test_to_strings_matches_fraction_formatting():
    import random

    rng = random.Random(2015)
    spec = parse_group_spec("2:[1];3:[1];5:[1]")
    for _ in range(20):
        den = rng.randint(1, 10**6)
        nums = [rng.choice([0, rng.randint(-(10**9), 10**9)]) for _ in range(spec.order)]
        a = AlgebraElement(spec, nums, den)
        expected = []
        for v in a.nums.tolist():
            f = Fraction(v, a.den)
            expected.append(f"{f.numerator}/{f.denominator}")
        assert a.to_strings() == expected
    assert AlgebraElement.zero(spec).to_strings() == ["0/1"] * spec.order

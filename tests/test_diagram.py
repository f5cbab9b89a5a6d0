import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcikit import (
    AbelianGroupSpec,
    AlgebraElement,
    GroupSpecError,
    InconsistencyError,
    InvariantError,
    PrimaryGroupSpec,
    SpecMismatchError,
    build_pci_diagram,
    compare_pci_sets,
    parse_group_spec,
    pci_records,
    verify,
)
from pcikit.algebra import (
    expansion_numerators,
    is_idempotent,
    lattice_sum,
    lowest_terms,
)
from pcikit.cyclotomic import CycloAlgebraElement
from pcikit.diagram import (
    alternate_generator_labels,
    cross_prime_product,
    cyclic_group_spec,
    cyclic_rational_pcis,
    emit_dot,
    extension_children,
    galois_orbit_collapse,
    galois_orbits,
    lift_into_extension,
    splitting_field_pcis,
)
from pcikit.groups import GroupElement, LongGenerator, element_index, subgroup_closure
from pcikit.kernels import int_array
from pcikit.numtheory import cyclotomic_poly, euler_phi, is_prime, poly_divmod
from pcikit.oracle import oracle_pci_set
import element_reference
from element_reference import pci_set
from conftest import partitions, spec_from_partition
from diagram_reference import reference_diagram
from rank_reference import kernel_and_field


def test_level_sizes_c3c3():
    diag = build_pci_diagram(PrimaryGroupSpec(3, ((1, 2),)))
    assert diag.level_sizes() == [1, 2, 5]


def test_c8_leaf_count():
    diag = build_pci_diagram(PrimaryGroupSpec(2, ((3, 1),)))
    assert len(diag.leaves) == 4


def test_c4c2_field_index_census():
    diag = build_pci_diagram(PrimaryGroupSpec(2, ((2, 1), (1, 1))))
    assert len(diag.leaves) == 6
    census = Counter(v.field_index for v in diag.leaves)
    assert census == {0: 1, 1: 3, 2: 2}
    # component dimensions fill the regular representation: 1*1 + 3*1 + 2*2
    assert sum(euler_phi(2**r) * c for r, c in census.items()) == 8


def test_levels_partition_identity():
    # At every level the expansions are orthogonal idempotents summing to 1.
    from pcikit.algebra import are_orthogonal, is_idempotent

    for spec in (
        PrimaryGroupSpec(2, ((2, 2),)),
        PrimaryGroupSpec(3, ((2, 1), (1, 1))),
        PrimaryGroupSpec(2, ((3, 1), (1, 1))),
    ):
        diag = build_pci_diagram(spec)
        for level in diag.levels:
            exps = [v.expansion() for v in level]
            total = AlgebraElement.zero(spec)
            for e in exps:
                assert is_idempotent(e)
                total = total + e
            assert total == AlgebraElement.one(spec)
            for i in range(len(exps)):
                for j in range(i + 1, len(exps)):
                    assert are_orthogonal(exps[i], exps[j])


def test_trivial_group_diagram():
    diag = build_pci_diagram(PrimaryGroupSpec(3, ()))
    assert diag.level_sizes() == [1]
    assert diag.leaf_expansions() == [AlgebraElement.one(PrimaryGroupSpec(3, ()))]


def test_generator_order_validation():
    spec = PrimaryGroupSpec(2, ((2, 1), (1, 1)))
    out_of_chain = [
        LongGenerator((2, 1), 2),
        LongGenerator((2, 1), 1),
        LongGenerator((1, 1), 1),
    ]
    with pytest.raises(GroupSpecError):
        build_pci_diagram(spec, out_of_chain)
    with pytest.raises(GroupSpecError):
        build_pci_diagram(spec, [LongGenerator((2, 1), 1)])
    # interleaved but power-monotone orders are allowed and stay sound
    interleaved = [
        LongGenerator((2, 1), 1),
        LongGenerator((1, 1), 1),
        LongGenerator((2, 1), 2),
    ]
    diag = build_pci_diagram(spec, interleaved)
    assert compare_pci_sets(diag.leaf_expansions(), list(oracle_pci_set(spec))).equal


def test_homocyclic_split_uses_coset_witness():
    # In C_4 x C_4 a chain generator's p-th power can fall outside a vertex
    # kernel while the enlarged quotient still fails to stay cyclic; the
    # split must then use a corrected coset element as the new kernel
    # generator, not the chain generator itself.
    spec = PrimaryGroupSpec(2, ((2, 2),))
    diag = build_pci_diagram(spec)
    assert compare_pci_sets(diag.leaf_expansions(), list(oracle_pci_set(spec))).equal
    corrected = [
        v
        for level in diag.levels
        for v in level
        if not v.trivial
        and v.form.kernel_gens
        and v.form.kernel_gens[-1].exps in ((1, 1), (1, 3), (3, 1), (3, 3))
    ]
    assert corrected, "expected at least one split via a corrected witness"
    for v in corrected:
        kernel = subgroup_closure(spec, v.form.kernel_gens)
        assert element_index(v.form.primed) not in kernel


def assert_matches_reference(spec, labels):
    built, reference = build_pci_diagram(spec, labels), reference_diagram(spec, labels)
    assert built.levels == reference.levels
    assert built.edges == reference.edges
    # the records' numerators, read off the characters, against the
    # expansions of the reference kernels; they fix each kernel too, as
    # K = {nums = p - 1}
    rows = [(row, den) for nums, dens in built.leaf_blocks() for row, den in zip(nums, dens)]
    for v, (nums, den), kernel in zip(built.leaves, rows, reference.leaf_kernels):
        expected_nums, expected_den = expansion_numerators(spec, kernel, v.form.primed)
        assert nums.dtype == np.int64 and np.array_equal(nums, expected_nums)
        assert den == expected_den


@pytest.mark.parametrize("p", [p for p in range(2, 257) if is_prime(p)])
def test_batched_build_matches_per_vertex_reference(p):
    # Every p-group of order <= 256, the trivial one included, in both
    # generator orders.
    n = 0
    while p**n <= 256:
        for part in partitions(n):
            spec = spec_from_partition(p, part)
            assert_matches_reference(spec, None)
            assert_matches_reference(spec, alternate_generator_labels(spec))
        n += 1


# The largest exponent of 2 and of 3, the largest prime and two mixed
# exponent patterns that the default cap admits.  A chain digit is below p
# and a character value below E = exp G <= |G|, so with N chain generators
# every sum phi(g) is below p*E*N: far inside int64 at any order that can
# be enumerated.
@pytest.mark.parametrize(
    "text", ["2:[12]", "3:[7]", "2:[6,6]", "4093:[1]", "2:[4,2,1]"]
)
def test_build_matches_reference_at_the_cap(text):
    part = parse_group_spec(text).parts[0]
    assert_matches_reference(part, None)
    assert_matches_reference(part, alternate_generator_labels(part))


# Groups whose build scans for a witness.  At 64 cells a piece the scans
# of 2:[2,2,2] and 2:[4,4] take several pieces; at 1 cell every row that
# scans is a piece of its own.
@pytest.mark.parametrize("cells", [64, 1])
@pytest.mark.parametrize(
    "text", ["2:[2,2]", "3:[2,2]", "2:[3,2,1]", "2:[2,2,2]", "2:[4,4]"]
)
def test_witness_scan_in_small_pieces_matches_reference(text, cells, monkeypatch):
    from pcikit import kernels

    monkeypatch.setattr(kernels, "_BLOCK_CELLS", cells)
    part = parse_group_spec(text).parts[0]
    assert_matches_reference(part, None)
    assert_matches_reference(part, alternate_generator_labels(part))


def _wide_build_parts():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    parts = {p for g in workloads.WIDE_BUILD_GROUPS for p in parse_group_spec(g).parts}
    return sorted(parts, key=lambda part: (part.p, part.classes))


@pytest.mark.parametrize("part", _wide_build_parts(), ids=PrimaryGroupSpec.spec_text)
def test_batched_build_matches_reference_on_wide_build_parts(part):
    assert_matches_reference(part, None)
    assert_matches_reference(part, alternate_generator_labels(part))


def test_diagram_values_are_shareable_across_threads():
    # pure values: concurrent builds and expansions agree with serial ones
    from concurrent.futures import ThreadPoolExecutor

    specs = [
        PrimaryGroupSpec(2, ((2, 1), (1, 1))),
        PrimaryGroupSpec(3, ((1, 2),)),
        PrimaryGroupSpec(2, ((2, 2),)),
        PrimaryGroupSpec(5, ((1, 1),)),
    ]
    serial = [pci_set(spec) for spec in specs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(pci_set, specs))
    assert serial == threaded


def test_alternate_order_sound():
    for text in ("2:[2,2]", "3:[2,1]", "2:[2,1,1]"):
        spec = parse_group_spec(text).parts[0]
        labels = alternate_generator_labels(spec)
        diag = build_pci_diagram(spec, labels)
        assert compare_pci_sets(
            diag.leaf_expansions(), list(oracle_pci_set(spec))
        ).equal


def test_cyclic_rational_pcis_c2():
    e0, e1 = cyclic_rational_pcis(2, 1)
    assert e0 == AlgebraElement.from_coeffs(
        cyclic_group_spec(2, 1), [Fraction(1, 2), Fraction(1, 2)]
    )
    assert e1 == AlgebraElement.from_coeffs(
        cyclic_group_spec(2, 1), [Fraction(1, 2), Fraction(-1, 2)]
    )


def test_cyclic_rational_pcis_c4_values_and_field_indices():
    e0, e1, e2 = cyclic_rational_pcis(2, 2)
    spec = cyclic_group_spec(2, 2)
    assert e1 == AlgebraElement.from_coeffs(spec, [Fraction(1, 2), 0, Fraction(-1, 2), 0])
    assert e2 == AlgebraElement.from_coeffs(
        spec, [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 4)]
    )
    assert kernel_and_field(e1).field_index == 2
    assert kernel_and_field(e2).field_index == 1
    assert kernel_and_field(e0).field_index == 0


def test_cyclic_rational_pcis_c27():
    assert len(cyclic_rational_pcis(3, 3)) == 4


def test_cyclic_closed_form_equals_leaves():
    for p, n in ((2, 3), (3, 2), (5, 1)):
        closed = cyclic_rational_pcis(p, n)
        leaves = pci_set(cyclic_group_spec(p, n))
        assert compare_pci_sets(closed, leaves).equal


def test_splitting_field_pcis_c2():
    spec = cyclic_group_spec(2, 1)
    got = splitting_field_pcis(2, 1)
    expected = [
        element_reference.from_rational_element(
            AlgebraElement.from_coeffs(spec, [Fraction(1, 2), sign * Fraction(1, 2)]), 2
        )
        for sign in (1, -1)
    ]
    assert got == expected


@pytest.mark.parametrize(
    "p, n",
    [(2, n) for n in range(7)]
    + [(3, n) for n in range(4)]
    + [(5, n) for n in range(3)]
    + [(7, n) for n in range(3)],
)
def test_splitting_field_pcis_match_generic_constructor(p, n):
    # splitting_field_pcis sets one zeta power per group index; reduced()
    # adds the reduced row of each power into its group's row.  The
    # reference builds the element from Python ints and reduces every zeta
    # block by polynomial division.
    for e in splitting_field_pcis(p, n):
        ref = CycloAlgebraElement(e.spec, e.m, e.nums.tolist(), e.den)
        assert (ref.nums.tolist(), ref.den) == (e.nums.tolist(), e.den)
        assert ref == e and hash(ref) == hash(e)
        vals, m, phi_poly = e.nums.tolist(), e.m, list(cyclotomic_poly(e.m))
        flat = [c for i in range(0, len(vals), m) for c in poly_divmod(vals[i : i + m], phi_poly)[1]]
        nums, den = lowest_terms(flat, e.den)
        assert e.reduced()[0] == den and e.reduced()[1].tolist() == nums.tolist()


def test_extension_chain_matches_character_formula():
    # splitting_field_pcis builds (1/m) sum_k zeta^(-tk) x^k directly; the
    # paper's chain, lifted and refined one generator at a time from the
    # trivial group, must reach the same set.
    for p, n in ((2, 4), (3, 2), (5, 2), (7, 1)):
        level = splitting_field_pcis(p, 0)
        for j in range(1, n + 1):
            gen = GroupElement(cyclic_group_spec(p, j), (1,))
            level = [
                child
                for eta in level
                for child in extension_children(lift_into_extension(eta), gen)
            ]
        assert Counter(level) == Counter(splitting_field_pcis(p, n))


def test_splitting_sum_to_one():
    for p, n in ((2, 2), (3, 2)):
        spec = cyclic_group_spec(p, n)
        total = CycloAlgebraElement.zero(spec, p**n)
        for e in splitting_field_pcis(p, n):
            total = total + e
        assert total == CycloAlgebraElement.one(spec, p**n)


def test_extension_children_c2_in_c4():
    split4 = splitting_field_pcis(2, 2)
    eta0, eta1 = (lift_into_extension(e) for e in splitting_field_pcis(2, 1))
    gen = GroupElement(cyclic_group_spec(2, 2), (1,))
    kids0 = extension_children(eta0, gen)
    kids1 = extension_children(eta1, gen)
    # children of the lift of (1 + x')/2 are the even-index idempotents
    assert Counter(kids0) == Counter((split4[0], split4[2]))
    assert Counter(kids0 + kids1) == Counter(split4)
    # children refine their parent and are orthogonal across parents
    assert kids0[0] * kids0[1] == CycloAlgebraElement.zero(kids0[0].spec, 4)
    assert kids0[0] * kids1[0] == CycloAlgebraElement.zero(kids0[0].spec, 4)
    total = kids0[0] + kids0[1]
    assert total == eta0


def test_extension_children_trivial_base():
    p = 3
    base = lift_into_extension(splitting_field_pcis(p, 0)[0])
    gen = GroupElement(cyclic_group_spec(p, 1), (1,))
    kids = extension_children(base, gen)
    assert Counter(kids) == Counter(splitting_field_pcis(p, 1))


@pytest.mark.parametrize("p", [2, 3])
def test_extension_children_rejects_bad_input(p):
    spec, small = cyclic_group_spec(p, 2), cyclic_group_spec(p, 1)
    gen, small_gen = GroupElement(spec, (1,)), GroupElement(small, (1,))
    eta = lift_into_extension(splitting_field_pcis(p, 1)[1])
    level0 = lift_into_extension(splitting_field_pcis(p, 0)[0])
    assert len(extension_children(eta, gen)) == p
    assert len(extension_children(level0, small_gen)) == p
    zeta = CycloAlgebraElement.monomial(spec, spec.order, gen**spec.order, 1)
    not_lifted = "not a lifted splitting idempotent"
    bad_inputs = [
        # the root exponent of eta's top coefficient is not a multiple of p
        (zeta * eta, gen, not_lifted),
        # the top coefficient 2 * zeta^e is not a root of unity
        (eta + eta, gen, not_lifted),
        (level0 + level0, small_gen, "only level-0 idempotent is the identity"),
        (eta, gen**p, "must generate the whole group"),
    ]
    for bad, top_gen, message in bad_inputs:
        with pytest.raises(InvariantError, match=message):
            extension_children(bad, top_gen)


def test_galois_orbit_collapse_c4():
    split = splitting_field_pcis(2, 2)
    collapsed = galois_orbit_collapse(split, 4)
    assert galois_orbits(4) == [[0], [1, 3], [2]]
    assert collapsed == cyclic_rational_pcis(2, 2)
    # orbit {0} is the full-group average
    spec = cyclic_group_spec(2, 2)
    assert collapsed[0] == AlgebraElement.from_coeffs(spec, [Fraction(1, 4)] * 4)


def _galois_orbit_collapse_reference(splitting, m):
    """Slow reference: each orbit summed on the full numerator lattice by
    lattice_sum, then tested and read through the reduction of the sum."""
    out = []
    for orbit in galois_orbits(m):
        total = lattice_sum(splitting[t] for t in orbit)
        if not total.is_rational():
            raise InconsistencyError(f"orbit {orbit} does not sum to a rational element")
        out.append(element_reference.rational_part(total))
    return out


def _canonical(nums):
    """Whether nums is in the one numerator form: read-only, with the dtype
    int_array gives its values."""
    return not nums.flags.writeable and nums.dtype == int_array(nums.tolist()).dtype


PRIME_POWERS_TO_64 = [
    (p, n) for p in range(2, 65) if is_prime(p) for n in range(1, 7) if p**n <= 64
]


@pytest.mark.parametrize("p, n", PRIME_POWERS_TO_64)
def test_galois_orbit_collapse_matches_lattice_sum_reference(p, n):
    split, m = splitting_field_pcis(p, n), p**n
    collapsed = galois_orbit_collapse(split, m)
    assert collapsed == _galois_orbit_collapse_reference(split, m)
    assert all(_canonical(e.nums) for e in collapsed)


def _shifted_splitting(p, n, shifts):
    """The splitting idempotents of C_{p^n}, each plus a rational element
    (nums, den) lifted to Q(zeta_m)[G]: every orbit still sums to a
    rational element, now over members of unequal denominators."""
    spec, m = cyclic_group_spec(p, n), p**n
    return m, [
        e + element_reference.from_rational_element(AlgebraElement(spec, nums, den), m)
        for e, (nums, den) in zip(splitting_field_pcis(p, n), shifts)
    ]


@st.composite
def shifted_splittings(draw):
    p, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]))
    m = p**n
    value = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=2**62 - 9, max_value=2**62 + 9),
        st.sampled_from([-(2**62), 2**63 - 1, -(2**63)]),
    )
    den = st.one_of(
        st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2**40)
    )
    shift = st.tuples(st.lists(value, min_size=m, max_size=m), den)
    return _shifted_splitting(p, n, draw(st.lists(shift, min_size=m, max_size=m)))


@given(shifted_splittings())
# orbit [1, 3] of C_4: reduced entries near 2^62 on one denominator,
# whose int64 sum would overflow; then the same on unequal denominators
@example(_shifted_splitting(2, 2, [([2**62 - 1] * 4, 4)] * 4))
@example(_shifted_splitting(2, 2, [([2**62 - 1] * 4, 4 * (t + 1)) for t in range(4)]))
# orbit [1, 3] of C_4 as a zero element plus a rational one over 2^70: the
# zero member's scale does not fit int64
@example(
    (4, [
        splitting_field_pcis(2, 2)[0],
        CycloAlgebraElement.zero(cyclic_group_spec(2, 2), 4),
        splitting_field_pcis(2, 2)[2],
        element_reference.from_rational_element(
            AlgebraElement(cyclic_group_spec(2, 2), [1, 0, 0, 0], 2**70), 4
        ),
    ])
)
@settings(max_examples=60, deadline=None)
def test_galois_orbit_collapse_matches_reference_on_large_entries(data):
    m, splitting = data
    collapsed = galois_orbit_collapse(splitting, m)
    assert collapsed == _galois_orbit_collapse_reference(splitting, m)
    assert all(_canonical(e.nums) for e in collapsed)


def test_galois_orbit_collapse_refuses_an_irrational_orbit_sum():
    split = splitting_field_pcis(2, 2)
    split[1] = split[1] + split[1]  # 2 e_1 + e_3 has irrational coefficients
    for collapse in (galois_orbit_collapse, _galois_orbit_collapse_reference):
        with pytest.raises(InconsistencyError, match=r"orbit \[1, 3\]"):
            collapse(split, 4)


def test_galois_orbit_collapse_refuses_mixed_algebras():
    split = splitting_field_pcis(2, 2)
    split[3] = CycloAlgebraElement.one(cyclic_group_spec(2, 2), 8)
    with pytest.raises(SpecMismatchError):
        galois_orbit_collapse(split, 4)


def test_orbit_count_is_chain_length_plus_one():
    for p, n in ((2, 3), (3, 2), (5, 1)):
        assert len(galois_orbits(p**n)) == n + 1


def test_cross_prime_product_c6():
    spec = parse_group_spec("2:[1];3:[1]")
    sets = [pci_set(part) for part in spec.parts]
    product = cross_prime_product(spec, sets)
    assert len(product) == 4
    dims = sorted(kernel_and_field(e).dim for e in product)
    assert dims == [1, 1, 2, 2]
    assert compare_pci_sets(product, list(oracle_pci_set(spec))).equal


def test_cross_prime_product_c12():
    spec = parse_group_spec("2:[2];3:[1]")
    sets = [pci_set(part) for part in spec.parts]
    product = cross_prime_product(spec, sets)
    assert len(product) == 6
    assert compare_pci_sets(product, list(oracle_pci_set(spec))).equal


def test_cross_prime_trivial_factor():
    spec = parse_group_spec("2:[1];3:[1]")
    # a trivial part's only idempotent is 1; composing with it is identity:
    # each part's idempotents, times 1 on the other part, keep their
    # coefficients on their own factor and are 0 off it.
    for i, part in enumerate(spec.parts):
        sets = [[AlgebraElement.one(q)] for q in spec.parts]
        sets[i] = pci_set(part)
        lifted = cross_prime_product(spec, sets)
        assert len(lifted) == len(sets[i])
        for e, small in zip(lifted, sets[i]):
            assert is_idempotent(e)
            grid = np.reshape(e.coeffs, [q.order for q in spec.parts])
            assert tuple(np.moveaxis(grid, i, 0)[:, 0]) == small.coeffs
            assert np.count_nonzero(grid) == np.count_nonzero(small.nums)


def test_trivial_group_of_no_parts():
    spec = AbelianGroupSpec(())
    one = AlgebraElement.one(spec)
    assert cross_prime_product(spec, []) == [one]
    assert pci_set(spec) == oracle_pci_set(spec) == [one]
    [rec] = pci_records(spec)
    assert (rec.kernel_order, rec.quotient_order) == (1, 1)
    checks = verify.run_checks(spec, alternate_order=True)
    assert checks and all(c.ok for c in checks), checks


def test_pci_records_bookkeeping():
    spec = parse_group_spec("2:[2];3:[1]")
    for rec in pci_records(spec):
        info = kernel_and_field(rec.element)
        assert info.quotient_order == rec.quotient_order
        assert len(info.kernel) == rec.kernel_order


def test_emit_dot_shape():
    diag = build_pci_diagram(PrimaryGroupSpec(3, ((1, 2),)))
    pieces = list(emit_dot([diag]))
    assert len(pieces) == 1 + 3 + 2  # the head, one per level, the edges, the end
    dot = "".join(pieces)
    assert dot.startswith("digraph pci_diagram {")
    assert dot.count("rank=same") == 3
    assert dot.count("->") == 2 + 5
    assert 'label="trivial\\nQ(zeta_1)"' in dot
    assert dot.count("Q(zeta_3)") == 4


def test_build_runs_no_group_multiplication(monkeypatch):
    from pcikit import groups
    from pcikit.verify import run_checks

    calls = []
    original = groups.group_mul

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(groups, "group_mul", counting)
    for text in ("2:[1,1,1,1,1,1,1,1]", "3:[2,2]"):
        spec = parse_group_spec(text).parts[0]
        diag = build_pci_diagram(spec)
        assert calls == [], text
        diag.generators[0] * diag.generators[-1]
        assert calls, "the counter must see GroupElement products"
        calls.clear()
    # nor does verify, closures and kernel checks included
    for text in ("2:[1,1,1,1,1,1]", "3:[2,2]"):
        checks = run_checks(parse_group_spec(text), False)
        assert all(c.ok for c in checks) and calls == [], text


def test_diagram_and_records_build_no_product_table():
    # The build and pci's records read the enumeration's digits; its
    # carry-free product table (3^k entries for k factors of order 2) is
    # never built.
    from pcikit import groups
    from pcikit.diagram import part_diagrams, record_blocks

    groups.enumeration.cache_clear()
    for text in ("2:[1,1,1,1,1,1]", "2:[3,2,1];3:[2,2]", "2:[2,2];5:[1,1]"):
        spec = parse_group_spec(text)
        for alternate in (False, True):
            diagrams = part_diagrams(spec, alternate)
            for _ in record_blocks(spec, diagrams):
                pass
        for orders in [spec.factor_orders] + [part.factor_orders for part in spec.parts]:
            assert "table" not in vars(groups.enumeration(orders)), (text, orders)
    enum = groups.enumeration(spec.parts[0].factor_orders)
    enum.product(1, 2)
    assert "table" in vars(enum)  # the check sees a table once one is built

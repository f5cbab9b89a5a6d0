import math
import tracemalloc
from unittest.mock import patch

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from element_reference import pci_set
from pcikit import AlgebraElement, PrimaryGroupSpec, kernels
from pcikit.algebra import are_orthogonal, convolve, is_idempotent, lattice_sum
from pcikit.groups import parse_group_spec
from pcikit.kernels import (
    _convolve_bigint,
    _convolve_direct,
    _row_norms,
    convolve_ints,
    int_array,
    squares_to_rows,
    transform_plan,
)
from pcikit.verify import certify_idempotents
from verify_reference import element_blocks


def plan_arrays(plan):
    """Every DFT matrix and twiddle table a plan holds."""
    return [
        a
        for steps in plan.forward_steps
        for _, mat, _, tw in steps
        for a in (mat, tw)
        if a is not None
    ]


def test_plan_matrices_stay_small_on_long_axes():
    plan = transform_plan((4096,))
    assert plan is not None
    assert all(a.size <= 64 * 64 for a in plan_arrays(plan))
    assert max(a.shape[0] for a in plan_arrays(plan)) == 64


def test_plan_primes_fit_int64_matmul():
    for orders in ((2,) * 6, (9, 3), (5, 5, 5), (4096,), (64, 64), ()):
        plan = transform_plan(orders)
        exponent = int(np.lcm.reduce(orders)) if orders else 1
        widest = max([2] + [m.shape[-1] for m in plan_arrays(plan) if m.ndim == 2])
        assert 1 <= len(plan.primes) <= 2
        for q in plan.primes:
            assert (q - 1) % exponent == 0
            assert widest * (q - 1) ** 2 < 2**63


def test_prime_factor_above_64_has_no_plan():
    assert transform_plan((67,)) is None
    a = [1, -2] + [0] * 64 + [3]
    b = [5] * 67
    assert np.array_equal(convolve_ints(a, b, (67,)), _convolve_bigint(a, b, (67,)))


def test_norms_are_exact_beyond_int64():
    big = 2**70
    rows = np.stack((int_array((big, -3, 0)), int_array((-(2**63), 1, 0))))
    assert rows.dtype == object
    assert _row_norms(rows) == ([big + 3, 2**63 + 1], [big, 2**63])
    # int64 rows whose l1 norm passes 2^63 are summed on Python ints
    assert _row_norms(np.full((2, 3), 2**62)) == ([3 * 2**62] * 2, [2**62] * 2)


def test_pointwise_checks_use_enough_primes():
    # Elements built so that the integer result is a nonzero multiple of the
    # plan's first prime: one prime alone would wrongly pass them.
    spec = PrimaryGroupSpec(2, ((1, 1),))
    q = transform_plan(spec.factor_orders).primes[0]
    # nums*nums - den*nums = 3*(3 - den) = -3q
    a = AlgebraElement(spec, [3, 0], q + 3)
    assert not is_idempotent(a)
    assert convolve(a, a) != a
    b = AlgebraElement(spec, [q, 0])
    assert not are_orthogonal(AlgebraElement(spec, [3, 0]), b)
    # Where no plan covers the bound the square is formed in full: C_67 has
    # no plan, and a PCI scaled by 2**70 + 1 has entries beyond int64.
    c67 = parse_group_spec("67:[1]")
    assert transform_plan(c67.factor_orders) is None
    pcis = pci_set(c67)
    scaled = [e.scaled(2**70 + 1) for e in pcis + pci_set(spec)]
    for a, idempotent in [(e, True) for e in pcis] + [(e, False) for e in scaled]:
        assert is_idempotent(a) == (convolve(a, a) == a) == idempotent


def test_squares_to_reaches_one_prime_two_primes_and_the_full_square(monkeypatch):
    # Record the primes squares_to_rows transforms one row modulo, and
    # whether it forms the square; algebra's convolve keeps the unwrapped
    # convolve_ints.
    reached = []
    forward, square = kernels.TransformPlan.forward, kernels.convolve_ints

    def spy_forward(plan, vec, i):
        reached.append(plan.primes[i])
        return forward(plan, vec, i)

    def spy_square(a, b, orders):
        reached.append("square")
        return square(a, b, orders)

    monkeypatch.setattr(kernels.TransformPlan, "forward", spy_forward)
    monkeypatch.setattr(kernels, "convolve_ints", spy_square)

    c2 = PrimaryGroupSpec(2, ((1, 1),))
    primes = transform_plan(c2.factor_orders).primes
    e = pci_set(c2)[1]  # (1 - g)/2
    k = 2**20
    e67 = pci_set(parse_group_spec("67:[1]"))[1]
    cases = [  # numerators, denominator, the element they stand for, path
        (e.nums, e.den, e, primes[:1]),
        # the same element over k * den: its bound needs both primes
        ([k * v for v in e.nums], k * e.den, e, primes),
        # 3*3 - den*3 = -3 q1: only the second prime tells it from zero
        ((3, 0), primes[0] + 3, AlgebraElement(c2, [3, 0], primes[0] + 3), primes),
        # C_67 has no plan; entries beyond int64 exceed every plan's primes
        (e67.nums, e67.den, e67, ("square",)),
        *[
            (a.nums, a.den, a, ("square",))
            for a in (e.scaled(2**70 + 1), e67.scaled(2**70 + 1))
        ],
    ]
    verdicts = []
    for nums, den, a, path in cases:
        reached.clear()
        rows = [kernels.int_array(nums)]
        verdict = bool(kernels.squares_to_rows(rows, [den], a.spec.factor_orders)[0])
        assert tuple(reached) == tuple(path)
        assert verdict == (convolve(a, a) == a)
        verdicts.append(verdict)
    assert verdicts == [True, True, False, True, False, False]


def test_certify_idempotents_keeps_no_transforms():
    spec = parse_group_spec("2:[1,1,1,1,1,1,1,1]")
    pcis = pci_set(spec)
    assert is_idempotent(lattice_sum(pcis))  # builds the plan and its tables
    blocks = element_blocks(pcis, len(pcis))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bad, orthogonal, _ = certify_idempotents(blocks, spec.factor_orders)
        assert (bad, orthogonal) == ([], True)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_certify_idempotents_sums_its_own_sums_of_any_dtype():
    # each block's sum takes its dtype from a bound: an object sum meets an
    # int64 one when the sums are summed
    b = (np.array([[2**62, 0], [-2**62, 1]]), [1, 1])
    bad, orthogonal, (total, den) = certify_idempotents([b, b], (2,))
    assert (bad, orthogonal, total.tolist(), den) == ([0, 1, 2, 3], False, [0, 2], 1)


# C_2, C_2 x C_2, C_3, C_4 x C_2, C_9: one DFT step per axis; C_128 and C_81:
# an axis longer than 64, split four-step; C_67: no plan.
SQUARE_GROUPS = (
    "2:[1]", "2:[1,1]", "3:[1]", "2:[2,1]", "3:[2]", "2:[7]", "3:[4]", "67:[1]",
)
# 1 and 3 need one plan prime, 2^20 two, and 2^70 + 1 puts entries beyond
# int64, so every plan's primes, on PCIs of these groups
SQUARE_SCALES = (1, 3, 2**20, 2**70 + 1)


def scaled_rows(e, scale, miss=0, at=0):
    """e's numerators and denominator times scale, with miss added to one
    numerator: an idempotent when miss is 0, else almost never."""
    nums = [v * scale for v in e.nums.tolist()]
    nums[at] += miss
    return int_array(nums), e.den * scale


def squares_by_convolution(vals: list[int], den: int, orders) -> bool:
    return convolve_ints(vals, vals, orders).tolist() == [den * v for v in vals]


@st.composite
def stacked_rows(draw):
    """(orders, rows, dens, rows per block): scaled PCIs of one group, some
    with one numerator moved by 1."""
    spec = parse_group_spec(draw(st.sampled_from(SQUARE_GROUPS)))
    pcis = pci_set(spec)
    index = st.integers(0, spec.order - 1)
    pairs = [
        scaled_rows(
            draw(st.sampled_from(pcis)),
            draw(st.sampled_from(SQUARE_SCALES)),
            draw(st.sampled_from([0, 0, 1, -1])),
            draw(index),
        )
        for _ in range(draw(st.integers(1, 9)))
    ]
    rows, dens = (list(t) for t in zip(*pairs))
    return spec.factor_orders, rows, dens, draw(st.integers(1, 4))


def _every_scale(group: str, per_block: int):
    """Each PCI of group at each scale, as it is and moved by 1."""
    spec = parse_group_spec(group)
    pairs = [
        scaled_rows(e, scale, miss)
        for e in pci_set(spec)
        for scale in SQUARE_SCALES
        for miss in (0, 1)
    ]
    rows, dens = (list(t) for t in zip(*pairs))
    return spec.factor_orders, rows, dens, per_block


@given(stacked_rows(), st.booleans())
@example(_every_scale("2:[7]", 3), True)
@example(_every_scale("2:[1]", 2**18), False)
@example(_every_scale("67:[1]", 1), False)
@settings(max_examples=80, deadline=None)
def test_squares_to_rows_matches_convolution(data, as_matrix):
    # Row by row, the batched verdict is whether x*x == den*x with the
    # square formed in full; blocks of 1-4 rows, or all rows in one.
    orders, rows, dens, per_block = data
    want = [squares_by_convolution(r.tolist(), d, orders) for r, d in zip(rows, dens)]
    matrix = np.array(rows) if as_matrix else rows  # an object matrix if any row is
    reached = []
    forward, square = kernels.TransformPlan.forward, kernels.convolve_ints

    def spy_forward(plan, block, i):
        reached.append(f"prime {i}")
        return forward(plan, block, i)

    def spy_square(a, b, orders):
        reached.append("square")
        return square(a, b, orders)

    with (
        patch.object(kernels, "_BLOCK_CELLS", per_block * math.prod(orders)),
        patch.object(kernels.TransformPlan, "forward", spy_forward),
        patch.object(kernels, "convolve_ints", spy_square),
    ):
        got = squares_to_rows(matrix, dens, orders)
    for path in sorted(set(reached)):
        event(path)
    event(f"orders {orders}, {math.ceil(len(rows) / per_block)} blocks")
    assert got.dtype == bool and got.tolist() == want


def test_squares_to_rows_refuses_a_wrong_row_length():
    # a row of 2n entries must not pass as two rows of n
    with np.testing.assert_raises(ValueError):
        squares_to_rows([np.ones(8, dtype=np.int64)], [1], (2, 2))


def test_squares_to_rows_refuses_rows_and_dens_of_different_lengths():
    # a den without its row must not pass as idempotent, nor a row without
    # its den go untested
    with np.testing.assert_raises(ValueError):
        squares_to_rows([[1, 1]], [2, 5], (2,))
    with np.testing.assert_raises(ValueError):
        squares_to_rows([[1, 1], [1, 1]], [2], (2,))


def test_direct_kernels_match_bigint_reference():
    rng = np.random.default_rng(7)
    for orders in ((), (2, 2, 2), (9, 3), (4, 2), (25,)):
        n = int(np.prod(orders))
        a, b = (rng.integers(-5, 6, n) * (rng.random(n) < 0.5) for _ in range(2))
        expected = _convolve_bigint(a.tolist(), b.tolist(), orders)
        assert _convolve_direct(a, b, orders).tolist() == expected.tolist()

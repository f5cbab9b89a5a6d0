import numpy as np

from pcikit.kernels import Spectra, _convolve_bigint, convolve_ints, transform_plan


def plan_arrays(plan):
    """Every DFT matrix and twiddle table a plan holds."""
    return [
        a
        for steps in plan.forward_steps + plan.inverse_steps
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
    assert convolve_ints(a, b, (67,)) == _convolve_bigint(a, b, (67,))


def test_spectra_norms_are_exact_beyond_int64():
    big = 2**70
    s = Spectra((big, -3, 0), (3,))
    assert (s.l1, s.linf, s.nnz, s.vec) == (big + 3, big, 2, None)
    s = Spectra((-(2**63), 1), (2,))
    assert (s.l1, s.linf) == (2**63 + 1, 2**63)


def test_pointwise_checks_use_enough_primes():
    # Elements built so that the integer result is a nonzero multiple of the
    # plan's first prime: one prime alone would wrongly pass them.
    from pcikit import AlgebraElement, are_orthogonal, convolve, is_idempotent
    from pcikit import PrimaryGroupSpec

    spec = PrimaryGroupSpec(2, ((1, 1),))
    q = transform_plan(spec.factor_orders).primes[0]
    # nums*nums - den*nums = 3*(3 - den) = -3q
    a = AlgebraElement(spec, [3, 0], q + 3)
    assert not is_idempotent(a)
    assert convolve(a, a) != a
    b = AlgebraElement(spec, [q, 0])
    assert not are_orthogonal(AlgebraElement(spec, [3, 0]), b)

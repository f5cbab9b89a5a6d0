"""Benchmark the exact product kernels and the pointwise idempotency test.

Products of dense random operands go through the direct kernel and the
bigint kernel.  Dense products are rare in the engine: its products are
cyclotomic ones in `split` and the splitting-field check, and `verify`
tests idempotency pointwise without forming a product.  So the last row
times that test, kernels.squares_to, against forming the square with
convolve_ints on one primitive central idempotent of the last group.  Run:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --repeats 9 --groups "2:[1]*10,2:[10]"

The bigint kernel is the arbitrary-precision safety net; it is expected to
be slow and is included for scale.
"""

import argparse
import random
import time

import numpy as np

from pcikit import parse_group_spec, pci_set
from pcikit.kernels import _convolve_bigint, _convolve_direct, convolve_ints, squares_to


def expand_group_text(text):
    # "2:[1]*6" is shorthand for "2:[1,1,1,1,1,1]", in each ";"-separated part
    parts = []
    for part in text.split(";"):
        if "*" in part:
            head, mult = part.split("*")
            prime, exps = head.split(":[")
            part = f"{prime}:[{','.join([exps.rstrip(']')] * int(mult))}]"
        parts.append(part)
    return ";".join(parts)


def best_of(run, repeats):
    """(best wall time of repeats calls after one warm-up call, its result);
    the warm-up builds tables and plans."""
    run()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench(orders, repeats, rng):
    n = 1
    for d in orders:
        n *= d
    a = [rng.randrange(-50, 51) for _ in range(n)]
    b = [rng.randrange(-50, 51) for _ in range(n)]
    av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    t0 = time.perf_counter()
    big = _convolve_bigint(a, b, orders)
    bigint_s = time.perf_counter() - t0
    direct_s, out = best_of(lambda: _convolve_direct(av, bv, orders), repeats)
    assert out.tolist() == big.tolist()
    return n, {"direct": direct_s, "bigint": bigint_s}


def bench_idempotency(spec, repeats):
    """squares_to and convolve_ints(x, x) on the densest idempotent of spec."""
    e = max(pci_set(spec), key=lambda e: len(e.support()))
    orders = spec.factor_orders
    test_s, verdict = best_of(lambda: squares_to(e.nums, e.den, orders), repeats)
    square_s, square = best_of(lambda: convolve_ints(e.nums, e.nums, orders), repeats)
    assert verdict and square.tolist() == [e.den * v for v in e.nums.tolist()]
    return len(e.support()), test_s, square_s


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--groups",
        default="2:[1]*6,2:[6],2:[1]*8,2:[2]*4,3:[1]*5,2:[10]",
        help="comma-separated group descriptions; '2:[1]*6' repeats the exponent",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20240601)
    args = parser.parse_args()

    columns = ("direct", "bigint")
    rng = random.Random(args.seed)
    texts = [text.strip() for text in args.groups.split(",")]
    print(f"{'group':>12} {'|G|':>6} " + " ".join(f"{c:>12}" for c in columns))
    for text in texts:
        spec = parse_group_spec(expand_group_text(text))
        n, times = bench(spec.factor_orders, args.repeats, rng)
        print(
            f"{text:>12} {n:>6} "
            + " ".join(f"{times[c] * 1e3:>10.3f}ms" for c in columns)
        )
    spec = parse_group_spec(expand_group_text(texts[-1]))
    support, test_s, square_s = bench_idempotency(spec, args.repeats)
    print(
        f"idempotency of a PCI of {texts[-1]} ({support} nonzeros): "
        f"squares_to {test_s * 1e3:.3f}ms, "
        f"convolve_ints(x, x) {square_s * 1e3:.3f}ms"
    )


if __name__ == "__main__":
    main()

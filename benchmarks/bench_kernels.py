"""Benchmark the exact convolution kernels on dense random operands: the
transform path, the direct path (numba when it imports, and pure numpy),
and the bigint path.

The group-algebra product is the hot loop behind every product the engine
forms, so these are the numbers that matter.  Run:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --repeats 9 --groups "2:[1]*10,2:[10]"

The numba column is left out when numba is not importable.  The bigint path
is the arbitrary-precision safety net; it is expected to be slow and is
included for scale.
"""

import argparse
import random
import time

import numpy as np

from pcikit import parse_group_spec
from pcikit import kernels
from pcikit.kernels import Spectra, _convolve_bigint, _convolve_direct, primes_needed


def expand_group_text(text):
    # "2:[1]*6" is shorthand for "2:[1,1,1,1,1,1]"
    if "*" in text:
        head, mult = text.split("*")
        prime, exps = head.split(":[")
        exps = exps.rstrip("]")
        return f"{prime}:[{','.join([exps] * int(mult))}]"
    return text


def transform_product(a, b, orders):
    sa, sb = Spectra(a, orders), Spectra(b, orders)
    count = primes_needed(min(sa.l1 * sb.linf, sb.l1 * sa.linf), sa, sb)
    return sa.plan.product(sa.modulo(count), sb.modulo(count))


def bench(orders, repeats, rng, backends):
    n = 1
    for d in orders:
        n *= d
    a = [rng.randrange(-50, 51) for _ in range(n)]
    b = [rng.randrange(-50, 51) for _ in range(n)]
    av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    paths = {"transform": lambda: transform_product(a, b, orders)}
    for backend in backends:
        paths[backend] = lambda k=backend: _convolve_direct(av, bv, orders, k)

    results = {}
    for name, run in paths.items():
        run()  # warm-up: compiles the numba kernel, builds tables and plans
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = run()
            best = min(best, time.perf_counter() - t0)
        results[name] = (best, out.tolist())
    t0 = time.perf_counter()
    big = _convolve_bigint(a, b, orders)
    results["bigint"] = (time.perf_counter() - t0, big)

    assert all(out == big for _, out in results.values())
    return n, {k: v[0] for k, v in results.items()}


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

    backends = ("numba", "numpy") if kernels.numba is not None else ("numpy",)
    columns = ("transform", *backends, "bigint")
    rng = random.Random(args.seed)
    print(f"{'group':>12} {'|G|':>6} " + " ".join(f"{c:>12}" for c in columns))
    for text in args.groups.split(","):
        spec = parse_group_spec(expand_group_text(text.strip()))
        n, times = bench(spec.factor_orders, args.repeats, rng, backends)
        print(
            f"{text.strip():>12} {n:>6} "
            + " ".join(f"{times[c] * 1e3:>10.3f}ms" for c in columns)
        )


if __name__ == "__main__":
    main()

"""Benchmark the checks of `pcikit verify`, one stage at a time.

For each group this prints the best wall time of: the records and their
elements (diagram.record_arrays, then PciRecord.element of each), the
vertex-kernel check (verify.vertex_kernel_failures over every diagram
vertex), the idempotency and orthogonality certificate
(verify.certify_idempotents), the splitting-field check
(verify._splitting_field_coherent, cyclic groups of order at most
verify.SPLIT_CHECK_LIMIT only) and the whole of verify.run_checks.  Run:

    python benchmarks/bench_verify.py
    python benchmarks/bench_verify.py --repeats 1 --groups "2:[1]*6,2:[5],3:[3],7:[2]"

Each time is the best of --repeats calls after one warm-up call.
"""

import argparse
import re

from bench_kernels import best_of, expand_group_text

from pcikit import parse_group_spec
from pcikit.algebra import lattice_sum
from pcikit.diagram import cyclic_rational_pcis, part_diagrams, record_arrays
from pcikit.verify import (
    SPLIT_CHECK_LIMIT,
    _splitting_field_coherent,
    certify_idempotents,
    run_checks,
    vertex_kernel_failures,
)

COLUMNS = ("records", "vertex_kernels", "certify", "splitting", "run_checks")


def bench(spec, repeats):
    """{column: best seconds, or None when the check does not apply} and
    the number of diagram vertices."""
    diagrams = part_diagrams(spec)
    vertices = [(d.spec, v) for d in diagrams for level in d.levels for v in level]
    times = {}
    times["records"], elements = best_of(
        lambda: [rec.element for rec in record_arrays(spec, diagrams)], repeats
    )
    total = lattice_sum(elements)
    times["vertex_kernels"], failures = best_of(
        lambda: vertex_kernel_failures(vertices), repeats
    )
    times["certify"], (bad, orthogonal) = best_of(
        lambda: certify_idempotents(elements, total), repeats
    )
    assert not failures and not bad and orthogonal, spec
    times["splitting"] = None
    part = spec.parts[0]
    if len(spec.factor_orders) == 1 and part.order <= SPLIT_CHECK_LIMIT:
        closed = cyclic_rational_pcis(part.p, part.classes[0][0])
        times["splitting"], sound = best_of(
            lambda: _splitting_field_coherent(part, closed), repeats
        )
        assert sound, spec
    times["run_checks"], checks = best_of(lambda: run_checks(spec, False), repeats)
    assert all(c.ok for c in checks), spec
    return times, len(vertices)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--groups",
        default="2:[1]*6,2:[2,2,2],2:[5],3:[3],7:[2],2:[6,6],2:[1]*12",
        help="comma-separated group descriptions; '2:[1]*6' repeats the exponent",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    header = f"{'group':>12} {'|G|':>6} {'vertices':>8} "
    print(header + " ".join(f"{c:>14}" for c in COLUMNS))
    # split at the commas outside brackets
    for text in re.split(r",(?![^\[]*\])", args.groups):
        text = text.strip()
        spec = parse_group_spec(expand_group_text(text))
        times, vertices = bench(spec, args.repeats)
        cells = [
            f"{'-':>14}" if times[c] is None else f"{times[c] * 1e3:>12.2f}ms"
            for c in COLUMNS
        ]
        print(f"{text:>12} {spec.order:>6} {vertices:>8} " + " ".join(cells))


if __name__ == "__main__":
    main()

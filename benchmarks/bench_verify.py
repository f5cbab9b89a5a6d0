"""Benchmark the checks of `pcikit verify`, one stage at a time.

For each group this prints the best wall time of: the record blocks
(diagram.record_blocks), the idempotency and orthogonality certificate on
them (verify.certify_idempotents), the oracle's rows (oracle.oracle_rows),
the comparison of the blocks with those rows (RowSet.find on each block,
then RowSet.matched), the vertex-kernel check
(verify.vertex_kernel_failures over every diagram vertex), the
splitting-field check (verify._splitting_field_coherent, cyclic groups of
order at most verify.SPLIT_CHECK_LIMIT only) and the whole of
verify.run_checks.  The stages hold every block at once, which run_checks
does not.  Run:

    python benchmarks/bench_verify.py
    python benchmarks/bench_verify.py --repeats 1 --groups "2:[1]*6,2:[5],3:[3],7:[2],2:[6,6]"

Each time is the best of --repeats calls after one warm-up call.
"""

import argparse
import re

from bench_kernels import best_of, expand_group_text

from pcikit import parse_group_spec
from pcikit.diagram import cyclic_rational_pcis, part_diagrams, record_blocks
from pcikit.oracle import oracle_rows
from pcikit.verify import (
    SPLIT_CHECK_LIMIT,
    _splitting_field_coherent,
    certify_idempotents,
    run_checks,
    vertex_kernel_failures,
)

COLUMNS = (
    "blocks", "certify", "oracle", "compare", "vertex_kernels", "splitting", "run_checks"
)


def bench(spec, repeats):
    """{column: best seconds, or None when the check does not apply} and
    the number of diagram vertices."""
    diagrams = part_diagrams(spec)
    vertices = [(d.spec, v) for d in diagrams for level in d.levels for v in level]
    times = {}
    times["blocks"], blocks = best_of(lambda: list(record_blocks(spec, diagrams)), repeats)
    rows = [(b.nums, b.dens) for b in blocks]
    times["certify"], (bad, orthogonal, _) = best_of(
        lambda: certify_idempotents(rows, spec.factor_orders), repeats
    )
    times["oracle"], oracle = best_of(lambda: oracle_rows(spec), repeats)
    times["compare"], same = best_of(
        lambda: oracle.matched([oracle.find(*r) for r in rows]), repeats
    )
    times["vertex_kernels"], failures = best_of(
        lambda: vertex_kernel_failures(vertices), repeats
    )
    assert not failures and not bad and orthogonal and same, spec
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
        default="2:[1]*6,2:[2,2,2],2:[5],3:[3],7:[2],2:[6,6],2:[4,4,4],2:[12],2:[1]*12",
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

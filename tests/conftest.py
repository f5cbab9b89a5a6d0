"""Shared corpus definitions, cached per-group computations, and the
benchmark harness's tracing module."""

import importlib.util
from functools import cache
from pathlib import Path

from pcikit import AbelianGroupSpec, PrimaryGroupSpec, parse_group_spec, pci_records
from pcikit.verify import Check, run_checks


def partitions(n, largest=None):
    """All integer partitions of n with parts <= largest, parts descending."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def spec_from_partition(p, partition):
    classes = []
    for r in partition:
        if classes and classes[-1][0] == r:
            classes[-1] = (r, classes[-1][1] + 1)
        else:
            classes.append((r, 1))
    return PrimaryGroupSpec(p, tuple((r, l) for r, l in classes))


@cache
def primary_corpus() -> tuple[PrimaryGroupSpec, ...]:
    """All p-groups with |G| <= 64 (p=2), 81 (p=3), 125 (p=5), plus C_49
    and C_7 x C_7."""
    specs = [PrimaryGroupSpec(2, ())]
    for p, cap in ((2, 64), (3, 81), (5, 125)):
        n = 1
        while p**n <= cap:
            specs.extend(spec_from_partition(p, part) for part in partitions(n))
            n += 1
    specs.append(PrimaryGroupSpec(7, ((2, 1),)))
    specs.append(PrimaryGroupSpec(7, ((1, 2),)))
    return tuple(specs)


@cache
def multi_corpus() -> tuple[AbelianGroupSpec, ...]:
    """C_6, C_12, C_30, C_2 x C_18."""
    return tuple(
        parse_group_spec(text)
        for text in ("2:[1];3:[1]", "2:[2];3:[1]", "2:[1];3:[1];5:[1]", "2:[1,1];3:[2]")
    )


def full_corpus():
    return primary_corpus() + multi_corpus()


@cache
def engine_records(spec):
    return tuple(pci_records(spec))


def engine_set(spec):
    return [rec.element for rec in engine_records(spec)]


@cache
def verify_checks(spec) -> dict[str, Check]:
    """verify.run_checks on spec, by check name; a one-prime group is
    checked as the one part of an AbelianGroupSpec, as the CLI does."""
    if isinstance(spec, PrimaryGroupSpec):
        spec = AbelianGroupSpec((spec,))
    return {c.name: c for c in run_checks(spec, alternate_order=False)}


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module: it defines TARGETS, the functions
    perfbench's traced runs wrap; install() is not called."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing

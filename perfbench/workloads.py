"""The benchmark's operation lists.

An operation is one ``pcikit.cli.main`` call with default flags unless
noted, plus what its output must satisfy: ``"ok"`` (exit 0, checked
against the reference in ``checks.py``) or ``"refused"`` (exit 2, empty
stdout).  Each pass runs one workload's operations in an order shuffled
from the run's seed; the operations themselves never depend on the seed.

Group sizes are chosen so that one pass takes a few seconds on a 2-core
machine and a 30-second run fits several passes even when the machine runs
slow; inputs that take seconds each today (``verify`` on C_2^7, ``split``
on C_{3^4} and C_{5^3}, ``pci`` on C_2^10 and C_2^11) are left out and
listed in the README.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    subcommand: str
    group: str
    flags: tuple[str, ...] = ()
    expect: str = "ok"

    @property
    def argv(self) -> list[str]:
        return [self.subcommand, "--group", self.group, *self.flags]

    def __str__(self) -> str:
        return " ".join(self.argv)


def _elementary(p: int, rank: int) -> str:
    return f"{p}:[{','.join(['1'] * rank)}]"


# Every group of the acceptance corpus with order <= 32, then C_6, C_12,
# C_30 and C_2 x C_18 from its multi-prime corpus.
SMALL_GROUPS = (
    "2:[1]", "2:[2]", "2:[1,1]", "2:[3]", "2:[2,1]", "2:[1,1,1]",
    "2:[4]", "2:[3,1]", "2:[2,2]", "2:[2,1,1]", "2:[1,1,1,1]",
    "2:[5]", "2:[4,1]", "2:[3,2]", "2:[3,1,1]", "2:[2,2,1]", "2:[2,1,1,1]",
    "2:[1,1,1,1,1]",
    "3:[1]", "3:[2]", "3:[1,1]", "3:[3]", "3:[2,1]", "3:[1,1,1]",
    "5:[1]", "5:[2]", "5:[1,1]",
    "2:[1];3:[1]", "2:[2];3:[1]", "2:[1];3:[1];5:[1]", "2:[1,1];3:[2]",
)


def _is_cyclic_prime_power(group: str) -> bool:
    return ";" not in group and "," not in group


def _small_corpus() -> tuple[Op, ...]:
    ops = []
    for group in SMALL_GROUPS:
        for sub in ("pci", "diagram", "wedderburn", "verify"):
            ops.append(Op(sub, group))
        if _is_cyclic_prime_power(group):
            ops.append(Op("split", group))
    ops += [
        Op("pci", "4:[1]", expect="refused"),  # not a prime
        Op("pci", "2:[0]", expect="refused"),  # zero exponent
        Op("pci", "2:[1];2:[1]", expect="refused"),  # duplicate prime
        Op("pci", "2:[13]", expect="refused"),  # order 8192 over the 4096 cap
    ]
    return tuple(ops)


# Non-cyclic groups of order 64-125, all checked in full mode: the pairwise
# orthogonality sweep dominates, and no splitting-field check runs.
VERIFY_MID_GROUPS = (
    _elementary(2, 6), "2:[2,2,2]", "2:[2,1,1,1,1]",
    _elementary(3, 4), "3:[2,2]", _elementary(5, 3),
)

# Orders 512-2520: diagram construction, leaf expansion, cross-prime
# products and megabytes of JSON; no group-algebra product runs.
WIDE_BUILD_GROUPS = (
    _elementary(2, 9), "7:[2,2]", "3:[3,2,1]", "5:[2,2]",
    "2:[1,1,1,1,1];3:[1,1,1]", "2:[3];3:[2];5:[1];7:[1]",
)


def _wide_build() -> tuple[Op, ...]:
    ops = []
    for group in WIDE_BUILD_GROUPS:
        ops += [
            Op("pci", group),
            Op("diagram", group),
            Op("diagram", group, ("--format", "dot")),
            Op("wedderburn", group),
        ]
    return tuple(ops)


# Splitting-field idempotents over Q(zeta_m), and verify on cyclic groups of
# order <= 64, where the splitting-field coherence check runs.
CYCLIC_SPLIT = (
    Op("split", "2:[6]"), Op("split", "3:[3]"), Op("split", "5:[2]"), Op("split", "7:[2]"),
    Op("verify", "2:[5]"), Op("verify", "3:[3]"),
)

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "small-corpus": _small_corpus(),
    "verify-mid": tuple(Op("verify", g) for g in VERIFY_MID_GROUPS),
    "wide-build": _wide_build(),
    "cyclic-split": CYCLIC_SPLIT,
}

# One cheap operation per workload for the smoke mode.
SMOKE_OPS: dict[str, Op] = {
    "small-corpus": Op("pci", "2:[1];3:[1]"),
    "verify-mid": Op("verify", "3:[2,2]"),
    "wide-build": Op("pci", "5:[2,2]"),
    "cyclic-split": Op("split", "7:[2]"),
}

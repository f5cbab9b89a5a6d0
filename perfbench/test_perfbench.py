"""Tests of the benchmark itself: the independent reference on hand-computed
cases, the output checks on hand-built outputs, and the smoke mode.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import reference
from workloads import SMOKE_OPS, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
F = Fraction


def test_factor_orders_sorts_parts_and_exponents():
    assert reference.factor_orders("3:[1];2:[1,2]") == (4, 2, 3)
    with pytest.raises(ValueError):
        reference.factor_orders("2:1")


@pytest.mark.parametrize("p, k", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (5, 3)])
def test_elementary_abelian_cyclic_subgroups(p, k):
    # C_p^k: the identity plus (p^k - 1)/(p - 1) subgroups of order p.
    counts = reference.cyclic_subgroups_by_order((p,) * k)
    assert counts == {1: 1, p: (p**k - 1) // (p - 1)}


def test_cyclic_subgroups_of_mixed_groups():
    # C_4 x C_2: orders 1, 2, 4 have 1, 3, 4 elements.
    assert reference.element_order_census((4, 2)) == {1: 1, 2: 3, 4: 4}
    assert reference.cyclic_subgroups_by_order((4, 2)) == {1: 1, 2: 3, 4: 2}
    # C_6 = C_2 x C_3 has one cyclic subgroup of each order dividing 6.
    assert reference.cyclic_subgroups_by_order((2, 3)) == {1: 1, 2: 1, 3: 1, 6: 1}
    # C_9 x C_3: 8 elements of order 3 (4 subgroups), 18 of order 9 (3 subgroups).
    assert reference.cyclic_subgroups_by_order((9, 3)) == {1: 1, 3: 4, 9: 3}


def test_phi():
    assert [reference.phi(n) for n in (1, 2, 8, 9, 12, 49, 97)] == [1, 1, 4, 6, 4, 42, 96]


def test_closed_form_c4_by_hand():
    q, h = F(1, 4), F(1, 2)
    assert reference.cyclic_closed_form(2, 2) == [
        (q, q, q, q),
        (h, 0, -h, 0),
        (q, -q, q, -q),
    ]


@pytest.mark.parametrize("p, n", [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1)])
def test_closed_form_sums_to_one_with_identity_coefficient_dim(p, n):
    m = p**n
    pcis = reference.cyclic_closed_form(p, n)
    assert len(pcis) == n + 1
    rows = [reference.scaled_numerators([f"{c.numerator}/{c.denominator}" for c in e], m) for e in pcis]
    assert reference.sums_to_identity(rows, m)
    # Identity coefficient is dim/|G|: 1 for the trivial component, then phi(p^i).
    dims = sorted(row[0] for row in rows)
    assert dims == sorted([1] + [reference.phi(p**i) for i in range(1, n + 1)])


def test_scaled_numerators_rejects_foreign_denominators():
    assert reference.scaled_numerators(["1/2", "-1/4", "0/1"], 4) == [2, -1, 0]
    with pytest.raises(ValueError):
        reference.scaled_numerators(["1/3"], 4)


def _pci_c2(second):
    return json.dumps({
        "group": "2:[1]", "structure": "C_2", "order": 2, "count": 2,
        "pcis": [
            {"index": 0, "coefficients": ["1/2", "1/2"], "kernel_order": 2,
             "quotient_order": 1, "field": "Q", "field_index": 0, "dimension": 1},
            {"index": 1, "coefficients": second, "kernel_order": 1,
             "quotient_order": 2, "field": "Q", "field_index": 1, "dimension": 1},
        ],
        "dimension_total": 2,
    })


def test_pci_check_accepts_c2_and_catches_a_wrong_coefficient():
    op = Op("pci", "2:[1]")
    assert checks.check(op, 0, _pci_c2(["1/2", "-1/2"])) is None
    assert "identity" in checks.check(op, 0, _pci_c2(["1/2", "1/2"]))
    assert checks.check(op, 1, _pci_c2(["1/2", "-1/2"])) == "exit 1"


def test_split_check_uses_the_closed_form():
    data = {
        "splitting_pcis": [{}, {}],
        "orbits": [[0], [1]],
        "rational_pcis": [["1/2", "1/2"], ["1/2", "-1/2"]],
        "matches_closed_form": True,
    }
    op = Op("split", "2:[1]")
    assert checks.check(op, 0, json.dumps(data)) is None
    data["rational_pcis"][1] = ["1/2", "1/2"]
    assert "closed form" in checks.check(op, 0, json.dumps(data))


def test_dot_check_counts_leaf_fields():
    # C_2: root, then the trivial leaf and one Q(zeta_2) leaf.
    dot = "\n".join([
        "digraph pci_diagram {",
        '  p2_v0_0 [label="trivial"];',
        '  p2_v1_0 [label="trivial\\nQ(zeta_1)"];',
        '  p2_v1_1 [label="K=<>; z=(1)\\nQ(zeta_2)"];',
        "}",
    ])
    op = Op("diagram", "2:[1]", ("--format", "dot"))
    assert checks.check(op, 0, dot) is None
    assert checks.check(op, 0, dot.replace("zeta_2", "zeta_1")) is not None


def _verify_c2(drop=None, level="full"):
    checks_run = [
        {"name": name, "status": "pass",
         "detail": "1 pairs checked (full)" if name == "engine_orthogonality" else None}
        for name in checks.expected_verify_checks((2,)) if name != drop
    ]
    return json.dumps({"group": "2:[1]", "order": 2, "check_level": level,
                       "checks": checks_run, "status": "pass"})


def test_verify_check_needs_every_check_in_full_mode():
    op = Op("verify", "2:[1]")
    assert checks.expected_verify_checks((2,))[-3:] == [
        "component_counts_p2", "cyclic_closed_form", "splitting_field_coherence"]
    assert checks.check(op, 0, _verify_c2()) is None
    assert "expected" in checks.check(op, 0, _verify_c2(drop="engine_orthogonality"))
    assert "check_level" in checks.check(op, 0, _verify_c2(level="sampled"))
    # Non-cyclic groups run neither cyclic check; one component count per prime.
    assert checks.expected_verify_checks((2, 3, 5))[-3:] == [
        "component_counts_p2", "component_counts_p3", "component_counts_p5"]


def test_diagram_and_wedderburn_checks_need_every_prime_part():
    # C_6: one leaf of field index 0 and one of index 1 in each prime part.
    leaves = [{"field_index": 0}, {"field_index": 1}]
    part = {"level_sizes": [1, 2], "levels": [[{}], leaves]}
    diagram = {"parts": [{"p": 2, **part}, {"p": 3, **part}]}
    op = Op("diagram", "2:[1];3:[1]")
    assert checks.check(op, 0, json.dumps(diagram)) is None
    assert "parts" in checks.check(op, 0, json.dumps({"parts": diagram["parts"][:1]}))
    assert "parts" in checks.check(op, 0, json.dumps({"parts": []}))

    rows = [{"r": 0, "census": 1}, {"r": 1, "census": 1}]
    wedderburn = {"parts": [{"p": 2, "rows": rows}, {"p": 3, "rows": rows}]}
    op = Op("wedderburn", "2:[1];3:[1]")
    assert checks.check(op, 0, json.dumps(wedderburn)) is None
    assert "parts" in checks.check(op, 0, json.dumps({"parts": wedderburn["parts"][1:]}))
    # A duplicated row may not stand in for a missing one.
    doubled = [{"p": 2, "rows": rows[:1] * 2}, {"p": 3, "rows": rows}]
    assert checks.check(op, 0, json.dumps({"parts": doubled})) is not None


def test_refused_operation_needs_exit_2_and_empty_stdout():
    op = Op("pci", "4:[1]", expect="refused")
    assert checks.check(op, 2, "") is None
    assert checks.check(op, 0, "{}") is not None


def test_workloads_are_well_formed():
    for name, ops in WORKLOADS.items():
        assert len(set(ops)) == len(ops), name
        assert SMOKE_OPS[name] in ops, name


def test_smoke_mode_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "pass"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

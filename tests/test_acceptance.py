"""End-to-end acceptance gate.

Every check runs in exact arithmetic with zero tolerance; each test prints
one PASS/FAIL line so the whole gate reads as a checklist under pytest -v -s.
"""

import itertools
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from pcikit import (
    AlgebraElement,
    PrimaryGroupSpec,
    build_pci_diagram,
    compare_pci_sets,
    wedderburn_profile,
)
from pcikit.algebra import are_orthogonal, is_idempotent
from pcikit.cli import RunConfig, run
from pcikit.cyclotomic import CycloAlgebraElement, CycloNumber, ramanujan_sum
from pcikit.diagram import (
    cyclic_group_spec,
    cyclic_rational_pcis,
    extension_children,
    galois_orbit_collapse,
    galois_orbits,
    lift_into_extension,
    splitting_field_pcis,
)
from pcikit.groups import GroupElement

from conftest import engine_set, full_corpus, primary_corpus, verify_checks
from element_reference import ramanujan_sum_direct
from rank_reference import kernel_and_field

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_soundness():
    with criterion(1, "soundness: e^2=e, e_i e_j=0, sum=1 on the corpus"):
        start = time.time()
        for spec in full_corpus():
            pcis = engine_set(spec)
            total = AlgebraElement.zero(spec)
            for e in pcis:
                assert is_idempotent(e), spec
                total = total + e
            assert total == AlgebraElement.one(spec), spec
            for a, b in itertools.combinations(pcis, 2):
                assert are_orthogonal(a, b), spec
        elapsed = time.time() - start
        print(f"  [{len(full_corpus())} groups in {elapsed:.1f}s]", end=" ")
        assert elapsed < 300


def assert_checks_pass(spec, *names):
    """The named checks of verify.run_checks all pass on spec."""
    checks = verify_checks(spec)
    for name in names:
        assert checks[name].ok, (spec, name, checks[name].detail)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "engine leaves equal the character oracle as multisets"):
        for spec in full_corpus():
            assert_checks_pass(spec, "engine_matches_oracle")


def test_criterion_3_cyclic_closed_form():
    with criterion(3, "cyclic closed form: n+1 members, leaf equality, field indices"):
        for p, n in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                     (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)):
            closed = cyclic_rational_pcis(p, n)
            assert len(closed) == n + 1
            spec = cyclic_group_spec(p, n)
            assert compare_pci_sets(closed, engine_set(spec)).equal, (p, n)
            assert kernel_and_field(closed[0]).field_index == 0
            for i in range(1, n + 1):
                assert kernel_and_field(closed[i]).field_index == n + 1 - i, (p, n, i)


def test_criterion_4_splitting_field():
    with criterion(4, "splitting-field idempotents, extension children, orbit collapse"):
        for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)):
            m = p**n
            spec = cyclic_group_spec(p, n)
            split = splitting_field_pcis(p, n)
            assert len(split) == m
            gen = GroupElement(spec, (1,))
            x = CycloAlgebraElement.monomial(spec, m, gen, 0)
            total = CycloAlgebraElement.zero(spec, m)
            for t, e in enumerate(split):
                assert e * e == e
                # one-dimensional component: x * e is a root-of-unity multiple
                zeta_t = CycloAlgebraElement.monomial(spec, m, gen**m, t)
                assert x * e == zeta_t * e
                total = total + e
            assert total == CycloAlgebraElement.one(spec, m)
            for i, j in itertools.combinations(range(m), 2):
                assert (split[i] * split[j]).is_zero()
            children = [
                child
                for eta in splitting_field_pcis(p, n - 1)
                for child in extension_children(lift_into_extension(eta), gen)
            ]
            assert Counter(children) == Counter(split)
            orbits = galois_orbits(m)
            assert len(orbits) == n + 1
            collapsed = galois_orbit_collapse(split, m)
            assert compare_pci_sets(collapsed, cyclic_rational_pcis(p, n)).equal


def test_criterion_5_component_count_formula():
    with criterion(5, "component counts: corrected closed form matches the census"):
        for spec in primary_corpus():
            assert_checks_pass(spec, f"component_counts_p{spec.p}")
        # the uncorrected-exponent variant is refuted by C_4
        c4 = cyclic_group_spec(2, 2)
        row = wedderburn_profile(c4).rows[2]
        assert row.census == 1 and row.statement_variant == 2


def test_criterion_6_rank_two_exponent_p_level_sizes():
    with criterion(6, "C_p x C_p diagrams have level sizes [1, 2, p+2]"):
        for p in (2, 3, 5):
            diag = build_pci_diagram(PrimaryGroupSpec(p, ((1, 2),)))
            assert diag.level_sizes() == [1, 2, p + 2]


def test_criterion_7_factored_form_and_kernels():
    with criterion(7, "one primed factor per nontrivial vertex; tracked = algebraic kernel"):
        for spec in primary_corpus():
            assert_checks_pass(spec, "factored_form_structure", "vertex_kernels")


def test_criterion_8_ramanujan_cross_check():
    with criterion(8, "Ramanujan closed form equals direct root-of-unity summation"):
        for m in range(1, 61):
            for t in range(m):
                direct = ramanujan_sum_direct(m, t)
                assert direct == CycloNumber.from_rational(m, ramanujan_sum(m, t))


GOLDEN_CASES = {
    "c4": "2:[2]",
    "c3c3": "3:[1,1]",
    "c9c3": "3:[2,1]",
    "c12": "2:[2];3:[1]",
}


def _check_golden(name: str, output: str):
    path = GOLDEN_DIR / name
    if os.environ.get("PCIKIT_REGEN_GOLDENS") == "1":
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(output)
    assert path.exists(), f"missing golden file {name} (set PCIKIT_REGEN_GOLDENS=1)"
    assert output.encode() == path.read_bytes(), f"{name} drifted from golden output"


def test_criterion_9_cli_golden_files():
    with criterion(9, "byte-identical CLI output for pci/diagram/wedderburn"):
        for tag, group in GOLDEN_CASES.items():
            for sub in ("pci", "diagram", "wedderburn"):
                code, output = run(RunConfig(sub, group))
                assert code == 0
                _check_golden(f"{tag}_{sub}.json", output)
            code, output = run(RunConfig("diagram", group, output_format="dot"))
            assert code == 0
            _check_golden(f"{tag}_diagram.dot", output)

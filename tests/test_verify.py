"""verify must catch a wrong engine result, not only pass a right one.

Each test corrupts what pcikit.verify receives from the engine, then checks
that the named checks fail and that the CLI exits 1 with status "fail".
"""

import dataclasses
import json

import numpy as np
import pytest

from pcikit import AlgebraElement, cyclotomic, diagram, verify
from pcikit.cli import main

ENGINE_CHECKS = {
    "engine_idempotency",
    "engine_orthogonality",
    "engine_sum_to_identity",
    "engine_matches_oracle",
}


def failed_checks(group, capsys) -> set[str]:
    assert main(["verify", "--group", group]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "fail"
    return {c["name"] for c in data["checks"] if c["status"] == "fail"}


def shift_one_numerator(records):
    e = records[0].element
    nums = list(e.nums)
    nums[0] += 1
    moved = dataclasses.replace(records[0], element=AlgebraElement(e.spec, nums, e.den))
    return [moved, *records[1:]]


@pytest.mark.parametrize("group", ["2:[2,1]", "2:[1];3:[1]"])
@pytest.mark.parametrize(
    "corrupt, expected",
    [
        pytest.param(shift_one_numerator, ENGINE_CHECKS, id="shifted-numerator"),
        # the remaining leaves are still pairwise orthogonal; only the sum
        # is wrong, so engine_orthogonality passes
        pytest.param(
            lambda records: records[:-1],
            {"engine_sum_to_identity", "engine_matches_oracle"},
            id="dropped-leaf",
        ),
        pytest.param(
            lambda records: records + records[:1],
            {"engine_orthogonality", "engine_sum_to_identity", "engine_matches_oracle"},
            id="duplicated-leaf",
        ),
    ],
)
def test_corrupted_engine_records_fail(group, corrupt, expected, monkeypatch, capsys):
    original = verify.records_from_diagrams
    monkeypatch.setattr(
        verify,
        "records_from_diagrams",
        lambda spec, diagrams: corrupt(original(spec, diagrams)),
    )
    assert failed_checks(group, capsys) == expected


@pytest.mark.parametrize("group", ["2:[2,2]", "3:[2,2]"])
def test_wrong_split_witness_fails_vertex_kernels(group, monkeypatch, capsys):
    # u itself is the witness only when u^p lies in the kernel; on these
    # groups some split needs a scanned coset element instead.
    original = diagram._split_witnesses

    def always_u(u, *args):
        witnesses, phi_g = original(u, *args)
        return np.full_like(witnesses, u), np.zeros_like(phi_g)

    monkeypatch.setattr(diagram, "_split_witnesses", always_u)
    # The wrong children still sum to their parent, so the sum check holds.
    expected = (ENGINE_CHECKS - {"engine_sum_to_identity"}) | {"vertex_kernels"}
    assert failed_checks(group, capsys) == expected


@pytest.mark.parametrize("group, p, n", [("2:[3]", 2, 3), ("3:[2]", 3, 2)])
def test_duplicated_splitting_idempotent_fails_coherence(group, p, n, monkeypatch, capsys):
    # A copy of one splitting idempotent in place of another keeps the count
    # at m and every element idempotent; only the sum to 1 (and with it
    # pairwise orthogonality) and the extension-children match break.  The
    # level below, which the extension children come from, stays intact.
    original = verify.splitting_field_pcis

    def duplicated(q, k):
        out = original(q, k)
        if (q, k) == (p, n):
            out[1] = out[0]
        return out

    monkeypatch.setattr(verify, "splitting_field_pcis", duplicated)
    assert failed_checks(group, capsys) == {"splitting_field_coherence"}


def flip_c8_zeta_table_entry(monkeypatch):
    """Flip entry [1, 0] of the table of reduced zeta powers of C_8: zeta
    reads as 1 + zeta in every reduction taken from the table."""
    original = cyclotomic._zeta_rows

    def flipped(m):
        rows = original(m)
        if m == 8:
            rows = rows.copy()
            rows[1, 0] ^= 1
        return rows

    monkeypatch.setattr(cyclotomic, "_zeta_rows", flipped)


def test_flipped_zeta_table_entry_fails_coherence(monkeypatch, capsys):
    # One wrong entry in the table of reduced zeta powers of C_8 leaves every
    # splitting idempotent's numerators right and its cached reduction wrong.
    # The Galois collapse sums those reductions, so its orbit sums stay
    # rational (only constant coordinates moved) but miss the closed form.
    flip_c8_zeta_table_entry(monkeypatch)
    assert failed_checks("2:[3]", capsys) == {"splitting_field_coherence"}


def test_flipped_zeta_table_entry_fails_split(monkeypatch, capsys):
    # split's collapse reads the reduced coordinates it prints, so it sees
    # the wrong entry too.
    flip_c8_zeta_table_entry(monkeypatch)
    assert main(["split", "--group", "2:[3]"]) == 1
    assert json.loads(capsys.readouterr().out)["matches_closed_form"] is False

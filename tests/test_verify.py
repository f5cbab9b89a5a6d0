"""verify must catch a wrong engine result, not only pass a right one.

Each test corrupts what pcikit.verify receives from the engine, then checks
that the named checks fail and that the CLI exits 1 with status "fail".
"""

import dataclasses
import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import verify_reference
from conftest import full_corpus
from pcikit import (
    AbelianGroupSpec,
    InconsistencyError,
    InvariantError,
    PciRecord,
    PrimaryGroupSpec,
    cyclotomic,
    diagram,
    kernels,
    oracle,
    parse_group_spec,
    verify,
)
from pcikit.cli import main
from pcikit.cyclotomic import CycloAlgebraElement
from pcikit.diagram import (
    RecordBlock,
    cyclic_group_spec,
    cyclic_rational_pcis,
    lift_into_extension,
    splitting_field_pcis,
    splitting_field_rows,
)
from pcikit.groups import GroupElement
from pcikit.kernels import squares_to_rows
from pcikit.numtheory import cyclotomic_poly, is_prime

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
    nums = records[0].nums.copy()
    nums[0] += 1
    return [records[0]._replace(nums=nums), *records[1:]]


def corrupt_record_blocks(monkeypatch, corrupt):
    """Make verify, and the element reference, read corrupt(records) in
    place of the engine's records: the rows of verify.record_blocks as
    PciRecords, changed, then in blocks of three rows, so that the
    certificate's running sums and indices cross block boundaries."""
    original = verify.record_blocks

    def blocks(spec, diagrams):
        records = corrupt([
            PciRecord(spec, nums, den, kernel, quotient)
            for b in original(spec, diagrams)
            for nums, den, kernel, quotient in zip(
                b.nums, b.dens, b.kernel_orders, b.quotient_orders
            )
        ])
        for start in range(0, len(records), 3):
            part = records[start : start + 3]
            yield RecordBlock(
                start,
                np.stack([r.nums for r in part]),
                [r.den for r in part],
                [r.kernel_order for r in part],
                [r.quotient_order for r in part],
            )

    monkeypatch.setattr(verify, "record_blocks", blocks)


CORRUPTIONS = [
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
]


@pytest.mark.parametrize("group", ["2:[2,1]", "2:[1];3:[1]"])
@pytest.mark.parametrize("corrupt, expected", CORRUPTIONS)
def test_corrupted_engine_records_fail(group, corrupt, expected, monkeypatch, capsys):
    corrupt_record_blocks(monkeypatch, corrupt)
    assert failed_checks(group, capsys) == expected


@pytest.mark.parametrize("group", ["2:[2,1]", "2:[3]", "2:[1];3:[1]"])
def test_rescaled_records_pass_by_the_element_comparison(group, monkeypatch, capsys):
    # Numerators and dens times 5, prime to |G|: no record can be put over
    # |G| as it stands, so no lookup finds it, the element comparison
    # decides, and every check passes.
    corrupt_record_blocks(
        monkeypatch,
        lambda records: [r._replace(nums=r.nums * 5, den=r.den * 5) for r in records],
    )
    compared = []
    original = verify.compare_pci_sets

    def counted(left, right):
        compared.append(len(left))
        return original(left, right)

    monkeypatch.setattr(verify, "compare_pci_sets", counted)
    assert main(["verify", "--group", group, "--alternate-order"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert len(compared) >= 2


def small_blocks(monkeypatch):
    """Make every blocked pass (record blocks, the certificate, the
    oracle's rows and its orbit search) take at most 64 entries at once,
    so that on the corpus each spans many blocks: an orbit's first row is
    then written blocks before the rows compared with it."""
    monkeypatch.setattr(kernels, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 64)


BLOCK_SIZES = pytest.mark.parametrize("blocks", ["default", "small"])


def as_abelian(spec):
    return AbelianGroupSpec((spec,)) if isinstance(spec, PrimaryGroupSpec) else spec


@BLOCK_SIZES
def test_run_checks_match_element_reference_on_corpus(blocks, monkeypatch):
    if blocks == "small":
        small_blocks(monkeypatch)
    for spec in map(as_abelian, full_corpus()):
        assert verify.run_checks(spec, True) == verify_reference.run_checks(spec, True)


@pytest.mark.parametrize("group", ["2:[2,1]", "2:[1];3:[1]", "3:[2]", "2:[1,1,1]"])
@pytest.mark.parametrize("corrupt, expected", CORRUPTIONS)
def test_run_checks_match_element_reference_under_corruption(
    group, corrupt, expected, monkeypatch
):
    # the same checks fail with the same details, the oracle witness too
    corrupt_record_blocks(monkeypatch, corrupt)
    spec = parse_group_spec(group)
    checks = verify.run_checks(spec, True)
    assert checks == verify_reference.run_checks(spec, True)
    failed = {c.name for c in checks if not c.ok}
    assert expected <= failed <= expected | {
        "cyclic_closed_form", "alternate_order_soundness"
    }
    witness = next(c.detail for c in checks if c.name == "engine_matches_oracle")
    assert witness.startswith("witness on ")


@BLOCK_SIZES
def test_oracle_matches_character_reference_on_corpus(blocks, monkeypatch):
    if blocks == "small":
        small_blocks(monkeypatch)
    for spec in full_corpus():
        assert oracle.oracle_pci_set(spec) == verify_reference.oracle_pci_set(spec)


@pytest.mark.parametrize(
    "group, t",
    [
        ("2:[2]", (3,)),  # the second member of the orbit {1, 3} of C_4
        ("2:[2]", (1,)),  # its first member, which the other is compared with
        ("3:[1,1]", (2, 2)),
        ("2:[1];3:[1]", (1, 2)),
        ("2:[2,1];3:[1]", (3, 1, 2)),
    ],
)
@BLOCK_SIZES
def test_altered_oracle_row_within_an_orbit_raises(
    group, t, blocks, monkeypatch, capsys
):
    if blocks == "small":
        small_blocks(monkeypatch)
    spec = parse_group_spec(group)
    original = oracle._character_rows

    def altered(table, weights, digits, L):
        rows = original(table, weights, digits, L)
        target = np.array(t) * (L // np.array(spec.factor_orders))
        at = np.flatnonzero((weights == target).all(axis=1))
        if at.size:
            rows = rows.copy()
            rows[at[0], 0] += 1
        return rows

    monkeypatch.setattr(oracle, "_character_rows", altered)
    with pytest.raises(InconsistencyError, match="share a Galois orbit"):
        oracle.oracle_rows(spec)
    assert main(["verify", "--group", group]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "share a Galois orbit" in captured.err


def split_witness_always_u(monkeypatch):
    """Make every split take u itself as its witness.  u is the witness
    only when u^p lies in the kernel; on 2:[2,2] and 3:[2,2] some split
    needs a scanned coset element instead."""
    original = diagram._split_witnesses

    def always_u(u, *args):
        witnesses, phi_g = original(u, *args)
        return np.full_like(witnesses, u), np.zeros_like(phi_g)

    monkeypatch.setattr(diagram, "_split_witnesses", always_u)


@pytest.mark.parametrize("group", ["2:[2,2]", "3:[2,2]"])
def test_wrong_split_witness_fails_vertex_kernels(group, monkeypatch, capsys):
    split_witness_always_u(monkeypatch)
    # The wrong children still sum to their parent, so the sum check holds.
    expected = (ENGINE_CHECKS - {"engine_sum_to_identity"}) | {"vertex_kernels"}
    assert failed_checks(group, capsys) == expected


def replace_column(diag, l, name, i, value):
    """diag with entry i of column name of level l set to value."""
    level = diag.columns[l]
    column = getattr(level, name).copy()
    column[i] = value
    columns = list(diag.columns)
    columns[l] = level._replace(**{name: column})
    return dataclasses.replace(diag, columns=tuple(columns))


def first_kernel_generator(diag, l, i):
    """The element index of the first kernel generator of vertex i of level
    l, found up the parent column, or -1 when it has none."""
    first = -1
    for level in diag.columns[l::-1]:
        first = level.added[i] if level.added[i] >= 0 else first
        i = level.parent[i]
    return first


def primed_in_first_kernel(diagrams):
    """The diagrams with the first nontrivial leaf that has kernel
    generators given its first kernel generator as primed element."""
    diag, *rest = diagrams
    last = len(diag.columns) - 1
    leaves = range(1, len(diag.columns[-1].primed))
    i = next(i for i in leaves if first_kernel_generator(diag, last, i) >= 0)
    g = first_kernel_generator(diag, last, i)
    return [replace_column(diag, last, "primed", i, g), *rest]


@pytest.mark.parametrize("group", ["2:[2,1]", "3:[2,2]"])
def test_primed_element_in_kernel_fails_vertex_kernels(group, monkeypatch, capsys):
    # Such a vertex has no expansion.  That is an engine fault, so verify
    # reports a failed check and exits 1, not 2 as for bad input.  The
    # records come from the leaves' characters, so only this check sees it.
    original = verify.part_diagrams
    monkeypatch.setattr(
        verify, "part_diagrams", lambda spec: primed_in_first_kernel(original(spec))
    )
    assert main(["verify", "--group", group]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {c["name"]: c["detail"] for c in checks if c["status"] == "fail"}
    assert list(failed) == ["vertex_kernels"]
    assert "'kernel')" in failed["vertex_kernels"]


def vertices(diagrams):
    """(part, vertex) for each vertex object of diagrams' levels, as the
    vertex-kernel reference reads them."""
    return [(diag.spec, v) for diag in diagrams for level in diag.levels for v in level]


# The vertex-kernel tests run the check at the default block size and at 64
# cells, where the level pass takes one row per block at order 64.
KERNEL_BLOCK_CELLS = (kernels._BLOCK_CELLS, 64)


def level_pass_failures(diagrams, cells):
    with patch.object(kernels, "_BLOCK_CELLS", cells):
        return verify.vertex_kernel_failures(diagrams)


def test_vertex_kernels_match_reference_on_corpus():
    for spec in full_corpus():
        diagrams = diagram.part_diagrams(spec)
        assert verify_reference.vertex_kernel_failures(vertices(diagrams)) == []
        for cells in KERNEL_BLOCK_CELLS:
            assert level_pass_failures(diagrams, cells) == []


@pytest.mark.parametrize("group", ["2:[2,2]", "3:[2,2]", "2:[3,2,1]"])
def test_vertex_kernels_match_reference_under_wrong_witness(group, monkeypatch):
    split_witness_always_u(monkeypatch)
    diagrams = diagram.part_diagrams(parse_group_spec(group))
    expected = verify_reference.vertex_kernel_failures(vertices(diagrams))
    assert expected
    for cells in KERNEL_BLOCK_CELLS:
        assert level_pass_failures(diagrams, cells) == expected


MUTATED_GROUPS = [
    parse_group_spec(t).parts[0]
    for t in ("2:[2,1]", "2:[2,2]", "2:[1,1,1]", "3:[2,1]", "2:[3,1]", "5:[1,1]")
]


@st.composite
def mutated_diagrams(draw):
    """A small group's diagram with one vertex changed in its columns: the
    kernel generator it adds replaced, dropped or set, its primed element
    moved, or its kernel order changed.  A changed generator is inherited
    by the vertex's descendants."""
    spec = draw(st.sampled_from(MUTATED_GROUPS))
    diag = diagram.build_pci_diagram(spec)
    l = draw(st.integers(0, len(diag.columns) - 1))
    level = diag.columns[l]
    i = draw(st.integers(0, len(level.primed) - 1))
    g = draw(st.integers(0, spec.order - 1))
    kinds = ["replace", "drop"] if level.added[i] >= 0 else ["set"]
    kinds += ["move primed"] if level.primed[i] >= 0 else []
    kinds += ["kernel order"]
    kind = draw(st.sampled_from(kinds))
    event(kind)
    if kind == "kernel order":
        k = int(level.kernel_order[i])
        order = draw(st.sampled_from([k * spec.p, k + 1]))
        return replace_column(diag, l, "kernel_order", i, order)
    if kind == "move primed":
        return replace_column(diag, l, "primed", i, g)
    return replace_column(diag, l, "added", i, -1 if kind == "drop" else g)


@given(mutated_diagrams())
@settings(max_examples=150, deadline=None)
def test_vertex_kernels_match_reference_on_mutated_vertices(diag):
    expected = []
    for part, v in vertices([diag]):
        try:
            expected += verify_reference.vertex_kernel_failures([(part, v)])
        except InvariantError:  # the primed element lies in the span
            expected.append((part.p, v.level, v.index, "kernel"))
    event(f"failures: {[what for *_, what in expected]}")
    for cells in KERNEL_BLOCK_CELLS:
        assert level_pass_failures([diag], cells) == expected


def replace_splitting_idempotent(monkeypatch, p, n, change):
    """Make verify, and the reference check, see change(rows) in place of
    row 1 of the splitting idempotents' stack of C_{p^n}
    (diagram.splitting_field_rows, every row over den p^n), rows being the
    whole stack.  The reference reads the stack through
    diagram.splitting_field_pcis."""
    original = diagram.splitting_field_rows

    def replaced(q, k):
        rows = original(q, k)
        if (q, k) == (p, n):
            rows[1] = change(rows)
        return rows

    monkeypatch.setattr(diagram, "splitting_field_rows", replaced)
    monkeypatch.setattr(verify, "splitting_field_rows", replaced)


@pytest.mark.parametrize("group, p, n", [("2:[3]", 2, 3), ("3:[2]", 3, 2)])
def test_duplicated_splitting_idempotent_fails_coherence(group, p, n, monkeypatch, capsys):
    # A copy of one splitting idempotent in place of another keeps the count
    # at m and every element idempotent; only the sum to 1 (and with it
    # pairwise orthogonality) and the extension-children match break.  The
    # level below, which the extension children come from, stays intact.
    replace_splitting_idempotent(monkeypatch, p, n, lambda rows: rows[0])
    assert failed_checks(group, capsys) == {"splitting_field_coherence"}


def plus_phi_m(row):
    """A splitting row of C_m, over den m, with m * Phi_m added to the zeta
    block of group index 1: the same element of Q(zeta_m)[G] on other
    lattice numerators."""
    m = math.isqrt(len(row))
    phi = np.array(cyclotomic_poly(m))
    row = row.copy()
    row[m : m + len(phi)] += m * phi
    return row


@pytest.mark.parametrize("group, p, n", [("2:[3]", 2, 3), ("3:[2]", 3, 2)])
def test_splitting_idempotent_off_the_lattice_passes_by_product(
    group, p, n, monkeypatch, capsys
):
    # squares_to_rows tests e*e == e on the lattice Q[G x C_m], where the added
    # multiple of Phi_m does not vanish; the product, compared reduced,
    # decides, and every check passes.
    e = splitting_field_pcis(p, n)[1]
    moved = CycloAlgebraElement(e.spec, e.m, plus_phi_m(splitting_field_rows(p, n)[1]), e.m)
    assert moved == e and moved.nums.tolist() != e.nums.tolist()
    assert not squares_to_rows([moved.nums], [moved.den], moved.lattice_orders)[0]
    replace_splitting_idempotent(monkeypatch, p, n, lambda rows: plus_phi_m(rows[1]))
    assert main(["verify", "--group", group]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


@pytest.mark.parametrize("group, p, n", [("2:[3]", 2, 3), ("3:[2]", 3, 2)])
def test_scaled_splitting_idempotent_fails_coherence(group, p, n, monkeypatch, capsys):
    replace_splitting_idempotent(monkeypatch, p, n, lambda rows: rows[1] * 2)
    assert failed_checks(group, capsys) == {"splitting_field_coherence"}


@pytest.mark.parametrize("group, p, n", [("2:[3]", 2, 2), ("3:[2]", 3, 1)])
def test_scaled_splitting_idempotent_one_level_down_fails_coherence(
    group, p, n, monkeypatch, capsys
):
    # The level below is not a set of lifted splitting idempotents, so
    # extension_children refuses one of them; the check fails and the full
    # report is printed, with exit 1 rather than an error exit.
    assert main(["verify", "--group", group]) == 0
    count = len(json.loads(capsys.readouterr().out)["checks"])
    replace_splitting_idempotent(monkeypatch, p, n, lambda rows: rows[1] * 2)
    assert failed_checks(group, capsys) == {"splitting_field_coherence"}
    assert main(["verify", "--group", group, "--format", "text"]) == 1
    report = capsys.readouterr().out.splitlines()
    assert len(report) == count + 2 and report[-1] == "overall: FAIL"
    assert "FAIL splitting_field_coherence: modulus" in "\n".join(report)


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


def _cyclic_groups_to_64():
    return [
        (p, n)
        for p in range(2, 64)
        if is_prime(p)
        for n in range(1, 7)
        if p**n <= verify.SPLIT_CHECK_LIMIT
    ]


def _coherence_verdicts(p, n):
    part = cyclic_group_spec(p, n)
    closed = cyclic_rational_pcis(p, n)
    return (
        verify._splitting_field_coherent(part, closed),
        verify_reference.splitting_field_coherent(part, closed),
    )


@pytest.mark.parametrize("p, n", _cyclic_groups_to_64())
def test_splitting_field_coherence_matches_reference(p, n):
    assert _coherence_verdicts(p, n) == (True, True)


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (2, 5), (5, 2), (7, 2)])
@pytest.mark.parametrize(
    "level, change, verdict",
    [
        pytest.param(0, lambda rows: rows[0], False, id="duplicated"),
        pytest.param(0, lambda rows: rows[1] * 2, False, id="scaled"),
        pytest.param(0, lambda rows: plus_phi_m(rows[1]), True, id="plus-phi-m"),
        pytest.param(1, lambda rows: rows[1] * 2, False, id="scaled-one-level-down"),
        # every check but the match with the extension children still passes
        pytest.param(1, lambda rows: rows[0], False, id="duplicated-one-level-down"),
    ],
)
def test_splitting_field_coherence_matches_reference_under_faults(
    p, n, level, change, verdict, monkeypatch
):
    replace_splitting_idempotent(monkeypatch, p, n - level, change)
    assert _coherence_verdicts(p, n) == (verdict, verdict)


def test_splitting_field_coherence_matches_reference_under_flipped_table(monkeypatch):
    flip_c8_zeta_table_entry(monkeypatch)
    assert _coherence_verdicts(2, 3) == (False, False)


@pytest.mark.parametrize("p, n", _cyclic_groups_to_64())
def test_extension_children_match_reference(p, n):
    # the same children in the same order, row for row: the stacked
    # children of the lifted level below, over den m, at both block sizes,
    # and each element's children formed as products
    m = p**n
    gen = GroupElement(cyclic_group_spec(p, n), (1,))
    want = [
        (c.nums * (m // c.den)).tolist()
        for eta in splitting_field_pcis(p, n - 1)
        for c in verify_reference.extension_children(lift_into_extension(eta), gen)
    ]
    lifted = diagram.lifted_rows(splitting_field_rows(p, n - 1), p)
    for cells in KERNEL_BLOCK_CELLS:
        with patch.object(kernels, "_BLOCK_CELLS", cells):
            assert diagram.extension_rows(lifted, m // p, gen).tolist() == want

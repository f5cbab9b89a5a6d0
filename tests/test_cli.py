import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import cli_reference
import element_reference
from cli_reference import cyclo_json, json_text
from conftest import partitions
from pcikit import (
    AlgebraElement,
    CapExceededError,
    InconsistencyError,
    WedderburnProfile,
    build_pci_diagram,
    cli,
    kernels,
    parse_group_spec,
)
from pcikit.algebra import FractionList, are_orthogonal, fraction_strings, is_idempotent
from pcikit.cli import (
    CHUNK_CHARS,
    DEFAULT_MAX_ORDER,
    DENSE_MAX_COEFFICIENTS,
    DIAGRAM_MAX_ENTRIES,
    SPLIT_MAX_COEFFICIENTS,
    WEDDERBURN_MAX_ELEMENTS,
    RunConfig,
    build_parser,
    main,
    run,
    split_coefficient_count,
)
from pcikit.cyclotomic import CycloAlgebraElement
from pcikit.diagram import cross_prime_product
from pcikit.kernels import int_array
from pcikit.numtheory import is_prime


def run_json(subcommand, group, **kwargs):
    code, output = run(RunConfig(subcommand, group, **kwargs))
    return code, json.loads(output)


def test_pci_c2():
    code, data = run_json("pci", "2:[1]")
    assert code == 0
    assert data["count"] == 2
    assert data["pcis"][0]["coefficients"] == ["1/2", "1/2"]
    assert data["pcis"][1]["coefficients"] == ["1/2", "-1/2"]
    assert data["dimension_total"] == 2


def test_pci_round_trip_is_sound():
    code, data = run_json("pci", "2:[2];3:[1]")
    assert code == 0
    spec = parse_group_spec(data["group"])
    pcis = [
        element_reference.from_strings(spec, row["coefficients"]) for row in data["pcis"]
    ]
    total = AlgebraElement.zero(spec)
    for e in pcis:
        assert is_idempotent(e)
        total = total + e
    assert total == AlgebraElement.one(spec)
    for i in range(len(pcis)):
        for j in range(i + 1, len(pcis)):
            assert are_orthogonal(pcis[i], pcis[j])


def test_wedderburn_rows():
    code, data = run_json("wedderburn", "3:[2,1]")
    assert code == 0
    rows = data["parts"][0]["rows"]
    assert [(r["r"], r["census"]) for r in rows] == [(0, 1), (1, 4), (2, 3)]
    assert all(r["agree"] for r in rows)


def test_diagram_dot_c3c3():
    code, output = run(RunConfig("diagram", "3:[1,1]", output_format="dot"))
    assert code == 0
    # 8 nodes across ranks of sizes 1, 2, 5
    assert output.count("label=") == 8
    assert output.count("rank=same") == 3


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_diagram_forms_no_leaf_kernel_or_numerators(fmt, monkeypatch):
    # diagram prints the factored forms only; the numerator blocks read off
    # the leaf characters are for pci, verify and the tests.
    from pcikit.diagram import PciDiagram

    def refuse(diagram, leaves):
        raise AssertionError("a leaf was expanded")

    monkeypatch.setattr(PciDiagram, "leaf_rows", refuse)
    group = "2:[2,2];3:[1]"  # one split of C_4 x C_4 scans for its witness
    assert run(RunConfig("diagram", group, output_format=fmt))[0] == 0
    with pytest.raises(AssertionError, match="a leaf was expanded"):
        run(RunConfig("pci", group))


def test_diagram_json_levels():
    code, data = run_json("diagram", "3:[1,1]")
    assert code == 0
    assert data["parts"][0]["level_sizes"] == [1, 2, 5]


def test_split_c4():
    code, data = run_json("split", "2:[2]")
    assert code == 0
    assert data["modulus"] == 4
    assert data["orbits"] == [[0], [1, 3], [2]]
    assert data["matches_closed_form"] is True
    assert len(data["splitting_pcis"]) == 4
    assert data["rational_pcis"][1] == ["1/2", "0/1", "-1/2", "0/1"]


def test_split_requires_cyclic_prime_power():
    from pcikit import GroupSpecError

    with pytest.raises(GroupSpecError):
        run(RunConfig("split", "2:[1,1]"))
    with pytest.raises(GroupSpecError):
        run(RunConfig("split", "2:[1];3:[1]"))


def test_verify_passes():
    for group in ("2:[2]", "3:[1,1]", "2:[2];3:[1]"):
        code, data = run_json("verify", group)
        assert code == 0
        assert data["status"] == "pass"
        assert all(c["status"] == "pass" for c in data["checks"])


def test_verify_includes_cyclic_checks():
    code, data = run_json("verify", "2:[2]")
    names = [c["name"] for c in data["checks"]]
    assert "cyclic_closed_form" in names
    assert "splitting_field_coherence" in names


def test_verify_alternate_order():
    code, data = run_json("verify", "2:[2,2]", alternate_order=True)
    assert code == 0
    names = [c["name"] for c in data["checks"]]
    assert "alternate_order_soundness" in names


def test_verify_checks_every_pair_and_vertex_above_order_512(capsys):
    assert main(["verify", "--group", "5:[1,1,1,1]"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 625 and data["check_level"] == "full"
    details = {c["name"]: c["detail"] for c in data["checks"]}
    assert details["engine_idempotency"] == "157 idempotents"
    assert details["engine_orthogonality"] == "12246 pairs checked (full)"
    diag = build_pci_diagram(parse_group_spec("5:[1,1,1,1]").parts[0])
    vertices = sum(diag.level_sizes())
    assert details["vertex_kernels"] == f"{vertices} vertices checked (full)"


def test_output_determinism():
    for sub, group in (("pci", "2:[2,1]"), ("diagram", "3:[1,1]"), ("wedderburn", "3:[2]")):
        first = run(RunConfig(sub, group))
        second = run(RunConfig(sub, group))
        assert first == second


def test_exit_codes_via_main(capsys):
    assert main(["pci", "--group", "2:[1]"]) == 0
    capsys.readouterr()
    assert main(["pci", "--group", "not-a-group"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["pci", "--group", "2:[13]"]) == 2  # exceeds default cap
    capsys.readouterr()
    assert main(["pci", "--group", "2:[2]", "--max-order", "2"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["unknown-subcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pci", "--group", "2:[1]", "--format", "dot"])
    assert exc.value.code == 2


def test_dot_rejected_outside_diagram():
    # RunConfig-level guard, independent of argparse choices
    assert main(["verify", "--group", "2:[1]"]) == 0


def test_text_formats_render():
    for sub in ("pci", "diagram", "wedderburn", "verify"):
        code, output = run(RunConfig(sub, "2:[2,1]", output_format="text"))
        assert code == 0
        assert "C_4 x C_2" in output
    code, output = run(RunConfig("split", "3:[1]", output_format="text"))
    assert code == 0
    assert "Q(zeta_3)" in output


def test_parser_defaults():
    ns = build_parser().parse_args(["pci", "--group", "2:[1]"])
    assert ns.format == "json" and ns.max_order == 4096


@pytest.mark.parametrize("subcommand", ["pci", "verify"])
@pytest.mark.parametrize("value", ["bogus", "numba"])
def test_backend_variable_is_ignored(subcommand, value, monkeypatch, capsys):
    # No product reads the environment: the old PCIKIT_BACKEND switch is inert.
    monkeypatch.delenv("PCIKIT_BACKEND", raising=False)
    assert main([subcommand, "--group", "2:[1]"]) == 0
    unset = capsys.readouterr()
    monkeypatch.setenv("PCIKIT_BACKEND", value)
    assert main([subcommand, "--group", "2:[1]"]) == 0
    out, err = capsys.readouterr()
    assert out == unset.out and out
    assert err == ""


def test_verify_builds_each_diagram_once(monkeypatch):
    from pcikit import diagram

    builds = []
    original = diagram.build_pci_diagram

    def counting(part, *args, **kwargs):
        builds.append(part.p)
        return original(part, *args, **kwargs)

    monkeypatch.setattr(diagram, "build_pci_diagram", counting)
    for group, primes in (("2:[2,1];3:[1]", [2, 3]), ("3:[2]", [3])):
        builds.clear()
        code, _ = run_json("verify", group)
        assert code == 0
        assert sorted(builds) == primes


def fresh_process(argv, timeout=20):
    """The CLI run in a separate process with a timeout, so a hang fails
    instead of stalling."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "pcikit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_closed_pipe_ends_quietly():
    # The reader takes 100 bytes of a several-MB output and closes the pipe:
    # the CLI stops writing, prints nothing to stderr and exits 141.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    argv = ["pci", "--group", "2:[1,1,1,1,1,1,1,1,1]"]
    with subprocess.Popen(
        [sys.executable, "-m", "pcikit.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert len(head) == 100 and head.startswith(b"{")
    assert (code, err) == (cli.EXIT_PIPE_CLOSED, b"")


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # The parser is built once per process.  A parse error, then calls of
    # different subcommands, must print what fresh processes print.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    assert build_parser() is build_parser()
    calls = [
        ["pci", "--bogus"],
        ["pci", "--group", "2:[1]"],
        ["wedderburn", "--group", "3:[1]", "--format", "text"],
        ["verify", "--group", "2:[1]", "--format", "dot"],
        ["pci", "--group", "2:[1];3:[1]", "--format", "text"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = fresh_process(argv, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def assert_refused_quickly(argv):
    proc = fresh_process(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 200


@pytest.mark.parametrize(
    "group",
    [
        "2:[2000000]",
        "2:[999999999999]",
        "2:[1];3:[999999999999]",
        "2:[13]",
        "618970019642690137449562111:[1]",  # the prime 2^89 - 1
        # literals past Python's 4300-digit limit for int()
        pytest.param("7" * 5000 + ":[1]", id="prime-literal-5000-digits"),
        pytest.param("2:[" + "1" * 5000 + "]", id="exponent-literal-5000-digits"),
        pytest.param("x" * 5000, id="malformed-part-5000-chars"),
    ],
)
def test_over_cap_exponent_exits_2_quickly(group):
    assert_refused_quickly(["pci", "--group", group])


@pytest.mark.parametrize("group", ["2:[9]", "3:[5]", "17:[2]", "211:[1]"])
def test_split_over_coefficient_limit_exits_2_quickly(group):
    assert_refused_quickly(["split", "--group", group])


def test_split_coefficient_limit_boundary():
    # C_{2^8}, the largest split that finishes, sits exactly on the limit;
    # C_199 is the largest prime order under it.
    assert split_coefficient_count(256) == SPLIT_MAX_COEFFICIENTS
    assert split_coefficient_count(199) <= SPLIT_MAX_COEFFICIENTS
    assert split_coefficient_count(211) > SPLIT_MAX_COEFFICIENTS


@pytest.mark.parametrize(
    "argv",
    [
        ["pci", "--group", "2:[40]", "--max-order", str(2**40)],
        ["verify", "--group", "2:[13]", "--max-order", str(2**13)],
    ],
)
def test_dense_work_over_coefficient_limit_exits_2_quickly(argv):
    # |G| records of |G| coefficients each are refused before any work.
    assert_refused_quickly(argv)
    config = RunConfig(argv[0], argv[2], max_order=int(argv[4]))
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="over the limit"):
        run(config)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("subcommand", ["pci", "verify"])
@pytest.mark.parametrize("group", ["2:[1,1,1,1,1,1,1,1,1,1,1,1]", "2:[6];3:[2];7:[1]"])
def test_dense_coefficient_limit_boundary(subcommand, group, monkeypatch):
    # Every order the default cap admits passes the limit; C_2^12 sits on it.
    assert DENSE_MAX_COEFFICIENTS == DEFAULT_MAX_ORDER**2
    monkeypatch.setattr(cli, "part_diagrams", lambda spec, alternate_order: [])
    monkeypatch.setattr(cli, "record_blocks", lambda spec, diagrams: iter(()))
    monkeypatch.setattr(cli, "run_checks", lambda spec, alternate_order: [])
    assert run(RunConfig(subcommand, group))[0] == 0


def _elementary(p, rank):
    return f"{p}:[{','.join(['1'] * rank)}]"


@pytest.mark.parametrize("group", [_elementary(2, 15), "2:[13]", "2:[12];3:[1]"])
def test_diagram_over_entry_limit_exits_2_quickly(group):
    # The kernels of each part are refused before any work; C_2^15 used to
    # end in a MemoryError traceback.  "2:[12];3:[1]" is 9 entries over.
    argv = ["diagram", "--group", group, "--max-order", str(2**62)]
    assert_refused_quickly(argv)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="kernel entries, over the limit"):
        run(RunConfig("diagram", group, max_order=2**62))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "group", [_elementary(2, 12), "2:[12]", "2:[6];3:[2];7:[1]", "2:[6];3:[6]"]
)
def test_diagram_entry_limit_boundary(group, monkeypatch):
    # Every order the default cap admits passes the limit; a part of order
    # 4096 sits exactly on it.
    assert DIAGRAM_MAX_ENTRIES == DEFAULT_MAX_ORDER**2
    monkeypatch.setattr(cli, "part_diagrams", lambda spec, alternate_order: [])
    assert run(RunConfig("diagram", group, max_order=2**62))[0] == 0


@pytest.mark.parametrize(
    "group",
    ["2:[60]", "2:[30]", "2:[21]", _elementary(2, 21), _elementary(2, 20) + ";3:[1]"],
)
def test_wedderburn_over_census_limit_exits_2_quickly(group):
    # The census enumerates every element; a raised cap no longer lets it
    # end in a numpy ValueError or MemoryError.
    argv = ["wedderburn", "--group", group, "--max-order", str(2**62)]
    assert_refused_quickly(argv)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="census elements, over the limit"):
        run(RunConfig("wedderburn", group, max_order=2**62))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "group", ["2:[20]", _elementary(2, 20), _elementary(2, 19) + ";3:[1]", "2:[12]"]
)
def test_wedderburn_census_limit_boundary(group, monkeypatch):
    # Every order the default cap admits passes the limit, far below it;
    # C_2^20 sits exactly on it.
    assert DEFAULT_MAX_ORDER < WEDDERBURN_MAX_ELEMENTS == 2**20
    monkeypatch.setattr(cli, "wedderburn_profile", lambda part: WedderburnProfile(part.p, 0, ()))
    assert run(RunConfig("wedderburn", group, max_order=2**62))[0] == 0


def test_untestable_prime_under_raised_cap_exits_2_quickly():
    # 2^89 - 1 lies above the range where is_prime is fast; the cap admits it.
    assert_refused_quickly(
        ["pci", "--group", "618970019642690137449562111:[1]", "--max-order", "1" + "0" * 27]
    )


# Quotes, backslashes, control characters, DEL and non-ASCII text.
json_text_st = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters())
)
json_scalar_st = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(min_value=-(2**100), max_value=2**100),
    json_text_st,
)
# Int tuples, possibly empty, drawn from few values so that they repeat;
# tuples that mix in bools equal to ints must not be taken for int tuples.
int_tuple_st = st.lists(
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(min_value=-(2**70), max_value=2**70)),
    max_size=4,
).map(tuple)
int_like_tuple_st = st.lists(
    st.one_of(st.sampled_from([0, 1, -1, True, False]), st.integers()), max_size=3
).map(tuple)
int_rows_st = st.one_of(
    st.lists(int_tuple_st, max_size=4), st.lists(int_tuple_st, max_size=4).map(tuple)
)
inline_value_st = st.one_of(
    st.booleans(), st.none(), int_tuple_st, int_like_tuple_st, int_rows_st
)
json_payload_st = st.recursive(
    st.one_of(json_scalar_st, int_tuple_st, int_like_tuple_st, int_rows_st),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(json_text_st, max_size=5),
        st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=5),
        st.dictionaries(json_text_st, children, max_size=5),
        st.dictionaries(json_text_st, inline_value_st, max_size=5),
    ),
    max_leaves=12,
)


# Dict values and list items that are a str, int, bool or None are written
# inline; containers go through the recursive writer.
INLINE_SCALARS = {
    "t": True, "f": False, "zero": 0, "neg": -5, "empty": "", "e": "\u00e9",
    "none": None,
}
# Equal as dict keys, but each is written by its items' own types.
EQUAL_KEY_TUPLES = {"a": (1, 2), "b": (True, 2)}
# One int tuple at several depths, written at each depth's indent.
TUPLE_AT_DEPTHS = {
    "t": (1, 2),
    "rows": [(1, 2), (), (True, 2), (1, 2)],
    "nested": {"t": (1, 2), "rows": ((1, 2), (3,)), "e": ()},
    "list": [(1, 2), [(1, 2)], {"t": (1, 2)}, ((1, 2), (True, 2))],
}


@given(json_payload_st)
@example(INLINE_SCALARS)
@example([INLINE_SCALARS, {"a": 1, "b": True}, {"s": "x", "i": -(2**70)}])
@example({"d": {}, "l": [], "nested": {"d": {}, "l": [], "t": ()}})
@example([{}, [], {"x": [{}]}])
@example(EQUAL_KEY_TUPLES)
@example([EQUAL_KEY_TUPLES, (1, 2), [(True, 2), (1, 2)]])
@example(TUPLE_AT_DEPTHS)
@example([(1, 2), ((1, 2),), [[(1, 2)]]])
@settings(max_examples=100, deadline=None)
def test_json_writer_matches_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2) + "\n"


# Numerators at and past the int64 edges, which FractionList keeps as Python
# ints; lists drawn from few values repeat them.
fraction_num_st = st.one_of(
    st.sampled_from([0, 1, -1, 2**63 - 1, -(2**63), 2**63, 2**64]),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**100), max_value=2**100),
)
fraction_den_st = st.one_of(
    st.just(1), st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2**80)
)


@given(
    st.lists(fraction_num_st, max_size=30),
    fraction_den_st,
    st.lists(st.sampled_from(["dict", "list"]), max_size=3),
)
@example([0, 1, -1, 1, 0, 2**63 - 1, -(2**63), 2**63, 2**64, 2**64, -1], 1, [])
@example([6, 6, -6, 0, 2**64, 2**63], 2**80 + 6, ["dict", "list", "dict"])
@example([], 5, ["list"])
@settings(max_examples=150, deadline=None)
def test_fraction_list_writer_matches_json_dumps(nums, den, nesting):
    # fraction_strings gives the exact strings.  A row of them, written as
    # pci writes a record's coefficients (FractionList.rows_text over the
    # quoted strings), is written as json.dumps writes the strings at every
    # depth, and as the text format joins them.
    strings = fraction_strings(nums, den)
    assert strings == [f"{f.numerator}/{f.denominator}" for f in (Fraction(v, den) for v in nums)]
    row = FractionList(int_array(nums).reshape(1, -1), den)

    def pieces(newline):
        inner = newline + "  "
        yield row.rows_text("," + inner, ["[" + inner], newline + "]", cli._quote) if nums else "[]"

    payload, plain = cli._Stream(pieces), strings
    for kind in nesting:
        if kind == "dict":
            payload, plain = {"c": payload, "n": 1}, {"c": plain, "n": 1}
        else:
            payload, plain = [payload, "x"], [plain, "x"]
    assert json_text(payload) == json.dumps(plain, indent=2) + "\n"
    if nums:
        assert row.rows_text(", ", ["x: "], ".") == "x: " + ", ".join(strings) + "."


# Splitting-field moduli m = p^n <= 64 (and m = 1) over small groups, with
# numerators at the int64 edges, so FractionList keeps some as Python ints.
@st.composite
def cyclo_elements(draw):
    spec = parse_group_spec(draw(st.sampled_from(["2:[1]", "3:[1]", "2:[1,1]"])))
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64]))
    size = spec.order * m
    value = st.sampled_from([0, 0, 1, -1, 2**63 - 1, 2**64])
    nums = draw(st.lists(value, min_size=size, max_size=size))
    den = draw(
        st.one_of(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=2**70))
    )
    return CycloAlgebraElement(spec, m, nums, den)


@given(cyclo_elements(), st.integers(min_value=1, max_value=3))
@example(CycloAlgebraElement(parse_group_spec("2:[1]"), 1, [2**64, -1], 3), 1)
@settings(max_examples=80, deadline=None)
def test_splitting_rows_writer_matches_json_dumps(e, per_block):
    # Three copies of e's reduced matrix, in blocks of per_block, are
    # written as json.dumps writes a list of three {"t", "coefficients":
    # cyclo_json(e)["coeffs"]} dicts, at the top level and at split's depth.
    den, flat = e.reduced()
    block = np.stack([flat.reshape(e.spec.order, -1)] * per_block)
    blocks = [(block, den)] * (3 // per_block) + [(block[:1], den)] * (3 % per_block)
    plain = [{"t": t, "coefficients": cyclo_json(e)["coeffs"]} for t in range(3)]
    rows = cli._Stream(lambda newline: cli._splitting_json(e.m, blocks, newline))
    assert json_text(rows) == json.dumps(plain, indent=2) + "\n"
    payload = {"splitting_pcis": rows, "modulus": e.m}
    expected = {"splitting_pcis": plain, "modulus": e.m}
    assert json_text(payload) == json.dumps(expected, indent=2) + "\n"


def _with_streams(obj, pick):
    # obj with each value that pick(value) chooses, in a dict or list at any
    # depth or the whole of obj, replaced by a _Stream that yields
    # json.dumps's text of the value a line at a time; the rest stay plain
    if pick(obj):
        first, *lines = json.dumps(obj, indent=2).split("\n")
        return cli._Stream(lambda newline: [first, *(newline + line for line in lines)])
    if type(obj) is dict:
        return {key: _with_streams(value, pick) for key, value in obj.items()}
    if type(obj) in (list, tuple):
        return type(obj)(_with_streams(item, pick) for item in obj)
    return obj


@given(json_payload_st, st.data())
@example({"empty": [], "nested": [[], {"l": [1, {"d": []}]}], "t": ([1], {"x": []})}, None)
@example([[["a", 1], [2]], {"d": {"e": {"f": [None]}}}], None)
@settings(max_examples=100, deadline=None)
def test_streams_are_spliced_at_every_depth(payload, data):
    # A _Stream, made while it is written, is written as the value it
    # stands for, nested in plain dicts and lists at every depth.  With no
    # data, every scalar and every empty container is one.
    def pick(obj):
        if data is None:
            return type(obj) not in (dict, list, tuple) or not obj
        return data.draw(st.booleans())

    assert json_text(_with_streams(payload, pick)) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"a": {1, 2}}, [b"bytes"], Fraction(1, 2), {1: "int key"}, [object()],
        {"x": 1.5}, [FractionList([1, 2], 3)],
    ],
)
def test_json_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        json_text(payload)


# md5 of the stdout of large outputs: the JSON writer, the coefficient
# strings and the cross-prime product must not move a byte of them.
PINNED_OUTPUT_MD5 = [
    ("pci", "2:[1,1,1,1,1,1,1,1,1]", "json", False, "fe666c1e8485e9639974eb5804c714eb"),
    ("diagram", "2:[1,1,1,1,1,1,1,1,1]", "json", False, "d3573f65e68bb5e74109823432ef0e04"),
    ("pci", "2:[1,1,1,1,1];3:[1,1,1]", "json", False, "dbe5874e5d482aee857cb56621c07855"),
    ("diagram", "2:[1,1,1,1,1];3:[1,1,1]", "json", False, "5d265e50388fc50a0bb649eded4395e0"),
    ("pci", "7:[2,2]", "text", False, "5112adf3d923c115854f663c0bef2964"),
    ("pci", "2:[3];3:[2];5:[1];7:[1]", "text", False, "74d57ec9ab090db6aad05b24ea941998"),
    ("pci", "2:[1,1,1,1,1];3:[1,1,1]", "text", False, "abc478922bbf8ae5e812fc2b4e9cc1ec"),
    ("split", "2:[6]", "json", False, "0ce14078ff04436384b961c3bf20b3f3"),
    ("split", "2:[7]", "json", False, "91425f50d9e8ba76cc7b090b7f2654cc"),
    ("split", "2:[8]", "json", False, "fa0b004b16c7e43b7d85c97beccc2a67"),
    ("split", "3:[4]", "json", False, "65565548f9b5236c619b50eb758e259c"),
    ("split", "5:[3]", "json", False, "8e43873c96438e5cc2022ec3c0723e68"),
    ("split", "7:[2]", "json", False, "a5f4b879896e7e4de5175ca721722565"),
    ("split", "7:[2]", "text", False, "fca1b5f931dbd44ce816915c304a4337"),
    ("verify", "2:[6]", "json", False, "bc97de423e29d325e6d3fd1575149ab9"),
    ("verify", "5:[2]", "text", False, "4f21b87dbaa53810ee34f30b6966697a"),
    ("pci", "2:[1,1,1,1,1,1,1,1,1]", "json", True, "e9bf00898469db21b79b4f621618fe56"),
    ("pci", "7:[2,2]", "json", False, "581c33fd589d331cf96b118e91202004"),
    ("pci", "3:[3,2,1]", "json", False, "5dc78c008b4e11ef5914de637d4a5dde"),
    ("diagram", "2:[1,1,1,1,1,1,1,1,1]", "dot", False, "ab8bb09fdf139c06322dbbc79bb512e2"),
    ("diagram", "2:[1,1,1,1,1,1,1,1,1]", "text", False, "11fbdf65bc966729041ad9738184ee12"),
    ("diagram", "2:[1,1,1,1,1];3:[1,1,1]", "dot", False, "7ab45e97c341b7d1eef592934e8815e1"),
    ("diagram", "2:[1,1,1,1,1];3:[1,1,1]", "text", False, "7cb6fa90caf9f63818989a99a8370598"),
]


def _pin_id(subcommand, group, output_format, alternate_order, md5):
    # the ids the pins had before the alternate_order column
    flags = ["alternate-order"] if alternate_order else []
    return "-".join([subcommand, group, output_format, *flags, md5])


@pytest.mark.parametrize(
    "subcommand, group, output_format, alternate_order, md5",
    PINNED_OUTPUT_MD5,
    ids=[_pin_id(*pin) for pin in PINNED_OUTPUT_MD5],
)
def test_large_outputs_are_pinned(subcommand, group, output_format, alternate_order, md5):
    config = RunConfig(
        subcommand, group, output_format=output_format, alternate_order=alternate_order
    )
    code, output = run(config)
    assert code == 0
    assert hashlib.md5(output.encode()).hexdigest() == md5


# -- streamed output ------------------------------------------------------

# Primary parts of order at most 9, so that the per-record reference, which
# expands every leaf by a subgroup closure, stays quick.
SMALL_PARTS = {
    2: ["[1]", "[2]", "[1,1]", "[2,1]", "[3]", "[1,1,1]"],
    3: ["[1]", "[2]", "[1,1]"],
    5: ["[1]"],
    7: ["[1]"],
}


@st.composite
def small_groups(draw):
    primes = draw(
        st.lists(st.sampled_from(sorted(SMALL_PARTS)), min_size=1, max_size=3, unique=True)
    )
    return ";".join(f"{p}:{draw(st.sampled_from(SMALL_PARTS[p]))}" for p in sorted(primes))


@given(
    small_groups(),
    st.booleans(),
    st.sampled_from(["json", "text"]),
    st.sampled_from([1, 50, 300, kernels._BLOCK_CELLS]),
)
@example("2:[2,1];3:[1]", True, "json", 1)
@example("2:[2,1];3:[1]", False, "json", 50)
@example("2:[1,1,1];3:[1,1];7:[1]", False, "text", 1)
@example("2:[3];3:[2];5:[1]", True, "json", 50)
@example("2:[1]", False, "json", kernels._BLOCK_CELLS)
@settings(max_examples=60, deadline=None)
def test_pci_chunks_match_per_record_reference(group, alternate, fmt, cells):
    # Blocks of at most `cells` entries, down to one row each, join to the
    # output of the per-record path, byte for byte.
    config = RunConfig("pci", group, output_format=fmt, alternate_order=alternate)
    with patch.object(kernels, "_BLOCK_CELLS", cells):
        code, pieces = cli._output(config)
        chunks = list(cli._chunks(pieces))  # as main writes them
    assert code == 0
    assert "".join(chunks) == cli_reference.pci_output(config)
    assert all(len(chunk) >= CHUNK_CHARS for chunk in chunks[:-1])


def test_object_row_formats_as_fraction_strings():
    # A numerator past int64 makes the cross-prime product an object row; a
    # block holding it formats each row as fraction_strings does.
    spec = parse_group_spec("2:[1];3:[1]")
    big = AlgebraElement(spec.parts[0], [2**64 + 1, -3], 5)
    small = AlgebraElement(spec.parts[1], [1, 2, -(2**62)], 7)
    [e] = cross_prime_product(spec, [[big], [small]])
    assert e.nums.dtype == object
    plain = AlgebraElement(spec, [0, 3, -3, 1, 2, 6], 4)
    block = np.stack([e.nums, plain.nums.astype(object)])
    text = FractionList(block, [e.den, plain.den]).rows_text(", ", ["a: ", "; b: "], ".")
    expected = [
        ", ".join(fraction_strings(x.nums, x.den))
        for x in (e, plain)
    ]
    assert text == f"a: {expected[0]}; b: {expected[1]}."
    exact = [Fraction(v, e.den) for v in e.nums.tolist()]
    assert expected[0] == ", ".join(f"{f.numerator}/{f.denominator}" for f in exact)


@pytest.mark.parametrize(
    "argv",
    [
        ["pci", "--group", "2:[2,1]"],
        ["pci", "--group", "2:[1];3:[1]", "--format", "text"],
        ["diagram", "--group", "2:[2,1]"],
        ["diagram", "--group", "2:[2,1]", "--format", "dot"],
        ["verify", "--group", "2:[2]"],
    ],
)
def test_failed_build_writes_nothing(argv, monkeypatch, capsys):
    # The diagram is built before the first byte is written.
    from pcikit import diagram

    def broken(*args, **kwargs):
        raise InconsistencyError("chain generator does not extend the subgroup")

    monkeypatch.setattr(diagram, "build_pci_diagram", broken)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "verification error: chain generator does not extend the subgroup\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["pci", "--group", "2:[13]"],
        ["pci", "--group", "2:[40]", "--max-order", str(2**40)],
        ["split", "--group", "2:[9]"],
        ["diagram", "--group", "2:[13]", "--max-order", str(2**13), "--format", "dot"],
    ],
)
def test_refusal_writes_nothing(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class _Recorder:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):  # main flushes stdout once its writes are done
        pass


@pytest.mark.parametrize(
    "argv, small",
    [
        (["pci", "--group", "2:[1];3:[1]"], True),
        (["split", "--group", "3:[2]", "--format", "text"], True),
        (["pci", "--group", "2:[1,1,1,1,1,1,1,1]"], False),
        (["pci", "--group", "2:[1,1,1,1,1,1,1,1]", "--format", "text"], False),
        (["diagram", "--group", "2:[1,1,1,1,1,1,1,1,1]"], False),
        (["split", "--group", "2:[5]"], False),
    ],
)
def test_main_writes_chunks_of_at_least_chunk_chars(argv, small, monkeypatch):
    # A small output is one write; a large one goes out in several, each but
    # the last at least CHUNK_CHARS long, and they join to run's text.
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(argv) == 0
    chunks = recorder.chunks
    assert (len(chunks) == 1) == small
    assert all(len(chunk) >= CHUNK_CHARS for chunk in chunks[:-1])
    options = dict(zip(argv[1::2], argv[2::2]))
    fmt = options.get("--format", "json")
    config = RunConfig(argv[0], options["--group"], output_format=fmt)
    assert "".join(chunks) == run(config)[1]


class _Hasher:
    """A stdout stand-in that keeps only the md5 of what is written."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text):
        self.md5.update(text.encode())

    def flush(self):
        pass


CYCLIC_TO_128 = [
    f"{p}:[{n}]" for p in range(2, 128) if is_prime(p) for n in range(1, 8) if p**n <= 128
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("group", CYCLIC_TO_128)
def test_split_matches_per_element_reference(group, fmt, monkeypatch):
    # split's output, streamed from gathered blocks, equals the element by
    # element reference byte for byte; both are hashed as they are written.
    recorder = _Hasher()
    monkeypatch.setattr(sys, "stdout", recorder)
    code = main(["split", "--group", group, "--format", fmt])
    want_code, pieces = cli_reference.split_output(RunConfig("split", group, fmt))
    want = hashlib.md5()
    for piece in pieces:
        want.update(piece.encode())
    assert (code, recorder.md5.hexdigest()) == (want_code, want.hexdigest())


# Every primary part of order at most 81 for p = 2, 3, 5, 7 and 11, for the
# per-vertex diagram reference.
DIAGRAM_PARTS = {
    p: [
        f"{p}:[{','.join(map(str, part))}]"
        for n in range(1, 7)
        if p**n <= 81
        for part in partitions(n)
    ]
    for p in (2, 3, 5, 7, 11)
}


@st.composite
def diagram_groups(draw):
    primes = draw(st.sets(st.sampled_from(sorted(DIAGRAM_PARTS)), min_size=1, max_size=3))
    return ";".join(draw(st.sampled_from(DIAGRAM_PARTS[p])) for p in sorted(primes))


@given(diagram_groups(), st.booleans(), st.sampled_from(["json", "text", "dot"]))
@example("2:[2,1];3:[1,1]", True, "json")
@example("2:[2,2,2];3:[2,2];7:[2]", False, "dot")
@example("2:[1,1,1,1,1,1];3:[4]", True, "text")
@example("3:[2,1,1];5:[1,1];11:[1]", False, "json")
@settings(max_examples=60, deadline=None)
def test_diagram_chunks_match_per_vertex_reference(group, alternate, fmt):
    # What main writes, read off the columns, is the output of the
    # per-vertex path, byte for byte.
    flags = ["--format", fmt, "--max-order", str(10**6)]
    flags += ["--alternate-order"] if alternate else []
    recorder = _Recorder()
    with patch.object(sys, "stdout", recorder):
        assert main(["diagram", "--group", group, *flags]) == 0
    config = RunConfig("diagram", group, fmt, 10**6, alternate)
    assert "".join(recorder.chunks) == cli_reference.diagram_output(config)
    assert all(len(chunk) >= CHUNK_CHARS for chunk in recorder.chunks[:-1])


GUARD_GROUP = "2:[2,1];3:[1,1]"


@pytest.mark.parametrize(
    "argv",
    [
        ["pci"],
        ["pci", "--format", "text"],
        ["diagram"],
        ["diagram", "--format", "text"],
        ["diagram", "--format", "dot"],
        ["verify"],
        ["verify", "--alternate-order"],
    ],
)
def test_cli_builds_no_vertex_object(argv, monkeypatch, capsys):
    # The commands read the diagrams' columns; only PciDiagram.levels, for
    # the library and the tests, builds PciVertex objects.
    from pcikit.diagram import PciVertex

    built = []
    original = PciVertex.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PciVertex, "__init__", counting)
    assert main([argv[0], "--group", GUARD_GROUP, *argv[1:]]) == 0
    assert built == []
    build_pci_diagram(parse_group_spec(GUARD_GROUP).parts[0]).levels
    assert built  # the counter sees the vertices that are built


FUZZ_FORMATS = {
    "pci": ("json", "text"),
    "diagram": ("json", "text", "dot"),
    "wedderburn": ("json", "text"),
    "split": ("json", "text"),
    "verify": ("json", "text"),
}
MALFORMED_PARTS = [
    "", "2", "2:", "2:[]", "2:[0]", "2:[-1]", "2:[1", "2:1]", ":[1]", "[1]",
    "2:[1,,1]", "2:[1,]", "2:[a]", "2;[1]", "2:(1)", "0:[1]", "1:[1]", "4:[1]",
    "9:[1]", "02:[01]", "2 :[ 1 ]", "2:[1]x", "٣:[1]",
]
OVER_CAP_PARTS = ["2:[13]", "2:[6,7]", "3:[8]", "4099:[1]", "2:[99999999999999999999]"]


@st.composite
def group_texts(draw, max_order=64):
    """Texts in and around the group grammar: one to three prime parts of
    total order at most max_order, now and then a part over the default cap
    or a malformed piece, joined by ';' (a prime drawn twice is an error
    too)."""
    pieces, order = [], 1
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 61]), min_size=1, max_size=3)):
        room = 0  # the largest total exponent that keeps the order <= max_order
        while order * p ** (room + 1) <= max_order:
            room += 1
        if room:
            exps = draw(st.lists(st.integers(1, room), min_size=1, max_size=room))
            while sum(exps) > room:
                exps.pop()
            exps = exps or [1]
            order *= p ** sum(exps)
            pieces.append(f"{p}:[{','.join(map(str, exps))}]")
    if draw(st.integers(0, 7)) == 0:
        pieces.append(draw(st.sampled_from(OVER_CAP_PARTS)))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(MALFORMED_PARTS))
        pieces.insert(draw(st.integers(0, len(pieces))), bad)
    return ";".join(draw(st.permutations(pieces)))


class _Digest:
    """A stdout that keeps only the md5 of the text written to it."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text):
        self.md5.update(text.encode())

    def flush(self):
        pass


def assert_fuzz_case(group, subcommand, data, flags=()):
    # the text exits 0, or 2 with nothing on stdout; the same twice, and
    # never 1 (a fault of the engine) or a traceback.  A run that exits 0
    # takes at most 60 s, one that exits 2 less than 1 s.
    if data is None:
        fmt, alternate = "json", False
    else:
        fmt = data.draw(st.sampled_from(FUZZ_FORMATS[subcommand]))
        alternate = subcommand in ("pci", "diagram", "verify") and data.draw(st.booleans())
    argv = [subcommand, "--group", group, "--format", fmt, *flags]
    argv += ["--alternate-order"] if alternate else []
    runs = []
    for _ in range(2):
        out, err = _Digest(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        seconds = time.perf_counter() - start
        assert seconds <= 60 if code == 0 else seconds < 1, (argv, code, seconds)
        runs.append((code, out.md5.hexdigest(), err.getvalue()))
    code, out, err = runs[0]
    event(f"exit {code}")
    assert code in (0, 2) and "Traceback" not in err, (argv, err)
    assert code == 0 or (out == hashlib.md5().hexdigest() and err.startswith("error: ")), argv
    assert runs[1] == runs[0], argv


@given(group_texts(), st.sampled_from(sorted(FUZZ_FORMATS)), st.data())
@example("2:[1,1,1];3:[1]", "verify", None)
@example("2:[1];2:[1]", "pci", None)
@example("2:[13]", "verify", None)
@settings(max_examples=100, deadline=None)
def test_group_grammar_fuzz(group, subcommand, data):
    assert_fuzz_case(group, subcommand, data)


RAISED_MAX_ORDER = 65536


# Under a raised cap the subcommands' own limits decide: pci and verify
# refuse an order over 4096, diagram a primary part over 4096, split a
# cyclic group over C_256 (2:[8] sits on its limit), and wedderburn admits
# all of them.
@given(group_texts(RAISED_MAX_ORDER), st.sampled_from(sorted(FUZZ_FORMATS)), st.data())
@example("2:[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]", "wedderburn", None)
@example("2:[1,1,1,1,1,1,1,1,1,1,1,1,1]", "verify", None)
@example("2:[1,1,1,1,1,1,1,1,1,1,1,1,1]", "diagram", None)
@example("2:[1,1,1,1,1,1,1,1,1,1,1,1];3:[1,1]", "diagram", None)
@example("2:[9]", "split", None)
@example("2:[6];3:[2];7:[1]", "pci", None)
@settings(max_examples=100, deadline=None)
def test_group_grammar_fuzz_at_a_raised_cap(group, subcommand, data):
    assert_fuzz_case(group, subcommand, data, ("--max-order", str(RAISED_MAX_ORDER)))

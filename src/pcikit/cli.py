"""Command-line front end: parse a group description, dispatch a
computation, and emit deterministic JSON/text/DOT, including the report of
the checks in verify.py.  Exit codes: 0 success, 1 verification failure,
2 invalid input, 141 (128 + SIGPIPE, what a shell reports for a process
that SIGPIPE ends) when the reader closes stdout before the output ends,
with nothing on stderr.

Each handler does every step that can fail, then returns its exit code and
its output as pieces of text that are made as they are consumed; main
writes them in chunks as they come, and run joins them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from typing import Iterable, Iterator

from .algebra import FractionList
from .diagram import (
    cyclic_rational_pcis,
    element_names,
    emit_dot,
    galois_orbit_sums,
    galois_orbits,
    kernel_generator_texts,
    part_diagrams,
    record_blocks,
    splitting_field_blocks,
    vertex_descriptions,
)
from .errors import (
    CapExceededError,
    GroupSpecError,
    InconsistencyError,
    InvariantError,
    SpecMismatchError,
    VerificationError,
)
from .groups import AbelianGroupSpec, parse_group_spec
from .numtheory import euler_phi, prime_power
from .oracle import compare_pci_sets, wedderburn_profile
from .verify import run_checks

DEFAULT_MAX_ORDER = 4096
# split of C_m builds m^2 * phi(m) reduced coefficients (JSON writes them all);
# C_{2^8}, with 2^23 of them, is the largest cyclic group whose split finishes.
SPLIT_MAX_COEFFICIENTS = 2**23
# verify holds |G| idempotents of |G| coefficients each, and pci writes as
# many (holding one block of rows at a time); C_2^12, the largest order the
# default cap admits, sits exactly on the limit.
DENSE_MAX_COEFFICIENTS = 2**24
# diagram holds one character row and five int64 columns per vertex.  Each
# level's witness scan, |G_l| entries per vertex that scans, below
# |P|^2 / p^2 in all for a primary part P (1,015,808 on 2:[2,2,2,2,2,2];
# none on C_2^12), is formed in pieces of at most kernels._BLOCK_CELLS
# cells, so the limit bounds its time rather than its memory.  A part of
# order 4096, the largest the default cap admits, sits exactly on it.
DIAGRAM_MAX_ENTRIES = 2**24
# wedderburn's census enumerates every element of each primary part.  On
# C_2^20, the costliest census the limit admits, that takes about 1 s and
# 214 MB peak as one process on 2 vCPUs, mostly 20 int64 digits an element.
WEDDERBURN_MAX_ELEMENTS = 2**20
# main joins the output's pieces into chunks of at least this many
# characters before it writes them, so that a small output is one write.
CHUNK_CHARS = 2**16
EXIT_PIPE_CLOSED = 141


@dataclasses.dataclass
class RunConfig:
    subcommand: str
    group_text: str
    output_format: str = "json"
    max_order: int = DEFAULT_MAX_ORDER
    alternate_order: bool = False


def _field_name(d: int) -> str:
    return "Q" if d == 1 else f"Q(zeta_{d})"


_quote = json.encoder.encode_basestring_ascii


def _json_chunks(payload) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n", byte for byte, in pieces: the
    text _write makes of payload, cut at each _Stream, whose text follows
    as it yields it."""
    out: list = []
    _write(payload, "\n", out)
    text: list[str] = []
    for part in out:
        if type(part) is str:
            text.append(part)
        else:  # a _Stream and the newline it starts on
            yield "".join(text)
            text = []
            yield from part[0].pieces(part[1])
    text.append("\n")
    yield "".join(text)


class _Stream:
    """A JSON value whose text is made while the output is written:
    pieces(newline) yields it for the newline of the line it starts on
    (see _write)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        self.pieces = pieces


def _inline(obj) -> str | None:
    """The text of obj when it is a str, int, bool or None; None for
    anything else."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    return None


def _write(obj, newline: str, out: list) -> None:
    # newline: a line break and the indent of the line obj starts on.  This
    # stands in for json.dumps(indent=2), whose pure-Python indent encoder
    # is 2-4 times slower on the small payloads.  It writes exact types:
    # dict (str keys), list, tuple, str, int, bool and None, and a _Stream,
    # left in out as (stream, newline) for _json_chunks to expand; any other
    # type raises TypeError.  Dict values and list items that _inline writes
    # in one piece take no recursive call.
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + _quote(key) + ": "
            text = _inline(value)
            if text is None:
                out.append(head)
                _write(value, inner, out)
            else:
                out.append(head + text)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {str} or kinds == {int}:  # one join, no call per item
            write = _quote if str in kinds else int.__repr__
            items = ("," + inner).join(map(write, obj))
            out.append("[" + inner + items + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            text = _inline(item)
            if text is None:
                out.append(sep)
                _write(item, inner, out)
            else:
                out.append(sep + text)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is _Stream:
        out.append((obj, newline))
    elif (text := _inline(obj)) is not None:
        out.append(text)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _payload(spec, **fields) -> dict:
    """A JSON payload: the group header, then the subcommand's fields."""
    return {
        "group": spec.spec_text(), "structure": str(spec), "order": spec.order, **fields
    }


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _title(spec) -> str:
    """The first line of text output."""
    return f"group {spec} ({spec.spec_text()}), order {spec.order}"


def _refuse_over(limit: int, count: int, what: str, unit: str = "coefficients") -> None:
    """Raise CapExceededError, before any work, when what needs more than
    limit units."""
    if count > limit:
        raise CapExceededError(f"{what} needs {count} {unit}, over the limit {limit}")


# -- pci ----------------------------------------------------------------


def _run_pci(config: RunConfig, spec: AbelianGroupSpec) -> tuple[int, Iterable[str]]:
    _refuse_over(DENSE_MAX_COEFFICIENTS, spec.order**2, f"pci of order {spec.order}")
    diagrams = part_diagrams(spec, config.alternate_order)
    leaves = [(d.spec.p, d.columns[-1].field_index.tolist()) for d in diagrams]
    count = math.prod(len(fields) for _, fields in leaves)
    # phi is multiplicative and the parts' quotient orders are coprime, so
    # the records' dimensions sum to the product of the parts' sums
    total = math.prod(sum(euler_phi(p**f) for f in fields) for p, fields in leaves)
    blocks = record_blocks(spec, diagrams)
    if config.output_format == "text":
        head = f"{_title(spec)}\n{count} primitive central idempotents\n"
        tail = f"dimension total {total}\n"
        return 0, itertools.chain([head], _pci_text(blocks), [tail])
    records = _Stream(functools.partial(_pci_json, blocks))
    return 0, _json_chunks(
        _payload(spec, count=count, pcis=records, dimension_total=total)
    )


@functools.cache  # one entry per quotient order met
def _record_field(d: int) -> tuple[str, int | None, int]:
    """The field name, field index and dimension of a record over Q(zeta_d)."""
    pp = prime_power(d)
    return _field_name(d), 0 if d == 1 else (pp[1] if pp else None), euler_phi(d)


def _pci_text(blocks) -> Iterator[str]:
    """Each block's lines "[i] field F dim D kernel K: c_0, c_1, ...", each
    ending in a newline: one FractionList per block."""
    for block in blocks:
        heads = []
        orders = zip(block.kernel_orders, block.quotient_orders)
        for i, (k, d) in enumerate(orders, block.start):
            name, _, dim = _record_field(d)
            head = f"[{i}] field {name} dim {dim} kernel {k}: "
            heads.append("\n" + head if heads else head)
        yield FractionList(block.nums, block.dens).rows_text(", ", heads, "\n")


_MARK = "\0"  # a str that no value written from a template holds


def _cut(obj, newline: str) -> list[str]:
    """The text _write makes of obj at newline, cut at each _MARK value
    (one piece for an obj without one)."""
    out: list = []
    _write(obj, newline, out)
    return "".join(out).split(_quote(_MARK))


def _record_template(newline: str, k: int, d: int) -> tuple[str, str, str]:
    """The JSON text of a pci record of kernel order k over Q(zeta_d) at
    newline, as _write writes its dict, cut at the index and at the
    coefficients: the text before the index, between the index and the
    first coefficient, and after the last coefficient."""
    name, index, dim = _record_field(d)
    record = {
        "index": _MARK,
        "coefficients": [_MARK],
        "kernel_order": k,
        "quotient_order": d,
        "field": name,
        "field_index": index,
        "dimension": dim,
    }
    return tuple(_cut(record, newline))


def _pci_json(blocks, newline: str) -> Iterator[str]:
    """The JSON list of the records of blocks, for the newline of the line
    it starts on (see _Stream): each record's text from _record_template,
    each block's coefficients from one FractionList."""
    inner = newline + "  "
    item = inner + "    "  # the indent of a record's coefficients
    templates: dict[tuple[int, int], tuple[str, str, str]] = {}
    close = "[" + inner  # the text before the next record
    for block in blocks:
        heads = []
        orders = zip(block.kernel_orders, block.quotient_orders)
        for i, (k, d) in enumerate(orders, block.start):
            if (k, d) not in templates:
                templates[k, d] = _record_template(inner, k, d)
            before, between, after = templates[k, d]
            heads.append(close + before + str(i) + between)
            close = after + "," + inner
        nums = FractionList(block.nums, block.dens)
        yield nums.rows_text("," + item, heads, after, _quote)
        close = "," + inner
    yield "[]" if close[0] == "[" else newline + "]"


# -- diagram ------------------------------------------------------------


def _levels_json(diag, newline: str) -> Iterator[str]:
    """The JSON list of diag's levels, each the list of its vertex dicts,
    for the newline of the line it starts on (see _Stream), a vertex at a
    time.  A vertex's text fills in the writer's text of a vertex dict (as
    a %-format: no key holds a %), its kernel generators from
    diagram.kernel_generator_texts over the texts of exponent tuples."""
    inner, vertex, key, item = (newline + "  " * i for i in range(1, 5))
    keys = "level index trivial kernel_generators primed kernel_order field_index"
    template = "%s".join(_cut(dict.fromkeys(keys.split(), _MARK), vertex))
    gen_names = element_names(diag, lambda exps: _cut(exps, item)[0])
    primed_names = element_names(diag, lambda exps: _cut(exps, key)[0])
    texts = kernel_generator_texts(diag, gen_names, "," + item)
    head = "[" + inner + "["  # the text before the next vertex
    for l, (level, gens) in enumerate(zip(diag.columns, texts)):
        cols = (c.tolist() for c in (level.primed, level.kernel_order, level.field_index))
        for i, (z, k, f, g) in enumerate(zip(*cols, gens)):
            yield head + vertex + template % (
                l, i, "false" if i else "true", f"[{item}{g}{key}]" if g else "[]",
                "null" if z < 0 else primed_names[z], k, f,
            )
            head = ","
        head = inner + "]," + inner + "["
    yield inner + "]" + newline + "]"


def _edges_json(diag, newline: str) -> Iterator[str]:
    """The JSON list of diag's edges [[l, parent], [l + 1, child]], for the
    newline of the line it starts on, a level at a time."""
    inner = newline + "  "
    template = "%s".join(_cut(((_MARK, _MARK), (_MARK, _MARK)), inner))
    sep = "[" + inner
    for l, level in enumerate(diag.columns[1:]):
        parents = enumerate(level.parent.tolist())
        yield sep + ("," + inner).join(template % (l, p, l + 1, i) for i, p in parents)
        sep = "," + inner
    yield "[]" if sep[0] == "[" else newline + "]"


def _part_json(diag) -> dict:
    """A part's diagram, its levels and edges made as they are written."""
    return {
        "p": diag.spec.p,
        "generators": [
            {"place": lab.place, "power": lab.power} for lab in diag.generator_labels
        ],
        "level_sizes": diag.level_sizes(),
        "levels": _Stream(functools.partial(_levels_json, diag)),
        "edges": _Stream(functools.partial(_edges_json, diag)),
    }


def _run_diagram(config: RunConfig, spec: AbelianGroupSpec) -> tuple[int, Iterable[str]]:
    _refuse_over(
        DIAGRAM_MAX_ENTRIES,
        sum(part.order**2 for part in spec.parts),
        f"diagram of order {spec.order}",
        "kernel entries",
    )
    diagrams = part_diagrams(spec, config.alternate_order)
    if config.output_format == "dot":
        return 0, emit_dot(diagrams)
    if config.output_format == "text":
        lines = [_title(spec)]
        for diag in diagrams:
            p = diag.spec.p
            lines.append(f"p={p}: level sizes {diag.level_sizes()}")
            *_, leaves = vertex_descriptions(diag)
            fields = diag.columns[-1].field_index.tolist()
            lines += [
                f"  leaf {i}: {desc} -> {_field_name(p**f)}"
                for i, (desc, f) in enumerate(zip(leaves, fields))
            ]
        return 0, ["\n".join(lines) + "\n"]
    parts = [_part_json(diag) for diag in diagrams]
    return 0, _json_chunks(_payload(spec, parts=parts))


# -- wedderburn ---------------------------------------------------------


def _run_wedderburn(config: RunConfig, spec: AbelianGroupSpec) -> tuple[int, Iterable[str]]:
    _refuse_over(
        WEDDERBURN_MAX_ELEMENTS,
        sum(part.order for part in spec.parts),
        f"wedderburn of order {spec.order}",
        "census elements",
    )
    parts = []
    for part in spec.parts:
        profile = wedderburn_profile(part)
        parts.append(
            {
                "p": profile.p,
                "exponent": profile.exponent,
                "rows": [dataclasses.asdict(row) for row in profile.rows],
            }
        )
    if config.output_format == "text":
        lines = [_title(spec)]
        for part in parts:
            lines.append(f"p={part['p']} (exponent {part['p']}^{part['exponent']})")
            lines.append("  r field        a b c census formula variant agree")
            for row in part["rows"]:
                lines.append(
                    f"  {row['r']} {_field_name(row['cyclotomic_order']):12} "
                    f"{row['a']} {row['b']} {row['c']} "
                    f"{row['census']:6} {row['formula']:7} "
                    f"{row['statement_variant']:7} "
                    f"{'yes' if row['agree'] else 'NO'}"
                )
        return 0, ["\n".join(lines) + "\n"]
    return 0, _json_chunks(_payload(spec, parts=parts))


# -- split --------------------------------------------------------------


def split_coefficient_count(m: int) -> int:
    """The number of reduced coefficients split builds for C_m."""
    return m * m * euler_phi(m)


def _run_split(config: RunConfig, spec: AbelianGroupSpec) -> tuple[int, Iterable[str]]:
    if len(spec.factor_orders) != 1:
        raise GroupSpecError("split requires a cyclic group of prime-power order")
    part = spec.parts[0]
    p, n, m = part.p, part.classes[0][0], part.order
    _refuse_over(SPLIT_MAX_COEFFICIENTS, split_coefficient_count(m), f"split of C_{m}")
    orbits = galois_orbits(m)
    collapsed = galois_orbit_sums(part, m, splitting_field_blocks(m))
    matches = compare_pci_sets(collapsed, cyclic_rational_pcis(p, n)).equal
    code = 0 if matches else 1
    if config.output_format == "text":
        lines = [
            f"group {spec}, splitting field Q(zeta_{m})",
            f"{m} splitting-field idempotents, {len(orbits)} Galois orbits",
        ]
        for orbit, e in zip(orbits, collapsed):
            lines.append(f"orbit {orbit}: " + ", ".join(e.to_strings()))
        lines.append(
            "collapse matches the rational closed form"
            if matches
            else "collapse DOES NOT match the rational closed form"
        )
        return code, ["\n".join(lines) + "\n"]
    # the idempotents' rows are reduced again, a block at a time, as they
    # are written
    rows = _Stream(functools.partial(_splitting_json, m, splitting_field_blocks(m)))
    payload = _payload(
        spec,
        prime=p,
        chain_length=n,
        modulus=m,
        splitting_pcis=rows,
        orbits=orbits,
        rational_pcis=[e.to_strings() for e in collapsed],
        matches_closed_form=matches,
    )
    return code, _json_chunks(payload)


def _splitting_json(m: int, blocks, newline: str) -> Iterator[str]:
    """The JSON list of the splitting idempotents {"t": t, "coefficients":
    [{"m": m, "coeffs": [...]}, ...]} over Q(zeta_m), for the newline of
    the line it starts on (see _Stream): one dict per row of each
    idempotent's reduced matrix, blocks yielding (those matrices for
    t = 0, 1, ... in stacks, their den).  Each idempotent's text fills in
    the writer's text of one sample idempotent of two rows, each block's
    coefficients from one FractionList."""
    inner = newline + "  "
    item = inner + "        "  # the indent of a row's coefficients
    row = {"m": m, "coeffs": [_MARK]}
    before, opened, between, after = _cut({"t": _MARK, "coefficients": [row, row]}, inner)
    close, t = "[" + inner, 0  # the text before the next idempotent
    for block, den in blocks:
        heads = []
        for _ in range(len(block)):
            heads += [close + before + str(t) + opened] + [between] * (block.shape[1] - 1)
            close, t = after + "," + inner, t + 1
        fractions = FractionList(block.reshape(-1, block.shape[2]), den)
        yield fractions.rows_text("," + item, heads, after, _quote)
        close = "," + inner
    yield "[]" if close[0] == "[" else newline + "]"


# -- verify -------------------------------------------------------------


def _run_verify(config: RunConfig, spec: AbelianGroupSpec) -> tuple[int, Iterable[str]]:
    # verify has one mode; "check level full" stays in both reports for
    # the programs that read them
    _refuse_over(DENSE_MAX_COEFFICIENTS, spec.order**2, f"verify of order {spec.order}")
    checks = run_checks(spec, config.alternate_order)
    ok = all(c.ok for c in checks)
    code = 0 if ok else 1
    if config.output_format == "text":
        lines = [f"{_title(spec)}, check level full"]
        for c in checks:
            line = f"{_status(c.ok).upper()} {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
        lines.append(f"overall: {_status(ok).upper()}")
        return code, ["\n".join(lines) + "\n"]
    rows = [
        {"name": c.name, "status": _status(c.ok), "detail": c.detail} for c in checks
    ]
    payload = _payload(spec, check_level="full", checks=rows, status=_status(ok))
    return code, _json_chunks(payload)


_HANDLERS = {
    "pci": _run_pci,
    "diagram": _run_diagram,
    "wedderburn": _run_wedderburn,
    "split": _run_split,
    "verify": _run_verify,
}


def _output(config: RunConfig) -> tuple[int, Iterable[str]]:
    """Execute one command up to its first byte of output; returns the exit
    code and the output text in pieces.  Everything that can raise (the
    parse, the caps, the diagram build, verify's checks, split's collapse)
    happens before this returns; making the pieces only formats."""
    if config.subcommand not in _HANDLERS:
        raise GroupSpecError(f"unknown subcommand {config.subcommand!r}")
    if config.output_format == "dot" and config.subcommand != "diagram":
        raise GroupSpecError("dot output is only available for the diagram subcommand")
    spec = parse_group_spec(config.group_text, config.max_order)
    return _HANDLERS[config.subcommand](config, spec)


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit code, output text)."""
    code, pieces = _output(config)
    return code, "".join(pieces)


def _chunks(pieces: Iterable[str]) -> Iterator[str]:
    """pieces joined into chunks of at least CHUNK_CHARS characters (the
    last one may be shorter)."""
    buf, size = [], 0
    for piece in pieces:
        buf.append(piece)
        size += len(piece)
        if size >= CHUNK_CHARS:
            yield "".join(buf)
            buf, size = [], 0
    if buf:
        yield "".join(buf)


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcikit",
        description=(
            "Exact primitive central idempotents of rational group algebras "
            "of finite abelian groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats=("json", "text"), alternate=False):
        sp.add_argument(
            "--group",
            required=True,
            help="group description, e.g. '2:[2,1]' for C_4 x C_2 or '2:[1];3:[2]'",
        )
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
        if alternate:
            sp.add_argument("--alternate-order", action="store_true")

    add_common(
        sub.add_parser("pci", help="primitive central idempotents with exact coefficients"),
        alternate=True,
    )
    add_common(
        sub.add_parser("diagram", help="full idempotent refinement diagram"),
        formats=("json", "text", "dot"),
        alternate=True,
    )
    add_common(sub.add_parser("wedderburn", help="component multiplicity table"))
    add_common(sub.add_parser("split", help="splitting-field idempotents and orbit collapse"))
    verify = sub.add_parser("verify", help="run the full cross-check suite")
    add_common(verify, alternate=True)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    config = RunConfig(
        subcommand=ns.command,
        group_text=ns.group,
        output_format=ns.format,
        max_order=ns.max_order,
        alternate_order=getattr(ns, "alternate_order", False),
    )
    try:
        code, pieces = _output(config)
    except (
        GroupSpecError,
        CapExceededError,
        SpecMismatchError,
        InvariantError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, VerificationError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    write = sys.stdout.write
    try:
        for chunk in _chunks(pieces):  # each written as soon as it is made
            write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull, so that the flush at
        # exit neither fails nor prints "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())

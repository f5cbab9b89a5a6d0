"""Command-line front end: parse a group description, dispatch a
computation, emit deterministic JSON/text/DOT, and run the verification
suite.  Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass

from .algebra import (
    AlgebraElement,
    are_orthogonal,
    expand_from_subgroup,
    is_idempotent,
    kernel_subgroup,
    subgroup_indices,
)
from .cyclotomic import CycloAlgebraElement
from .diagram import (
    alternate_generator_labels,
    build_pci_diagram,
    cyclic_rational_pcis,
    emit_dot,
    extension_children,
    galois_orbit_collapse,
    galois_orbits,
    leaf_records,
    lift_into_extension,
    pci_records,
    records_from_diagrams,
    splitting_field_pcis,
)
from .errors import (
    CapExceededError,
    ConfigError,
    GroupSpecError,
    InconsistencyError,
    InvariantError,
    SpecMismatchError,
    VerificationError,
)
from .groups import GroupElement, parse_group_spec, subgroup_closure
from .kernels import active_backend
from .numtheory import euler_phi, prime_power
from .oracle import compare_pci_sets, oracle_pci_set, wedderburn_profile

DEFAULT_MAX_ORDER = 4096
FULL_CHECK_LIMIT = 512  # beyond this, pairwise sweeps are sampled
_SAMPLE_SEED = 1729
_SAMPLE_PAIRS = 256
_SPLIT_CHECK_LIMIT = 64


@dataclass
class RunConfig:
    subcommand: str
    group_text: str
    output_format: str = "json"
    max_order: int = DEFAULT_MAX_ORDER
    check_level: str | None = None  # None: full up to FULL_CHECK_LIMIT, then sampled
    alternate_order: bool = False


def _field_name(d: int) -> str:
    return "Q" if d == 1 else f"Q(zeta_{d})"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _part_labels(part, alternate: bool):
    return alternate_generator_labels(part) if alternate else None


# -- pci ----------------------------------------------------------------


def _run_pci(config: RunConfig) -> tuple[int, str]:
    spec = parse_group_spec(config.group_text, config.max_order)
    records = pci_records(spec, alternate_order=config.alternate_order)
    rows = []
    for i, rec in enumerate(records):
        d = rec.quotient_order
        pp = prime_power(d)
        rows.append(
            {
                "index": i,
                "coefficients": rec.element.to_strings(),
                "kernel_order": rec.kernel_order,
                "quotient_order": d,
                "field": _field_name(d),
                "field_index": 0 if d == 1 else (pp[1] if pp else None),
                "dimension": euler_phi(d),
            }
        )
    payload = {
        "group": spec.spec_text(),
        "structure": str(spec),
        "order": spec.order,
        "count": len(records),
        "pcis": rows,
        "dimension_total": sum(row["dimension"] for row in rows),
    }
    if config.output_format == "text":
        lines = [
            f"group {payload['structure']} ({payload['group']}), order {payload['order']}",
            f"{payload['count']} primitive central idempotents",
        ]
        for row in rows:
            lines.append(
                f"[{row['index']}] field {row['field']} dim {row['dimension']} "
                f"kernel {row['kernel_order']}: " + ", ".join(row["coefficients"])
            )
        lines.append(f"dimension total {payload['dimension_total']}")
        return 0, "\n".join(lines) + "\n"
    return 0, _json_text(payload)


# -- diagram ------------------------------------------------------------


def _vertex_json(v) -> dict:
    return {
        "level": v.level,
        "index": v.index,
        "trivial": v.trivial,
        "kernel_generators": [list(g.exps) for g in v.form.kernel_gens],
        "primed": list(v.form.primed.exps) if v.form.primed is not None else None,
        "kernel_order": v.kernel_order,
        "field_index": v.field_index,
    }


def _run_diagram(config: RunConfig) -> tuple[int, str]:
    spec = parse_group_spec(config.group_text, config.max_order)
    diagrams = [
        build_pci_diagram(part, _part_labels(part, config.alternate_order))
        for part in spec.parts
    ]
    if config.output_format == "dot":
        return 0, emit_dot(diagrams)
    parts = []
    for part, diag in zip(spec.parts, diagrams):
        parts.append(
            {
                "p": part.p,
                "generators": [
                    {"place": list(lab.place), "power": lab.power}
                    for lab in diag.generator_labels
                ],
                "level_sizes": diag.level_sizes(),
                "levels": [[_vertex_json(v) for v in level] for level in diag.levels],
                "edges": [
                    [[pl, pi], [cl, ci]] for (pl, pi), (cl, ci) in diag.edges
                ],
            }
        )
    payload = {
        "group": spec.spec_text(),
        "structure": str(spec),
        "order": spec.order,
        "parts": parts,
    }
    if config.output_format == "text":
        lines = [
            f"group {payload['structure']} ({payload['group']}), order {payload['order']}"
        ]
        for part in parts:
            lines.append(f"p={part['p']}: level sizes {part['level_sizes']}")
            for v in part["levels"][-1]:
                if v["trivial"]:
                    desc = "trivial"
                else:
                    gens = ",".join(
                        "(" + ",".join(map(str, g)) + ")"
                        for g in v["kernel_generators"]
                    )
                    primed = "(" + ",".join(map(str, v["primed"])) + ")"
                    desc = f"K=<{gens}>; z={primed}"
                lines.append(
                    f"  leaf {v['index']}: {desc} -> "
                    f"{_field_name(part['p'] ** v['field_index'])}"
                )
        return 0, "\n".join(lines) + "\n"
    return 0, _json_text(payload)


# -- wedderburn ---------------------------------------------------------


def _run_wedderburn(config: RunConfig) -> tuple[int, str]:
    spec = parse_group_spec(config.group_text, config.max_order)
    parts = []
    for part in spec.parts:
        profile = wedderburn_profile(part)
        parts.append(
            {
                "p": profile.p,
                "exponent": profile.exponent,
                "rows": [
                    {
                        "r": row.r,
                        "cyclotomic_order": row.cyclotomic_order,
                        "a": row.a,
                        "b": row.b,
                        "c": row.c,
                        "census": row.census,
                        "formula": row.formula,
                        "statement_variant": row.statement_variant,
                        "agree": row.agree,
                    }
                    for row in profile.rows
                ],
            }
        )
    payload = {
        "group": spec.spec_text(),
        "structure": str(spec),
        "order": spec.order,
        "parts": parts,
    }
    if config.output_format == "text":
        lines = [
            f"group {payload['structure']} ({payload['group']}), order {payload['order']}"
        ]
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
        return 0, "\n".join(lines) + "\n"
    return 0, _json_text(payload)


# -- split --------------------------------------------------------------


def _run_split(config: RunConfig) -> tuple[int, str]:
    spec = parse_group_spec(config.group_text, config.max_order)
    if len(spec.parts) != 1 or len(spec.parts[0].classes) != 1 or spec.parts[0].classes[0][1] != 1:
        raise GroupSpecError("split requires a cyclic group of prime-power order")
    part = spec.parts[0]
    p, n = part.p, part.classes[0][0]
    m = part.order
    splitting = splitting_field_pcis(p, n, max_order=config.max_order)
    orbits = galois_orbits(m)
    collapsed = galois_orbit_collapse(splitting, m)
    closed = cyclic_rational_pcis(p, n)
    matches = compare_pci_sets(collapsed, closed).equal
    payload = {
        "group": spec.spec_text(),
        "structure": str(spec),
        "order": m,
        "prime": p,
        "chain_length": n,
        "modulus": m,
        "splitting_pcis": [
            {"t": t, "coefficients": [c.to_json() for c in e.coeffs]}
            for t, e in enumerate(splitting)
        ],
        "orbits": orbits,
        "rational_pcis": [e.to_strings() for e in collapsed],
        "matches_closed_form": matches,
    }
    code = 0 if matches else 1
    if config.output_format == "text":
        lines = [
            f"group {payload['structure']}, splitting field Q(zeta_{m})",
            f"{m} splitting-field idempotents, {len(orbits)} Galois orbits",
        ]
        for orbit, e in zip(orbits, collapsed):
            lines.append(f"orbit {orbit}: " + ", ".join(e.to_strings()))
        lines.append(
            "collapse matches the rational closed form"
            if matches
            else "collapse DOES NOT match the rational closed form"
        )
        return code, "\n".join(lines) + "\n"
    return code, _json_text(payload)


# -- verify -------------------------------------------------------------


def _orthogonality_pairs(count: int, mode: str) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    if mode == "sampled" and len(pairs) > _SAMPLE_PAIRS:
        rng = random.Random(_SAMPLE_SEED)
        pairs = sorted(rng.sample(pairs, _SAMPLE_PAIRS))
    return pairs


def _run_verify(config: RunConfig) -> tuple[int, str]:
    spec = parse_group_spec(config.group_text, config.max_order)
    mode = config.check_level or (
        "full" if spec.order <= FULL_CHECK_LIMIT else "sampled"
    )
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str | None = None):
        checks.append(
            {"name": name, "status": "pass" if ok else "fail", "detail": detail}
        )

    diagrams = [(part, build_pci_diagram(part)) for part in spec.parts]
    records = records_from_diagrams(spec, [diag for _, diag in diagrams])
    elements = [rec.element for rec in records]

    bad = [i for i, e in enumerate(elements) if not is_idempotent(e)]
    check(
        "engine_idempotency",
        not bad,
        f"failures at {bad}" if bad else f"{len(elements)} idempotents",
    )

    pairs = _orthogonality_pairs(len(elements), mode)
    bad_pair = next(
        (
            (i, j)
            for i, j in pairs
            if not are_orthogonal(elements[i], elements[j])
        ),
        None,
    )
    check(
        "engine_orthogonality",
        bad_pair is None,
        f"pair {bad_pair} not orthogonal"
        if bad_pair
        else f"{len(pairs)} pairs checked ({mode})",
    )

    total = AlgebraElement.zero(spec)
    for e in elements:
        total = total + e
    check("engine_sum_to_identity", total == AlgebraElement.one(spec), None)

    cmp = compare_pci_sets(elements, oracle_pci_set(spec))
    check(
        "engine_matches_oracle",
        cmp.equal,
        None
        if cmp.equal
        else f"witness on {cmp.witness_side} side: {cmp.witness.to_strings()}",
    )

    structure_ok = all(
        (v.trivial and v.form.primed is None) or (not v.trivial and v.form.primed is not None)
        for _, diag in diagrams
        for level in diag.levels
        for v in level
    )
    check("factored_form_structure", structure_ok, None)

    kernel_failures = []
    vertices = [
        (part, v) for part, diag in diagrams for level in diag.levels for v in level
    ]
    if mode == "sampled" and len(vertices) > _SAMPLE_PAIRS:
        rng = random.Random(_SAMPLE_SEED)
        vertices = rng.sample(vertices, _SAMPLE_PAIRS)
    for part, v in vertices:
        tracked = subgroup_closure(part, v.form.kernel_gens)
        if len(tracked) != v.kernel_order:
            kernel_failures.append((part.p, v.level, v.index, "size"))
            continue
        expansion = expand_from_subgroup(
            part, subgroup_indices(tracked), v.form.primed
        )
        if kernel_subgroup(expansion) != tracked:
            kernel_failures.append((part.p, v.level, v.index, "kernel"))
    check(
        "vertex_kernels",
        not kernel_failures,
        f"failures: {kernel_failures[:3]}"
        if kernel_failures
        else f"{len(vertices)} vertices checked ({mode})",
    )

    for part, diag in diagrams:
        profile = wedderburn_profile(part)  # raises on census disagreement
        leaf_counts = {r: 0 for r in range(profile.exponent + 1)}
        for v in diag.leaves:
            leaf_counts[v.field_index] += 1
        rows_ok = all(leaf_counts[row.r] == row.census for row in profile.rows)
        detail = "; ".join(
            f"r={row.r}: census={row.census} formula={row.formula} "
            f"variant={row.statement_variant}"
            for row in profile.rows
        )
        check(f"component_counts_p{part.p}", rows_ok, detail)

    if len(spec.parts) == 1 and len(spec.parts[0].classes) == 1 and spec.parts[0].classes[0][1] == 1:
        part = spec.parts[0]
        p, n = part.p, part.classes[0][0]
        closed = cyclic_rational_pcis(p, n)
        part_leaves = [rec.element for rec in leaf_records(diagrams[0][1])]
        check(
            "cyclic_closed_form",
            len(closed) == n + 1 and compare_pci_sets(closed, part_leaves).equal,
            f"{n + 1} idempotents",
        )
        if part.order <= _SPLIT_CHECK_LIMIT:
            m = part.order
            splitting = splitting_field_pcis(p, n)
            sound = all(e * e == e for e in splitting)
            sound = sound and all(
                (splitting[i] * splitting[j]).is_zero()
                for i in range(m)
                for j in range(i + 1, m)
            )
            ssum = splitting[0]
            for e in splitting[1:]:
                ssum = ssum + e
            sound = sound and ssum == CycloAlgebraElement.one(part, m)
            collapsed = galois_orbit_collapse(splitting, m)
            sound = sound and compare_pci_sets(collapsed, closed).equal
            if n >= 1:
                lifted = [
                    lift_into_extension(eta) for eta in splitting_field_pcis(p, n - 1)
                ]
                gen = GroupElement(part, (1,))
                children = [
                    child
                    for eta in lifted
                    for child in extension_children(eta, gen)
                ]
                sound = sound and Counter(
                    c.reduced() for c in children
                ) == Counter(e.reduced() for e in splitting)
            check("splitting_field_coherence", sound, f"modulus {m}")

    if config.alternate_order:
        alt = compare_pci_sets(
            [r.element for r in pci_records(spec, alternate_order=True)],
            oracle_pci_set(spec),
        )
        check("alternate_order_soundness", alt.equal, None)

    ok = all(c["status"] == "pass" for c in checks)
    payload = {
        "group": spec.spec_text(),
        "structure": str(spec),
        "order": spec.order,
        "check_level": mode,
        "checks": checks,
        "status": "pass" if ok else "fail",
    }
    code = 0 if ok else 1
    if config.output_format == "text":
        lines = [
            f"group {payload['structure']} ({payload['group']}), order {payload['order']}, "
            f"check level {mode}"
        ]
        for c in checks:
            line = f"{c['status'].upper():4} {c['name']}"
            if c["detail"]:
                line += f": {c['detail']}"
            lines.append(line)
        lines.append(f"overall: {payload['status'].upper()}")
        return code, "\n".join(lines) + "\n"
    return code, _json_text(payload)


_HANDLERS = {
    "pci": _run_pci,
    "diagram": _run_diagram,
    "wedderburn": _run_wedderburn,
    "split": _run_split,
    "verify": _run_verify,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit code, output text)."""
    if config.subcommand not in _HANDLERS:
        raise GroupSpecError(f"unknown subcommand {config.subcommand!r}")
    if config.output_format == "dot" and config.subcommand != "diagram":
        raise GroupSpecError("dot output is only available for the diagram subcommand")
    return _HANDLERS[config.subcommand](config)


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
    verify.add_argument("--check-level", choices=("full", "sampled"), default=None)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    config = RunConfig(
        subcommand=ns.command,
        group_text=ns.group,
        output_format=ns.format,
        max_order=ns.max_order,
        check_level=getattr(ns, "check_level", None),
        alternate_order=getattr(ns, "alternate_order", False),
    )
    try:
        active_backend()  # a bad PCIKIT_BACKEND is refused before any work
        code, output = run(config)
    except (
        GroupSpecError,
        CapExceededError,
        SpecMismatchError,
        InvariantError,
        ConfigError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, VerificationError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())

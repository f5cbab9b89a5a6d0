"""The per-record path `pci` took before it wrote stacked blocks, and the
per-vertex path of `diagram` before it read the diagram's columns, kept as
the references for their streamed output.

Each leaf is expanded from its factored form (algebra.expand_factored, a
subgroup closure per leaf), a multi-prime record is the np.multiply.outer
of one leaf per part on Python ints, and each record becomes one dict whose
coefficients are a 1-D FractionList, written by cli._json_text (JSON) or
joined line by line (text).  None of it shares the block producer
(diagram.record_blocks) or the stacked formatting of FractionList blocks.

The diagram reference reads the vertex objects of PciDiagram.levels and
the tuples of PciDiagram.edges: one dict per vertex and the edges as they
are, written by cli._json_text (JSON), one label per vertex from its
factored form (dot), and one line per leaf (text).  None of it shares the
column walk (diagram.kernel_generator_texts) or the vertex templates.
"""

import functools
import itertools
import math

import numpy as np

from pcikit.algebra import FractionList, expand_factored
from pcikit.cli import RunConfig, _field_name, _json_text, _payload, _title
from pcikit.diagram import part_diagrams
from pcikit.groups import parse_group_spec
from pcikit.numtheory import euler_phi, prime_power


def reference_records(diagrams) -> list[tuple[np.ndarray, int, int, int]]:
    """(numerators, denominator, kernel order, quotient order) of each
    record, in record order: itertools.product over the parts' leaves."""
    per_part = [
        [
            (expand_factored(v.form), v.kernel_order, d.spec.p**v.field_index)
            for v in d.leaves
        ]
        for d in diagrams
    ]
    records = []
    for combo in itertools.product(*per_part):
        nums = np.ones(1, dtype=object)
        for e, _, _ in combo:
            nums = np.multiply.outer(nums, e.nums.astype(object)).ravel()
        records.append(
            (
                nums,
                math.prod(e.den for e, _, _ in combo),
                math.prod(k for _, k, _ in combo),
                math.prod(q for _, _, q in combo),
            )
        )
    return records


def pci_output(config: RunConfig) -> str:
    """The output of `pci` for config, built record by record."""
    spec = parse_group_spec(config.group_text, config.max_order)
    records = reference_records(part_diagrams(spec, config.alternate_order))
    rows = []
    for i, (nums, den, kernel_order, d) in enumerate(records):
        pp = prime_power(d)
        rows.append(
            {
                "index": i,
                "coefficients": FractionList(nums, den),
                "kernel_order": kernel_order,
                "quotient_order": d,
                "field": _field_name(d),
                "field_index": 0 if d == 1 else (pp[1] if pp else None),
                "dimension": euler_phi(d),
            }
        )
    payload = _payload(
        spec,
        count=len(records),
        pcis=rows,
        dimension_total=sum(row["dimension"] for row in rows),
    )
    if config.output_format == "text":
        lines = [_title(spec), f"{payload['count']} primitive central idempotents"]
        for row in rows:
            lines.append(
                f"[{row['index']}] field {row['field']} dim {row['dimension']} "
                f"kernel {row['kernel_order']}: " + row["coefficients"].join(", ")
            )
        lines.append(f"dimension total {payload['dimension_total']}")
        return "\n".join(lines) + "\n"
    return _json_text(payload)


def _vertex_json(v) -> dict:
    return {
        "level": v.level,
        "index": v.index,
        "trivial": v.trivial,
        "kernel_generators": [g.exps for g in v.form.kernel_gens],
        "primed": v.form.primed.exps if v.form.primed is not None else None,
        "kernel_order": v.kernel_order,
        "field_index": v.field_index,
    }


def _vertex_label(spec, v, is_leaf: bool, name) -> str:
    # name: str of an element, formatted once per emit_dot call
    if v.trivial:
        label = "trivial"
    else:
        gens = ",".join(map(name, v.form.kernel_gens))
        label = f"K=<{gens}>; z={name(v.form.primed)}"
    if is_leaf:
        label += f"\\nQ(zeta_{spec.p ** v.field_index})"
    return label


def emit_dot(diagrams) -> str:
    """diagram.emit_dot, one label per vertex object."""
    out = ["digraph pci_diagram {\n  node [shape=box];\n"]
    name = functools.cache(str)
    clustered = len(diagrams) > 1
    for diagram in diagrams:
        p = diagram.spec.p
        indent = "  "
        if clustered:
            out.append(f'  subgraph cluster_p{p} {{\n    label="p={p} part";\n')
            indent = "    "
        last = len(diagram.levels) - 1
        for l, level in enumerate(diagram.levels):
            names = " ".join(f"p{p}_v{l}_{v.index};" for v in level)
            out.append(f"{indent}{{ rank=same; {names} }}\n")
            for v in level:
                label = _vertex_label(diagram.spec, v, l == last, name)
                out.append(f'{indent}p{p}_v{l}_{v.index} [label="{label}"];\n')
        if clustered:
            out.append("  }\n")
    for diagram in diagrams:
        p = diagram.spec.p
        out += [
            f"  p{p}_v{pl}_{pi} -> p{p}_v{cl}_{ci};\n"
            for (pl, pi), (cl, ci) in diagram.edges
        ]
    out.append("}\n")
    return "".join(out)


def diagram_output(config: RunConfig) -> str:
    """The output of `diagram` for config, built vertex by vertex."""
    spec = parse_group_spec(config.group_text, config.max_order)
    diagrams = part_diagrams(spec, config.alternate_order)
    if config.output_format == "dot":
        return emit_dot(diagrams)
    if config.output_format == "text":
        lines = [_title(spec)]
        for diag in diagrams:
            p = diag.spec.p
            lines.append(f"p={p}: level sizes {diag.level_sizes()}")
            for v in diag.leaves:
                if v.trivial:
                    desc = "trivial"
                else:
                    gens = ",".join(
                        "(" + ",".join(map(str, g.exps)) + ")" for g in v.form.kernel_gens
                    )
                    primed = "(" + ",".join(map(str, v.form.primed.exps)) + ")"
                    desc = f"K=<{gens}>; z={primed}"
                lines.append(f"  leaf {v.index}: {desc} -> {_field_name(p**v.field_index)}")
        return "\n".join(lines) + "\n"
    parts = [
        {
            "p": diag.spec.p,
            "generators": [
                {"place": lab.place, "power": lab.power} for lab in diag.generator_labels
            ],
            "level_sizes": diag.level_sizes(),
            "levels": [list(map(_vertex_json, level)) for level in diag.levels],
            "edges": diag.edges,
        }
        for diag in diagrams
    ]
    return _json_text(_payload(spec, parts=parts))

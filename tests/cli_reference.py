"""The per-record path `pci` took before it wrote stacked blocks, and the
per-vertex path of `diagram` before it read the diagram's columns, kept as
the references for their streamed output.

Each leaf is expanded from its factored form (algebra.expand_factored, a
subgroup closure per leaf), a multi-prime record is the np.multiply.outer
of one leaf per part on Python ints, and each record becomes one dict whose
coefficients are the list of their fraction_strings, written by json_text
(JSON) or joined line by line (text).  None of it shares the block producer
(diagram.record_blocks) or the stacked formatting of FractionList blocks.

The split reference builds one CycloAlgebraElement per splitting
idempotent from the character formula, writes each element's cyclo_json
coefficients as one dict in a plain list, and sums each Galois orbit on
the full lattice (lattice_sum), reading the rational sum back through the
element's reduction.  None of it shares the
gathered reduced blocks (diagram.splitting_field_blocks), the blocked orbit
sums (diagram.galois_orbit_sums) or the idempotent template of
cli._splitting_json.

The diagram reference reads the vertex objects of PciDiagram.levels and
the tuples of PciDiagram.edges: one dict per vertex and the edges as they
are, written by json_text (JSON), one label per vertex from its
factored form (dot), and one line per leaf (text).  None of it shares the
column walk (diagram.kernel_generator_texts) or the vertex templates.
"""

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from element_reference import rational_part
from pcikit.algebra import expand_factored, fraction_strings, lattice_sum
from pcikit.cli import RunConfig, _field_name, _json_chunks, _payload, _title
from pcikit.cyclotomic import CycloAlgebraElement
from pcikit.diagram import cyclic_rational_pcis, galois_orbits, part_diagrams
from pcikit.groups import parse_group_spec
from pcikit.numtheory import euler_phi, prime_power
from pcikit.oracle import compare_pci_sets


def cyclo_json(e: CycloAlgebraElement) -> dict:
    """{"m": m, "coeffs": [CycloNumber.to_json() of each coefficient]},
    formatted from the reduced matrix: an entry's lowest terms do not
    depend on the denominator it is stored over."""
    den, flat = e.reduced()
    deg = euler_phi(e.m)
    strings = fraction_strings(flat, den)
    return {
        "m": e.m,
        "coeffs": [
            {"m": e.m, "coeffs": strings[i : i + deg]} for i in range(0, len(strings), deg)
        ],
    }


def json_text(payload) -> str:
    """The JSON text cli writes for payload: json.dumps(payload, indent=2)
    plus a newline, byte for byte."""
    return "".join(_json_chunks(payload))


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
                "coefficients": fraction_strings(nums, den),
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
                f"kernel {row['kernel_order']}: " + ", ".join(row["coefficients"])
            )
        lines.append(f"dimension total {payload['dimension_total']}")
        return "\n".join(lines) + "\n"
    return json_text(payload)


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
    return json_text(_payload(spec, parts=parts))


def split_output(config: RunConfig) -> tuple[int, Iterator[str]]:
    """The exit code and output, in pieces, of `split` for config (a
    cyclic p-group), built element by element."""
    spec = parse_group_spec(config.group_text, config.max_order)
    part = spec.parts[0]
    p, n, m = part.p, part.classes[0][0], part.order
    k = np.arange(m)
    splitting = []
    for t in range(m):  # (1/m) sum_k zeta^(-t k) x^k
        nums = np.zeros(m * m, dtype=np.int64)
        nums[k * m + (-t * k) % m] = 1
        splitting.append(CycloAlgebraElement(part, m, nums, m))
    orbits = galois_orbits(m)
    collapsed = []
    for orbit in orbits:
        collapsed.append(rational_part(lattice_sum(splitting[t] for t in orbit)))
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
        return code, iter(["\n".join(lines) + "\n"])
    rows = [
        {"t": t, "coefficients": cyclo_json(e)["coeffs"]} for t, e in enumerate(splitting)
    ]
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

"""The per-record path `pci` took before it wrote stacked blocks, kept as the
reference for its streamed output.

Each leaf is expanded from its factored form (algebra.expand_factored, a
subgroup closure per leaf), a multi-prime record is the np.multiply.outer
of one leaf per part on Python ints, and each record becomes one dict whose
coefficients are a 1-D FractionList, written by cli._json_text (JSON) or
joined line by line (text).  None of it shares the block producer
(diagram.record_blocks) or the stacked formatting of FractionList blocks.
"""

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

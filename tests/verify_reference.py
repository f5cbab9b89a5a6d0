"""The vertex-kernel reference of the tests: each vertex's kernel span
closed from scratch, its expansion formed, and the stabiliser of that
expansion searched for and compared with the span.
verify.vertex_kernel_failures reuses spans across levels and tests only
whether the primed element lies in the span; the tests compare the two."""

from __future__ import annotations

import numpy as np

from pcikit.algebra import expansion_numerators, fixing_subgroup
from pcikit.diagram import PciVertex
from pcikit.groups import PrimaryGroupSpec, subgroup_closure


def vertex_kernel_failures(
    vertices: list[tuple[PrimaryGroupSpec, PciVertex]],
) -> list[tuple[int, int, int, str]]:
    """(p, level, index, what) for each (part, vertex) whose kernel
    generators do not span a subgroup of the recorded order ("size"), or
    span one that is not the stabiliser of the vertex's expansion
    ("kernel").  A primed element inside the span raises InvariantError,
    as the expansion does not exist."""
    failures = []
    for part, v in vertices:
        tracked = subgroup_closure(part, v.form.kernel_gens)
        if len(tracked) != v.kernel_order:
            failures.append((part.p, v.level, v.index, "size"))
            continue
        # the kernel of the expansion, read off its numerators: scaling by
        # the denominator does not change which translations fix it
        nums, _ = expansion_numerators(part, tracked, v.form.primed)
        if not np.array_equal(fixing_subgroup(part, nums), tracked):
            failures.append((part.p, v.level, v.index, "kernel"))
    return failures

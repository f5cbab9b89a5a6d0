"""The diagram reference of the tests: the refinement diagram built one
vertex at a time, with one witness test, coset span and membership test
per vertex and child.  build_pci_diagram batches these steps over each
level; the tests compare the two."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from element_reference import element_from_index
from pcikit.algebra import FactoredIdempotent
from pcikit.diagram import PciVertex, _validate_generator_order
from pcikit.errors import InconsistencyError
from pcikit.groups import (
    Enumeration,
    LongGenerator,
    PrimaryGroupSpec,
    element_index,
    embed_generator,
    enumeration,
    index_set,
    long_generator_sequence,
)


class ReferenceDiagram(NamedTuple):
    """What the tests compare with build_pci_diagram: its levels and edges,
    and each leaf's kernel as sorted element indices."""

    levels: tuple[tuple[PciVertex, ...], ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    leaf_kernels: tuple[np.ndarray, ...]


def _contains(subgroup: np.ndarray, idx) -> bool:
    return bool((subgroup == idx).any())


def split_witness(
    u: int, level: np.ndarray, kernel: np.ndarray, p: int, enum: Enumeration
) -> int | None:
    """Index of an element w of the coset u*G_l with w^p in K, or None.

    None means G_{l+1}/K stays cyclic: u^p generates the cyclic G_l/K.
    Otherwise w := u when u^p lies in K, else the first hit scanning the
    coset in the order of level."""
    up = enum.power(u, p)
    if _contains(kernel, up):
        return u
    quotient = len(level) // len(kernel)
    if not _contains(kernel, enum.power(up, quotient // p)):
        return None
    in_kernel = np.zeros(enum.order, dtype=bool)
    in_kernel[kernel] = True
    coset = enum.product(u, level)
    hits = np.flatnonzero(in_kernel[enum.power(coset, p)])
    if not hits.size:
        raise InconsistencyError("no coset witness despite a non-cyclic quotient")
    return int(coset[hits[0]])


def coset_span(kernel: np.ndarray, w: int, p: int, enum: Enumeration) -> np.ndarray:
    """The subgroup <K, w> as the sorted union of the cosets K*w^c, valid
    since w^p lies in K."""
    shifts = enum.power(w, np.arange(1, p)[:, None])
    members = np.zeros(enum.order, dtype=bool)
    members[kernel] = True
    members[enum.product(shifts[:, None], kernel)] = True
    return index_set(members)


def reference_diagram(
    spec: PrimaryGroupSpec,
    generator_labels: Sequence[LongGenerator] | None = None,
) -> ReferenceDiagram:
    """build_pci_diagram, one vertex and one child at a time."""
    if generator_labels is None:
        labels = long_generator_sequence(spec)
    else:
        labels = list(generator_labels)
        _validate_generator_order(spec, labels)
    gens = [embed_generator(spec, lab) for lab in labels]
    p = spec.p
    enum = enumeration(spec.factor_orders)

    root = PciVertex(0, 0, FactoredIdempotent(spec, ()), True, 1, 0)
    levels: list[tuple[PciVertex, ...]] = [(root,)]
    edges = []
    level = np.zeros(1, dtype=np.int64)
    kernels = {0: level}

    for l, gen in enumerate(gens):
        u = element_index(gen)
        next_level = coset_span(level, u, p, enum)
        if len(next_level) != p * len(level):
            raise InconsistencyError("chain generator does not extend the subgroup")
        nxt: list[PciVertex] = []
        next_kernels = {}

        def attach(parent, form, trivial, kernel_order, field_index, kernel):
            vertex = PciVertex(l + 1, len(nxt), form, trivial, kernel_order, field_index)
            nxt.append(vertex)
            next_kernels[vertex.index] = kernel
            edges.append(((l, parent.index), (l + 1, vertex.index)))

        for v in levels[l]:
            kernel = kernels[v.index]
            if v.trivial:
                form = FactoredIdempotent(spec, tuple(gens[: l + 1]))
                attach(v, form, True, v.kernel_order * p, 0, next_level)
                form = FactoredIdempotent(spec, v.form.kernel_gens, gen)
                attach(v, form, False, v.kernel_order, 1, kernel)
                continue
            z = v.form.primed
            w = split_witness(u, level, kernel, p, enum)
            if w is None:
                attach(v, v.form, False, v.kernel_order, v.field_index + 1, kernel)
                continue
            zi = element_index(z)
            for i in range(p):
                extra = int(enum.product(enum.power(zi, i), w))
                grown = coset_span(kernel, extra, p, enum)
                if len(grown) != p * len(kernel) or _contains(grown, zi):
                    raise InconsistencyError("split produced an invalid child kernel")
                gens_i = v.form.kernel_gens + (element_from_index(spec, extra),)
                form = FactoredIdempotent(spec, gens_i, z)
                attach(v, form, False, v.kernel_order * p, v.field_index, grown)
        levels.append(tuple(nxt))
        level = next_level
        kernels = next_kernels

    leaf_kernels = tuple(kernels[i] for i in range(len(levels[-1])))
    return ReferenceDiagram(tuple(levels), tuple(edges), leaf_kernels)

"""References of the tests for two of verify's checks.

The vertex-kernel reference closes each vertex's kernel span from scratch,
forms its expansion, and searches for the stabiliser of that expansion to
compare with the span.  verify.vertex_kernel_failures reuses spans across
levels and tests only whether the primed element lies in the span.

The splitting-field reference checks one element at a time: one
idempotency test per element, a lattice sum, the Galois collapse of the
elements, and the extension children formed as products and compared by
Counter.  verify._splitting_field_coherent checks one stack of rows.  The
tests compare the two."""

from __future__ import annotations

from collections import Counter

import numpy as np

from pcikit.algebra import (
    AlgebraElement,
    expansion_numerators,
    fixing_subgroup,
    lattice_sum,
)
from pcikit.cyclotomic import CycloAlgebraElement, CycloNumber
from pcikit.diagram import (
    PciVertex,
    galois_orbit_collapse,
    lift_into_extension,
    splitting_field_pcis,
)
from pcikit.errors import InconsistencyError, InvariantError
from pcikit.groups import (
    GroupElement,
    PrimaryGroupSpec,
    element_index,
    element_order,
    identity,
    subgroup_closure,
)
from pcikit.kernels import squares_to
from pcikit.oracle import compare_pci_sets


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


def _root_average_factor(
    spec: PrimaryGroupSpec, m: int, g: GroupElement, root_exp: int
) -> CycloAlgebraElement:
    """(1/p) * sum over c < p of (zeta^root_exp * g)^c."""
    p = spec.p
    nums = np.zeros(spec.order * m, dtype=np.int64)
    w = identity(spec)
    e = 0
    for _ in range(p):
        nums[element_index(w) * m + e] += 1
        w = w * g
        e = (e + root_exp) % m
    return CycloAlgebraElement(spec, m, nums, p)


def extension_children(
    eta: CycloAlgebraElement, top_gen: GroupElement
) -> list[CycloAlgebraElement]:
    """diagram.extension_children by products: eta times each of the p
    root-twisted averages of top_gen, eta's root exponent found by
    comparing its attached coefficient with each zeta^e, e divisible by p."""
    spec, m = eta.spec, eta.m
    p = spec.p
    if top_gen.spec != spec or element_order(top_gen) != spec.order:
        raise InvariantError("top generator must generate the whole group")
    if spec.order == p:
        if eta != CycloAlgebraElement.one(spec, m):
            raise InvariantError("the only level-0 idempotent is the identity")
        root_exp = 0
    else:
        attached = spec.order // p * eta.cyclo_coeff(element_index(top_gen**p))
        matches = [e for e in range(0, m, p) if CycloNumber.zeta(m, e) == attached]
        if len(matches) != 1:
            raise InvariantError("input is not a lifted splitting idempotent")
        root_exp = matches[0] // p
    step = m // p
    return [
        eta * _root_average_factor(spec, m, top_gen, (root_exp + i * step) % m)
        for i in range(p)
    ]


def splitting_field_coherent(
    part: PrimaryGroupSpec, closed: list[AlgebraElement]
) -> bool:
    """The verdict of verify's splitting_field_coherence check, one element
    at a time: every splitting idempotent squares to itself (squares_to on
    its lattice, else the product compared reduced), they sum to 1, their
    Galois collapse is the closed form `closed`, and the extension children
    of the level below are the same elements equally often.  A level below
    that extension_children refuses, or an orbit sum that is not rational,
    fails it."""
    p, n, m = part.p, part.classes[0][0], part.order
    splitting = splitting_field_pcis(p, n)
    if not all(
        squares_to(e.nums, e.den, e.lattice_orders) or e * e == e for e in splitting
    ):
        return False
    if lattice_sum(splitting) != CycloAlgebraElement.one(part, m):
        return False
    gen = GroupElement(part, (1,))
    try:
        collapsed = galois_orbit_collapse(splitting, m)
        children = [
            child
            for eta in splitting_field_pcis(p, n - 1)
            for child in extension_children(lift_into_extension(eta), gen)
        ]
    except (InconsistencyError, InvariantError):
        return False
    return compare_pci_sets(collapsed, closed).equal and Counter(children) == Counter(
        splitting
    )

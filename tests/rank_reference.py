"""The rank reference of the tests: the kernel, cyclic quotient and exact
component dimension of a primitive idempotent, the dimension taken as the
rank of its translates by fraction-free elimination.  It shares no code
with the diagram's bookkeeping, so the tests compare the two."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from element_reference import elements, translate
from pcikit.algebra import AlgebraElement, is_idempotent, kernel_subgroup
from pcikit.errors import InconsistencyError, InvariantError
from pcikit.numtheory import euler_phi, prime_power


def fraction_free_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination; all intermediate values stay integral."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            factor = m[i][col]
            for j in range(col, n_cols):
                m[i][j] = (pivot * m[i][j] - factor * m[rank][j]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


@dataclass(frozen=True)
class KernelInfo:
    """Kernel subgroup of an idempotent, as sorted element indices, plus
    the invariants of the simple component it generates.  The kernel is
    left out of == and hash, since arrays do not compare as one value."""

    kernel: np.ndarray = field(compare=False)
    quotient_order: int
    dim: int

    @property
    def field_index(self) -> int | None:
        """r with quotient order p^r, or None when it is not a prime power."""
        if self.quotient_order == 1:
            return 0
        pp = prime_power(self.quotient_order)
        return pp[1] if pp else None


def kernel_and_field(e: AlgebraElement) -> KernelInfo:
    """Kernel, cyclic quotient order and exact component dimension of a
    primitive idempotent; raises if e is not idempotent or not primitive."""
    if not is_idempotent(e):
        raise InvariantError("input is not an idempotent")
    spec = e.spec
    # the distinct translates of e span Q[G]e, so their rank is its dimension
    rows = dict.fromkeys(tuple(translate(g, e).nums.tolist()) for g in elements(spec))
    kernel = kernel_subgroup(e)
    quotient = spec.order // len(kernel)
    dim = fraction_free_rank(list(rows))
    if dim != euler_phi(quotient):
        raise InconsistencyError(
            f"component dimension {dim} != phi({quotient}); input is not primitive"
        )
    return KernelInfo(kernel, quotient, dim)

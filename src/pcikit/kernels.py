"""Integer convolution kernels behind the group-algebra product, and the
pointwise idempotency test.

Coefficient vectors are exact integers over a common denominator, held
as one integer array each (see int_array), so the algebra product is an
integer convolution over the mixed-radix element enumeration.  Two kernels
compute it, both exactly, and return an array:

* the direct kernel: numpy int64, one multiply-add per pair of nonzeros,
  whenever the bound on the result entries fits in int64;
* the bigint kernel: arbitrary-precision Python ints, when that bound does
  not fit in int64.

squares_to_rows, the idempotency test, forms no product: for each row x
of a stack it compares x*x with den*x pointwise on the group DFT of x over
F_q with q = 1 (mod exp G), one small DFT matrix per cyclic axis, modulo
one or two primes (Pollard, "The fast Fourier transform in a finite
field", Math. Comp. 1971).  Rows are transformed in blocks of a bounded
number of entries, the batch as the leading axis, and each row takes as
many primes as its own bound needs.  Only a row whose bound no transform
plan covers forms its square.
"""

from __future__ import annotations

import math
import operator
from functools import cache

import numpy as np

from .groups import enumeration
from .numtheory import factorize, is_prime

# pcikit does not use numba; perfbench/worker.py reports whether it imports.
try:
    import numba
except ImportError:
    numba = None

_INT64_MAX = 2**63 - 1
_MAX_DFT = 64  # largest DFT matrix side; longer cyclic axes are split four-step
_PLAN_PRIMES = 2
_BLOCK_CELLS = 2**18  # most matrix entries squares_to_rows transforms at once


def active_backend() -> str:
    """'numpy', the one direct kernel; perfbench/worker.py records it."""
    return "numpy"


# -- transform plan ------------------------------------------------------


def _axis_chunks(d: int) -> list[int] | None:
    """Split a cyclic axis of length d into DFT sizes of at most _MAX_DFT
    (largest first), or None when d has a prime factor above _MAX_DFT."""
    chunks = []
    while d > _MAX_DFT:
        c = next((k for k in range(_MAX_DFT, 1, -1) if d % k == 0), None)
        if c is None:
            return None
        chunks.append(c)
        d //= c
    return chunks + [d]


def _root_of_unity(q: int, order: int) -> int:
    """An element of exact multiplicative order `order` modulo the prime q."""
    primes = factorize(order)
    x = 2
    while True:
        w = pow(x, (q - 1) // order, q)
        if all(pow(w, order // r, q) != 1 for r in primes):
            return w
        x += 1


class TransformPlan:
    """Exact forward group DFT for one tuple of cyclic factor orders.

    The plan holds up to two primes q = 1 (mod lcm(orders)), the largest
    with d * (q-1)^2 < 2^63 for every DFT matrix side d, so an int64 matmul
    never overflows.  Each axis of length d is transformed by a d x d matrix
    mod q; an axis longer than 64 is split four-step (Cooley-Tukey:
    d = c * rest, a c x c DFT, a twiddle by w_d^(k*m), then the rest), so no
    matrix is larger than 64 x 64 and each twiddle table has d entries.  The
    spectrum comes out in a permuted order; a pointwise test needs no
    particular order.
    """

    def __init__(self, orders: tuple[int, ...], axes: list[list[int]]):
        dims = [c for chunks in axes for c in chunks]
        steps = []  # (matmul shape, twiddle shape or None, sub-axis length)
        pos = 0
        for chunks in axes:
            for i, c in enumerate(chunks):
                pre = math.prod(dims[:pos])
                post = math.prod(dims[pos + 1 :])
                rest = math.prod(chunks[i + 1 :])
                tshape = (pre, c, rest, post // rest) if rest > 1 else None
                steps.append(((pre, c, post), tshape, c * rest))
                pos += 1
        qmax = math.isqrt(_INT64_MAX // max([2, *dims])) + 1
        exponent = math.lcm(1, *orders)
        self.primes: tuple[int, ...] = ()
        k = (qmax - 1) // exponent
        while k > 0 and len(self.primes) < _PLAN_PRIMES:
            if is_prime(k * exponent + 1):
                self.primes += (k * exponent + 1,)
            k -= 1
        self.forward_steps = []
        for q in self.primes:
            w = _root_of_unity(q, exponent)
            fwd = []
            for shape, tshape, length in steps:
                c = shape[1]
                mat = _dft_matrix(q, pow(w, exponent // c, q), c)
                tw = None
                if tshape is not None:
                    tw = _twiddles(q, pow(w, exponent // length, q), c, length)
                fwd.append((shape, mat, tshape, tw))
            self.forward_steps.append(fwd)

    def primes_for(self, bound: int) -> int | None:
        """Fewest plan primes whose product exceeds 2 * bound, or None."""
        modulus = 1
        for count, q in enumerate(self.primes, 1):
            modulus *= q
            if 2 * bound < modulus:
                return count
        return None

    def forward(self, rows: np.ndarray, i: int) -> np.ndarray:
        """Spectrum of each row of an int64 matrix modulo the i-th prime.
        The rows are a leading batch axis: each step's matmul and twiddle
        broadcast over it."""
        q = self.primes[i]
        x = rows % q
        for (_, c, post), mat, tshape, tw in self.forward_steps[i]:
            x = np.matmul(mat, x.reshape(-1, c, post))
            x %= q
            if tw is not None:
                x = x.reshape(-1, *tshape[1:]) * tw
                x %= q
        return x.reshape(len(rows), -1)


def _dft_matrix(q: int, w: int, c: int) -> np.ndarray:
    """The c x c DFT matrix of the c-th root w mod q."""
    powers = np.array([pow(w, e, q) for e in range(c)], dtype=np.int64)
    return powers[np.outer(np.arange(c), np.arange(c)) % c]


def _twiddles(q: int, w: int, c: int, length: int) -> np.ndarray:
    """w^(k*m) for k < c, m < length // c, shaped to broadcast over the
    trailing axes."""
    powers = np.array([pow(w, e, q) for e in range(length)], dtype=np.int64)
    exps = np.outer(np.arange(c), np.arange(length // c))
    return powers[exps % length][..., None]


@cache
def transform_plan(orders: tuple[int, ...]) -> TransformPlan | None:
    """The transform plan for these orders, built on first use; None when an
    axis has a prime factor above 64 or no prime fits."""
    axes = [_axis_chunks(d) for d in orders]
    if any(a is None for a in axes):
        return None
    plan = TransformPlan(orders, axes)
    return plan if plan.primes else None


def int_array(values) -> np.ndarray:
    """values as the one numerator form: a 1-D int64 array when every
    |v| < 2^63, an object array of Python ints otherwise.  -2^63 counts as
    not fitting, so negating an int64 array and np.gcd on it stay exact, and
    equal values always give the same dtype.  Any other int64 array is
    returned as it is.  Each value must be an integer (operator.index): a
    float, Fraction or string raises TypeError.

    >>> int_array([3, -1]).dtype, int_array([2**63, 1]).dtype
    (dtype('int64'), dtype('O'))
    >>> int_array(np.array([5, 2**63], dtype=object)[:1]).dtype
    dtype('int64')
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        values = values if isinstance(values, (list, tuple)) else list(values)
        arr = np.array(values)  # int64 when every value is an int that fits
    if arr.dtype != np.int64:  # uint64, float64, object, ...: check each value
        exact = list(map(operator.index, values))
        try:
            arr = np.array(exact, dtype=np.int64)
        except OverflowError:
            return np.array(exact, dtype=object)
    if arr.size and arr.min() == -(2**63):
        return arr.astype(object)
    return arr


def max_abs(vec: np.ndarray) -> int:
    """max |v| over an integer array in the form int_array gives (so no
    int64 entry is -2^63), 0 when it is empty."""
    return int(np.abs(vec).max()) if vec.size else 0


def _row_norms(block: np.ndarray) -> tuple[list[int], list[int]]:
    """The exact l1 and max norms of each row of a 2-D integer array whose
    rows are in the form int_array gives."""
    mags = np.abs(block)
    linf = mags.max(axis=1)
    if block.dtype != object and int(linf.max()) > _INT64_MAX // block.shape[1]:
        mags = mags.astype(object)
    return mags.sum(axis=1).tolist(), linf.tolist()


def squares_to_rows(matrix, dens, orders: tuple[int, ...]) -> np.ndarray:
    """For each row x of matrix, over its denominator dens[i], whether
    x*x == den*x exactly (so whether x/den is idempotent), as a bool array.
    matrix is a 2-D integer array or a sequence of 1-D ones (see int_array),
    each of length prod(orders).  Rows are tested in blocks of at most
    _BLOCK_CELLS entries, stacked and transformed at once: each row is
    tested pointwise on its transform T(x) as T(x)^2 == den * T(x) modulo
    as many primes as its own bound needs, the second prime only for rows
    the first passed.

    Exactness: c = x*x - den*x is an integer vector with
    |c| <= B = l1(x)*max|x| + den*max|x|.  Each axis length divides q - 1,
    so the transform is invertible mod q, and T(c) = 0 (mod q) gives
    c = 0 (mod q).  Over primes with product above 2B, c = 0 (mod their
    product) forces c = 0.  For a row without such primes (no plan, or B
    too large) x*x is formed in full by convolve_ints.

    >>> squares_to_rows([[1, 1], [1, 1], [0, 0]], [2, 1, 5], (2,)).tolist()
    [True, False, True]
    """
    n = math.prod(orders)
    plan = transform_plan(orders)
    ok = np.ones(len(dens), dtype=bool)
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, len(dens), step):
        block = np.asarray(matrix[start : start + step])
        if block.shape[1:] != (n,):
            raise ValueError("coefficient vector length does not match the group order")
        block_dens = dens[start : start + step]
        # An entry beyond int64 puts B beyond every plan's primes.
        counts = [
            plan.primes_for(l1 * top + den * top) if plan else None
            for l1, top, den in zip(*_row_norms(block), block_dens)
        ]
        for r, count in enumerate(counts):
            if count is None:
                vals = block[r].tolist()
                square = convolve_ints(vals, vals, orders).tolist()
                ok[start + r] = square == [block_dens[r] * v for v in vals]
        for i, q in enumerate(plan.primes if plan else ()):
            sel = [
                r for r, count in enumerate(counts)
                if count is not None and count > i and ok[start + r]
            ]
            if not sel:
                break
            rows = block if len(sel) == len(block) else block[sel]
            x = plan.forward(rows.astype(np.int64, copy=False), i)
            square = x * x
            square %= q
            x *= np.array([block_dens[r] % q for r in sel], dtype=np.int64)[:, None]
            x %= q
            ok[start + np.array(sel)] = (square == x).all(axis=1)
    return ok


# -- direct and bigint kernels -------------------------------------------


def _convolve_direct(av, bv, orders) -> np.ndarray:
    """Direct int64 product; the caller has checked the int64 bound."""
    enum = enumeration(orders)
    # Loop over the nonzeros of the sparser operand (the product is
    # commutative); each is one gather over the nonzeros of the other.
    if np.count_nonzero(bv) < np.count_nonzero(av):
        av, bv = bv, av
    cols = np.flatnonzero(bv)
    b_cols, b_codes = bv[cols], enum.code[cols]
    out = np.zeros(av.shape[0], dtype=np.int64)
    for i in np.flatnonzero(av):
        out[enum.table[enum.code[i] + b_codes]] += av[i] * b_cols
    return out


def _convolve_bigint(a, b, orders) -> np.ndarray:
    # Arbitrary-precision fallback on lists of Python ints; only reached
    # when int64 bounds fail.
    enum = enumeration(orders)
    cols = np.array([j for j, bj in enumerate(b) if bj], dtype=np.int64)
    b_cols = [b[j] for j in cols.tolist()]
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in zip(enum.product(i, cols).tolist(), b_cols):
                out[k] += ai * bj
    return np.array(out, dtype=object)


def convolve_ints(a, b, orders: tuple[int, ...]) -> np.ndarray:
    """Exact convolution of two integer vectors (sequences or arrays, see
    int_array) over the abelian group with the given cyclic factor orders:
    an int64 array from the direct kernel, an object array of Python ints
    from the bigint kernel.

    Every entry of the result, and every partial sum on the way to it, is
    at most B = min(l1(a)*max|b|, l1(b)*max|a|) in absolute value.  When B
    fits in int64 the direct kernel computes it: one multiply-add per pair
    of nonzeros, indexed by the enumeration's carry-free product table.
    Otherwise the bigint kernel does.
    """
    n = math.prod(orders)
    av, bv = int_array(a), int_array(b)
    if len(av) != n or len(bv) != n:
        raise ValueError("coefficient vector length does not match the group order")
    (a1, b1), (a_inf, b_inf) = _row_norms(np.stack((av, bv)))
    if a1 == 0 or b1 == 0:
        return np.zeros(n, dtype=np.int64)
    if min(a1 * b_inf, b1 * a_inf) > _INT64_MAX:
        return _convolve_bigint(av.tolist(), bv.tolist(), orders)
    return _convolve_direct(av, bv, orders)

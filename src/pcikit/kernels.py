"""Integer convolution kernels behind the group-algebra product.

Coefficient vectors are exact integers over a common denominator, so the
algebra product is an integer convolution over the mixed-radix element
enumeration.  Three kernels compute it, all exactly:

* the transform path (the production path): the group DFT over F_q with
  q = 1 (mod exp G), one small DFT matrix per cyclic axis, a pointwise
  product and the inverse DFT, run modulo one or two primes and joined by
  symmetric CRT (Pollard, "The fast Fourier transform in a finite field",
  Math. Comp. 1971);
* the direct path: one pass over the nonzeros of the sparser operand,
  O(nnz * |G|), for sparse operands and for products whose bound the plan's
  primes do not cover.  PCIKIT_BACKEND picks its implementation: a
  numba-jitted loop (the default when numba imports) or pure numpy;
* the bigint path: arbitrary-precision Python ints, when the bound on the
  result entries does not fit in int64.

squares_to, the idempotency test, runs pointwise on one transform and forms
no product unless no plan covers its bound.

See benchmarks/bench_kernels.py for a timing of each path.
"""

from __future__ import annotations

import math
import os
from functools import cache

import numpy as np

from .errors import ConfigError
from .groups import enumeration
from .numtheory import factorize, is_prime

try:
    import numba
except ImportError:  # numba is an optional extra
    numba = None

BACKEND_ENV_VAR = "PCIKIT_BACKEND"
_BACKENDS = ("numba", "numpy")
_INT64_MAX = 2**63 - 1
_MAX_DFT = 64  # largest DFT matrix side; longer cyclic axes are split four-step
_PLAN_PRIMES = 2

_jitted_convolve = None


def active_backend() -> str:
    """Direct-kernel backend selected by PCIKIT_BACKEND: 'numba' (the
    default when numba imports) or 'numpy'.  Raises ConfigError for any
    other value, or for 'numba' when numba is not importable."""
    choice = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if choice in ("", "auto"):
        return "numba" if numba is not None else "numpy"
    if choice not in _BACKENDS:
        raise ConfigError(
            f"{BACKEND_ENV_VAR} must be 'numba' or 'numpy', got {choice!r}"
        )
    if choice == "numba" and numba is None:
        raise ConfigError(f"{BACKEND_ENV_VAR}=numba but numba is not importable")
    return choice


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
    """Exact group DFT for one tuple of cyclic factor orders.

    The plan holds up to two primes q = 1 (mod lcm(orders)), the largest
    with d * (q-1)^2 < 2^63 for every DFT matrix side d, so an int64 matmul
    never overflows.  Each axis of length d is transformed by a d x d matrix
    mod q; an axis longer than 64 is split four-step (Cooley-Tukey:
    d = c * rest, a c x c DFT, a twiddle by w_d^(k*m), then the rest), so no
    matrix is larger than 64 x 64 and each twiddle table has d entries.  The
    spectrum comes out in a permuted order that forward and inverse share,
    which is all a pointwise product needs.
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
        self.inverse_steps = []
        for q in self.primes:
            w = _root_of_unity(q, exponent)
            fwd, inv = [], []
            for shape, tshape, length in steps:
                c = shape[1]
                mat, mat_inv = _dft_matrices(q, pow(w, exponent // c, q), c)
                tw = tw_inv = None
                if tshape is not None:
                    tw, tw_inv = _twiddles(q, pow(w, exponent // length, q), c, length)
                fwd.append((shape, mat, tshape, tw))
                inv.append((shape, mat_inv, tshape, tw_inv))
            self.forward_steps.append(fwd)
            self.inverse_steps.append(inv[::-1])
        if len(self.primes) == 2:
            self._crt_inverse = pow(self.primes[0], -1, self.primes[1])

    def primes_for(self, bound: int) -> int | None:
        """Fewest plan primes whose product exceeds 2 * bound, or None."""
        modulus = 1
        for count, q in enumerate(self.primes, 1):
            modulus *= q
            if 2 * bound < modulus:
                return count
        return None

    def forward(self, vec: np.ndarray, i: int) -> np.ndarray:
        """Spectrum of an int64 vector modulo the i-th prime."""
        q = self.primes[i]
        x = vec % q
        for shape, mat, tshape, tw in self.forward_steps[i]:
            x = np.matmul(mat, x.reshape(shape)) % q
            if tw is not None:
                x = x.reshape(tshape) * tw % q
        return x.reshape(-1)

    def inverse(self, spec: np.ndarray, i: int) -> np.ndarray:
        """Vector in [0, q) whose spectrum modulo the i-th prime is spec."""
        q = self.primes[i]
        x = spec
        for shape, mat, tshape, tw in self.inverse_steps[i]:
            if tw is not None:
                x = x.reshape(tshape) * tw % q
            x = np.matmul(mat, x.reshape(shape)) % q
        return x.reshape(-1)

    def product(self, a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
        """Exact convolution from the spectra of both operands modulo the
        first len(a) primes, recovered by symmetric CRT; the caller has
        checked with primes_for that the result entries fit."""
        res = [
            self.inverse(x * y % q, i)
            for i, (q, x, y) in enumerate(zip(self.primes, a, b))
        ]
        if len(res) == 1:
            modulus, r = self.primes[0], res[0]
        else:
            q1, q2 = self.primes
            modulus = q1 * q2
            r = res[0] + q1 * ((res[1] - res[0]) % q2 * self._crt_inverse % q2)
        return np.where(r > modulus // 2, r - modulus, r)


def _dft_matrices(q: int, w: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The c x c DFT matrix of the c-th root w mod q, and its inverse."""
    powers = np.array([pow(w, e, q) for e in range(c)], dtype=np.int64)
    exps = np.outer(np.arange(c), np.arange(c))
    c_inv = pow(c, -1, q)
    return powers[exps % c], powers[-exps % c] * c_inv % q


def _twiddles(q: int, w: int, c: int, length: int) -> tuple[np.ndarray, ...]:
    """w^(k*m) and w^(-k*m) for k < c, m < length // c, shaped to broadcast
    over the trailing axes."""
    powers = np.array([pow(w, e, q) for e in range(length)], dtype=np.int64)
    exps = np.outer(np.arange(c), np.arange(length // c))
    return powers[exps % length][..., None], powers[-exps % length][..., None]


@cache
def transform_plan(orders: tuple[int, ...]) -> TransformPlan | None:
    """The transform plan for these orders, built on first use; None when an
    axis has a prime factor above 64 or no prime fits."""
    axes = [_axis_chunks(d) for d in orders]
    if any(a is None for a in axes):
        return None
    plan = TransformPlan(orders, axes)
    return plan if plan.primes else None


class Spectra:
    """An integer vector with its exact l1 and max norms, its int64 form
    (None when an entry does not fit) and its transform plan.  It computes
    and keeps no transform; modulo computes them afresh on each call."""

    __slots__ = ("plan", "vec", "l1", "linf", "nnz")

    def __init__(self, values, orders: tuple[int, ...]):
        n = len(values)
        try:
            vec = np.fromiter(values, dtype=np.int64, count=n)
        except OverflowError:
            vec = None
        if vec is None:
            self.linf = max(map(abs, values))
            self.nnz = n - values.count(0)
        else:
            self.linf = max(int(vec.max()), -int(vec.min()))
            self.nnz = int(np.count_nonzero(vec))
        if vec is not None and self.linf <= _INT64_MAX // n:
            self.l1 = int(np.abs(vec).sum())
        else:
            self.l1 = sum(map(abs, values))
        self.vec = vec
        self.plan = transform_plan(orders) if vec is not None else None

    def modulo(self, count: int) -> list[np.ndarray]:
        """Transforms modulo the first `count` plan primes."""
        return [self.plan.forward(self.vec, i) for i in range(count)]


def primes_needed(bound: int, *operands: Spectra) -> int | None:
    """Number of plan primes that recover an integer vector whose entries
    are at most `bound` in absolute value, or None when the transform path
    cannot (no plan, or the bound exceeds what the plan's primes cover)."""
    if any(s.plan is None for s in operands):
        return None
    return operands[0].plan.primes_for(bound)


def squares_to(values, den: int, orders: tuple[int, ...]) -> bool:
    """Whether x*x == den*x exactly for the integer vector x = values (so
    whether x/den is idempotent), tested pointwise on the transform T(x) as
    T(x)^2 == den * T(x) modulo every prime needed.

    Exactness: c = x*x - den*x is an integer vector with
    |c| <= B = l1(x)*max|x| + den*max|x|.  Each axis length divides q - 1,
    so the transform is invertible mod q, and T(c) = 0 (mod q) gives
    c = 0 (mod q).  Over primes with product above 2B, c = 0 (mod their
    product) forces c = 0.  Without such primes (no plan, or B too large)
    x*x is formed in full by convolve_ints.

    >>> squares_to((1, 1), 2, (2,))  # (1 + g)/2 in Q[C_2]
    True
    >>> squares_to((1, 1), 1, (2,))  # 1 + g: its square is 2 + 2g
    False
    """
    s = Spectra(values, orders)
    count = primes_needed(s.l1 * s.linf + den * s.linf, s)
    if count is None:
        return convolve_ints(values, values, orders) == [den * v for v in values]
    return all(
        np.array_equal(x * x % q, x * (den % q) % q)
        for q, x in zip(s.plan.primes, s.modulo(count))
    )


# -- direct and bigint kernels -------------------------------------------


def _convolve_loop(a, b, code, table, out):
    n = a.shape[0]
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        ci = code[i]
        for j in range(n):
            bj = b[j]
            if bj != 0:
                out[table[ci + code[j]]] += ai * bj


def _convolve_numba(a, b, enum):
    global _jitted_convolve
    if _jitted_convolve is None:
        _jitted_convolve = numba.njit(cache=True)(_convolve_loop)
    out = np.zeros(a.shape[0], dtype=np.int64)
    _jitted_convolve(a, b, enum.code, enum.table, out)
    return out


def _convolve_numpy(a, b, enum):
    out = np.zeros(a.shape[0], dtype=np.int64)
    for i in np.flatnonzero(a):
        out[enum.translation(i)] += a[i] * b
    return out


def _convolve_direct(av, bv, orders, backend: str) -> np.ndarray:
    """Direct int64 product; the caller has checked the int64 bound."""
    enum = enumeration(orders)
    if backend == "numba":
        return _convolve_numba(av, bv, enum)
    # Loop over the sparser operand (the product is commutative).
    if np.count_nonzero(bv) < np.count_nonzero(av):
        av, bv = bv, av
    return _convolve_numpy(av, bv, enum)


def _convolve_bigint(a, b, orders):
    # Arbitrary-precision fallback; only reached when int64 bounds fail.
    enum = enumeration(orders)
    cols = np.array([j for j, bj in enumerate(b) if bj], dtype=np.int64)
    b_cols = [b[j] for j in cols.tolist()]
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in zip(enum.product(i, cols).tolist(), b_cols):
                out[k] += ai * bj
    return out


def convolve_ints(a, b, orders: tuple[int, ...]):
    """Exact convolution of two integer vectors over the abelian group with
    the given cyclic factor orders.  Returns a list of Python ints.

    Every entry of the result is at most B = min(l1(a)*max|b|,
    l1(b)*max|a|) in absolute value.  B above int64 takes the bigint path.
    The direct path, whose implementation PCIKIT_BACKEND selects, takes
    the products whose sparser operand has at most one nonzero per cyclic
    axis (for p = 2, the root-twisted averages of extension_children), and those
    whose B the plan's primes do not cover (2B >= their product).
    Everything else takes the transform path.

    The direct path makes one add and one gather over all |G| entries per
    nonzero (the enumeration's carry-free product table); three transforms
    make a few passes per axis.  Measured with numpy on C_2^6 to
    C_64 x C_64 (2 vCPUs), the direct path is still the cheaper one at 16
    nonzeros, so this split is conservative.
    """
    n = math.prod(orders)
    if len(a) != n or len(b) != n:
        raise ValueError("coefficient vector length does not match the group order")
    sa, sb = Spectra(a, orders), Spectra(b, orders)
    if sa.l1 == 0 or sb.l1 == 0:
        return [0] * n
    bound = min(sa.l1 * sb.linf, sb.l1 * sa.linf)
    if bound > _INT64_MAX:
        return _convolve_bigint(a, b, orders)
    backend = active_backend()
    count = primes_needed(bound, sa, sb)
    if count is None or min(sa.nnz, sb.nnz) <= len(orders):
        out = _convolve_direct(sa.vec, sb.vec, orders, backend)
    else:
        out = sa.plan.product(sa.modulo(count), sb.modulo(count))
    return out.tolist()

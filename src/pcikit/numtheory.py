"""Small integer number-theory helpers.

Everything here works at desk scale (group orders of a few thousand), so
factorize uses trial division instead of pulling in a bignum-factoring
dependency; is_prime is deterministic Miller-Rabin below MR_LIMIT.
"""

from __future__ import annotations

from functools import cache


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_LIMIT = 3_317_044_064_679_887_385_961_981  # the bases above decide every n below


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the first twelve
    prime bases, which is exact below MR_LIMIT (3.3e24); n >= MR_LIMIT
    raises ValueError.

    >>> [k for k in range(20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n >= MR_LIMIT:
        raise ValueError("beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n.

    >>> euler_phi(12)
    4
    """
    result = 1
    for p, e in factorize(n).items():
        result *= (p - 1) * p ** (e - 1)
    return result


def mobius(n: int) -> int:
    """Mobius function: 0 on squareful n, else (-1)^(number of prime factors)."""
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, r) with n = p**r and r >= 1, or None if n is not a prime power."""
    f = factorize(n)
    if len(f) != 1:
        return None
    ((p, r),) = f.items()
    return p, r


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of polynomials given as coefficient lists (low degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic polynomial b, over Z."""
    if b[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    db = len(b) - 1
    q = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] -= c * b[j]
    return q, rem[:db]


@cache
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the cyclotomic polynomials of
    all proper divisors of m; results are memoized per m.

    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for d in divisors(m)[:-1]:
        den = poly_mul(den, list(cyclotomic_poly(d)))
    q, r = poly_divmod(num, den)
    if any(r):
        raise AssertionError(f"inexact cyclotomic division for m={m}")
    if len(q) - 1 != euler_phi(m):
        raise AssertionError(f"wrong cyclotomic degree for m={m}")
    return tuple(q)

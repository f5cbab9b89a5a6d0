"""Independent reference for the benchmark's correctness checks.

Nothing here imports pcikit.  Groups are read from the CLI's group grammar
(``p:[e1,e2,...]`` parts joined by ``;``) into their cyclic factor orders,
and elements are exponent vectors enumerated mixed-radix with the first
factor most significant, the identity first.  Part order in the text does
not matter: the CLI sorts parts by prime, and so does ``factor_orders``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from functools import cache

_PART = re.compile(r"^(\d+):\[(\d+(?:,\d+)*)\]$")


def factor_orders(group: str) -> tuple[int, ...]:
    """Cyclic factor orders of a group text, parts by increasing prime and
    exponents decreasing within a part (the CLI's enumeration order)."""
    parts = []
    for chunk in group.replace(" ", "").split(";"):
        m = _PART.match(chunk)
        if m is None:
            raise ValueError(f"cannot parse group part {chunk!r}")
        p = int(m.group(1))
        exps = sorted((int(e) for e in m.group(2).split(",")), reverse=True)
        parts.append((p, exps))
    parts.sort()
    return tuple(p**e for p, exps in parts for e in exps)


def phi(n: int) -> int:
    """Euler's totient by trial division."""
    out, m, q = n, n, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            out -= out // q
        q += 1
    if m > 1:
        out -= out // m
    return out


@cache
def element_order_census(orders: tuple[int, ...]) -> dict[int, int]:
    """Number of elements of each order, by visiting every exponent vector."""
    counts: Counter[int] = Counter()
    for exps in itertools.product(*(range(d) for d in orders)):
        counts[math.lcm(*(d // math.gcd(e, d) for e, d in zip(exps, orders)), 1)] += 1
    return dict(counts)


def cyclic_subgroups_by_order(orders: tuple[int, ...]) -> dict[int, int]:
    """Number of cyclic subgroups of each order: a cyclic subgroup of order
    k has exactly phi(k) generators, the elements of order k in it."""
    out = {}
    for k, count in element_order_census(orders).items():
        if count % phi(k):
            raise ArithmeticError(f"{count} elements of order {k} is not a multiple of phi")
        out[k] = count // phi(k)
    return out


def cyclic_closed_form(p: int, n: int) -> list[tuple[Fraction, ...]]:
    """Rational primitive central idempotents of Q[C_{p^n}]: the average of
    the whole group, and avg(H_{i-1}) - avg(H_i) for the chain subgroups
    H_i of order p^i, i = 1..n."""
    m = p**n

    def average(i: int) -> list[Fraction]:
        step = p ** (n - i)
        return [Fraction(1, p**i) if k % step == 0 else Fraction(0) for k in range(m)]

    out = [tuple(average(n))]
    for i in range(1, n + 1):
        out.append(tuple(a - b for a, b in zip(average(i - 1), average(i))))
    return out


def scaled_numerators(coefficients: list[str], order: int) -> list[int]:
    """Coefficients given as "num/den" strings, times |G|, as exact integers.

    Every coefficient of a rational idempotent of Q[G] has a denominator
    dividing |G|; anything else raises ValueError."""
    out = []
    for text in coefficients:
        num, den = text.split("/")
        num, den = int(num), int(den)
        if den <= 0 or order % den:
            raise ValueError(f"coefficient {text} does not have a denominator dividing {order}")
        out.append(num * (order // den))
    return out


def sums_to_identity(rows: list[list[int]], order: int) -> bool:
    """Whether idempotents given as |G|-scaled numerators add up to the
    identity element (index 0) exactly."""
    totals = [sum(column) for column in zip(*rows)]
    return len(totals) == order and totals[0] == order and not any(totals[1:])

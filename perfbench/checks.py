"""Correctness checks of one CLI output against ``reference.py``.

Each check uses the independent reference or a property every correct
answer has; none compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction

import reference
from workloads import Op

_DOT_NODE = re.compile(r'^\s*p(\d+)_v(\d+)_(\d+) \[label="(.*)"\];$')
_DOT_FIELD = re.compile(r"\\nQ\(zeta_(\d+)\)$")
# verify runs every pairwise sweep in full up to this order, and the
# splitting-field check on cyclic groups up to SPLIT_CHECK_LIMIT.
FULL_CHECK_LIMIT = 512
SPLIT_CHECK_LIMIT = 64


def _prime_power_exponent(p: int, k: int) -> int | None:
    r = 0
    while k % p == 0:
        k //= p
        r += 1
    return r if k == 1 else None


def expected_leaf_fields(orders: tuple[int, ...], p: int) -> Counter:
    """Leaves of the p-part's diagram by field index r: one per cyclic
    subgroup of order p^r (r = 0 is the trivial subgroup)."""
    out = Counter()
    for k, count in reference.cyclic_subgroups_by_order(orders).items():
        r = _prime_power_exponent(p, k)
        if r is not None:
            out[r] += count
    return out


def _check_pci(orders, data) -> str | None:
    order = math.prod(orders)
    census = reference.cyclic_subgroups_by_order(orders)
    rows = data["pcis"]
    if data["order"] != order or data["count"] != len(rows):
        return "order or count field inconsistent"
    if len(rows) != sum(census.values()):
        return f"{len(rows)} idempotents, expected {sum(census.values())} cyclic subgroups"
    if Counter(row["quotient_order"] for row in rows) != Counter(census):
        return "quotient orders differ from the cyclic-subgroup orders"
    if sum(row["dimension"] for row in rows) != order or data["dimension_total"] != order:
        return "dimensions do not sum to |G|"
    scaled = []
    for row in rows:
        if row["kernel_order"] * row["quotient_order"] != order:
            return f"row {row['index']}: kernel_order * quotient_order != |G|"
        if row["dimension"] != reference.phi(row["quotient_order"]):
            return f"row {row['index']}: dimension is not phi(quotient order)"
        nums = reference.scaled_numerators(row["coefficients"], order)
        if len(nums) != order:
            return f"row {row['index']}: {len(nums)} coefficients for |G| = {order}"
        if nums[0] != row["dimension"]:
            return f"row {row['index']}: identity coefficient is not dim/|G|"
        scaled.append(nums)
    if not reference.sums_to_identity(scaled, order):
        return "idempotents do not sum to the identity"
    return None


def _primes(orders) -> list[int]:
    return sorted({_smallest_prime(d) for d in orders})


def _check_parts(orders, data) -> str | None:
    got = sorted(part["p"] for part in data["parts"])
    if got != _primes(orders):
        return f"parts {got} in the output, expected {_primes(orders)}"
    return None


def _check_diagram_json(orders, data) -> str | None:
    if (problem := _check_parts(orders, data)) is not None:
        return problem
    for part in data["parts"]:
        p = part["p"]
        leaves = part["levels"][-1]
        if part["level_sizes"][-1] != len(leaves):
            return f"p={p}: level sizes disagree with the leaf list"
        got = Counter(v["field_index"] for v in leaves)
        if got != expected_leaf_fields(orders, p):
            return f"p={p}: leaf field indices {dict(got)} differ from the census"
    return None


def _check_diagram_dot(orders, text: str) -> str | None:
    nodes: dict[int, list[tuple[int, str]]] = {}
    for line in text.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            nodes.setdefault(int(m.group(1)), []).append((int(m.group(2)), m.group(4)))
    primes = _primes(orders)
    if sorted(nodes) != primes:
        return f"parts {sorted(nodes)} in the dot output, expected {primes}"
    for p, labels in nodes.items():
        last = max(level for level, _ in labels)
        got = Counter()
        for level, label in labels:
            field = _DOT_FIELD.search(label)
            if (field is not None) != (level == last):
                return f"p={p}: field annotation on a non-leaf or missing on a leaf"
            if field is not None:
                got[_prime_power_exponent(p, int(field.group(1)))] += 1
        if got != expected_leaf_fields(orders, p):
            return f"p={p}: leaf fields {dict(got)} differ from the census"
    return None


def _smallest_prime(d: int) -> int:
    q = 2
    while d % q:
        q += 1
    return q


def _check_wedderburn(orders, data) -> str | None:
    if (problem := _check_parts(orders, data)) is not None:
        return problem
    for part in data["parts"]:
        rs = [row["r"] for row in part["rows"]]
        got = {row["r"]: row["census"] for row in part["rows"]}
        expected = dict(expected_leaf_fields(orders, part["p"]))
        if len(rs) != len(got) or got != expected:
            return f"p={part['p']}: census by r {got} (rows {rs}) differs from {expected}"
    return None


def _check_split(orders, data) -> str | None:
    (m,) = orders
    p = _smallest_prime(m)
    n = _prime_power_exponent(p, m)
    if len(data["splitting_pcis"]) != m:
        return f"{len(data['splitting_pcis'])} splitting idempotents, expected {m}"
    if len(data["orbits"]) != n + 1 or sorted(t for o in data["orbits"] for t in o) != list(range(m)):
        return "orbits do not partition Z/m into n+1 classes"
    got = sorted(tuple(Fraction(c) for c in e) for e in data["rational_pcis"])
    if got != sorted(reference.cyclic_closed_form(p, n)):
        return "rational_pcis differ from the closed form"
    if data["matches_closed_form"] is not True:
        return "matches_closed_form is not true"
    return None


def expected_verify_checks(orders) -> list[str]:
    """The checks ``verify`` runs with default flags, in its order."""
    names = [
        "engine_idempotency", "engine_orthogonality", "engine_sum_to_identity",
        "engine_matches_oracle", "factored_form_structure", "vertex_kernels",
    ]
    names += [f"component_counts_p{p}" for p in _primes(orders)]
    if len(orders) == 1:  # cyclic of prime-power order
        names.append("cyclic_closed_form")
        if orders[0] <= SPLIT_CHECK_LIMIT:
            names.append("splitting_field_coherence")
    return names


def _check_verify(orders, data) -> str | None:
    names = [c["name"] for c in data["checks"]]
    if names != expected_verify_checks(orders):
        return f"checks run {names}, expected {expected_verify_checks(orders)}"
    order = math.prod(orders)
    level = "full" if order <= FULL_CHECK_LIMIT else "sampled"
    if data["check_level"] != level:
        return f"check_level {data['check_level']!r}, expected {level!r}"
    if level == "full":
        n = sum(reference.cyclic_subgroups_by_order(orders).values())
        pairs = next(c["detail"] for c in data["checks"] if c["name"] == "engine_orthogonality")
        if pairs != f"{n * (n - 1) // 2} pairs checked (full)":
            return f"orthogonality sweep {pairs!r}, expected all {n * (n - 1) // 2} pairs of {n}"
    failed = [c["name"] for c in data["checks"] if c["status"] != "pass"]
    if failed or data["status"] != "pass":
        return f"checks not passing: {failed}"
    return None


def check(op: Op, code: int, stdout: str) -> str | None:
    """None when the output of op is correct, else a description."""
    if op.expect == "refused":
        if code != 2 or stdout:
            return f"expected exit 2 with empty stdout, got exit {code} and {len(stdout)} bytes"
        return None
    if code != 0:
        return f"exit {code}"
    orders = reference.factor_orders(op.group)
    if op.flags == ("--format", "dot"):
        return _check_diagram_dot(orders, stdout)
    handler = {
        "pci": _check_pci,
        "diagram": _check_diagram_json,
        "wedderburn": _check_wedderburn,
        "split": _check_split,
        "verify": _check_verify,
    }[op.subcommand]
    return handler(orders, json.loads(stdout))

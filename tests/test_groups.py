import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from element_reference import element_from_index, elements, translate
from pcikit import (
    AlgebraElement,
    CapExceededError,
    GroupSpecError,
    PrimaryGroupSpec,
    SpecMismatchError,
    parse_group_spec,
)
from pcikit.cyclotomic import CycloAlgebraElement
from pcikit.groups import (
    LongGenerator,
    element,
    element_index,
    element_order,
    embed_generator,
    group_mul,
    identity,
    long_generator_sequence,
    subgroup_closure,
)
from pcikit.numtheory import MR_LIMIT, is_prime

C9 = PrimaryGroupSpec(3, ((2, 1),))
C3C3 = PrimaryGroupSpec(3, ((1, 2),))
C4C2 = PrimaryGroupSpec(2, ((2, 1), (1, 1)))
C4 = PrimaryGroupSpec(2, ((2, 1),))


def test_spec_validation():
    with pytest.raises(GroupSpecError):
        PrimaryGroupSpec(4, ((1, 1),))  # not prime
    with pytest.raises(GroupSpecError):
        PrimaryGroupSpec(2, ((1, 1), (2, 1)))  # exponents not decreasing
    with pytest.raises(GroupSpecError):
        PrimaryGroupSpec(2, ((0, 1),))
    trivial = PrimaryGroupSpec(5, ())
    assert trivial.order == 1 and trivial.factor_orders == ()


# Builds C_p for the prime p = 2^89 - 1 and prints how long the refusal
# took and its message.
HUGE_PRIME_CHILD = """
import time
from pcikit import GroupSpecError, PrimaryGroupSpec
t0 = time.perf_counter()
try:
    PrimaryGroupSpec(2**89 - 1, ((1, 1),))
except GroupSpecError as exc:
    print(time.perf_counter() - t0, exc)
"""


def test_prime_beyond_the_primality_test_is_refused_at_once():
    # A fresh process, so that a constructor that tests 2^89 - 1 for
    # primality is stopped by the timeout instead of holding up the suite.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_PRIME_CHILD],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=30,
    )
    seconds, message = proc.stdout.split(" ", 1)
    assert float(seconds) < 1 and "618970019642690137449562111" not in message
    # str() of an int of more than 4300 digits raises ValueError, so the
    # message must not print p
    with pytest.raises(GroupSpecError):
        PrimaryGroupSpec(10**5000 + 1, ((1, 1),))
    with pytest.raises(ValueError):
        is_prime(MR_LIMIT)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)  # below the limit


def test_parse_grammar():
    spec = parse_group_spec("2:[2,1,1]")
    assert spec.parts[0].classes == ((2, 1), (1, 2))
    assert parse_group_spec("2:[1];3:[2]").order == 18
    assert parse_group_spec("3:[2] ; 2:[1]").spec_text() == "2:[1];3:[2]"
    for bad in ("", "2:2", "2:[]", "2:[0]", "2:[1];2:[1]", "9:[1]", "x"):
        with pytest.raises(GroupSpecError):
            parse_group_spec(bad)



def test_parse_cap_measures_literals_without_leading_zeros():
    zeros = "0" * 5000  # past Python's 4300-digit limit for int()
    assert parse_group_spec(f"{zeros}2:[{zeros}1]", 4096) == parse_group_spec("2:[1]")
    assert parse_group_spec("2:[12]", 4096).order == 4096
    for over in ("2:[13]", "4099:[1]", "2:[" + ",".join(["1"] * 13) + "]", "3:[8]"):
        with pytest.raises(CapExceededError):
            parse_group_spec(over, 4096)
    with pytest.raises(GroupSpecError):
        parse_group_spec("2:[1]", 0)


def test_parse_without_cap_refuses_giant_exponent_literal():
    # past Python's 4300-digit limit for int(); refused like any bad part
    text = "2:[" + "1" * 5000 + "]"
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec(text)
    assert "'2:[1111" in str(info.value) and len(str(info.value)) < 80

def test_long_generator_sequence_c9():
    assert long_generator_sequence(C9) == [
        LongGenerator((2, 1), 1),
        LongGenerator((2, 1), 2),
    ]


def test_long_generator_sequence_c3c3():
    # Copies come in descending order: the (1,2) factor leads.
    assert long_generator_sequence(C3C3) == [
        LongGenerator((1, 2), 1),
        LongGenerator((1, 1), 1),
    ]


def test_long_generator_sequence_c4c2_prefix_orders():
    labels = long_generator_sequence(C4C2)
    assert labels == [
        LongGenerator((2, 1), 1),
        LongGenerator((2, 1), 2),
        LongGenerator((1, 1), 1),
    ]
    gens = [embed_generator(C4C2, lab) for lab in labels]
    for l in range(len(gens) + 1):
        assert len(subgroup_closure(C4C2, gens[:l])) == 2**l


def test_embed_generator_values():
    assert embed_generator(C9, LongGenerator((2, 1), 1)).exps == (3,)
    assert embed_generator(C9, LongGenerator((2, 1), 2)).exps == (1,)
    assert embed_generator(C4C2, LongGenerator((1, 1), 1)).exps == (0, 1)
    with pytest.raises(GroupSpecError):
        embed_generator(C9, LongGenerator((3, 1), 1))
    with pytest.raises(GroupSpecError):
        embed_generator(C9, LongGenerator((2, 1), 3))


def test_embed_generator_relations():
    # x^p at depth a equals the generator at depth a-1; depth 1 powers to 1.
    for spec in (C9, C4C2, PrimaryGroupSpec(2, ((3, 1), (1, 2)))):
        for lab in long_generator_sequence(spec):
            g = embed_generator(spec, lab)
            powered = g**spec.p
            if lab.power == 1:
                assert powered == identity(spec)
            else:
                assert powered == embed_generator(
                    spec, LongGenerator(lab.place, lab.power - 1)
                )


def test_group_mul():
    assert group_mul(element(C4, (1,)), element(C4, (2,))).exps == (3,)
    assert group_mul(element(C4, (3,)), element(C4, (1,))).exps == (0,)
    c2c2 = PrimaryGroupSpec(2, ((1, 2),))
    assert group_mul(element(c2c2, (1, 0)), element(c2c2, (1, 1))).exps == (0, 1)
    with pytest.raises(SpecMismatchError):
        group_mul(element(C4, (1,)), element(C9, (1,)))


def test_element_order():
    assert element_order(element(C9, (3,))) == 3
    assert element_order(identity(C9)) == 1
    assert element_order(element(C4C2, (2, 1))) == 2


def test_subgroup_closure():
    closure = subgroup_closure(C9, [element(C9, (3,))])
    assert closure.dtype == np.int64 and not closure.flags.writeable
    assert {element_from_index(C9, i).exps for i in closure} == {(0,), (3,), (6,)}
    assert subgroup_closure(C9, []).tolist() == [element_index(identity(C9))]
    closure = subgroup_closure(C4C2, [element(C4C2, (1, 1))])
    assert [element_from_index(C4C2, i).exps for i in closure] == [
        (0, 0),
        (1, 1),
        (2, 0),
        (3, 1),
    ]
    with pytest.raises(SpecMismatchError):
        subgroup_closure(C9, [element(C4, (1,))])


def test_enumeration_bijection():
    for spec in (C9, C4C2, PrimaryGroupSpec(5, ()), parse_group_spec("2:[1];3:[1]")):
        seen = set()
        for i, g in enumerate(elements(spec)):
            assert element_index(g) == i
            assert element_from_index(spec, i) == g
            seen.add(g.exps)
        assert len(seen) == spec.order


def test_group_element_arguments_must_belong_to_the_group():
    # An element of C_2 x C_2 (whose index is that of x^3 in C_4), or a bare
    # exponent tuple, is not an element of C_4.
    c2c2 = PrimaryGroupSpec(2, ((1, 2),))
    for g in (element(c2c2, (1, 1)), (3,)):
        for call in (
            lambda: AlgebraElement.basis(C4, g),
            lambda: CycloAlgebraElement.monomial(C4, 4, g, 1),
            lambda: CycloAlgebraElement.one(C4, 4).cyclo_coeff(g),
            lambda: translate(g, AlgebraElement.one(C4)),
            lambda: subgroup_closure(C4, [g]),
        ):
            with pytest.raises(SpecMismatchError):
                call()
    x3 = element(C4, (3,))
    assert CycloAlgebraElement.one(C4, 4).cyclo_coeff(x3).is_zero()
    assert AlgebraElement.basis(C4, x3).nums.tolist() == [0, 0, 0, 1]

"""Roots of unity as the package keeps them: exact Q/Z phases of characters.

A character value theta in [0, 1) stands for the root of unity e^(2*pi*i*theta).
The Mackey rule in `afinv.bimodules.fuse` counts characters in this exact
form, and the float oracle in `tests/fuse_oracle.py` embeds them into the
complex numbers and projects with character sums.  These tests pin the
root-of-unity facts both routes rest on.
"""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afinv.errors import InvalidInputError
from afinv.groups import Character, Subgroup, dual_characters, make_group

from fuse_oracle import FLOAT_ORACLE_TOLERANCE


def cyclic(e):
    """The whole of Z/e as a subgroup, with its generator."""
    G = make_group(e)
    return Subgroup.generated(G, [(1 % e,)])


def character_at_generator(H, theta):
    """The character of the cyclic group H = Z/e sending the generator to theta."""
    e = H.order
    return Character.from_values(H, {(k,): k * theta for k in range(e)})


def embed(theta):
    return cmath.exp(2j * cmath.pi * float(theta))


@pytest.mark.parametrize("e", range(2, 13))
def test_root_sums_vanish(e):
    H = cyclic(e)
    chars = dual_characters(H)
    # the generator character takes each e-th root of unity exactly once
    primitive = character_at_generator(H, Fraction(1, e))
    assert sorted(primitive.values) == [Fraction(k, e) for k in range(e)]
    for chi in chars[1:]:
        total = sum(embed(chi(g)) for g in H.elements)
        assert abs(total) < FLOAT_ORACLE_TOLERANCE
    assert abs(sum(embed(chars[0](g)) for g in H.elements) - e) < FLOAT_ORACLE_TOLERANCE


def test_fourth_root_squares_to_minus_one():
    H = cyclic(4)
    i = character_at_generator(H, Fraction(1, 4))
    minus_one = character_at_generator(H, Fraction(1, 2))
    assert i.product(i) == minus_one
    assert i.product(i).product(i).product(i).is_trivial()
    assert i((0,)) == 0
    assert i((2,)) == Fraction(1, 2)


def test_mixed_order_arithmetic_lifts():
    H = cyclic(6)
    z2 = character_at_generator(H, Fraction(1, 2))
    z3 = character_at_generator(H, Fraction(1, 3))
    z6 = z2.product(z3)
    assert z6 == character_at_generator(H, Fraction(5, 6))
    # the product has order 6: only the sixth multiple sends the generator to 0
    assert [(k * z6((1,))) % 1 == 0 for k in range(1, 7)] == [False] * 5 + [True]


def test_denominator_must_divide_order():
    H = cyclic(4)
    with pytest.raises(InvalidInputError):
        character_at_generator(H, Fraction(1, 3))


def test_complex_embedding():
    for e in (3, 4, 5, 8, 12):
        H = cyclic(e)
        for j in range(e):
            chi = character_at_generator(H, Fraction(j, e))
            for k in range(e):
                expected = cmath.exp(2j * cmath.pi * j * k / e)
                assert abs(embed(chi((k,))) - expected) < 1e-9


Z24 = cyclic(24)
Z24_CHARACTERS = {chi((1,)): chi for chi in dual_characters(Z24)}
thetas = st.integers(min_value=0, max_value=23).map(lambda k: Fraction(k, 24))


@given(thetas, thetas)
@settings(max_examples=200)
def test_root_of_unity_is_a_homomorphism(a, b):
    za = Z24_CHARACTERS[a]
    zb = Z24_CHARACTERS[b]
    assert za.product(zb) == Z24_CHARACTERS[(a + b) % 1]

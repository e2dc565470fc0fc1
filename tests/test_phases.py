"""Roots of unity as the package keeps them: exact Q/Z phases of characters.

A character value v, an integer in [0, E) for E the exponent of the group,
stands for the root of unity e^(2*pi*i*v/E).  The Mackey rule in
`afinv.bimodules.fuse` counts characters in this exact form, and the oracle
in `tests/fuse_oracle.py` sends v to w^v in F_p, for w of order exactly E mod
a prime p, and projects with character sums there.  These tests pin the
root-of-unity facts both routes rest on.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afinv.errors import InvalidInputError
from afinv.groups import Subgroup, dual_characters, make_group
from afinv.serialize import character_from_json

from fuse_oracle import root_of_unity


def cyclic(e):
    """The whole of Z/e as a subgroup, with its generator."""
    G = make_group(e)
    return Subgroup.generated(G, [(1 % e,)])


def character_at_generator(H, theta):
    """The character of the cyclic group H = Z/e sending the generator to theta.

    It is parsed from the full phase table k -> k * theta, so a theta that is
    not a multiple of 1/e is refused as a non-character.
    """
    e = H.order
    table = {f"[{k}]": str(k * theta % 1) for k in range(1, e)}
    return character_from_json(H, {"theta": table})


def times(chi, k):
    """The integer table of the k-th power of chi (k times each phase)."""
    E = chi.domain.group.exponent
    return tuple(k * v % E for v in chi.values)


def embed(v, E):
    """The root of unity e^(2*pi*i*v/E) as w^v in F_p."""
    p, w = root_of_unity(E)
    return pow(w, v, p)


@pytest.mark.parametrize("e", range(2, 13))
def test_root_sums_vanish(e):
    H = cyclic(e)
    chars = dual_characters(H)
    # the generator character takes each e-th root of unity exactly once
    primitive = character_at_generator(H, Fraction(1, e))
    assert primitive.values == tuple(range(e))
    p, _ = root_of_unity(e)
    for chi in chars[1:]:
        assert sum(embed(chi(g), e) for g in H.elements) % p == 0
    assert sum(embed(chars[0](g), e) for g in H.elements) % p == e


def test_fourth_root_squares_to_minus_one():
    H = cyclic(4)
    i = character_at_generator(H, Fraction(1, 4))
    minus_one = character_at_generator(H, Fraction(1, 2))
    assert i.values == (0, 1, 2, 3)
    assert times(i, 2) == minus_one.values == (0, 2, 0, 2)
    assert times(i, 4) == (0, 0, 0, 0)
    assert i((0,)) == 0
    assert i((2,)) == 2  # the phase 2/4 = 1/2


def test_mixed_order_arithmetic_lifts():
    H = cyclic(6)
    z2 = character_at_generator(H, Fraction(1, 2))
    z3 = character_at_generator(H, Fraction(1, 3))
    z6 = tuple((u + v) % 6 for u, v in zip(z2.values, z3.values))
    assert z6 == character_at_generator(H, Fraction(5, 6)).values
    # the product has order 6: only the sixth multiple sends the generator to 0
    assert [(k * z6[1]) % 6 == 0 for k in range(1, 7)] == [False] * 5 + [True]


def test_denominator_must_divide_order():
    H = cyclic(4)
    with pytest.raises(InvalidInputError):
        character_at_generator(H, Fraction(1, 3))


def test_embedding_into_f_p():
    for e in (1, 3, 4, 5, 8, 12):
        p, w = root_of_unity(e)
        # p is above 2^31 with e | p - 1 and passes a Fermat test, and w has order exactly e
        assert p > 2**31 and (p - 1) % e == 0 and pow(3, p - 1, p) == 1
        assert [pow(w, m, p) == 1 for m in range(1, e + 1)] == [False] * (e - 1) + [True]
        H = cyclic(e)
        for j in range(e):
            chi = character_at_generator(H, Fraction(j, e))
            for k in range(e):
                assert chi((k,)) == j * k % e
                assert embed(chi((k,)), e) == pow(w, j * k, p)


Z24 = cyclic(24)
Z24_CHARACTERS = {chi((1,)): chi for chi in dual_characters(Z24)}
thetas = st.integers(min_value=0, max_value=23)


@given(thetas, thetas)
@settings(max_examples=200)
def test_root_of_unity_is_a_homomorphism(a, b):
    za = Z24_CHARACTERS[a]
    zb = Z24_CHARACTERS[b]
    total = tuple((u + v) % 24 for u, v in zip(za.values, zb.values))
    assert total == Z24_CHARACTERS[(a + b) % 24].values

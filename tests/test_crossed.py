"""The crossed-product block oracle and twisted group algebras.

The block count of C(G/K) x| H is computed here from explicit orbits and
stabilizer characters, with no bimodule machinery involved, so agreement with
the categorical simple count is a genuine cross-check of both routes.
"""

import pathlib
from fractions import Fraction

import numpy as np
import pytest

from afinv.bimodules import QSystem, simple_bimodules
from afinv.crossed import TwistedGroupAlgebra, crossed_product_blocks, k0_rank
from afinv.errors import InvalidInputError
from afinv.groups import CocycleTable, Subgroup, make_group, subgroups


def test_oracle_source_does_not_use_bimodule_machinery():
    # the whole point of the second route: it must not share code with the
    # categorical count it validates
    import afinv.crossed

    source = pathlib.Path(afinv.crossed.__file__).read_text()
    assert "bimodules" not in source


@pytest.mark.parametrize("factors", [[4], [6], [8], [12], [2, 2]])
def test_block_count_matches_categorical_simple_count(factors):
    G = make_group(factors)
    subs = subgroups(G)
    for K in subs:
        for H in subs:
            expected = len(simple_bimodules(QSystem(K), QSystem(H)))
            assert k0_rank(G, K, H) == expected, (factors, K, H)


def test_total_block_count_over_z4():
    G = make_group(4)
    subs = subgroups(G)
    assert sum(k0_rank(G, K, H) for K in subs for H in subs) == 22


def test_transitive_action_gives_single_full_block():
    G = make_group(4)
    trivial = Subgroup.generated(G, [])
    full = Subgroup.generated(G, [(1,)])
    result = crossed_product_blocks(G, trivial, full)
    assert result.k0_rank == 1
    assert [b.size for b in result.blocks] == [4]
    assert result.total_dimension == 16


def test_trivial_action_gives_character_blocks():
    G = make_group(4)
    half = Subgroup.generated(G, [(2,)])
    result = crossed_product_blocks(G, half, half)
    assert result.k0_rank == 4
    assert all(b.size == 1 for b in result.blocks)
    assert result.total_dimension == (G.order // half.order) * half.order == 4


def test_free_half_translation_splits_into_two_matrix_blocks():
    G = make_group(4)
    trivial = Subgroup.generated(G, [])
    half = Subgroup.generated(G, [(2,)])
    result = crossed_product_blocks(G, trivial, half)
    assert result.k0_rank == 2
    assert sorted(b.size for b in result.blocks) == [2, 2]


def test_point_algebra_cases():
    G = make_group(4)
    trivial = Subgroup.generated(G, [])
    full = Subgroup.generated(G, [(1,)])
    point = crossed_product_blocks(G, full, trivial)
    assert point.k0_rank == 1
    assert [b.size for b in point.blocks] == [1]
    regular = crossed_product_blocks(G, full, full)
    assert regular.k0_rank == 4
    assert all(b.size == 1 for b in regular.blocks)


def test_dimension_count_identity():
    G = make_group([2, 4])
    subs = subgroups(G)
    for K in subs:
        for H in subs:
            result = crossed_product_blocks(G, K, H)
            assert result.total_dimension == (G.order // K.order) * H.order


def test_foreign_subgroups_are_rejected():
    G = make_group(4)
    other = make_group(8)
    K = Subgroup.generated(other, [(2,)])
    H = Subgroup.generated(G, [(2,)])
    with pytest.raises(InvalidInputError):
        crossed_product_blocks(G, K, H)


# ------------------------------------------------------- twisted group algebras


def _klein_four_subgroup():
    G = make_group([2, 2])
    return Subgroup.generated(G, [(1, 0), (0, 1)])


def _numeric_center_dimension(alg) -> int:
    """Center dimension via the left regular representation and a nullspace."""
    elems = list(alg.subgroup.elements)
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    reg = []
    for a in elems:
        L = np.zeros((n, n), dtype=complex)
        for c in elems:
            s, phase = alg.product(a, c)
            L[idx[s], idx[c]] = np.exp(2j * np.pi * float(phase))
        reg.append(L)
    rows = []
    for La in reg:
        rows.append(np.stack([(Lh @ La - La @ Lh).reshape(-1) for Lh in reg], axis=1))
    M = np.concatenate(rows, axis=0)
    return n - np.linalg.matrix_rank(M)


def test_nontrivially_twisted_klein_algebra_is_a_matrix_algebra():
    H = _klein_four_subgroup()
    mu = CocycleTable.from_function(H, lambda a, b: Fraction(a[1] * b[0], 2))
    alg = TwistedGroupAlgebra(H, mu)
    assert alg.dimension == 4
    assert alg.is_regular((0, 0))
    assert not alg.is_regular((1, 0))
    assert alg.center_dimension() == 1
    assert _numeric_center_dimension(alg) == 1


def test_untwisted_algebra_is_commutative():
    H = _klein_four_subgroup()
    alg = TwistedGroupAlgebra(H, CocycleTable.trivial(H))
    assert alg.center_dimension() == 4
    assert _numeric_center_dimension(alg) == 4


def test_small_untwisted_algebras():
    G = make_group(4)
    order_two = Subgroup.generated(G, [(2,)])
    alg = TwistedGroupAlgebra(order_two, CocycleTable.trivial(order_two))
    assert alg.dimension == 2
    assert alg.center_dimension() == 2
    point = Subgroup.generated(G, [])
    scalars = TwistedGroupAlgebra(point, CocycleTable.trivial(point))
    assert scalars.dimension == 1
    assert scalars.center_dimension() == 1


def test_twisted_products_carry_phases():
    H = _klein_four_subgroup()
    mu = CocycleTable.from_function(H, lambda a, b: Fraction(a[1] * b[0], 2))
    alg = TwistedGroupAlgebra(H, mu)
    assert alg.product((0, 1), (1, 0)) == ((1, 1), Fraction(1, 2))
    assert alg.product((1, 0), (0, 1)) == ((1, 1), Fraction(0))


def test_twisted_algebra_validates_its_cocycle():
    G = make_group([2, 2])
    H = Subgroup.generated(G, [(1, 0), (0, 1)])
    other = Subgroup.generated(G, [(1, 0)])
    with pytest.raises(InvalidInputError):
        TwistedGroupAlgebra(H, CocycleTable.trivial(other))

"""The crossed-product block oracle.

The block count of C(G/K) x| H is computed here from explicit orbits and
stabilizer characters, with no bimodule machinery involved, so agreement with
the categorical simple count is a genuine cross-check of both routes.
"""

import pathlib
from collections import Counter

import pytest

from afinv import groups
from afinv.bimodules import simple_bimodules
from afinv.crossed import crossed_product_blocks
from afinv.errors import InternalConsistencyError, InvalidInputError
from afinv.groups import Subgroup, make_group, subgroups


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
            expected = len(simple_bimodules(K, H))
            assert len(crossed_product_blocks(G, K, H)) == expected, (factors, K, H)


def test_total_block_count_over_z4():
    G = make_group(4)
    subs = subgroups(G)
    assert sum(len(crossed_product_blocks(G, K, H)) for K in subs for H in subs) == 22


def test_transitive_action_gives_single_full_block():
    G = make_group(4)
    trivial = Subgroup.generated(G, [])
    full = Subgroup.generated(G, [(1,)])
    assert crossed_product_blocks(G, trivial, full) == (4,)


def test_trivial_action_gives_character_blocks():
    G = make_group(4)
    half = Subgroup.generated(G, [(2,)])
    result = crossed_product_blocks(G, half, half)
    assert result == (1, 1, 1, 1)
    assert sum(s * s for s in result) == (G.order // half.order) * half.order == 4


def test_free_half_translation_splits_into_two_matrix_blocks():
    G = make_group(4)
    trivial = Subgroup.generated(G, [])
    half = Subgroup.generated(G, [(2,)])
    assert crossed_product_blocks(G, trivial, half) == (2, 2)


def test_point_algebra_cases():
    G = make_group(4)
    trivial = Subgroup.generated(G, [])
    full = Subgroup.generated(G, [(1,)])
    assert crossed_product_blocks(G, full, trivial) == (1,)
    assert crossed_product_blocks(G, full, full) == (1, 1, 1, 1)


def test_dimension_count_identity():
    G = make_group([2, 4])
    subs = subgroups(G)
    for K in subs:
        for H in subs:
            sizes = crossed_product_blocks(G, K, H)
            assert sum(s * s for s in sizes) == (G.order // K.order) * H.order


def test_regular_blocks_need_no_generated_closure(monkeypatch):
    G = make_group(127)
    full = subgroups(G)[-1]

    def refuse(cls, group, generators):
        raise AssertionError("Subgroup.generated called")

    monkeypatch.setattr(Subgroup, "generated", classmethod(refuse))
    assert crossed_product_blocks(G, full, full) == (1,) * 127


def test_all_pairs_build_one_coset_map_per_subgroup(fresh_lattice_index, monkeypatch):
    built = Counter()
    real = groups._coset_map

    def counted(G, D):
        built[D] += 1
        return real(G, D)

    monkeypatch.setattr(groups, "_coset_map", counted)
    G = make_group([2, 2, 2])
    subs = subgroups(G)
    for K in subs:
        for H in subs:
            crossed_product_blocks(G, K, H)
    assert set(built) == set(subs) and set(built.values()) == {1}


def test_foreign_subgroups_are_rejected():
    G = make_group(4)
    other = make_group(8)
    K = Subgroup.generated(other, [(2,)])
    H = Subgroup.generated(G, [(2,)])
    with pytest.raises(InvalidInputError):
        crossed_product_blocks(G, K, H)


# Each self-check, reached by feeding the walk a tampered coset map or character count.


@pytest.mark.parametrize(
    "order, acting, fake_map, message",
    [
        # 0 is fixed by all of {0, 2}, while 1 and 3 form an orbit fixed by 0 alone
        (4, [(2,)], {(0,): (0,), (1,): (1,), (2,): (0,), (3,): (3,)}, "stabilizers differ"),
        # Z/3 sends 0 to two cosets, with 0 fixed by 0 alone: 2·1 != 3
        (3, [(1,)], {(0,): (0,), (1,): (1,), (2,): (1,)}, "orbit-stabilizer count is off"),
    ],
)
def test_a_tampered_coset_map_is_an_internal_error(order, acting, fake_map, message, monkeypatch):
    G = make_group(order)
    trivial, H = Subgroup.generated(G, []), Subgroup.generated(G, acting)
    monkeypatch.setattr("afinv.crossed.coset_space", lambda K: fake_map)
    with pytest.raises(InternalConsistencyError, match=message):
        crossed_product_blocks(G, trivial, H)


def test_a_doubled_character_count_is_an_internal_error(monkeypatch):
    G = make_group(4)
    trivial, half = Subgroup.generated(G, []), Subgroup.generated(G, [(2,)])
    monkeypatch.setattr("afinv.crossed.dual_characters", lambda S: groups.dual_characters(S) * 2)
    with pytest.raises(InternalConsistencyError, match="sum to 16, expected 8"):
        crossed_product_blocks(G, trivial, half)

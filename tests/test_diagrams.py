"""Enriched diagrams: object diagrams, morphism matrices, the pointed invariant."""

import random
import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from afinv import bimodules, diagrams, groups, k0
from afinv.bimodules import (
    CompletenessWarning,
    _check_fusion_consistency,
    bimodule_label,
    fuse,
    fusion_table,
    identity_bimodule,
    qsystems,
    simple_bimodules,
)
from afinv.diagrams import (
    DiagramEdge,
    EnrichedBratteliDiagram,
    compute_invariant,
    morphism_matrices,
    object_diagram,
)
from afinv.errors import InternalConsistencyError, InvalidInputError
from afinv.groups import Subgroup, make_group
from afinv.k0 import (
    DirectSumForm,
    RankOneForm,
    StationarySystem,
    mat_vec,
    strip_primes,
    value_map,
)
from values import replace

FAMILY_ORDER = ("1-1", "1-2", "1-3", "2-1", "2-2", "2-3", "3-1", "3-2", "3-3")

MULTIPLIER_ROWS = {
    "F": (1, 2, 4, 1, 1, 2, 1, 1, 1),
    "G": (1, 1, 2, 2, 1, 2, 2, 1, 1),
    "H": (1, 1, 1, 2, 1, 1, 4, 2, 1),
}


def fusion_check(inv):
    """The fusion-consistency check on an invariant, as ``compute_invariant`` calls it."""
    _check_fusion_consistency(inv.group, inv.morphisms)


# ------------------------------------------------------------- object diagrams


def test_object_diagrams_of_translation_action(z4_diagrams, z4_reps):
    F = z4_diagrams["F"]
    Q1, Q2, Q3 = z4_reps

    def tail_rows(P):
        """The simples the tail rows stand for, in row order."""
        return [bimodule_label(s) for _, s in F.level_bases(P)[-1]]

    mats = object_diagram(F, Q1)
    assert isinstance(mats, tuple) and mats[:-1] == ()
    at1 = mats[-1]
    assert StationarySystem(at1).matrix == at1
    assert tail_rows(Q1) == ["M_{1-1,0}", "M_{1-1,1}", "M_{1-1,2}", "M_{1-1,3}"]
    assert at1 == tuple((1, 1, 1, 1) for _ in range(4))

    at2 = object_diagram(F, Q2)[-1]
    assert tail_rows(Q2) == ["M_{1-2,0}", "M_{1-2,1}"]
    assert at2 == ((2, 2), (2, 2))

    at3 = object_diagram(F, Q3)[-1]
    assert tail_rows(Q3) == ["M_{1-3}"]
    assert at3 == ((4,),)


def test_object_diagrams_of_trivial_tail(z4_diagrams, z4_reps):
    E = z4_diagrams["E"]
    Q1, Q2, Q3 = z4_reps
    assert object_diagram(E, Q1)[-1] == ((4,),)
    assert object_diagram(E, Q2)[-1] == ((4, 0), (0, 4))
    at3 = object_diagram(E, Q3)[-1]
    assert at3 == tuple(
        tuple(4 if i == j else 0 for j in range(4)) for i in range(4)
    )


def test_object_ranks(z4_invariants):
    for name, expected in [("F", (1, 1, 1)), ("G", (1, 1, 1)), ("E", (1, 2, 4))]:
        inv = z4_invariants[name]
        assert tuple(desc.rank for desc in inv.objects) == expected
    invE = z4_invariants["E"]
    assert isinstance(invE.objects[0], RankOneForm)
    assert isinstance(invE.objects[1], DirectSumForm)
    assert isinstance(invE.objects[2], DirectSumForm)


def test_rank_one_objects_have_eigenvalue_four_and_primes_two(z4_invariants):
    for name in ("F", "G", "H"):
        inv = z4_invariants[name]
        for desc, scale in zip(inv.objects, inv.scales):
            assert isinstance(desc, RankOneForm)
            assert desc.eigenvalue == 4
            assert desc.prime_set == frozenset({2})
            assert scale == 1


# ----------------------------------------------------------- morphism matrices


def test_morphism_matrix_entries(z4_diagrams, z4_simples):
    F = z4_diagrams["F"]
    (mat,) = morphism_matrices(F, z4_simples["M_{1-2,0}"])
    assert mat == ((1, 0, 1, 0), (0, 1, 0, 1))
    (mat13,) = morphism_matrices(F, z4_simples["M_{1-3}"])
    assert mat13 == ((1, 1, 1, 1),)
    # an endomorphism direction: fusing with a translation permutes the basis
    (perm,) = morphism_matrices(F, z4_simples["M_{1-1,1}"])
    assert sorted(row.index(1) for row in perm) == [0, 1, 2, 3]
    assert all(sum(row) == 1 for row in perm)
    (ident,) = morphism_matrices(F, z4_simples["M_{1-1,0}"])
    assert ident == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )


def test_published_multiplier_rows(z4_invariants, z4_simples):
    expected_by_family = {
        name: dict(zip(FAMILY_ORDER, row)) for name, row in MULTIPLIER_ROWS.items()
    }
    for name in ("F", "G", "H"):
        inv = z4_invariants[name]
        for label, simple in z4_simples.items():
            q = dict(inv.morphisms)[simple]
            assert q == expected_by_family[name][label[3:6]], (name, label)


def test_multiplier_respects_value_maps_on_running_example(z4_diagrams, z4_invariants, z4_simples):
    F = z4_diagrams["F"]
    inv = z4_invariants["F"]
    X = z4_simples["M_{1-3}"]
    q = dict(inv.morphisms)[X]
    assert q == 4
    descP, descQ = inv.objects[0], inv.objects[2]  # Q1, Q3
    M = morphism_matrices(F, X)[-1]
    for x in [(1, 0, 0, 0), (2, 1, 1, 3)]:
        assert value_map(descQ, 0, mat_vec(M, x)) == q * value_map(descP, 0, x)


def test_fusion_consistency_of_multiplier_table(z4_invariants, z4_simples):
    # spelled-out instance: q(M_{1-2,0}) * q(M_{2-1,0}) counts the two
    # translations appearing in their composite
    q = dict(z4_invariants["F"].morphisms)
    lhs = q[z4_simples["M_{1-2,0}"]] * q[z4_simples["M_{2-1,0}"]]
    rhs = q[z4_simples["M_{1-1,0}"]] + q[z4_simples["M_{1-1,2}"]]
    assert lhs == rhs == 2


def test_tampered_multipliers_are_caught(z4_invariants, z4_simples):
    inv = z4_invariants["F"]
    bad = tuple(
        Fraction(7) if X == z4_simples["M_{1-2,0}"] else q
        for X, q in inv.morphisms
    )
    tampered = replace(inv, multipliers=bad)
    with pytest.raises(InternalConsistencyError):
        fusion_check(tampered)


# ------------------------------------------------------------- pointed classes


def test_pointed_class_default_weights(z4_invariants):
    assert z4_invariants["F"].pointed == 1
    assert z4_invariants["G"].pointed == 1
    assert z4_invariants["H"].pointed == 1
    assert z4_invariants["E"].pointed == 1


def test_pointed_class_indicator_weights(z4_reps):
    # taking the generating projection to be the unit of the Q-system itself
    Q1, Q2, Q3 = z4_reps
    F = EnrichedBratteliDiagram.homogeneous(
        Q1, {b: 1 for b in simple_bimodules(Q1, Q1)}, generator_weights=(1, 0, 0, 0)
    )
    G = EnrichedBratteliDiagram.homogeneous(
        Q2, {b: 1 for b in simple_bimodules(Q2, Q2)}, generator_weights=(1, 0)
    )
    assert compute_invariant(F).pointed == Fraction(1, 4)
    assert compute_invariant(G).pointed == Fraction(1, 2)


def test_multipliers_do_not_depend_on_weights(z4_reps, z4_simples, z4_invariants):
    Q1 = z4_reps[0]
    F_ind = EnrichedBratteliDiagram.homogeneous(
        Q1, {b: 1 for b in simple_bimodules(Q1, Q1)}, generator_weights=(1, 0, 0, 0)
    )
    inv = compute_invariant(F_ind)
    base = dict(z4_invariants["F"].morphisms)
    for X, q in inv.morphisms:
        assert q == base[X]


# ------------------------------------------------------ heterogeneous diagrams


def test_two_level_diagram_shapes(two_level_diagram, z4_reps):
    d = two_level_diagram
    assert not d.is_stationary
    at1 = object_diagram(d, z4_reps[0])
    assert isinstance(at1, tuple)
    assert at1[:-1] == (((1, 0, 1, 0), (0, 1, 0, 1)),)
    assert at1[-1] == ((2, 2), (2, 2))
    at2 = object_diagram(d, z4_reps[1])
    assert len(at2[0]) == 4 and len(at2[0][0]) == 2
    assert at2[-1] == tuple((1, 1, 1, 1) for _ in range(4))


def test_two_level_invariant(two_level_diagram):
    inv = compute_invariant(two_level_diagram)
    assert all(isinstance(desc, RankOneForm) for desc in inv.objects)
    # weights (1,1,1,1) push through the prefix to (2,2) at the tail start
    assert inv.pointed == 2


def test_morphism_matrices_cover_every_explicit_level(two_level_diagram, z4_simples):
    mats = morphism_matrices(two_level_diagram, z4_simples["M_{1-2,0}"])
    assert len(mats) == 2
    assert mats[0] == ((1, 0, 1, 0), (0, 1, 0, 1))


# ----------------------------------------------------------- degenerate action


@pytest.fixture()
def identity_diagram(z4_reps):
    Q1 = z4_reps[0]
    return EnrichedBratteliDiagram.homogeneous(Q1, {identity_bimodule(Q1): 1})


def test_identity_action_objects_split(identity_diagram, z4_reps):
    inv = compute_invariant(identity_diagram)
    assert isinstance(inv.objects[0], DirectSumForm)
    assert inv.objects[0].rank == 4
    assert isinstance(inv.objects[1], DirectSumForm)
    assert isinstance(inv.objects[2], RankOneForm)
    assert inv.scales == (None, None, Fraction(1))
    # without a rank-one unit the pointed class stays a raw weight vector
    assert inv.pointed == (1, 1, 1, 1)
    assert not isinstance(inv.objects[0], RankOneForm)


def test_unit_localization_of_translation_action(z4_invariants):
    unit = z4_invariants["F"].objects[0]
    assert isinstance(unit, RankOneForm)
    assert unit.scale == 1 and unit.prime_set == frozenset({2})
    assert strip_primes(Fraction(3, 8) / unit.scale, unit.prime_set).denominator == 1
    assert strip_primes(Fraction(1, 3) / unit.scale, unit.prime_set).denominator != 1


def test_trivial_group_diagram_is_plain_integers():
    Q = qsystems(make_group(1))[0]
    d = EnrichedBratteliDiagram.homogeneous(Q, {identity_bimodule(Q): 1})
    assert d.level_bases(Q) == (tuple((0, s) for s in simple_bimodules(Q, Q)),)
    assert len(simple_bimodules(Q, Q)) == 1
    assert object_diagram(d, Q)[-1] == ((1,),)
    inv = compute_invariant(d)
    (obj,) = inv.objects
    assert isinstance(obj, RankOneForm)
    assert obj.eigenvalue == 1
    assert obj.prime_set == frozenset()
    assert [q for _, q in inv.morphisms] == [Fraction(1)]
    assert inv.pointed == 1


# ----------------------------------------------- reference per-cell formulas


@lru_cache(maxsize=None)
def _fused(S1, S2):
    return fuse(S1, S2)


def per_cell_connecting_matrix(d, n, bases):
    """Reference: every cell sums mult * [y in fuse(e, x)] over all edges of the block."""
    lower = bases[n]
    upper = bases[min(n + 1, len(d.levels) - 1)]
    return tuple(
        tuple(
            sum(
                e.multiplicity * _fused(e.bimodule, x).get(y, 0)
                for e in d.edges[n]
                if e.source == vi and e.target == wi
            )
            for vi, x in lower
        )
        for wi, y in upper
    )


def per_cell_object_diagram(d, P):
    bases = d.level_bases(P)
    mats = [per_cell_connecting_matrix(d, n, bases) for n in range(len(d.levels))]
    return tuple(mats)


def per_cell_morphism_matrices(d, X):
    """Reference: one multiplicity lookup of y in fuse(x, X) per cell."""
    return [
        tuple(
            tuple(_fused(x, X).get(y, 0) if vi == wi else 0 for vi, x in bP)
            for wi, y in bQ
        )
        for bP, bQ in zip(d.level_bases(X.source), d.level_bases(X.target))
    ]


def random_diagram(rng, factors):
    """1-3 levels of 1-3 vertices each, Q-systems repeating freely within a level."""
    G = make_group(factors)
    reps = qsystems(G)
    levels = tuple(
        tuple(rng.choice(reps) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 3))
    )
    blocks = []
    for n, lower in enumerate(levels):
        upper = levels[min(n + 1, len(levels) - 1)]
        pairs = {(rng.randrange(len(lower)), t) for t in range(len(upper))}
        pairs |= {
            (rng.randrange(len(lower)), rng.randrange(len(upper)))
            for _ in range(rng.randint(0, 3))
        }
        blocks.append(
            tuple(
                DiagramEdge(s, t, rng.choice(simple_bimodules(upper[t], lower[s])), mult)
                for s, t in sorted(pairs)
                for mult in rng.sample((1, 2, 3), rng.randint(1, 2))
            )
        )
    weights = tuple(
        w
        for v in levels[0]
        for w in [1] + [rng.randint(0, 2) for _ in range(G.order // v.order - 1)]
    )
    return EnrichedBratteliDiagram(G, levels, tuple(blocks), weights)


def test_builder_matches_per_cell_formula_on_examples(z4_diagrams, z4_reps, two_level_diagram):
    for d in [*z4_diagrams.values(), two_level_diagram]:
        for P in z4_reps:
            assert object_diagram(d, P) == per_cell_object_diagram(d, P)
            for Q in z4_reps:
                for X in simple_bimodules(P, Q):
                    assert morphism_matrices(d, X) == per_cell_morphism_matrices(d, X)


@pytest.mark.parametrize("seed", range(24))
def test_builder_matches_per_cell_formula_on_random_diagrams(seed):
    rng = random.Random(seed)
    factors = [[3], [4], [6], [8], [2, 2]][seed % 5]
    d = random_diagram(rng, factors)
    reps = qsystems(d.group)
    for P in reps:
        assert object_diagram(d, P) == per_cell_object_diagram(d, P)
    for P in reps:
        for Q in reps:
            for X in simple_bimodules(P, Q):
                assert morphism_matrices(d, X) == per_cell_morphism_matrices(d, X)


def test_fused_term_outside_the_basis_is_an_error(z4_diagrams, z4_reps, z4_simples, monkeypatch):
    # a Q1-Q2 simple can never be a term of a product landing in D(v -> Q1)
    foreign = z4_simples["M_{1-2,0}"]
    monkeypatch.setattr(diagrams, "_fuse_cached", lambda S1, S2: {foreign: 1})
    with pytest.raises(InternalConsistencyError):
        object_diagram(z4_diagrams["F"], z4_reps[0])
    with pytest.raises(InternalConsistencyError):
        morphism_matrices(z4_diagrams["F"], z4_simples["M_{1-1,1}"])


def test_invariant_checks_each_tail_intertwining_once(z4_diagrams, monkeypatch):
    """Two products per simple bimodule, A_Q M and M A_P, outside object identification."""
    products = []
    inside_k0 = []
    mat_mul, stationary_k0 = k0.mat_mul, k0.stationary_k0

    def counting_mat_mul(A, B):
        if not inside_k0:
            products.append((A, B))
        return mat_mul(A, B)

    def flagged_stationary_k0(sys):
        inside_k0.append(sys)
        try:
            return stationary_k0(sys)
        finally:
            inside_k0.pop()

    for module in (diagrams, k0):
        monkeypatch.setattr(module, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(diagrams, "stationary_k0", flagged_stationary_k0)
    for name, d in z4_diagrams.items():
        products.clear()
        inv = compute_invariant(d)
        assert len(products) == 2 * len(inv.morphisms), name


def _one_entry_flipped(matrix):
    rows = [list(row) for row in matrix]
    rows[0][0] += 1
    return tuple(map(tuple, rows))


@pytest.mark.parametrize(
    "level, message",
    [(-1, "morphism matrix of {} does not intertwine the stationary tails"),
     (0, "morphism matrices of {} do not intertwine at level 0")],
    ids=["tail", "prefix"],
)
def test_a_flipped_morphism_entry_fails_the_intertwining_check(
    two_level_diagram, z4_simples, monkeypatch, level, message
):
    X = z4_simples["M_{2-1,0}"]
    matrices = diagrams.morphism_matrices

    def flipped(d, Y):
        mats = matrices(d, Y)
        if Y == X:
            mats[level] = _one_entry_flipped(mats[level])
        return mats

    monkeypatch.setattr(diagrams, "morphism_matrices", flipped)
    with pytest.raises(InternalConsistencyError) as caught:
        compute_invariant(two_level_diagram)
    assert str(caught.value) == message.format(X)


def test_equal_vertices_share_their_hom_basis_simples(z4, z4_reps, z4_simples):
    _, Q2, _ = z4_reps
    twin = Subgroup.generated(z4, [(2,)])  # equal to Q2, another object
    assert twin == Q2 and twin is not Q2
    triv = z4_simples["M_{2-2,0}^triv"]
    d = EnrichedBratteliDiagram(
        z4,
        ((Q2, twin),),
        (tuple(DiagramEdge(s, t, triv) for s in (0, 1) for t in (0, 1)),),
        (1, 1, 1, 1),
    )
    for P in z4_reps:
        (basis,) = d.level_bases(P)
        half = len(basis) // 2
        assert [vi for vi, _ in basis] == [0] * half + [1] * half
        assert all(a is b for (_, a), (_, b) in zip(basis[:half], basis[half:]))
    assert compute_invariant(d) == compute_invariant(
        EnrichedBratteliDiagram(z4, ((Q2, Q2),), d.edges, d.generator_weights)
    )


# ------------------------------------- pairwise fusion-consistency reference


def pairwise_fusion_consistency(inv):
    """Reference check: fuse every composable pair of defined multipliers."""
    defined = {X: q for X, q in inv.morphisms if q is not None}
    for X, qx in defined.items():
        for Y, qy in defined.items():
            if X.target != Y.source:
                continue
            total = Fraction(0)
            for Z, m in _fused(X, Y).items():
                qz = defined.get(Z)
                if qz is None:
                    break
                total += m * qz
            else:
                if total != qx * qy:
                    raise InternalConsistencyError(
                        f"multiplier table violates fusion: "
                        f"{bimodule_label(X)} ∘ {bimodule_label(Y)}: {total} != {qx * qy}"
                    )


def both_consistency_routes(inv):
    fusion_check(inv)
    pairwise_fusion_consistency(inv)


def regular_action(factors):
    Q1 = qsystems(make_group(factors))[0]
    return EnrichedBratteliDiagram.homogeneous(Q1, {b: 1 for b in simple_bimodules(Q1, Q1)})


def test_invariant_and_fusion_table_raise_no_completeness_warning():
    G = make_group([2, 2])
    d = regular_action([2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompletenessWarning)
        compute_invariant(d)
        fusion_table(G)


def test_both_consistency_routes_accept_the_examples(z4_invariants, two_level_diagram):
    for inv in z4_invariants.values():
        both_consistency_routes(inv)
    both_consistency_routes(compute_invariant(two_level_diagram))


@pytest.mark.parametrize("seed", range(24))
def test_both_consistency_routes_accept_random_diagrams(seed):
    rng = random.Random(seed)
    factors = [[3], [4], [6], [8], [2, 2]][seed % 5]
    both_consistency_routes(compute_invariant(random_diagram(rng, factors)))


@pytest.mark.parametrize("factors", [[8], [2, 4]])
def test_both_consistency_routes_accept_regular_actions(factors):
    both_consistency_routes(compute_invariant(regular_action(factors)))


def _rejects(check, inv):
    try:
        check(inv)
    except InternalConsistencyError:
        return True
    return False


@pytest.mark.parametrize("name", ["F", "G", "H"])
def test_consistency_routes_agree_on_every_single_tampered_multiplier(z4_invariants, name):
    inv = z4_invariants[name]
    tampered = 0
    for k, (X, q) in enumerate(inv.morphisms):
        if q is None:
            continue
        bad = inv.multipliers[:k] + (Fraction(7),) + inv.multipliers[k + 1 :]
        table = replace(inv, multipliers=bad)
        verdict = _rejects(fusion_check, table)
        assert verdict == _rejects(pairwise_fusion_consistency, table), bimodule_label(X)
        tampered += verdict
    assert tampered == len(inv.morphisms) == 22


def test_consistency_check_fuses_no_pair(z4_invariants, two_level_diagram, monkeypatch):
    inv = compute_invariant(two_level_diagram)

    def refuse(*args):
        raise AssertionError("the consistency check fused a pair")

    monkeypatch.setattr(bimodules, "fuse", refuse)
    monkeypatch.setattr(diagrams, "fuse", refuse)
    monkeypatch.setattr(diagrams, "_fuse_cached", refuse)
    for checked in (*z4_invariants.values(), inv):
        fusion_check(checked)


def test_invariant_builds_each_pair_of_simples_and_coset_map_at_most_once(
    fresh_lattice_index, monkeypatch
):
    pairs, maps = Counter(), Counter()
    real_simples, real_map = bimodules._enumerate_simples, groups._coset_map

    def counted_simples(H, K):
        pairs[H, K] += 1
        return real_simples(H, K)

    def counted_map(G, D):
        maps[D] += 1
        return real_map(G, D)

    monkeypatch.setattr(bimodules, "_enumerate_simples", counted_simples)
    monkeypatch.setattr(groups, "_coset_map", counted_map)
    inv = compute_invariant(regular_action([2, 2, 2]))
    assert len(inv.simples) == len(inv.multipliers)
    # the multiplier loop, the level bases and InvariantData.simples share one build per pair
    assert len(pairs) == 16**2 and set(pairs.values()) == {1}
    assert set(maps.values()) == {1}


def test_consistency_check_enumerates_no_simples(monkeypatch):
    inv = compute_invariant(regular_action([2, 4]))
    assert len(inv.simples) == len(inv.multipliers)
    calls = []
    real = bimodules._enumerate_simples

    def counted(H, K):
        calls.append((H, K))
        return real(H, K)

    # the check lists the simples the lattice index already holds and builds none
    monkeypatch.setattr(bimodules, "_enumerate_simples", counted)
    fusion_check(inv)
    assert calls == []


FIRST_FAILURES = {
    (8,): (
        "M_{1-1,0} ∘ M_{1-1,0}: 3 != 9",
        "M_{1-3,0} ∘ M_{3-1,0}: 4 != 12",
        "M_{1-4} ∘ M_{4-4}^chi7: 8 != 24",
    ),
    (2, 4): (
        "M_{1-1,(0,0)} ∘ M_{1-1,(0,0)}: 3 != 9",
        "M_{1-5,(0,0)} ∘ M_{5-1,(0,0)}: 4 != 12",
        "M_{1-8} ∘ M_{8-8}^chi7: 8 != 24",
    ),
    (2, 2, 2): (
        "M_{1-1,(0,0,0)} ∘ M_{1-1,(0,0,0)}: 3 != 9",
        "M_{1-9,(0,0,0)} ∘ M_{9-1,(0,0,0)}: 4 != 12",
        "M_{1-16} ∘ M_{16-16}^chi7: 8 != 24",
    ),
}


@pytest.mark.parametrize("factors", list(FIRST_FAILURES))
def test_consistency_check_reports_the_first_violated_pair(factors):
    # one multiplier tripled at the first, middle and last simple of a regular action
    inv = compute_invariant(regular_action(list(factors)))
    n = len(inv.multipliers)
    for k, message in zip((0, n // 2, n - 1), FIRST_FAILURES[factors]):
        bad = inv.multipliers[:k] + (3 * inv.multipliers[k],) + inv.multipliers[k + 1 :]
        with pytest.raises(InternalConsistencyError) as caught:
            fusion_check(replace(inv, multipliers=bad))
        assert str(caught.value) == f"multiplier table violates fusion: {message}"


# ------------------------------------------------------------------ validation


def test_homogeneous_weight_validation(z4_reps):
    Q1 = z4_reps[0]
    edge = {b: 1 for b in simple_bimodules(Q1, Q1)}
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram.homogeneous(Q1, edge, generator_weights=(1, 1))
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram.homogeneous(Q1, edge, generator_weights=(0, 0, 0, 0))
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram.homogeneous(Q1, edge, generator_weights=(1, -1, 0, 0))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda inv: {"objects": inv.objects[1:]}, "objects must list each of the 3 Q-systems"),
        (lambda inv: {"scales": inv.scales[:2]}, "scales must list each of the 3 Q-systems"),
        (
            lambda inv: {"multipliers": inv.multipliers + (None,)},
            "morphisms must list each of the 22 simple bimodules",
        ),
        (
            lambda inv: {"scales": (Fraction(-1),) + inv.scales[1:]},
            "scale of Q1 must be positive if rank-one, else null",
        ),
    ],
    ids=["objects", "scales", "multipliers", "scale"],
)
def test_invariant_data_refuses_values_its_group_does_not_index(z4_invariants, change, message):
    inv = z4_invariants["F"]
    with pytest.raises(InvalidInputError, match=f"^{message}"):
        replace(inv, **change(inv))


def test_edge_validation(z4, z4_reps, z4_simples):
    Q1, Q2, _ = z4_reps
    good_tail = tuple(DiagramEdge(0, 0, b) for b in simple_bimodules(Q2, Q2))
    # wrong orientation: a Q1->Q2 bimodule cannot connect lower Q1 to upper Q2
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram(
            z4,
            ((Q1,), (Q2,)),
            ((DiagramEdge(0, 0, z4_simples["M_{1-2,0}"]),), good_tail),
            (1, 1, 1, 1),
        )
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram(z4, ((Q2,),), ((),), (1, 1))
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram(
            z4,
            ((Q2,),),
            ((DiagramEdge(0, 0, z4_simples["M_{2-2,0}^triv"], multiplicity=0),),),
            (1, 1),
        )
    with pytest.raises(InvalidInputError, match=r"^edge 0 of block 0 \(from 0 to 1\) points"):
        EnrichedBratteliDiagram(
            z4,
            ((Q2,),),
            ((DiagramEdge(0, 1, z4_simples["M_{2-2,0}^triv"]),),),
            (1, 1),
        )
    # two upper vertices but edges into only one of them
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram(
            z4,
            ((Q2,), (Q2, Q2)),
            (
                (DiagramEdge(0, 0, z4_simples["M_{2-2,0}^triv"]),),
                tuple(DiagramEdge(s, t, z4_simples["M_{2-2,0}^triv"]) for s in (0, 1) for t in (0, 1)),
            ),
            (1, 1),
        )
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram(z4, ((Q2,),), (), (1, 1))


@pytest.mark.parametrize(
    "ends, multiplicity, weights",
    [((0, 0), 1.5, (1, 1)), ((0, 0), 1, (1.5, 1)), ((0.5, 0), 1, (1, 1))],
    ids=["float-multiplicity", "float-weight", "float-edge-end"],
)
def test_diagrams_refuse_what_is_not_an_integer(z4_reps, z4_simples, ends, multiplicity, weights):
    Q2 = z4_reps[1]
    edge = DiagramEdge(*ends, z4_simples["M_{2-2,0}^triv"], multiplicity)
    with pytest.raises(InvalidInputError):
        EnrichedBratteliDiagram(Q2.group, ((Q2,),), ((edge,),), weights)


def test_hom_basis_matches_simple_bimodules(z4_reps, z4_diagrams):
    Q1, Q2, Q3 = z4_reps
    # the hom basis of D(v -> P) at the lone vertex v = Q3 of H
    assert tuple(s for _, s in z4_diagrams["H"].level_bases(Q2)[0]) == simple_bimodules(Q3, Q2)
    assert [bimodule_label(s) for s in simple_bimodules(Q1, Q1)] == [
        f"M_{{1-1,{g}}}" for g in range(4)
    ]

"""Composition of simple bimodules, checked against published tables and laws.

The three composition tables for Hilb(Z/4) live in z4_tables.py (rows are
left factors, columns right factors, cells are "+"-joined decompositions).
Together they cover all 162 composable pairs of simples.
"""

import functools
import itertools
import random
import re
import warnings
from collections import Counter

import pytest

from afinv import bimodules
from afinv.bimodules import (
    CompletenessWarning,
    SimpleBimodule,
    _composable,
    bimodule_label,
    dual,
    fuse,
    fusion_table,
    identity_bimodule,
    qsystems,
    simple_bimodule,
    simple_bimodules,
    simples_of,
)
from afinv.errors import InternalConsistencyError, InvalidCompositionError, InvalidInputError
from afinv.diagrams import DiagramEdge, EnrichedBratteliDiagram
from afinv.groups import (
    Character,
    Subgroup,
    dual_characters,
    make_group,
    subgroup_intersection,
    subgroup_sum,
    subgroups,
)

import fuse_oracle
from fuse_oracle import coset_members, oracle_fuse
from values import as_tuple, fields_of, is_value
from z4_tables import ALL_TABLES, cell_multiset


def _fused_multiset(s1, s2):
    return {bimodule_label(z): m for z, m in fuse(s1, s2).items()}


def test_simple_count_and_labels(z4_simples):
    assert len(z4_simples) == 22
    by_family = {}
    for label in z4_simples:
        by_family.setdefault(label[3:6], 0)
        by_family[label[3:6]] += 1
    assert by_family == {
        "1-1": 4, "1-2": 2, "1-3": 1, "2-1": 2, "2-2": 4,
        "2-3": 2, "3-1": 1, "3-2": 2, "3-3": 4,
    }


def test_identity_bimodule_labels(z4_reps):
    _, Q2, Q3 = z4_reps
    assert bimodule_label(identity_bimodule(Q2)) == "M_{2-2,0}^triv"
    assert bimodule_label(identity_bimodule(Q3)) == "M_{3-3}^triv"
    Qt = qsystems(make_group(1))[0]
    (only,) = simple_bimodules(Qt, Qt)
    assert identity_bimodule(Qt) == only


def test_graded_dimensions_of_representative_simples(z4_simples):
    one = z4_simples["M_{1-1,1}"]
    assert one.dimension == 1 and coset_members(one) == ((1,),)
    sign = z4_simples["M_{2-2,1}^sign"]
    assert sign.dimension == 2 and coset_members(sign) == ((1,), (3,))
    big = z4_simples["M_{1-3}"]
    assert big.dimension == 4 and len(coset_members(big)) == 4
    for s in (one, sign, big):
        assert s.rep == coset_members(s)[0]


def test_cross_subgroup_simple_of_z6():
    G = make_group(6)
    P = Subgroup.generated(G, [(3,)])  # order 2
    Q = Subgroup.generated(G, [(2,)])  # order 3
    (X,) = simple_bimodules(P, Q)
    assert X.dimension == 6
    out = fuse(X, dual(X))
    assert len(out) == 6 and all(m == 1 for m in out.values())
    assert all(z.source == P and z.target == P for z in out)


def test_published_composition_tables_cell_for_cell(z4_simples):
    cells = 0
    for table in ALL_TABLES:
        for row_label, row in table.items():
            for col_label, cell in row.items():
                got = _fused_multiset(z4_simples[row_label], z4_simples[col_label])
                assert got == cell_multiset(cell), (row_label, col_label)
                cells += 1
    assert cells == 49 + 64 + 49  # the three tables list every composable pair


def test_tables_cover_all_composable_pairs(z4_simples):
    composable = sum(
        1
        for s1 in z4_simples.values()
        for s2 in z4_simples.values()
        if s1.target == s2.source
    )
    assert composable == 162


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_order_fusion_rules(p):
    """The six displayed composition rules for Hilb(Z/p)."""
    G = make_group(p)
    Q1, Q2 = qsystems(G)
    m11 = {s.rep: s for s in simple_bimodules(Q1, Q1)}
    m22 = list(simple_bimodules(Q2, Q2))
    (m12,) = simple_bimodules(Q1, Q2)
    (m21,) = simple_bimodules(Q2, Q1)

    for g, h in itertools.product(m11, repeat=2):
        assert fuse(m11[g], m11[h]) == {m11[G.add(g, h)]: 1}
    for a, b in itertools.product(m22, repeat=2):
        prod = tuple((u + v) % p for u, v in zip(a.character.values, b.character.values))
        (expected,) = [s for s in m22 if s.character.values == prod]
        assert fuse(a, b) == {expected: 1}
    for g in m11:
        assert fuse(m21, m11[g]) == {m21: 1}
    for a in m22:
        assert fuse(a, m21) == {m21: 1}
        assert fuse(m12, a) == {m12: 1}
    assert fuse(m21, m12) == {s: 1 for s in m22}
    assert fuse(m12, m21) == {s: 1 for s in m11.values()}


def test_unit_laws_exhaustively(z4_simples):
    for s in z4_simples.values():
        assert fuse(identity_bimodule(s.source), s) == {s: 1}
        assert fuse(s, identity_bimodule(s.target)) == {s: 1}


def test_duals_pair_with_the_identity(z4_simples):
    for s in z4_simples.values():
        back = fuse(s, dual(s))
        assert back.get(identity_bimodule(s.source)) == 1
        assert dual(dual(s)) == s


@pytest.mark.parametrize("factors", [[4], [2, 4], [2, 2, 2]])
def test_identity_and_duals_are_the_lattice_members(factors):
    subs = subgroups(make_group(factors))
    for H in subs:
        assert identity_bimodule(H) is simple_bimodules(H, H)[0]
        for K in subs:
            backs = simple_bimodules(K, H)
            for S in simple_bimodules(H, K):
                D = dual(S)
                assert any(D is member for member in backs)
                assert dual(D) is S


def test_frobenius_reciprocity_exhaustively(z4_simples):
    simples = list(z4_simples.values())
    for s1 in simples:
        for s2 in simples:
            if s1.target != s2.source:
                continue
            prod = fuse(s1, s2)
            for t in simple_bimodules(s1.source, s2.target):
                rhs = fuse(s2, dual(t))
                assert prod.get(t, 0) == rhs.get(dual(s1), 0)


def _symbolic_triple(cached, s1, s2, s3):
    left = {}
    for z, m in cached(s1, s2).items():
        for w, m2 in cached(z, s3).items():
            left[w] = left.get(w, 0) + m * m2
    right = {}
    for z, m in cached(s2, s3).items():
        for w, m2 in cached(s1, z).items():
            right[w] = right.get(w, 0) + m * m2
    return left, right


def _fuse_cache():
    cache = {}

    def cached(a, b):
        key = (a, b)
        if key not in cache:
            cache[key] = fuse(a, b)
        return cache[key]

    return cached


def test_associativity_random_z6():
    G = make_group(6)
    reps = qsystems(G)
    simples = [s for P in reps for Q in reps for s in simple_bimodules(P, Q)]
    by_source = {}
    for s in simples:
        by_source.setdefault(s.source, []).append(s)
    rng = random.Random(20240817)
    cached = _fuse_cache()
    for _ in range(1000):
        s1 = rng.choice(simples)
        s2 = rng.choice(by_source[s1.target])
        s3 = rng.choice(by_source[s2.target])
        left, right = _symbolic_triple(cached, s1, s2, s3)
        assert left == right, (s1, s2, s3)


def test_composition_requires_matching_middle(z4_reps):
    Q1, Q2, Q3 = z4_reps
    a = simple_bimodules(Q1, Q2)[0]
    b = simple_bimodules(Q1, Q3)[0]
    with pytest.raises(InvalidCompositionError):
        fuse(a, b)


def test_base_point_invariance(z4_simples):
    s1 = z4_simples["M_{2-3}^sign"]
    s2 = z4_simples["M_{3-2}^triv"]
    expected = fuse(s1, s2)
    for bp1 in coset_members(s1):
        for bp2 in coset_members(s2):
            assert oracle_fuse(s1, s2, bp1, bp2) == expected


def test_oracle_catches_products_moved_to_the_wrong_block(z4, monkeypatch):
    # a Mackey rule that negates the phases of S1 + S2 on H∩K∩L still passes every
    # self-check (the blocks themselves are unchanged) but composes into the wrong block
    honest = bimodules._mackey_blocks

    def tampered(H, K, L):
        mult, key, blocks = honest(H, K, L)
        E = H.group.exponent

        def wrong_key(*terms):
            coset, phases = key(*terms)
            if len(terms) == 2:
                phases = tuple(-v % E for v in phases)
            return coset, phases

        return mult, wrong_key, blocks

    simples = simples_of(z4)
    pairs = [(s1, s2) for s1 in simples for s2 in simples if s1.target == s2.source]
    expected = {pair: fuse(*pair) for pair in pairs}
    monkeypatch.setattr(bimodules, "_mackey_blocks", tampered)
    moved = {pair for pair in pairs if fuse(*pair) != expected[pair]}
    assert len(moved) == 8
    assert {pair for pair in pairs if oracle_fuse(*pair) != fuse(*pair)} == moved


def _flat_realize(S, base_point=None, realize=fuse_oracle.realize):
    """realize with every left phase set to 0; the default binds the unpatched realize."""
    m = realize(S, base_point)
    flat = {a: tuple((j, 0) for j, _ in row) for a, row in m.left_action.items()}
    return fuse_oracle.ExplicitBimoduleModel(m.grading, m.index, flat)


def _conjugating_dual_characters(H):
    """dual_characters whose members keep their tables, and so their labels, but evaluate
    as their conjugates: the oracle then projects with the wrong sign."""
    mutants = []
    for chi in dual_characters(H):
        mutant = Character(H, chi.values)
        object.__setattr__(mutant, "_table", dict(zip(H.elements, chi.conjugate().values)))
        mutants.append(mutant)
    return tuple(mutants)


@pytest.mark.parametrize(
    "name, mutant, wrong",
    [
        pytest.param("realize", _flat_realize, 40, id="no-left-phases"),
        pytest.param("dual_characters", _conjugating_dual_characters, 8, id="conjugated-projection"),
    ],
)
def test_oracle_mutants_disagree_with_fuse(z4, monkeypatch, name, mutant, wrong):
    # the oracle's phases and the sign of its projection both count: a mutant of either
    # disagrees with fuse on a fixed set of Z/4's 162 composable pairs
    simples = simples_of(z4)
    pairs = [(s1, s2) for s1 in simples for s2 in simples if s1.target == s2.source]
    monkeypatch.setattr(fuse_oracle, name, mutant)
    assert sum(oracle_fuse(*pair) != fuse(*pair) for pair in pairs) == wrong


def test_dimension_conservation_spot_checks(z4_simples):
    for s1 in z4_simples.values():
        for s2 in z4_simples.values():
            if s1.target != s2.source:
                continue
            out = fuse(s1, s2)
            total = sum(z.dimension * m for z, m in out.items())
            assert total * s1.target.order == s1.dimension * s2.dimension


def rebuilt(x):
    """A fresh copy of x: each value and tuple inside it built anew from its fields."""
    if is_value(x):
        return type(x)(*map(rebuilt, fields_of(x).values()))
    if isinstance(x, tuple):
        return tuple(rebuilt(y) for y in x)
    return x


@pytest.mark.parametrize("factors", [[12], [2, 4], [2, 2, 2]])
def test_stored_hashes_agree_with_equality(factors):
    G = make_group(factors)
    subs = subgroups(G)
    objects = [G, *subs]
    for H in subs:
        objects += dual_characters(H)
        for K in subs:
            objects += simple_bimodules(H, K)
    for x in objects:
        y = rebuilt(x)
        assert y is not x and y == x and hash(y) == hash(x)
    distinct = {(type(x), as_tuple(x)) for x in objects}
    assert len(set(objects)) == len(distinct)


def test_completeness_warning_for_noncyclic_subgroups():
    G = make_group([2, 2])
    with pytest.warns(CompletenessWarning):
        qsystems(G)
    # cyclic groups are complete: no warning expected
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompletenessWarning)
        qsystems(make_group(9))


@pytest.mark.parametrize("factors", [[1], [2], [6], [2, 3], [2, 2], [2, 4], [3, 9], [2, 3, 5]])
def test_completeness_warning_exactly_when_some_subgroup_is_non_cyclic(factors):
    G = make_group(factors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CompletenessWarning)
        qsystems(G)
    warned = any(issubclass(w.category, CompletenessWarning) for w in caught)
    assert warned == any(not H.is_cyclic() for H in subgroups(G))


def test_fusion_table_is_deterministic_and_consistent(z4):
    t1 = fusion_table(z4)
    simples = simples_of(z4)
    assert fusion_table(z4) == t1
    assert len(simples) == 22
    assert len(t1) == 162
    # every product entry decomposes into simples of the right type
    for (i, j), terms in t1.items():
        src = simples[i].source
        tgt = simples[j].target
        for k, m in terms:
            assert m >= 1
            assert simples[k].source == src
            assert simples[k].target == tgt


def test_fusion_table_enumerates_each_pair_of_simples_once(fresh_lattice_index, monkeypatch):
    real = bimodules._enumerate_simples
    calls = Counter()

    def counted(H, K):
        calls[H, K] += 1
        return real(H, K)

    monkeypatch.setattr(bimodules, "_enumerate_simples", counted)
    table = fusion_table(make_group([2, 2, 2]))
    # one enumeration per pair of the 16 subgroups; no triple enumerates again
    assert len(calls) == 16**2 and set(calls.values()) == {1}
    for terms in table.values():
        indices = [k for k, _ in terms]
        assert indices == sorted(set(indices))


# memoized only to keep the Z/4 x Z/4 sweep short; the characters are the same
_characters = functools.lru_cache(maxsize=None)(dual_characters)


def pairwise_mackey_fuse(S1, S2):
    """Reference: the Mackey rule evaluated for one pair, with its own checks.

    d runs over the cosets of H+L inside c1+c2+(H+K+L), ψ over the characters
    of H∩L that agree with χ1+χ2 on H∩K∩L, each m times.
    """
    _composable(S1, S2)
    G = S1.group
    H = S1.source
    K = S1.target
    L = S2.target
    HK = subgroup_intersection(H, K)
    HL = subgroup_intersection(H, L)
    HKL = subgroup_intersection(HK, L)
    span = subgroup_sum(subgroup_sum(H, K), L)
    sum_HL = subgroup_sum(H, L)

    mult, rem = divmod(
        H.order * K.order * L.order * HKL.order,
        HK.order * subgroup_intersection(K, L).order * span.order * HL.order,
    )
    assert not rem and mult >= 1

    base = G.add(S1.rep, S2.rep)
    reps = []
    covered = set()
    for x in span.elements:
        g = G.add(base, x)
        if g not in covered:
            coset = {G.add(g, d) for d in sum_HL.elements}
            covered |= coset
            reps.append(min(coset))
    E = G.exponent
    phases = {t: (S1.character(t) + S2.character(t)) % E for t in HKL.elements}
    chars = [
        psi for psi in _characters(HL)
        if all(psi(t) == phase for t, phase in phases.items())
    ]
    result = {
        SimpleBimodule(S1.source, S2.target, rep, psi): mult
        for rep in reps
        for psi in chars
    }
    got_dim = sum(m * s.dimension for s, m in result.items())
    assert got_dim * K.order == S1.dimension * S2.dimension
    return result


@functools.cache
def _fusion_table(factors: tuple):
    """``fusion_table`` of one group, built once for the tests that read it."""
    return fusion_table(make_group(factors))


@pytest.mark.parametrize("factors", [[9], [12], [2, 6], [16], [4, 4]])
def test_fusion_table_matches_pairwise_mackey_rule(factors):
    # above order 8 the exact oracle covers every pair of Z/12, Z/2 x Z/6 and Z/16 only, and
    # samples Z/4 x Z/4 (criterion 7)
    G = make_group(factors)
    table = _fusion_table(tuple(factors))
    simples = simples_of(G)
    index = {s: i for i, s in enumerate(simples)}
    expected = tuple(
        ((i, j), tuple(sorted((index[z], m) for z, m in pairwise_mackey_fuse(s1, s2).items())))
        for i, s1 in enumerate(simples)
        for j, s2 in enumerate(simples)
        if s1.target == s2.source
    )
    assert tuple(table.items()) == expected


def _ring_axiom_failures(G, table):
    """The pairs of ``table`` (a ``fusion_table(G)``) that break each of three axioms.

    The simples of Hilb(G) form a based ring (Etingof, Gelfand, Nikshych and
    Ostrik, *Tensor Categories*, ch. 3-4), and none of these reads the Mackey
    rule.  For X: H -> K, Y: K -> L and Z: H -> L:
    unit, 1_H X = X = X 1_K; Frobenius reciprocity, N_XY^Z = N_{Z,Y*}^X; and
    dimension, dim X dim Y = |K| sum_Z N_XY^Z dim Z.  Reciprocity is checked
    at every pair, (Z, Y*) among them, so a term missing from either side fails.
    """
    simples = simples_of(G)
    index = {s: i for i, s in enumerate(simples)}
    dual_of = [index[dual(s)] for s in simples]
    N = {pair: dict(terms) for pair, terms in table.items()}
    failures = {"unit": set(), "reciprocity": set(), "dimension": set()}
    for i, X in enumerate(simples):
        for pair in ((index[identity_bimodule(X.source)], i), (i, index[identity_bimodule(X.target)])):
            if N[pair] != {i: 1}:
                failures["unit"].add(pair)
    for (i, j), terms in N.items():
        X, Y = simples[i], simples[j]
        if X.dimension * Y.dimension != X.target.order * sum(
            m * simples[k].dimension for k, m in terms.items()
        ):
            failures["dimension"].add((i, j))
        if any(N[k, dual_of[j]].get(i) != m for k, m in terms.items()):
            failures["reciprocity"].add((i, j))
    return failures


# every group type of order at most 16 but Z/2 x Z/2 x Z/4 and (Z/2)^4, whose tables alone
# take about 3 s and 44 s (ROADMAP item 13)
@pytest.mark.parametrize(
    "factors",
    [
        [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [9], [3, 3],
        [10], [11], [12], [2, 6], [13], [14], [15], [16], [2, 8], [4, 4],
    ],
    ids=str,
)
def test_fusion_table_satisfies_the_ring_axioms(factors):
    G = make_group(factors)
    failures = _ring_axiom_failures(G, _fusion_table(tuple(factors)))
    assert failures == {"unit": set(), "reciprocity": set(), "dimension": set()}


def test_ring_axiom_checks_reject_one_changed_multiplicity(z4, z4_simples):
    simples = simples_of(z4)
    X = z4_simples["M_{2-3}^sign"]
    x, unit = simples.index(X), simples.index(identity_bimodule(X.source))
    table = dict(_fusion_table((4,)))
    assert table[unit, x] == ((x, 1),)
    table[unit, x] = ((x, 2),)
    assert _ring_axiom_failures(z4, table) == {
        "unit": {(unit, x)},
        "reciprocity": {(unit, x), (x, simples.index(dual(X)))},
        "dimension": {(unit, x)},
    }


def test_simple_bimodules_are_the_index_tuples_read_only():
    subs = subgroups(make_group([2, 4]))
    for P in subs:
        for Q in subs:
            simples = simple_bimodules(P, Q)
            before = list(simples)
            assert simple_bimodules(P, Q) is simples
            assert all(S.source is P and S.target is Q for S in simples)
            with pytest.raises(TypeError):
                simples[0] = simples[-1]
            with pytest.raises(TypeError):
                del simples[-1]
            assert simple_bimodules(P, Q) is simples and list(simples) == before


def test_simple_bimodule_finds_the_least_coset_member():
    G = make_group([2, 4])
    subs = subgroups(G)
    for H, K in itertools.product(subs, repeat=2):
        span = subgroup_sum(H, K)
        simples = simple_bimodules(H, K)
        for x in G.elements():
            least = min(G.add(x, d) for d in span.elements)
            for chi in dual_characters(subgroup_intersection(H, K)):
                S = simple_bimodule(H, K, x, chi)
                assert any(S is member for member in simples)
                assert S.rep == least and S.character is chi
    # no element of the group: a wrong length or an unreduced entry
    bad = [(G, x) for x in [(0,), (0, 0, 0), (2, 0), (0, 4), (0, -1)]] + [(make_group(4), (5,))]
    for group, x in bad:
        trivial = subgroups(group)[0]
        (chi,) = dual_characters(trivial)
        with pytest.raises(InvalidInputError, match=re.escape(repr(x))):
            simple_bimodule(trivial, trivial, x, chi)


@pytest.mark.parametrize("factors", [[4], [2, 4], [2, 2]], ids=str)
def test_fuse_returns_the_enumerated_simples(factors):
    subs = subgroups(make_group(factors))
    for H, K, L in itertools.product(subs, repeat=3):
        targets = {id(Z) for Z in simple_bimodules(H, L)}
        for S1 in simple_bimodules(H, K):
            for S2 in simple_bimodules(K, L):
                assert all(id(Z) in targets for Z in fuse(S1, S2))


@pytest.mark.parametrize("drop", [0, -1])
def test_fuse_with_a_missing_simple_is_an_internal_error(z4_simples, drop, monkeypatch):
    real = bimodules.simple_bimodules

    def one_short(P, Q):
        out = list(real(P, Q))
        del out[drop]
        return out

    monkeypatch.setattr(bimodules, "simple_bimodules", one_short)
    simples = list(z4_simples.values())
    for s1, s2 in itertools.product(simples, repeat=2):
        if s1.target == s2.source:
            with pytest.raises(InternalConsistencyError):
                fuse(s1, s2)


def test_a_fractional_triple_multiplicity_is_an_internal_error(z4_reps, monkeypatch):
    # every meet read as all of Z/4: m = 2·2·2·4 / (4·4·2·4) for the triple Q2-Q2-Q2
    Q2, Q3 = z4_reps[1], z4_reps[2]
    S = identity_bimodule(Q2)
    monkeypatch.setattr(bimodules, "subgroup_intersection", lambda A, B: Q3)
    with pytest.raises(InternalConsistencyError, match="is not a positive integer"):
        fuse(S, S)


def test_a_block_table_without_the_pair_s_block_is_an_internal_error(z4_simples, monkeypatch):
    # with every simple present the dimension check fails before a block can go missing,
    # so the table itself loses the block the pair falls in
    S1, S2 = z4_simples["M_{2-1,0}"], z4_simples["M_{1-2,1}"]
    real = bimodules._mackey_blocks

    def tampered(H, K, L):
        mult, key, blocks = real(H, K, L)
        return mult, key, {k: b for k, b in blocks.items() if k != key(S1, S2)}

    monkeypatch.setattr(bimodules, "_mackey_blocks", tampered)
    with pytest.raises(InternalConsistencyError, match="has no Mackey block"):
        fuse(S1, S2)


def test_a_simple_outside_the_index_is_labelled_by_its_values(z4, z4_reps):
    # character tables that are no homomorphisms: only a direct constructor call builds them
    Q1, Q3 = z4_reps[0], z4_reps[2]
    S = SimpleBimodule(Q3, Q3, (0,), Character(Q3, (0, 1, 0, 0)))
    assert str(S) == "M_{3-3}^(0,1,0,0)"
    assert bimodule_label(SimpleBimodule(Q1, Q1, (0,), Character(Q1, (1,)))) == "M_{1-1,0}^(1)"
    # so the messages that name such a simple are the errors they report
    with pytest.raises(InternalConsistencyError, match="has no Mackey block"):
        fuse(S, identity_bimodule(Q3))
    with pytest.raises(InvalidInputError, match=r"M_\{3-3\}\^\(0,1,0,0\) must be a Q\("):
        EnrichedBratteliDiagram(z4, ((Q1,),), ((DiagramEdge(0, 0, S),),), (1, 1, 1, 1))

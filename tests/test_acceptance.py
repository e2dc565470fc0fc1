"""Acceptance gate: one test per shipping criterion, timed, all exact.

Each test prints a single summary line on success (visible with ``pytest -s``
or ``-v`` via the test name), does its work with exact arithmetic only, and
asserts the wall-clock bound for that criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from afinv.bimodules import (
    bimodule_label,
    dual,
    fuse,
    fusion_table,
    identity_bimodule,
    qsystems,
    simple_bimodules,
    simples_of,
)
from afinv.compare import EQUIVALENT, INEQUIVALENT, compare, verify_witness
from afinv.crossed import crossed_product_blocks
from afinv.diagrams import morphism_matrices
from afinv.groups import make_group, subgroups
from afinv.k0 import RankOneForm, mat_vec, value_map

from fuse_oracle import oracle_fuse
from z4_tables import ALL_TABLES, cell_multiset

FAMILY_ORDER = ("1-1", "1-2", "1-3", "2-1", "2-2", "2-3", "3-1", "3-2", "3-3")


def _passline(n, detail, t0, bound=None):
    dt = time.perf_counter() - t0
    if bound is not None:
        assert dt < bound, f"criterion {n} took {dt:.2f}s, bound {bound}s"
    timing = f"{dt:.2f}s" + (f" < {bound}s" if bound is not None else "")
    print(f"PASS criterion {n}: {detail} ({timing})")


def _checked_fuse(s1, s2):
    """fuse plus the dimension-conservation identity on every call."""
    out = fuse(s1, s2)
    total = sum(z.dimension * m for z, m in out.items())
    assert total * s1.target.order == s1.dimension * s2.dimension
    return out


def test_criterion_1_composition_tables_cell_for_cell(z4):
    t0 = time.perf_counter()
    table = fusion_table(z4)
    labels = [bimodule_label(s) for s in simples_of(z4)]
    index = {label: i for i, label in enumerate(labels)}
    cells = 0
    mismatches = []
    for block in ALL_TABLES:
        for row_label, row in block.items():
            for col_label, cell in row.items():
                terms = table[index[row_label], index[col_label]]
                got = {labels[k]: m for k, m in terms}
                if got != cell_multiset(cell):
                    mismatches.append((row_label, col_label))
                cells += 1
    assert mismatches == []
    assert cells == 162
    assert len(table) == 162  # the tables cover every composable pair
    _passline(1, f"{cells}/{cells} composition cells on Z/4 match", t0, bound=5.0)


def test_criterion_2_prime_order_fusion_rules():
    t0 = time.perf_counter()
    checked = 0
    for p in (2, 3, 5):
        G = make_group(p)
        Q1, Q2 = qsystems(G)
        m11 = {s.rep: s for s in simple_bimodules(Q1, Q1)}
        m22 = list(simple_bimodules(Q2, Q2))
        (m12,) = simple_bimodules(Q1, Q2)
        (m21,) = simple_bimodules(Q2, Q1)
        for g, h in itertools.product(m11, repeat=2):
            assert _checked_fuse(m11[g], m11[h]) == {m11[G.add(g, h)]: 1}
            checked += 1
        for a, b in itertools.product(m22, repeat=2):
            prod = tuple((u + v) % p for u, v in zip(a.character.values, b.character.values))
            (expect,) = [s for s in m22 if s.character.values == prod]
            assert _checked_fuse(a, b) == {expect: 1}
            checked += 1
        for g in m11:
            assert _checked_fuse(m21, m11[g]) == {m21: 1}
            checked += 1
        for a in m22:
            assert _checked_fuse(a, m21) == {m21: 1}
            assert _checked_fuse(m12, a) == {m12: 1}
            checked += 2
        assert _checked_fuse(m21, m12) == {s: 1 for s in m22}
        assert _checked_fuse(m12, m21) == {s: 1 for s in m11.values()}
        checked += 2
    _passline(2, f"fusion rules for Z/p, p in {{2,3,5}} ({checked} products)", t0, bound=10.0)


def test_criterion_3_object_identification(z4_invariants):
    t0 = time.perf_counter()
    invG = z4_invariants["G"]
    for desc, scale in zip(invG.objects, invG.scales):
        assert isinstance(desc, RankOneForm)
        assert desc.rank == 1
        assert desc.eigenvalue == 4
        assert desc.prime_set == frozenset({2})  # image is Z[1/4] = Z[1/2]
        assert scale == Fraction(1)
    invE = z4_invariants["E"]
    assert tuple(d.rank for d in invE.objects) == (1, 2, 4)
    _passline(3, "translation objects all Z[1/4]; trivial-tail ranks (1, 2, 4)", t0, bound=5.0)


def test_criterion_4_multiplier_rows(z4_invariants, z4_simples):
    t0 = time.perf_counter()
    expected = {
        "F": dict(zip(FAMILY_ORDER, (1, 2, 4, 1, 1, 2, 1, 1, 1))),
        "G": dict(zip(FAMILY_ORDER, (1, 1, 2, 2, 1, 2, 2, 1, 1))),
    }
    for name, row in expected.items():
        inv = z4_invariants[name]
        for label, simple in z4_simples.items():
            assert dict(inv.morphisms)[simple] == row[label[3:6]], (name, label)
    _passline(4, "multiplier rows (1,2,4,1,1,2,1,1,1) and (1,1,2,2,1,2,2,1,1)", t0, bound=10.0)


def test_criterion_5_classification_verdicts(z4_invariants):
    t0 = time.perf_counter()
    F, G, H, E = (z4_invariants[k] for k in "FGHE")

    fg = compare(F, G)
    assert fg.status == EQUIVALENT
    assert fg.witness_map() == {
        "Q1": Fraction(1), "Q2": Fraction(1, 2), "Q3": Fraction(1, 2),
    }
    assert verify_witness(F, G, fg.witness_map())

    gh = compare(G, H)
    assert gh.status == EQUIVALENT
    assert verify_witness(G, H, gh.witness_map())

    ef = compare(E, F)
    assert ef.status == INEQUIVALENT
    cert = ef.certificate
    assert (cert.kind, cert.at, cert.left, cert.right) == ("rank", "Q2", "2", "1")
    _passline(5, "verdicts: F~G (1,1/2,1/2), G~H verified, E vs F rank 2 != 1 at Q2", t0, bound=5.0)


def test_criterion_6_crossed_product_oracle():
    t0 = time.perf_counter()
    pairs = 0
    for factors in ([4], [6], [8], [12]):
        G = make_group(factors)
        for K in subgroups(G):
            for H in subgroups(G):
                categorical = len(simple_bimodules(K, H))
                assert len(crossed_product_blocks(G, K, H)) == categorical, (factors, K, H)
                pairs += 1
    assert pairs == 9 + 16 + 16 + 36
    _passline(6, f"crossed-product block counts match on all {pairs} subgroup pairs", t0, bound=30.0)


def test_criterion_7_property_battery(z4_simples, z4_diagrams, z4_invariants):
    t0 = time.perf_counter()
    simples = list(z4_simples.values())

    # fusion associativity: all composable triples on Z/4
    cache = {}

    def cached(a, b):
        key = (a, b)
        if key not in cache:
            cache[key] = _checked_fuse(a, b)
        return cache[key]

    def assoc(s1, s2, s3):
        left = {}
        for z, m in cached(s1, s2).items():
            for w, m2 in cached(z, s3).items():
                left[w] = left.get(w, 0) + m * m2
        right = {}
        for z, m in cached(s2, s3).items():
            for w, m2 in cached(s1, z).items():
                right[w] = right.get(w, 0) + m * m2
        assert left == right, (s1, s2, s3)

    triples = 0
    for s1, s2 in itertools.product(simples, repeat=2):
        if s1.target != s2.source:
            continue
        for s3 in simples:
            if s2.target == s3.source:
                assoc(s1, s2, s3)
                triples += 1
    assert triples == 1194

    # fusion associativity: >= 1000 seeded random triples on Z/6
    G6 = make_group(6)
    reps6 = qsystems(G6)
    simples6 = [s for P in reps6 for Q in reps6 for s in simple_bimodules(P, Q)]
    by_source = {}
    for s in simples6:
        by_source.setdefault(s.source, []).append(s)
    rng = random.Random(60406)
    random_triples = 0
    for _ in range(1000):
        s1 = rng.choice(simples6)
        s2 = rng.choice(by_source[s1.target])
        s3 = rng.choice(by_source[s2.target])
        assoc(s1, s2, s3)
        random_triples += 1

    # unit and dual laws, exhaustively on Z/4
    for s in simples:
        assert _checked_fuse(identity_bimodule(s.source), s) == {s: 1}
        assert _checked_fuse(s, identity_bimodule(s.target)) == {s: 1}
        assert _checked_fuse(s, dual(s)).get(identity_bimodule(s.source)) == 1

    # fuse vs the exact oracle, exhaustively for every abelian group of order <= 8 and for
    # Z/12, Z/2 x Z/6 and Z/16, and on 2 000 seeded pairs of Z/4 x Z/4
    oracle_pairs = 0
    exhaustive = (
        [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [12], [2, 6], [16]
    )
    for factors in exhaustive:
        sims = simples_of(make_group(factors))
        for s1 in sims:
            for s2 in sims:
                if s1.target != s2.source:
                    continue
                assert fuse(s1, s2) == oracle_fuse(s1, s2), (factors, s1, s2)
                oracle_pairs += 1
    rng = random.Random(16044)
    sims = simples_of(make_group([4, 4]))
    by_source = {}
    for s in sims:
        by_source.setdefault(s.source, []).append(s)
    for _ in range(2000):
        s1 = rng.choice(sims)
        s2 = rng.choice(by_source[s1.target])
        assert fuse(s1, s2) == oracle_fuse(s1, s2), ([4, 4], s1, s2)
        oracle_pairs += 1

    # value-map level coherence and multiplier compositionality on the
    # translation-action invariants
    coherence_checks = 0
    for name in ("F", "G", "H"):
        d = z4_diagrams[name]
        inv = z4_invariants[name]
        descs = dict(zip(inv.labels, inv.objects))
        for X, q in inv.morphisms:
            if q is None:
                continue
            M = morphism_matrices(d, X)[-1]
            descP = descs[inv.labels[inv.representatives.index(X.source)]]
            descQ = descs[inv.labels[inv.representatives.index(X.target)]]
            n = len(descP.left_vector)
            for i in range(n):
                e = tuple(1 if k == i else 0 for k in range(n))
                assert value_map(descQ, 0, mat_vec(M, e)) == q * value_map(descP, 0, e)
                assert value_map(descQ, 1, mat_vec(M, mat_vec(descP.matrix, e))) == (
                    q * value_map(descP, 0, e)
                )
                coherence_checks += 1
        defined = {X: q for X, q in inv.morphisms if q is not None}
        for X, qx in defined.items():
            for Y, qy in defined.items():
                if X.target != Y.source:
                    continue
                total = sum(m * defined[Z] for Z, m in fuse(X, Y).items())
                assert total == qx * qy, (name, bimodule_label(X), bimodule_label(Y))

    # witness replay on every EQUIVALENT verdict among the running examples
    names = ("F", "G", "H")
    replayed = 0
    for a in names:
        for b in names:
            verdict = compare(z4_invariants[a], z4_invariants[b])
            assert verdict.status == EQUIVALENT
            assert verify_witness(z4_invariants[a], z4_invariants[b], verdict.witness_map())
            replayed += 1

    _passline(
        7,
        f"associativity {triples}+{random_triples} triples, unit/dual laws, "
        f"exact oracle {oracle_pairs} pairs, {coherence_checks} coherence "
        f"checks, {replayed} witnesses replayed",
        t0,
        bound=45.0,
    )

"""Multipliers from the Perron vectors: a closed-form reference for rank-one objects.

For a rank-one object P of a diagram d, let v_P be the left vector of its
``RankOneForm`` and δ_P the dimensions of the tail basis
``d.level_bases(P)[-1]``, the v–P simples x of the last explicit level.  Then

    g_P = (v_P·δ_P) / (|P|·Σv_P),  and  q(X) = (dim X/|P|)·g_Q/g_P

for every simple X: P -> Q between rank-one objects.  The reference below
reads only those vectors and the orders and dimensions of subgroups and
simples: no morphism matrix and no Mackey block.

Proof.  Let M be X's tail morphism matrix, M[y, x] the multiplicity of y in
x ⊗_P X.

* ``_multiplier`` reads q off v_Q·M = c·v_P: with val_P(x) = (v_P·x)/Σv_P,
  val_Q(M·x) = q·val_P(x) gives q = c·Σv_P/Σv_Q.
* (M·δ_P)_y = Σ_x M[y, x]·dim x = dim y·dim X/|Q| for y at vertex w.  By
  Frobenius reciprocity x occurs in y ⊗_Q X̄ as often as y in x ⊗_P X (the
  transposes that ``test_morphism_matrices_of_a_dual_are_the_transposes``
  pins), the simples of the w–P bimodule y ⊗_Q X̄ are the basis elements x
  at w, and it has dimension dim y·dim X̄/|Q|, since C[Q] acts freely on
  both factors, with dim X̄ = dim X.
* So v_Q·M·δ_P = c·(v_P·δ_P) = (dim X/|Q|)·(v_Q·δ_Q).  ``stationary_k0``
  takes v_P nonnegative and nonzero, and δ_P is positive, so v_P·δ_P > 0,
  and q = c·Σv_P/Σv_Q = (dim X/|Q|)·|Q|·g_Q/(|P|·g_P), the formula.

It needs no hypothesis on the diagram beyond both ends being rank-one; in
particular q is never 0, so rank-one objects share one eigenvalue.  The same
q is what ``InvariantData``'s gauge rule accepts, with g scaled to 1 at its
first rank-one object.

The unit's Perron vector also pins the pointed class: ``pointed_faults``
checks the lemma of the ``InvariantData`` docstring, by which a rational
pointed class is never 0.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

from afinv import diagrams
from afinv.diagrams import compute_invariant
from afinv.errors import InternalConsistencyError
from afinv.k0 import RankOneForm
from afinv.serialize import diagram_from_json

from gen_loader import load_gen
from test_closed_forms import regular_invariant
from test_diagrams import random_diagram, regular_action

# every group type of order at most 9
SMALL_GROUPS = [[1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [9], [3, 3]]


def perron_gauges(d, inv) -> dict:
    """g_P = (v_P·δ_P)/(|P|·Σv_P) per rank-one representative P."""
    gauges = {}
    for P, desc in zip(inv.representatives, inv.objects):
        if isinstance(desc, RankOneForm):
            dims = [x.dimension for _, x in d.level_bases(P)[-1]]
            v = desc.left_vector
            gauges[P] = Fraction(sum(a * b for a, b in zip(v, dims)), P.order * sum(v))
    return gauges


def gauge_faults(d, inv, morphisms=None) -> list[str]:
    """Each multiplier of ``inv`` (or of ``morphisms``, a table in its place) the formula misses.

    Without ``morphisms``, ``inv.gauges`` must be the Perron gauges scaled to 1 at
    the first rank-one object too.
    """
    g = perron_gauges(d, inv)
    faults = []
    for X, q in morphisms or inv.morphisms:
        want = None
        if X.source in g and X.target in g:
            want = X.dimension * g[X.target] / (X.source.order * g[X.source])
        if q != want:
            faults.append(f"{X}: {q}, not {want}")
    first = next(iter(g.values()), None)
    if not morphisms and inv.gauges != tuple(g[P] / first if P in g else None
                                             for P in inv.representatives):
        faults.append(f"gauges {inv.gauges}")
    return faults


def bench_diagrams():
    """Every diagram document of the seed 1-3 benchmark workloads."""
    gen = load_gen()
    return [diagram_from_json(doc)
            for seed in (1, 2, 3) for workload in gen.WORKLOADS
            for doc in gen.build(workload, seed)["docs"].values() if "group" in doc]


def drawn_diagrams():
    """``random_diagram`` at seeds 0-3 over every group type of order at most 9."""
    return [random_diagram(random.Random(seed), factors)
            for factors in SMALL_GROUPS for seed in range(4)]


@cache
def bench_and_drawn_invariants():
    """(diagram, invariant) over ``bench_diagrams`` and ``drawn_diagrams``."""
    return [(d, compute_invariant(d)) for d in bench_diagrams() + drawn_diagrams()]


def pointed_faults(d, inv) -> list[str]:
    """Each place where the pointed class of ``inv`` breaks the lemma of ``InvariantData``.

    Over a rank-one Q1 the pointed class is positive and the unit's left
    vector is constant on each vertex block of the tail basis
    ``d.level_bases(Q1)[-1]``; otherwise the pointed vector has a positive
    entry in each block.
    """
    blocks = {}
    for k, (vi, _) in enumerate(d.level_bases(inv.representatives[0])[-1]):
        blocks.setdefault(vi, []).append(k)
    unit = inv.objects[0]
    if isinstance(unit, RankOneForm):
        faults = [] if inv.pointed > 0 else [f"pointed class {inv.pointed}"]
        return faults + [f"left vector varies on block {vi}" for vi, ks in blocks.items()
                         if len({unit.left_vector[k] for k in ks}) > 1]
    return [f"no positive pointed entry on block {vi}" for vi, ks in blocks.items()
            if not any(inv.pointed[k] > 0 for k in ks)]


def test_readme_multipliers_are_the_perron_gauges(z4_diagrams, z4_invariants, two_level_diagram):
    for name, d in z4_diagrams.items():
        assert gauge_faults(d, z4_invariants[name]) == [], name
    assert gauge_faults(two_level_diagram, compute_invariant(two_level_diagram)) == []


def test_computed_pointed_classes_are_positive(z4_diagrams, z4_invariants, two_level_diagram):
    checked = [(d, z4_invariants[name]) for name, d in z4_diagrams.items()]
    checked += [(two_level_diagram, compute_invariant(two_level_diagram))]
    checked += bench_and_drawn_invariants()
    assert [(str(d.group), fault) for d, inv in checked for fault in pointed_faults(d, inv)] == []
    # so that neither branch is vacuous: both kinds of Q1 occur, and some unit's left
    # vector is constant per block but not overall
    rank_one = [inv for _, inv in checked if isinstance(inv.objects[0], RankOneForm)]
    assert 0 < len(rank_one) < len(checked)
    assert any(len(set(inv.objects[0].left_vector)) > 1 for inv in rank_one)


def test_bench_and_drawn_multipliers_are_the_perron_gauges():
    checked = bench_and_drawn_invariants()
    assert [(str(d.group), fault) for d, inv in checked for fault in gauge_faults(d, inv)] == []
    # so that the check is not vacuous: the gauges vary, within and across invariants
    assert len({g for _, inv in checked for g in inv.gauges if g is not None}) > 2


@pytest.mark.parametrize("factors", [[64], [2, 2, 4]], ids=str)
def test_regular_action_multipliers_are_the_perron_gauges(factors):
    inv = regular_invariant(tuple(factors))
    assert gauge_faults(regular_action(factors), inv) == []


def test_a_tripled_multiplier_is_caught(z4_diagrams, z4_invariants):
    inv = z4_invariants["G"]
    k = len(inv.multipliers) - 1
    tripled = inv.multipliers[:k] + (3 * inv.multipliers[k],)
    faults = gauge_faults(z4_diagrams["G"], inv, tuple(zip(inv.simples, tripled)))
    assert faults == [f"{inv.simples[k]}: 3, not 1"]


def test_a_multiplier_read_without_the_value_map_normalization_is_caught(
    z4_diagrams, monkeypatch
):
    # q read as c, with v_Q·M = c·v_P, drops the factor Σv_P/Σv_Q of the value maps:
    # q·Σv_Q/Σv_P is still one gauge per object (g·Σv), so InvariantData accepts it,
    # and only this reference, which reads Σv itself, catches it
    honest = diagrams._multiplier

    def unnormalized(descP, descQ, M):
        return honest(descP, descQ, M) * sum(descQ.left_vector) / sum(descP.left_vector)

    monkeypatch.setattr(diagrams, "_multiplier", unnormalized)
    d = z4_diagrams["F"]
    assert gauge_faults(d, compute_invariant(d)) != []


def test_a_multiplier_read_without_sigma_v_p_alone_breaks_the_gauge_rule(
    z4_diagrams, monkeypatch
):
    # dropping Σv_P alone scales an identity multiplier by 1/Σv_P, which no gauge allows
    honest = diagrams._multiplier
    monkeypatch.setattr(diagrams, "_multiplier",
                        lambda P, Q, M: honest(P, Q, M) / sum(P.left_vector))
    with pytest.raises(InternalConsistencyError, match="not its gauge value"):
        compute_invariant(z4_diagrams["F"])

"""Closed-form invariants of translation actions, from subgroup orders alone.

These references read neither the Mackey rule that ``fuse`` applies nor the
elimination that ``stationary_k0`` runs, so they hold on groups where the
pairwise references are too slow, and they check any rewrite of either.

The translation action at V is the single-vertex diagram with vertex V whose
edges are the V–V simples, each once, with every generator weight 1
(``bench/gen.py``'s ``translation_action``); the regular action is the one at
V = {0}.  Its basis at a Q-system P is Γ_P, the V–P simples: one per coset of
V+P and character of V∩P, so |Γ_P| = [G : V+P]·|V∩P|.

* The tail at P.  A V–V simple e, a coset d of V and a character ψ of V, is
  invertible: fused with a V–P simple x it gives the one V–P simple whose
  coset is x's moved by d and whose character is x's times ψ on V∩P.  The
  [G : V]·|V| = |G| edges form a group, acting on Γ_P transitively, since
  restriction from V to V∩P reaches every character.  So every y in Γ_P is
  reached from every x by |G|/|Γ_P| edges: the tail is that constant times
  the all-ones matrix.  Its left eigenvector v_P is all ones, the eigenvalue
  is |G|, the prime set is the primes of |G|, and the scale, 1/(Σv_P with
  those primes stripped), is 1, as every prime of |Γ_P| divides |G|.
* A multiplier.  Take x in Γ_P, of dimension |V+P|, and a simple X: P → Q,
  of dimension |P+Q|.  x ⊗_P X has dimension |V+P|·|P+Q|/|P|, and every V–Q
  simple has dimension |V+Q|, so the column of x in X's tail matrix sums to
  |V+P|·|P+Q|/(|P|·|V+Q|).  The multiplier q with val_Q(Mx) = q·val_P(x),
  val_P(x) = (v_P·x)/Σv_P, is that column sum times |Γ_P|/|Γ_Q|.  As
  |V+P|·[G : V+P] = |G| = |V+Q|·[G : V+Q] and |P+Q|/|P| = |Q|/|P∩Q|,
  q(X) = [Q : P∩Q]·|V∩P|/|V∩Q|, whatever the simple X of the pair.
* The pointed class is the value of the all-ones weights at the trivial
  Q-system: 1.
* So the translation action at V and the regular action are EQUIVALENT with
  witness u_P = |V∩P|: u_Q·q_V(X) = |V∩Q|·[Q : P∩Q]·|V∩P|/|V∩Q| =
  q_{0}(X)·u_P, and u_{0} = 1 carries the pointed class 1 to 1.
* Every V–V simple n times, with any positive weights w.  The tail at P is n
  times the translation action's, (n·|G|/|Γ_P|)·J, so v_P is still all ones
  and the eigenvalue is n·|G| = n·|simples(V, V)|.  The morphism matrices do
  not read the edges, so q(X) is the translation action's.  The pointed
  class is the value of w at the trivial Q-system, (v·w)/Σv = Σw/len(w).
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afinv.bimodules import qsystems, simple_bimodules
from afinv.compare import EQUIVALENT, compare
from afinv.diagrams import EnrichedBratteliDiagram, compute_invariant
from afinv.errors import InvalidInputError
from afinv.groups import (
    Subgroup,
    lattice_member,
    make_group,
    subgroup_intersection,
    subgroups,
)
from afinv.k0 import RankOneForm
from afinv.serialize import diagram_from_json

from gen_loader import load_gen
from values import replace

# every group type of order at most 16, and Z/32, Z/64 and Z/128: cyclic groups past
# the pairwise references' reach, and with Z/2 x Z/2 x Z/4 and (Z/2)^4 groups whose
# subgroup intersections need up to three and four generators
REGULAR_GROUPS = [
    [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [9], [3, 3],
    [10], [11], [12], [2, 6], [13], [14], [15], [16], [2, 8], [4, 4], [2, 2, 4],
    [2, 2, 2, 2], [32], [64], [128],
]
# every group type of order at most 16 but Z/2 x Z/8, Z/4 x Z/4 and (Z/2)^3 and up,
# whose many subgroups make their translation actions the slowest to compute
TRANSLATION_GROUPS = [
    [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [9], [3, 3],
    [10], [11], [12], [2, 6], [13], [14], [15], [16],
]
# every group type of order at most 12, for the drawn single-vertex diagrams
SMALL_GROUPS = [factors for factors in REGULAR_GROUPS if make_group(factors).order <= 12]


def closed_form(V: Subgroup):
    """The eigenvalue, prime set and multiplier rule of the translation action at V.

    Read off ``afinv.groups`` alone: the order of the group and the orders of
    subgroup intersections.
    """
    n = V.group.order
    primes = frozenset(p for p in range(2, n + 1)
                       if n % p == 0 and all(p % d for d in range(2, p)))

    def meet(A, B):
        return subgroup_intersection(A, B).order

    def multiplier(P, Q):
        return Fraction(Q.order * meet(V, P), meet(P, Q) * meet(V, Q))

    return n, primes, multiplier


def departures(inv, V: Subgroup, morphisms=None) -> list[str]:
    """Where ``inv`` departs from the closed form of the translation action at V.

    ``morphisms`` stands in for ``inv.morphisms``: a table that ``InvariantData`` may refuse.
    """
    eigenvalue, primes, multiplier = closed_form(V)
    found = [
        label
        for label, desc, scale in zip(inv.labels, inv.objects, inv.scales)
        if not isinstance(desc, RankOneForm)
        or (desc.eigenvalue, desc.prime_set, scale) != (eigenvalue, primes, 1)
    ]
    found += [str(X) for X, f in morphisms or inv.morphisms if f != multiplier(X.source, X.target)]
    if inv.pointed != 1:
        found.append("pointed")
    return found


@cache
def regular_invariant(factors: tuple[int, ...]):
    Q1 = qsystems(make_group(factors))[0]
    d = EnrichedBratteliDiagram.homogeneous(Q1, {b: 1 for b in simple_bimodules(Q1, Q1)})
    return compute_invariant(d)


@pytest.mark.parametrize("factors", REGULAR_GROUPS, ids=str)
def test_regular_action_has_the_closed_form(factors):
    inv = regular_invariant(tuple(factors))
    assert departures(inv, inv.representatives[0]) == []


def translation_actions(factors):
    """Each subgroup V of the group with the invariant of the translation action at V."""
    gen = load_gen()
    G = make_group(factors)
    for k, H in enumerate(gen.subgroups(factors)):
        doc = gen.translation_action(factors, H, random.Random(k))
        V = lattice_member(Subgroup(G, tuple(sorted(map(tuple, H)))))
        yield V, compute_invariant(diagram_from_json(doc))


@pytest.mark.parametrize("factors", TRANSLATION_GROUPS, ids=str)
def test_translation_actions_are_the_regular_action_rescaled(factors):
    regular = regular_invariant(tuple(factors))
    for V, inv in translation_actions(factors):
        assert departures(inv, V) == [], V
        verdict = compare(inv, regular)
        assert verdict.status == EQUIVALENT, V
        expected = [(label, Fraction(subgroup_intersection(V, P).order))
                    for label, P in zip(inv.labels, inv.representatives)]
        assert list(verdict.witness) == expected, V


def test_one_tampered_multiplier_or_eigenvalue_departs_from_the_closed_form():
    inv = regular_invariant((2, 4))
    V = inv.representatives[0]
    k = 17
    X, f = inv.morphisms[k]
    multipliers = inv.multipliers[:k] + (2 * f,) + inv.multipliers[k + 1:]
    assert departures(inv, V, tuple(zip(inv.simples, multipliers))) == [str(X)]
    # the gauge rule refuses that table before any invariant holds it
    with pytest.raises(InvalidInputError, match="not its gauge value"):
        replace(inv, multipliers=multipliers)
    desc = inv.objects[3]
    objects = inv.objects[:3] + (replace(desc, eigenvalue=desc.eigenvalue + 1),) + inv.objects[4:]
    assert departures(replace(inv, objects=objects), V) == [inv.labels[3]]


@st.composite
def uniform_single_vertex_diagrams(draw):
    """A vertex V, one drawn multiplicity n on every V–V simple, and positive weights."""
    V = draw(st.sampled_from(subgroups(make_group(draw(st.sampled_from(SMALL_GROUPS))))))
    n = draw(st.integers(1, 6))
    size = V.group.order // V.order
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    d = EnrichedBratteliDiagram.homogeneous(V, dict.fromkeys(simple_bimodules(V, V), n), weights)
    return V, n, weights, d


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(uniform_single_vertex_diagrams())
def test_a_uniform_single_vertex_diagram_has_the_closed_form(drawn):
    V, n, weights, d = drawn
    inv = compute_invariant(d)
    _, _, multiplier = closed_form(V)
    eigenvalue = n * len(simple_bimodules(V, V))
    assert all(isinstance(desc, RankOneForm) and desc.eigenvalue == eigenvalue
               for desc in inv.objects)
    assert inv.multipliers == tuple(multiplier(X.source, X.target) for X in inv.simples)
    assert inv.pointed == Fraction(sum(weights), len(weights))

"""Test support: an independent exact route for composing bimodules.

`afinv.bimodules.fuse` reads S1 ⊗_K S2 off the closed-form Mackey rule.  This
module recomputes it the long way: it realizes both factors as explicit
induced modules with monomial actions (`realize`), and reads each multiplicity
off the traces of the averaging idempotent e = |K|^-1 Σ_k right_k ⊗ left_-k,
projected onto each character of H∩L.  Every action is monomial, so each trace
is a count of fixed points weighted by roots of unity, and it is counted in F_p
for a prime p with an element w of order exactly E, the exponent of G (Dixon's
reduction mod p).  No matrix is built and no float is rounded.  Only terms that
can count are summed: the trace lives on t in H∩K∩L, the right actions carry
no phase, and each component is built once, over the least member of its coset
of H+L.  No production code calls it; the tests compare `fuse` against it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from afinv.bimodules import SimpleBimodule, _composable
from afinv.errors import InvalidInputError, OracleFailureError
from afinv.groups import Subgroup, dual_characters, subgroup_intersection, subgroup_sum


def coset_members(S: SimpleBimodule) -> tuple:
    """The members of S's coset, rep + (H+K), in ascending order."""
    G = S.group
    return tuple(sorted({G.add(S.rep, d) for d in subgroup_sum(S.source, S.target).elements}))


@functools.cache
def root_of_unity(E: int) -> tuple[int, int]:
    """(p, w): the least prime p ≡ 1 (mod E) above 2^31, and w of order exactly E mod p.

    w^v stands for the root of unity e^(2*pi*i*v/E).  A multiplicity is at most
    the dimension of its component, far below p, so its residue is the number.
    """
    p = 2**31 + 1
    p += -(p - 1) % E
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += E
    for x in itertools.count(2):
        w = pow(x, (p - 1) // E, p)  # w^E = 1; its order is E when no w^(E/q), q | E, is 1
        if all(pow(w, E // q, p) != 1 for q in range(2, E + 1) if E % q == 0):
            return p, w


@functools.cache
def least_member(S: Subgroup, g: tuple) -> tuple:
    """The least member of the coset g + S, found here, not by the engine's coset maps."""
    return min(S.group.add(g, d) for d in S.elements)


@dataclass(frozen=True)
class ExplicitBimoduleModel:
    """A concrete graded unitary model of a simple bimodule.

    Basis vector i lies in degree ``grading[i]``, and ``index`` maps each degree
    back to its i.  ``left_action[h][i] = (j, v)`` sends basis vector i to
    e^(2*pi*i*v/E) times basis vector j, for E the exponent of G and v an
    integer mod E.  The right action of k sends basis vector i to the one in
    degree ``grading[i] + k``, with no phase (see `realize`).
    """

    grading: tuple[tuple, ...]
    index: dict
    left_action: dict


@functools.cache
def realize(S: SimpleBimodule, base_point: tuple | None = None) -> ExplicitBimoduleModel:
    """Build the induced-module model of S, once per (S, base point).

    The basis is indexed by the grading values (the coset members); the
    section picks, for each grading value γ, the least h in H with
    γ - base_point - h in K.  The right action carries no phase: for k in K,
    γ + k has the same h as γ, so its phase character(h(γ) - h(γ + k)) is
    character(0) = 0.  The pair (t, -t) with t in H∩K acts by the scalar
    character(t) on every basis vector.  Each phase is the character's integer
    value, mod the exponent of G.
    """
    G = S.group
    H, K = S.source, S.target

    grading = coset_members(S)  # sorted; the grading map is a bijection
    if base_point is None:
        base_point = S.rep
    elif base_point not in grading:
        raise InvalidInputError(f"base point {base_point} is not in the coset")

    index = {g: i for i, g in enumerate(grading)}
    section = {}
    for gamma in grading:
        delta = G.add(gamma, G.neg(base_point))
        # ascending, so the first hit is the least h
        section[gamma] = next(h for h in H.elements if K.contains(G.add(delta, G.neg(h))))

    def left(a):
        # a moves gamma to gamma2 = a + gamma with phase character(a + h(gamma) - h(gamma2))
        maps = []
        for gamma in grading:
            gamma2 = G.add(a, gamma)
            t = G.add(G.add(a, section[gamma]), G.neg(section[gamma2]))
            maps.append((index[gamma2], S.character(t)))
        return tuple(maps)

    return ExplicitBimoduleModel(grading, index, {a: left(a) for a in H.elements})


def oracle_fuse(
    S1: SimpleBimodule,
    S2: SimpleBimodule,
    base_point1: tuple | None = None,
    base_point2: tuple | None = None,
) -> dict[SimpleBimodule, int]:
    """Exact S1 ⊗_K S2 from explicit models, by fixed-point traces in F_p.

    The base points pick the sections of the two induced-module models; the
    multiplicities must not depend on them.  A projected trace above its
    component's dimension is no multiplicity and raises OracleFailureError.

    The trace of left_t ⊗ right_-t ∘ right_k ⊗ left_-k, for t in H∩L and k
    in K, lives on t in H∩K∩L: it moves the degrees by (t + k, -t - k), so it
    fixes a point only when k = -t, and then it fixes every point.

    Each component is found from grading1[0]: every coset of H+L in the
    support meets grading1[0] + grading2, since g1 = grading1[0] + h + k with
    h in H and k in K, so g1 + g2 lies in the coset of grading1[0] + (g2 + k).
    Only the component over each such coset's least member is built, in one
    pass over grading1.
    """
    _composable(S1, S2)
    G = S1.group
    H, K, L = S1.source, S1.target, S2.target
    E = G.exponent
    p, w = root_of_unity(E)
    power = [pow(w, v, p) for v in range(E)]
    m1 = realize(S1, base_point1)
    m2 = realize(S2, base_point2)
    HL = subgroup_intersection(H, L)
    HKL = subgroup_intersection(HL, K)
    sum_HL = subgroup_sum(H, L)
    scale = pow(K.order * HL.order, -1, p)
    # for each t in H∩K∩L, the phases that right_-t ⊗ left_t, then left_t ⊗ right_-t, put on
    # each factor's basis vectors: right_-t carries no phase and undoes left_t's move of the
    # degree, so on S1 the phase at i1 is left_t's at the vector it sends to i1
    phases = [
        (dict(m1.left_action[t]), [v for _, v in m2.left_action[t]]) for t in HKL.elements
    ]

    result = {}
    g0 = m1.grading[0]
    negs = [G.neg(g1) for g1 in m1.grading]
    for g3 in dict.fromkeys(least_member(sum_HL, G.add(g0, g2)) for g2 in m2.grading):
        # the points (i1, i2) of degree g1 + g2 = g3
        comp = [
            (i1, i2) for i1, neg in enumerate(negs)
            if (i2 := m2.index.get(G.add(g3, neg))) is not None
        ]
        trace = [sum(power[(v1[i1] + v2[i2]) % E] for i1, i2 in comp) for v1, v2 in phases]
        for chi3 in dual_characters(HL):
            total = sum(power[-chi3(t) % E] * tr for t, tr in zip(HKL.elements, trace))
            mult = scale * total % p
            if mult > len(comp):
                raise OracleFailureError(
                    f"projected trace {mult} mod {p} exceeds the dimension {len(comp)} "
                    f"for {S1} ⊗ {S2}"
                )
            if mult:
                result[SimpleBimodule(H, L, g3, chi3)] = mult
    return result

"""Test support: an independent floating-point route for composing bimodules.

`afinv.bimodules.fuse` reads S1 ⊗_K S2 off the closed-form Mackey rule.  This
module recomputes it the long way: it realizes both factors as explicit
induced modules with monomial actions (`realize`), builds the averaging
idempotent e = |K|^-1 Σ_k right_k ⊗ left_-k as a numpy matrix on each graded
component, and reads each multiplicity off character-projected traces.  No
production code calls it; the tests compare `fuse` against it.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from afinv.bimodules import SimpleBimodule, _composable
from afinv.errors import InvalidInputError, OracleFailureError
from afinv.groups import dual_characters, subgroup_intersection, subgroup_sum

FLOAT_ORACLE_TOLERANCE = 1e-6


def coset_members(S: SimpleBimodule) -> tuple:
    """The members of S's coset, rep + (H+K), in ascending order."""
    G = S.group
    return tuple(sorted({G.add(S.rep, d) for d in subgroup_sum(S.source, S.target).elements}))


@dataclass
class ExplicitBimoduleModel:
    """A concrete graded unitary model of a simple bimodule.

    ``basis[i]`` is the chosen section pair (h, k) over the grading value
    ``grading[i]``; actions are monomial: ``left_action[h][i] = (j, theta)``
    sends basis vector i to e^(2*pi*i*theta) times basis vector j.
    """

    bimodule: SimpleBimodule
    base_point: tuple
    basis: tuple[tuple[tuple, tuple], ...]
    grading: tuple[tuple, ...]
    left_action: dict
    right_action: dict


def realize(S: SimpleBimodule, base_point: tuple | None = None) -> ExplicitBimoduleModel:
    """Build the induced-module model of S.

    The basis is indexed by the grading values (the coset members); the
    section picks, for each grading value, the lexicographically least pair
    (h, k) with h + base_point + k equal to that value.  The pair (t, -t)
    with t in H∩K then acts by the scalar character(t) on every basis vector.
    Each phase is kept as the Fraction v/E of the character's integer value v
    over the exponent E of G.
    """
    G = S.group
    H, K = S.source, S.target
    E = G.exponent

    def chi(t) -> Fraction:
        return Fraction(S.character(t), E)

    grading = coset_members(S)  # sorted; the grading map is a bijection
    if base_point is None:
        base_point = S.rep
    elif base_point not in grading:
        raise InvalidInputError(f"base point {base_point} is not in the coset")

    index = {g: i for i, g in enumerate(grading)}
    section = {}
    for gamma in grading:
        delta = G.add(gamma, G.neg(base_point))
        for h in H.elements:  # ascending, so the first hit is lex-least in (h, k)
            k = G.add(delta, G.neg(h))
            if K.contains(k):
                section[gamma] = (h, k)
                break

    left_action = {}
    for a in H.elements:
        maps = []
        for gamma in grading:
            gamma2 = G.add(a, gamma)
            t = G.add(G.add(a, section[gamma][0]), G.neg(section[gamma2][0]))
            maps.append((index[gamma2], chi(t)))
        left_action[a] = tuple(maps)
    right_action = {}
    for b in K.elements:
        maps = []
        for gamma in grading:
            gamma2 = G.add(gamma, b)
            t = G.add(section[gamma][0], G.neg(section[gamma2][0]))
            maps.append((index[gamma2], chi(t)))
        right_action[b] = tuple(maps)

    return ExplicitBimoduleModel(
        bimodule=S,
        base_point=base_point,
        basis=tuple(section[g] for g in grading),
        grading=grading,
        left_action=left_action,
        right_action=right_action,
    )




def float_oracle_fuse(
    S1: SimpleBimodule,
    S2: SimpleBimodule,
    base_point1: tuple | None = None,
    base_point2: tuple | None = None,
) -> dict[SimpleBimodule, int]:
    """Floating-point S1 ⊗_K S2 from explicit models (numpy matrices, tolerance 1e-6).

    The base points pick the sections of the two induced-module models; the
    multiplicities must not depend on them.
    """
    _composable(S1, S2)
    G = S1.group
    K = S1.target
    H = S1.source
    L = S2.target
    m1 = realize(S1, base_point1)
    m2 = realize(S2, base_point2)
    n1, n2 = len(m1.grading), len(m2.grading)

    HL = subgroup_intersection(H, L)
    sum_HL = subgroup_sum(H, L)
    points = [(i1, i2) for i1 in range(n1) for i2 in range(n2)]
    degree = {p: G.add(m1.grading[p[0]], m2.grading[p[1]]) for p in points}
    # the least member of each degree's coset of H+L, found here, not by the engine's coset maps
    target_reps = sorted({min(G.add(g, d) for d in sum_HL.elements) for g in degree.values()})

    def phase(theta: Fraction) -> complex:
        return cmath.exp(2j * cmath.pi * float(theta))

    result: Counter[SimpleBimodule] = Counter()
    chars3 = dual_characters(HL)
    for g3 in target_reps:
        comp = [p for p in points if degree[p] == g3]
        pos = {p: i for i, p in enumerate(comp)}
        dim = len(comp)
        e_mat = np.zeros((dim, dim), dtype=complex)
        for k in K.elements:
            r1 = m1.right_action[k]
            l2 = m2.left_action[G.neg(k)]
            for (i1, i2) in comp:
                a1, ph1 = r1[i1]
                a2, ph2 = l2[i2]
                e_mat[pos[(a1, a2)], pos[(i1, i2)]] += phase(ph1 + ph2)
        e_mat /= K.order
        stacked = {}
        for t in HL.elements:
            lt = m1.left_action[t]
            rt = m2.right_action[G.neg(t)]
            m_t = np.zeros((dim, dim), dtype=complex)
            for (i1, i2) in comp:
                b1, ph4 = lt[i1]
                b2, ph3 = rt[i2]
                m_t[pos[(b1, b2)], pos[(i1, i2)]] = phase(ph3 + ph4)
            stacked[t] = m_t @ e_mat
        for chi3 in chars3:
            tr = sum(
                phase(Fraction(-chi3(t), G.exponent) % 1) * np.trace(stacked[t])
                for t in HL.elements
            ) / HL.order
            mult = round(tr.real)
            if abs(tr.real - mult) > FLOAT_ORACLE_TOLERANCE or abs(tr.imag) > FLOAT_ORACLE_TOLERANCE:
                raise OracleFailureError(
                    f"trace {tr} did not resolve to an integer for {S1} ⊗ {S2}"
                )
            if mult < 0:
                raise OracleFailureError(f"negative multiplicity {mult} for {S1}{S2}")
            if mult:
                result[SimpleBimodule(S1.source, S2.target, g3, chi3)] = mult
    return dict(result)


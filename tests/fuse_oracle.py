"""Test support: an independent exact route for composing bimodules.

`afinv.bimodules.fuse` reads S1 ⊗_K S2 off the closed-form Mackey rule.  This
module recomputes it the long way: it realizes both factors as explicit
induced modules with monomial actions (`realize`), and reads each multiplicity
off the traces of the averaging idempotent e = |K|^-1 Σ_k right_k ⊗ left_-k,
projected onto each character of H∩L.  Every action is monomial, so each trace
is a count of fixed points weighted by roots of unity, and it is counted in F_p
for a prime p with an element w of order exactly E, the exponent of G (Dixon's
reduction mod p).  No matrix is built and no float is rounded.  No production
code calls it; the tests compare `fuse` against it.
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

    ``basis[i]`` is the chosen section pair (h, k) over the grading value
    ``grading[i]``; actions are monomial: ``left_action[h][i] = (j, v)`` sends
    basis vector i to e^(2*pi*i*v/E) times basis vector j, for E the exponent
    of G and v an integer mod E.
    """

    bimodule: SimpleBimodule
    base_point: tuple
    basis: tuple[tuple[tuple, tuple], ...]
    grading: tuple[tuple, ...]
    left_action: dict
    right_action: dict


@functools.cache
def realize(S: SimpleBimodule, base_point: tuple | None = None) -> ExplicitBimoduleModel:
    """Build the induced-module model of S, once per (S, base point).

    The basis is indexed by the grading values (the coset members); the
    section picks, for each grading value, the lexicographically least pair
    (h, k) with h + base_point + k equal to that value.  The pair (t, -t)
    with t in H∩K then acts by the scalar character(t) on every basis vector.
    Each phase is the character's integer value, mod the exponent of G.
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
        for h in H.elements:  # ascending, so the first hit is lex-least in (h, k)
            k = G.add(delta, G.neg(h))
            if K.contains(k):
                section[gamma] = (h, k)
                break

    def action(x, a):
        # x moves gamma to gamma2 = gamma + x; a is x's part in H (x itself on the left,
        # 0 on the right), so the phase is character(a + h(gamma) - h(gamma2))
        maps = []
        for gamma in grading:
            gamma2 = G.add(x, gamma)
            t = G.add(G.add(a, section[gamma][0]), G.neg(section[gamma2][0]))
            maps.append((index[gamma2], S.character(t)))
        return tuple(maps)

    return ExplicitBimoduleModel(
        bimodule=S,
        base_point=base_point,
        basis=tuple(section[g] for g in grading),
        grading=grading,
        left_action={a: action(a, a) for a in H.elements},
        right_action={b: action(b, G.zero()) for b in K.elements},
    )


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
    sum_HL = subgroup_sum(H, L)
    twists = [(m1.left_action[t], m2.right_action[G.neg(t)]) for t in HL.elements]
    scale = pow(K.order * HL.order, -1, p)

    components: dict[tuple, list[tuple[int, int]]] = {}
    for (i1, g1), (i2, g2) in itertools.product(enumerate(m1.grading), enumerate(m2.grading)):
        components.setdefault(G.add(g1, g2), []).append((i1, i2))

    result = {}
    for g3, comp in components.items():
        if g3 != least_member(sum_HL, g3):  # one component per coset of H+L
            continue
        # trace[j]: the points that right_k ⊗ left_-k, then the j-th left_t ⊗ right_-t,
        # send back to themselves, summed over k, each weighted by its root of unity
        trace = [0] * len(twists)
        for k in K.elements:
            r1, l2 = m1.right_action[k], m2.left_action[G.neg(k)]
            for i1, i2 in comp:
                (a1, v1), (a2, v2) = r1[i1], l2[i2]
                for j, (lt, rt) in enumerate(twists):
                    (b1, v3), (b2, v4) = lt[a1], rt[a2]
                    if b1 == i1 and b2 == i2:
                        trace[j] += power[(v1 + v2 + v3 + v4) % E]
        for chi3 in dual_characters(HL):
            total = sum(power[-chi3(t) % E] * tr for t, tr in zip(HL.elements, trace))
            mult = scale * total % p
            if mult > len(comp):
                raise OracleFailureError(
                    f"projected trace {mult} mod {p} exceeds the dimension {len(comp)} "
                    f"for {S1} ⊗ {S2}"
                )
            if mult:
                result[SimpleBimodule(H, L, g3, chi3)] = mult
    return result

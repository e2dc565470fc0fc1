"""Crossed products C(G/K) x| H, enumerated directly.

This module is an independent route to simple-object counts: the simple
blocks of the crossed product are enumerated from first principles (orbits of
the translation action, characters of the explicitly computed stabilizer)
without touching the bimodule engine, so its block count can be checked
against the categorical count elsewhere.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, InvalidInputError
from .groups import FiniteAbelianGroup, Subgroup, coset_space, dual_characters

__all__ = ["crossed_product_blocks"]


def crossed_product_blocks(
    G: FiniteAbelianGroup, K: Subgroup, H: Subgroup
) -> tuple[int, ...]:
    """The sizes of the simple blocks M_size(C) of C(G/K) x| H, H translating.

    There is one block per H-orbit on G/K and character of the orbit's
    stabilizer, its size the orbit's length.  The orbits come in the order
    of their least coset reps, and one walk over ``H.elements`` from that
    rep x yields both the orbit and the stabilizer of x, sorted as H is.
    """
    if K.group != G or H.group != G:
        raise InvalidInputError("subgroups must live in the given group")
    rep_of = coset_space(K)
    seen = set()
    stabilizer = None
    sizes = []
    # the coset reps first appear in ascending order
    for x in dict.fromkeys(rep_of.values()):
        if x in seen:
            continue
        images = [rep_of[G.add(x, h)] for h in H.elements]
        orbit = set(images)
        stab = tuple(h for h, y in zip(H.elements, images) if y == x)
        if stabilizer is None:
            stabilizer = stab
            per_orbit = len(dual_characters(Subgroup(G, stab)))
        elif stab != stabilizer:
            raise InternalConsistencyError("stabilizers differ across orbits")
        if len(orbit) * len(stab) != H.order:
            raise InternalConsistencyError("orbit-stabilizer count is off")
        seen |= orbit
        sizes += [len(orbit)] * per_orbit
    total, expected = sum(s * s for s in sizes), (G.order // K.order) * H.order
    if total != expected:
        raise InternalConsistencyError(
            f"block dimensions sum to {total}, expected {expected}"
        )
    return tuple(sizes)

"""Crossed products C(G/K) x| H, enumerated directly.

This module is an independent route to simple-object counts: the simple
blocks of the crossed product are enumerated from first principles (orbits of
the translation action, characters of the explicitly computed stabilizer)
without touching the bimodule engine, so its block count can be checked
against the categorical count elsewhere.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, InvalidInputError
from .groups import (
    Character,
    FiniteAbelianGroup,
    Subgroup,
    _Value,
    coset_space,
    dual_characters,
)

__all__ = [
    "CrossedBlock",
    "CrossedProductBlocks",
    "crossed_product_blocks",
]


class CrossedBlock(_Value):
    """One matrix block M_size(C), tagged by its orbit and stabilizer character."""

    orbit_representative: tuple  # the least member of the orbit's first coset
    character: Character
    size: int


class CrossedProductBlocks(_Value):
    group: FiniteAbelianGroup
    base: Subgroup  # K, so the base space is G/K
    acting: Subgroup  # H, acting by translation
    blocks: tuple[CrossedBlock, ...]

    @property
    def k0_rank(self) -> int:
        return len(self.blocks)

    @property
    def total_dimension(self) -> int:
        return sum(b.size * b.size for b in self.blocks)


def _orbits(G: FiniteAbelianGroup, K: Subgroup, H: Subgroup):
    """Orbits of H translating G/K, each as the sorted tuple of its cosets' reps."""
    rep_of = coset_space(K)
    remaining = set(rep_of.values())
    orbits = []
    while remaining:
        rep = min(remaining)
        orbit = tuple(sorted({rep_of[G.add(rep, h)] for h in H.elements}))
        remaining.difference_update(orbit)
        orbits.append(orbit)
    return orbits


def crossed_product_blocks(
    G: FiniteAbelianGroup, K: Subgroup, H: Subgroup
) -> CrossedProductBlocks:
    """Simple blocks of C(G/K) x| H for the translation action of H."""
    if K.group != G or H.group != G:
        raise InvalidInputError("subgroups must live in the given group")
    blocks = []
    stabilizer = None
    rep_of = coset_space(K)
    for orbit in _orbits(G, K, H):
        x = orbit[0]
        # filtered from the sorted H.elements, so already a sorted subgroup
        stab = Subgroup(G, tuple(h for h in H.elements if rep_of[G.add(x, h)] == x))
        if stabilizer is None:
            stabilizer = stab
            characters = dual_characters(stab)
        elif stab != stabilizer:
            raise InternalConsistencyError("stabilizers differ across orbits")
        if len(orbit) * stab.order != H.order:
            raise InternalConsistencyError("orbit-stabilizer count is off")
        for chi in characters:
            blocks.append(CrossedBlock(orbit[0], chi, len(orbit)))
    result = CrossedProductBlocks(G, K, H, tuple(blocks))
    expected = (G.order // K.order) * H.order
    if result.total_dimension != expected:
        raise InternalConsistencyError(
            f"block dimensions sum to {result.total_dimension}, expected {expected}"
        )
    return result

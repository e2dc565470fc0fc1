"""Crossed products C(G/K) x| H and twisted group algebras, enumerated directly.

This module is an independent route to simple-object counts: the simple
blocks of the crossed product are enumerated from first principles (orbits of
the translation action, characters of the explicitly computed stabilizer)
without touching the bimodule engine, so its block count can be checked
against the categorical count elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError, InvalidInputError
from .groups import (
    Character,
    CocycleTable,
    Coset,
    FiniteAbelianGroup,
    Subgroup,
    coset_of,
    coset_space,
    dual_characters,
    validate_2cocycle,
)

__all__ = [
    "CrossedBlock",
    "CrossedProductBlocks",
    "crossed_product_blocks",
    "k0_rank",
    "TwistedGroupAlgebra",
]


@dataclass(frozen=True)
class CrossedBlock:
    """One matrix block M_size(C), tagged by its orbit and stabilizer character."""

    orbit_representative: Coset
    character: Character
    size: int


@dataclass(frozen=True)
class CrossedProductBlocks:
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
    """Orbits of H translating G/K, each as a sorted tuple of cosets."""
    remaining = {c.rep: c for c in coset_space(G, K)}
    orbits = []
    while remaining:
        rep = min(remaining)
        seen = {}
        covered: set = set()
        for h in H.elements:
            x = G.add(rep, h)
            if x not in covered:
                c = coset_of(G, K, x)
                covered.update(c.members)
                seen[c.rep] = c
        orbit = tuple(seen[r] for r in sorted(seen))
        for r in seen:
            del remaining[r]
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
    for orbit in _orbits(G, K, H):
        x = orbit[0].rep
        base = set(orbit[0].members)
        # filtered from the sorted H.elements, so already a sorted subgroup
        stab = Subgroup(G, tuple(h for h in H.elements if G.add(x, h) in base))
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


def k0_rank(G: FiniteAbelianGroup, K: Subgroup, H: Subgroup) -> int:
    """rank K_0(C(G/K) x| H) = number of simple blocks."""
    return crossed_product_blocks(G, K, H).k0_rank


@dataclass(frozen=True)
class TwistedGroupAlgebra:
    """C_mu[H]: basis u_h with u_a u_b = e^(2 pi i mu(a,b)) u_(a+b)."""

    subgroup: Subgroup
    cocycle: CocycleTable

    def __post_init__(self) -> None:
        if self.cocycle.domain != self.subgroup:
            raise InvalidInputError("cocycle is tabulated on a different subgroup")
        if not validate_2cocycle(self.cocycle):
            raise InvalidInputError("table violates the 2-cocycle identity")

    @property
    def dimension(self) -> int:
        return self.subgroup.order

    def product(self, a, b) -> tuple[tuple[int, ...], Fraction]:
        """u_a u_b as (group element, phase in Q/Z)."""
        G = self.subgroup.group
        return G.add(a, b), self.cocycle(a, b) % 1

    def is_regular(self, h) -> bool:
        """Whether u_h commutes with every basis element."""
        return all(
            self.cocycle(h, g) % 1 == self.cocycle(g, h) % 1
            for g in self.subgroup.elements
        )

    def center_dimension(self) -> int:
        """For abelian H the center is spanned by the u_h with regular h."""
        return sum(1 for h in self.subgroup.elements if self.is_regular(h))

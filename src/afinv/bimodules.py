"""Q-systems over a finite abelian group and their simple bimodules.

An (untwisted) Q-system is a subgroup H.  A simple H-K bimodule is a coset
of H+K together with a character of H∩K.  Composition (``fuse``) reads the
relative tensor product off the closed-form Mackey rule for module categories
over Vec_G (Ostrik's (H, ψ) classification, untwisted abelian case), in
integers only: character phases are integers mod the exponent of G.  The
tests compare it with an independent floating-point trace computation over
explicit induced modules.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InternalConsistencyError,
    InvalidCompositionError,
    InvalidInputError,
)
from .groups import (
    Character,
    Coset,
    FiniteAbelianGroup,
    Subgroup,
    coset_of,
    coset_space,
    dual_characters,
    subgroup_intersection,
    subgroup_sum,
    subgroups,
)


class CompletenessWarning(UserWarning):
    """Twisted Q-system classes exist for this group but are not enumerated."""


@dataclass(frozen=True)
class QSystem:
    """An indecomposable untwisted Q-system: a subgroup."""

    subgroup: Subgroup

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.subgroup.group

    def __str__(self) -> str:
        return f"Q({self.subgroup})"


def qsystems(G: FiniteAbelianGroup) -> list[QSystem]:
    """The canonical representative set: one untwisted Q-system per subgroup.

    The trivial Q-system (the monoidal unit) is always index 0.  A warning is
    issued when some subgroup admits nontrivial cocycle classes, since the
    returned list is then not a complete set of Q-system representatives.
    """
    subs = subgroups(G)
    if any(not H.is_cyclic() for H in subs):
        warnings.warn(
            "some subgroups are non-cyclic: twisted Q-system classes exist "
            "but are not enumerated",
            CompletenessWarning,
            stacklevel=2,
        )
    return [QSystem(H) for H in subs]


@dataclass(frozen=True)
class SimpleBimodule:
    """An irreducible source-target bimodule: (coset of H+K, character of H∩K)."""

    source: QSystem
    target: QSystem
    coset: Coset
    character: Character

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.source.group

    @property
    def dimension(self) -> int:
        return self.coset.size

    def __str__(self) -> str:
        return bimodule_label(self)


def simple_bimodules(P: QSystem, Q: QSystem) -> list[SimpleBimodule]:
    """All simple P-Q bimodules, ordered by (coset rep, character index)."""
    if P.group != Q.group:
        raise InvalidInputError("Q-systems live over different groups")
    H, K = P.subgroup, Q.subgroup
    D = subgroup_sum(H, K)
    I = subgroup_intersection(H, K)
    chars = dual_characters(I)
    out = []
    for coset in coset_space(P.group, D):
        for char in chars:
            out.append(SimpleBimodule(P, Q, coset, char))
    return out


def identity_bimodule(Q: QSystem) -> SimpleBimodule:
    """The unit morphism at Q: the coset H itself with the trivial character."""
    H = Q.subgroup
    coset = Coset(H.group.zero(), H.elements)
    triv = Character(H, (0,) * H.order)
    return SimpleBimodule(Q, Q, coset, triv)


def dual(S: SimpleBimodule) -> SimpleBimodule:
    """The adjoint bimodule: negated coset, conjugated character, sides swapped."""
    G = S.group
    members = tuple(sorted(G.neg(x) for x in S.coset.members))
    return SimpleBimodule(
        S.target, S.source, Coset(members[0], members), S.character.conjugate()
    )


def _composable(S1: SimpleBimodule, S2: SimpleBimodule) -> None:
    if S1.target != S2.source:
        raise InvalidCompositionError(
            f"middle Q-systems differ: {S1.target} vs {S2.source}"
        )


def fuse(S1: SimpleBimodule, S2: SimpleBimodule) -> dict[SimpleBimodule, int]:
    """The relative tensor product S1 ⊗_K S2 as a multiplicity dict.

    For an H-K bimodule S1 = (c1, χ1) and a K-L bimodule S2 = (c2, χ2) the
    Mackey rule gives S1 ⊗_K S2 = m · Σ (d, ψ): d runs over the cosets of H+L
    inside c1+c2+(H+K+L), ψ over the characters of H∩L that agree with χ1+χ2
    on H∩K∩L, and m = |H||K||L||H∩K∩L| / (|H∩K||K∩L||H+K+L||H∩L|).  A
    non-integral m or a change of total dimension aborts rather than rounding.
    """
    _composable(S1, S2)
    G = S1.group
    H = S1.source.subgroup
    K = S1.target.subgroup
    L = S2.target.subgroup
    HK = subgroup_intersection(H, K)
    HL = subgroup_intersection(H, L)
    HKL = subgroup_intersection(HK, L)
    span = subgroup_sum(subgroup_sum(H, K), L)
    sum_HL = subgroup_sum(H, L)

    mult, rem = divmod(
        H.order * K.order * L.order * HKL.order,
        HK.order * subgroup_intersection(K, L).order * span.order * HL.order,
    )
    if rem or mult < 1:
        raise InternalConsistencyError(
            f"multiplicity of {S1} ⊗ {S2} is not a positive integer"
        )

    base = G.add(S1.coset.rep, S2.coset.rep)
    cosets = []
    covered: set[tuple] = set()
    for x in span.elements:
        g = G.add(base, x)
        if g not in covered:
            coset = coset_of(G, sum_HL, g)
            covered.update(coset.members)
            cosets.append(coset)
    E = G.exponent
    phases = {t: (S1.character(t) + S2.character(t)) % E for t in HKL.elements}
    chars = [
        psi for psi in dual_characters(HL)
        if all(psi(t) == phase for t, phase in phases.items())
    ]
    result = {
        SimpleBimodule(S1.source, S2.target, coset, psi): mult
        for coset in cosets
        for psi in chars
    }

    got_dim = sum(m * s.dimension for s, m in result.items())
    if got_dim * K.order != S1.dimension * S2.dimension:
        raise InternalConsistencyError(
            f"dimension mismatch fusing {S1} ⊗ {S2}: "
            f"{got_dim} != {S1.dimension} * {S2.dimension} / {K.order}"
        )
    return result


@dataclass(frozen=True)
class FusionTable:
    """All simple bimodules of a group with their pairwise compositions."""

    group: FiniteAbelianGroup
    simples: tuple[SimpleBimodule, ...]
    products: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_product_map", dict(self.products))

    def product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Composition of simples i and j as ((index, multiplicity), ...)."""
        got = self._product_map.get((i, j))  # type: ignore[attr-defined]
        if got is None:
            raise InvalidCompositionError(f"simples {i} and {j} are not composable")
        return got

    def labels(self) -> tuple[str, ...]:
        return tuple(bimodule_label(s) for s in self.simples)


@lru_cache(maxsize=None)
def fusion_table(G: FiniteAbelianGroup) -> FusionTable:
    """The full composition table; quadratic in the simple count."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompletenessWarning)
        reps = qsystems(G)
    simples: list[SimpleBimodule] = []
    for P in reps:
        for Q in reps:
            simples.extend(simple_bimodules(P, Q))
    index = {s: i for i, s in enumerate(simples)}
    products = []
    for i, s1 in enumerate(simples):
        for j, s2 in enumerate(simples):
            if s1.target != s2.source:
                continue
            out = fuse(s1, s2)
            entry = tuple(sorted((index[s], m) for s, m in out.items()))
            products.append(((i, j), entry))
    return FusionTable(G, tuple(simples), tuple(products))


@lru_cache(maxsize=None)
def _subgroup_positions(G: FiniteAbelianGroup) -> dict:
    return {H.elements: i + 1 for i, H in enumerate(subgroups(G))}


def _format_rep(rep: tuple) -> str:
    if len(rep) == 1:
        return str(rep[0])
    return "(" + ",".join(str(x) for x in rep) + ")"


def bimodule_label(S: SimpleBimodule) -> str:
    """Display name M_{i-j,k}^l keyed to the canonical subgroup ordering.

    i and j are the 1-based positions of the source and target subgroups; the
    coset part k is omitted when there is a single coset, and the character
    part is omitted when the stabilizer H∩K is trivial.
    """
    G = S.group
    pos = _subgroup_positions(G)
    i = pos[S.source.subgroup.elements]
    j = pos[S.target.subgroup.elements]
    I = S.character.domain  # H∩K
    name = f"M_{{{i}-{j}"
    if S.coset.size < G.order:  # more than one coset of H+K
        name += f",{_format_rep(S.coset.rep)}"
    name += "}"
    if I.order > 1:
        chars = dual_characters(I)
        k = chars.index(S.character)
        if k == 0:
            name += "^triv"
        elif I.order == 2:
            name += "^sign"
        else:
            name += f"^chi{k}"
    return name

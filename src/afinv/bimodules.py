"""Q-systems over a finite abelian group and their simple bimodules.

A Q-system is a subgroup: each indecomposable untwisted Q-system is the
algebra C[H] of a subgroup H, and the code passes H itself (a ``Subgroup``).
A simple H-K bimodule is a coset of H+K, named by its least member, together
with a character of H∩K.
Composition reads the relative tensor product off the closed-form Mackey rule
for module categories over Vec_G (Ostrik's (H, ψ) classification, untwisted
abelian case), in integers only: character phases are integers mod the
exponent of G.  ``fuse`` reads one block table per subgroup triple
(``_mackey_blocks``), built on first use and kept in the lattice index;
``fusion_table`` builds each triple's table once per call and keeps none.  A
table reads a character only at generators of H∩K∩L, where its values fix
it.  Multiplier tables are checked by ``InvariantData``, whose gauge rule is
the fusion rule (its docstring has the proof).  The group's
lattice index owns each pair's simples: ``_enumerate_simples`` builds them
once, and the table and every layer list the same objects.
``simple_bimodule`` is the one lookup of a simple by its coset and
character, and ``identity_bimodule`` and ``dual`` return the index's members
through it; characters are looked up in ``afinv.groups``.
The tests compare it with an independent exact trace over explicit induced
modules.
"""

from __future__ import annotations

import warnings
from functools import reduce

from .errors import InternalConsistencyError, InvalidInputError, _cut
from .groups import (
    Character,
    FiniteAbelianGroup,
    Subgroup,
    _Value,
    _lattice_index,
    coset_space,
    dual_characters,
    subgroup_intersection,
    subgroup_sum,
    subgroups,
)


class CompletenessWarning(UserWarning):
    """Twisted Q-system classes exist for this group but are not enumerated."""


def qsystems(G: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    """The canonical representative set: one untwisted Q-system C[H] per subgroup H.

    It is ``subgroups(G)``; the trivial subgroup (the monoidal unit) is always
    index 0.  A warning is issued when some subgroup admits nontrivial cocycle
    classes, since the returned tuple is then not a complete set of Q-system
    representatives.  A finite abelian group has a non-cyclic subgroup exactly
    when it is not cyclic itself, that is when its exponent is not its order.
    """
    subs = subgroups(G)
    if G.exponent != G.order:
        warnings.warn(
            "some subgroups are non-cyclic: twisted Q-system classes exist "
            "but are not enumerated",
            CompletenessWarning,
            stacklevel=2,
        )
    return subs


def qsystem_label(k: int) -> str:
    """The label of ``qsystems(G)[k]``: Q1, Q2, ..., numbered from 1."""
    return f"Q{k + 1}"


class SimpleBimodule(_Value):
    """An irreducible source-target bimodule: (coset of H+K, character of H∩K).

    ``rep`` is the least member of the coset of H+K.
    """

    source: Subgroup
    target: Subgroup
    rep: tuple
    character: Character

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.source.group

    @property
    def dimension(self) -> int:
        """|H+K| = |H||K| / |H∩K|."""
        return self.source.order * self.target.order // self.character.domain.order

    def __str__(self) -> str:
        return bimodule_label(self)


def simple_bimodules(H: Subgroup, K: Subgroup) -> tuple[SimpleBimodule, ...]:
    """All simple H-K bimodules, ordered by (coset rep, character index).

    Each pair's simples are built once and kept in the lattice index of the
    group, and every call returns that one tuple.
    """
    if H.group != K.group:
        raise InvalidInputError("Q-systems live over different groups")
    index = _lattice_index(H.group)
    simples = index.simples.get((H, K))
    if simples is None:
        simples = index.simples[H, K] = _enumerate_simples(index.member(H), index.member(K))
    return simples


def _enumerate_simples(H: Subgroup, K: Subgroup) -> tuple[SimpleBimodule, ...]:
    reps = dict.fromkeys(coset_space(subgroup_sum(H, K)).values())
    chars = dual_characters(subgroup_intersection(H, K))
    return tuple(SimpleBimodule(H, K, rep, char) for rep in reps for char in chars)


def simple_bimodule(H: Subgroup, K: Subgroup, x: tuple, character: Character) -> SimpleBimodule:
    """The member of ``simple_bimodules(H, K)`` on the coset of H+K through x.

    ``character`` is a character of H∩K; an x outside G or a pair naming no member is refused.
    """
    simples = simple_bimodules(H, K)
    rep_of = coset_space(subgroup_sum(H, K))
    if x not in rep_of:
        raise InvalidInputError(f"{_cut(repr(x))} is not an element of {H.group}")
    probe = SimpleBimodule(H, K, rep_of[x], character)
    try:
        return simples[simples.index(probe)]
    except ValueError:
        raise InvalidInputError(
            f"no simple Q({H})-Q({K}) bimodule has coset rep {probe.rep} "
            f"and character {character.values}"
        ) from None


def simples_by_pair(G: FiniteAbelianGroup) -> dict[tuple, tuple[SimpleBimodule, ...]]:
    """``simple_bimodules(P, Q)`` per pair of ``subgroups(G)``, P outer and Q inner.

    Its values, read in order, are the canonical order of the simples of Hilb(G).
    """
    reps = subgroups(G)
    return {(P, Q): simple_bimodules(P, Q) for P in reps for Q in reps}


def simples_of(G: FiniteAbelianGroup) -> tuple[SimpleBimodule, ...]:
    """Every simple of Hilb(G) in the canonical order: ``simples_by_pair(G)`` read in order."""
    return tuple(S for simples in simples_by_pair(G).values() for S in simples)


def identity_bimodule(H: Subgroup) -> SimpleBimodule:
    """The unit morphism at H: the coset H itself with the trivial character.

    It is the first H-H simple: 0 is the least coset rep and the trivial
    character the first character.
    """
    return simple_bimodules(H, H)[0]


def dual(S: SimpleBimodule) -> SimpleBimodule:
    """The adjoint bimodule: negated coset, conjugated character, sides swapped."""
    return simple_bimodule(S.target, S.source, S.group.neg(S.rep), S.character.conjugate())


def _composable(S1: SimpleBimodule, S2: SimpleBimodule) -> None:
    if S1.target != S2.source:
        raise InvalidInputError(f"middle Q-systems differ: Q({S1.target}) vs Q({S2.source})")


def _mackey_blocks(H: Subgroup, K: Subgroup, L: Subgroup):
    """``_build_mackey_blocks(H, K, L)``, built once per triple and kept in the lattice index.

    ``fuse`` is its one caller: ``fusion_table`` reads every triple once and
    builds its tables itself, so it leaves none in the index.
    """
    tables = _lattice_index(H.group).mackey
    if (H, K, L) not in tables:
        tables[H, K, L] = _build_mackey_blocks(H, K, L)
    return tables[H, K, L]


def _build_mackey_blocks(H: Subgroup, K: Subgroup, L: Subgroup):
    """The Mackey rule of the subgroup triple (H, K, L), as (m, key, blocks).

    ``blocks`` groups the H-L simples (d, ψ) of ``simple_bimodules(H, L)``, in
    its order, by ``key``: the coset of H+K+L through d, and ψ at the
    generators of H∩K∩L, whose values fix ψ there.  An H-K simple S1 = (c1, χ1)
    fused with a K-L simple S2 = (c2, χ2) is m copies of the block key(S1, S2)
    of c1+c2 and χ1+χ2, m = |H||K||L||H∩K∩L| / (|H∩K||K∩L||H+K+L||H∩L|).  A
    non-integral m, a wrong block count or a wrong block dimension aborts.
    """
    G = H.group
    HK = subgroup_intersection(H, K)
    HKL = subgroup_intersection(HK, L)
    sum_HK = subgroup_sum(H, K)
    span = subgroup_sum(sum_HK, L)
    mult, rem = divmod(
        H.order * K.order * L.order * HKL.order,
        HK.order * subgroup_intersection(K, L).order * span.order
        * subgroup_intersection(H, L).order,
    )
    if rem or mult < 1:
        raise InternalConsistencyError(
            f"multiplicity of the triple Q({H})-Q({K})-Q({L}) is not a positive integer"
        )

    E = G.exponent
    span_rep = coset_space(span)
    gens = HKL.minimal_generators()

    def key(*terms):
        phases = (sum(S.character(t) for S in terms) % E for t in gens)
        return span_rep[reduce(G.add, (S.rep for S in terms))], tuple(phases)

    blocks: dict[tuple, list[SimpleBimodule]] = {}
    for Z in simple_bimodules(H, L):
        blocks.setdefault(key(Z), []).append(Z)
    # [G : H+K+L]·|H∩K∩L| blocks, each of dimension |H+K||K+L| / (m|K|)
    count, want = G.order // span.order * HKL.order, sum_HK.order * subgroup_sum(K, L).order
    got = [mult * K.order * sum(Z.dimension for Z in block) for block in blocks.values()]
    if got != [want] * count:
        raise InternalConsistencyError(
            f"dimension mismatch in the triple Q({H})-Q({K})-Q({L}): {len(got)} blocks of "
            f"m·|K|·dim {sorted(set(got))}, not {count} of |H+K||K+L| = {want}"
        )
    return mult, key, blocks


def fuse(S1: SimpleBimodule, S2: SimpleBimodule) -> dict[SimpleBimodule, int]:
    """The relative tensor product S1 ⊗_K S2: m times one block of ``_mackey_blocks``."""
    _composable(S1, S2)
    mult, key, blocks = _mackey_blocks(S1.source, S1.target, S2.target)
    block = blocks.get(key(S1, S2))
    if block is None:
        raise InternalConsistencyError(f"{S1} ⊗ {S2} has no Mackey block")
    return {Z: mult for Z in block}


def fusion_table(G: FiniteAbelianGroup) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Every composition of two simples, as ((index, multiplicity), ...) per (i, j).

    Indices are positions in ``simples_of(G)``, and the keys are the composable
    pairs in ascending order, the order they are built in: P, Q, each s1 of
    (P, Q), R, each s2 of (Q, R).  Each (P, Q, R) table is built once, with
    the row of (P, Q), and dropped with it; none enters the lattice index.
    Quadratic in the simple count.
    """
    by_pair = simples_by_pair(G)
    index = {s: i for i, s in enumerate(simples_of(G))}
    reps = subgroups(G)
    products = {}
    for P, Q in by_pair:
        row = []  # per R: the key rule, one entry per block, and the simples of (Q, R)
        for R in reps:
            mult, key, blocks = _build_mackey_blocks(P, Q, R)
            entries = {k: tuple((index[Z], mult) for Z in b) for k, b in blocks.items()}
            row.append((key, entries, by_pair[Q, R]))
        for s1 in by_pair[P, Q]:
            for key, entries, rights in row:
                for s2 in rights:
                    products[index[s1], index[s2]] = entries[key(s1, s2)]
    return products


def _format_rep(rep: tuple) -> str:
    if len(rep) == 1:
        return str(rep[0])
    return "(" + ",".join(str(x) for x in rep) + ")"


def bimodule_label(S: SimpleBimodule) -> str:
    """Display name M_{i-j,k}^l keyed to the canonical subgroup ordering.

    i and j are the 1-based positions of the source and target subgroups; the
    coset part k is omitted when there is a single coset, and the character
    part is omitted when the stabilizer H∩K is trivial.  A table that is no
    character of H∩K, which only a direct constructor call builds, is shown
    by its values, so every simple has a label.
    """
    G = S.group
    position = _lattice_index(G).position
    i = position[S.source] + 1
    j = position[S.target] + 1
    I = S.character.domain  # H∩K
    name = f"M_{{{i}-{j}"
    if S.dimension < G.order:  # more than one coset of H+K
        name += f",{_format_rep(S.rep)}"
    name += "}"
    try:
        k = dual_characters(I).index(S.character)
    except ValueError:  # no character of H∩K, so no index: name its value table
        return name + "^(" + ",".join(map(str, S.character.values)) + ")"
    if I.order > 1:
        if k == 0:
            name += "^triv"
        elif I.order == 2:
            name += "^sign"
        else:
            name += f"^chi{k}"
    return name

"""Enriched Bratteli diagrams and the pointed invariant they present.

A diagram is a chain of levels whose vertices are Q-systems, that is
subgroups, and whose edges carry simple bimodules: an edge from a level-n
vertex v to a level-(n+1) vertex w is a w-v bimodule (morphism w -> v), so
that composing with hom spaces D(v -> P) on the right is covariant in the
level.  Only eventually-stationary diagrams are supported: explicit levels
0..m-1 followed by the last edge block repeating forever.

For each representative subgroup P the diagram induces an inductive system on
the free abelian groups over hom bases: one connecting matrix per edge block,
the last of which repeats forever (a stationary diagram has only that one).
Identifying those limits plus the multipliers of all simple bimodules and the
class of the level-0 generator yields the complete invariant computed here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .bimodules import (
    SimpleBimodule,
    _check_fusion_consistency,
    fuse,
    qsystem_label,
    simple_bimodules,
    simples_by_pair,
    simples_of,
)
from .errors import InternalConsistencyError, InvalidInputError
from .groups import FiniteAbelianGroup, Subgroup, _is_int, _Value, subgroups
from .k0 import (
    K0Description,
    RankOneForm,
    StationarySystem,
    _multiplier,
    mat_mul,
    mat_vec,
    stationary_k0,
    value_map,
)

__all__ = [
    "DiagramEdge",
    "EnrichedBratteliDiagram",
    "InvariantData",
    "object_diagram",
    "morphism_matrices",
    "compute_invariant",
]


@lru_cache(maxsize=None)
def _fuse_cached(S1: SimpleBimodule, S2: SimpleBimodule) -> dict[SimpleBimodule, int]:
    """``fuse`` memoized; every caller shares the returned dict, so none may mutate it."""
    return fuse(S1, S2)


def _check_generator_weights(group: FiniteAbelianGroup, level0, weights) -> None:
    """The weight rule: one nonnegative integer per hom-basis element over ``level0``.

    A level-0 vertex v has |G|/|v| basis elements, and each vertex needs a
    positive weight among its own.  It reads no edge, so ``diagram_from_json``
    applies it before it parses any.
    """
    blocks = [group.order // v.order for v in level0]
    if len(weights) != sum(blocks):
        raise InvalidInputError(f"generator weights must have length {sum(blocks)}")
    if not all(map(_is_int, weights)):
        raise InvalidInputError("generator weights must be integers")
    if any(w < 0 for w in weights):
        raise InvalidInputError("generator weights must be nonnegative")
    offset = 0
    for size in blocks:
        if not any(weights[offset : offset + size]):
            raise InvalidInputError("each level-0 vertex needs a positive generator weight")
        offset += size


class DiagramEdge(_Value):
    """An edge between consecutive levels, labeled by a simple bimodule."""

    source: int  # vertex index at the lower level
    target: int  # vertex index at the upper level
    bimodule: SimpleBimodule
    multiplicity: int

    def __init__(self, source, target, bimodule, multiplicity=1) -> None:
        super().__init__(source, target, bimodule, multiplicity)


class EnrichedBratteliDiagram(_Value):
    """Explicit levels 0..m-1; the final edge block repeats at all later levels.

    ``edges[i]`` connects level i to level i+1 for i < m-1, and ``edges[m-1]``
    connects level m-1 to itself, repeated forever.  ``generator_weights`` is
    the class of the level-0 generator over the level-0 hom basis of the
    trivial Q-system (blocks per vertex, all-ones by default).  Edge ends,
    multiplicities and weights must be integers; nothing is converted.
    """

    group: FiniteAbelianGroup
    levels: tuple[tuple[Subgroup, ...], ...]
    edges: tuple[tuple[DiagramEdge, ...], ...]
    generator_weights: tuple[int, ...]

    def __init__(self, group, levels, edges, generator_weights) -> None:
        super().__init__(group, levels, edges, generator_weights)
        if len(self.levels) == 0 or len(self.edges) != len(self.levels):
            raise InvalidInputError(
                "need edge blocks for each level gap plus a repeating final block"
            )
        for n, block in enumerate(self.edges):
            lower = self.levels[n]
            upper = self.levels[min(n + 1, len(self.levels) - 1)]
            if not block:
                raise InvalidInputError(f"edge block {n} is empty")
            covered = set()
            for k, e in enumerate(block):
                if not all(map(_is_int, (e.source, e.target, e.multiplicity))):
                    raise InvalidInputError(
                        f"edge {k} of block {n} needs integer ends and multiplicity"
                    )
                if not (0 <= e.source < len(lower) and 0 <= e.target < len(upper)):
                    raise InvalidInputError(f"edge {k} of block {n} (from {e.source} "
                                            f"to {e.target}) points outside its levels")
                if e.multiplicity < 1:
                    raise InvalidInputError("edge multiplicities must be >= 1")
                if e.bimodule.source != upper[e.target] or e.bimodule.target != lower[e.source]:
                    raise InvalidInputError(
                        f"edge bimodule {e.bimodule} must be a "
                        f"Q({upper[e.target]})-Q({lower[e.source]}) bimodule"
                    )
                covered.add(e.target)
            if covered != set(range(len(upper))):
                raise InvalidInputError(f"level {n + 1} has unreachable vertices")
        _check_generator_weights(self.group, self.levels[0], self.generator_weights)

    @classmethod
    def homogeneous(
        cls,
        vertex: Subgroup,
        edge,
        generator_weights=None,
    ) -> "EnrichedBratteliDiagram":
        """Single-vertex stationary diagram; ``edge`` maps bimodule -> multiplicity."""
        G = vertex.group
        edges = tuple(DiagramEdge(0, 0, bim, mult) for bim, mult in edge.items())
        if generator_weights is None:
            generator_weights = (1,) * (G.order // vertex.order)
        return cls(G, ((vertex,),), (edges,), tuple(generator_weights))

    @property
    def is_stationary(self) -> bool:
        return len(self.levels) == 1

    def level_bases(self, P: Subgroup) -> tuple[tuple[tuple[int, SimpleBimodule], ...], ...]:
        """Per explicit level: the concatenated hom bases with their vertex index.

        The canonical Z-basis of D(v -> P) is the ordered list of simple v-P
        bimodules.  The lattice index of the group owns those simples; each
        call lists them once per distinct vertex and holds nothing itself.
        """
        vertices = dict.fromkeys(v for level in self.levels for v in level)
        simples = {v: simple_bimodules(v, P) for v in vertices}
        return tuple(
            tuple((vi, s) for vi, v in enumerate(level) for s in simples[v])
            for level in self.levels
        )


def _fusion_matrix(row_basis, columns):
    """The fusion matrix onto the (vertex, simple) rows of ``row_basis``.

    Column c sums weight * fuse(S1, S2) over its terms (wi, S1, S2, weight).
    """
    index = {key: r for r, key in enumerate(row_basis)}
    rows = [[0] * len(columns) for _ in row_basis]
    for c, terms in enumerate(columns):
        for wi, S1, S2, weight in terms:
            for y, m in _fuse_cached(S1, S2).items():
                r = index.get((wi, y))
                if r is None:
                    raise InternalConsistencyError(
                        f"{S1} ⊗ {S2} has a term outside the basis at vertex {wi}"
                    )
                rows[r][c] += weight * m
    return tuple(tuple(row) for row in rows)


def object_diagram(d: EnrichedBratteliDiagram, P: Subgroup) -> tuple:
    """The Bratteli diagram of the functor at P: one matrix per edge block.

    The last one repeats forever.  Entry [(w, y), (v, x)] sums mult *
    (multiplicity of y in fuse(e, x)) over edges e: v -> w.  Rows and columns
    run over ``d.level_bases(P)`` in its order, which is all that ties a
    matrix index to a simple.
    """
    bases = d.level_bases(P)
    mats = []
    for n, block in enumerate(d.edges):
        by_source: dict[int, list] = {}
        for e in block:
            by_source.setdefault(e.source, []).append(e)
        columns = [
            [(e.target, e.bimodule, x, e.multiplicity) for e in by_source.get(vi, ())]
            for vi, x in bases[n]
        ]
        mats.append(_fusion_matrix(bases[min(n + 1, len(bases) - 1)], columns))
    return tuple(mats)


def morphism_matrices(d: EnrichedBratteliDiagram, X: SimpleBimodule):
    """Per explicit level, the matrix of (- fused with X): P-basis -> Q-basis.

    X is a P-Q bimodule; entry [y, x] is the multiplicity of y in fuse(x, X)
    for x in the level's P-basis and y in its Q-basis.  For stationary
    diagrams the single returned matrix holds at every level.
    """
    return [
        _fusion_matrix(bQ, [[(vi, x, X, 1)] for vi, x in bP])
        for bP, bQ in zip(d.level_bases(X.source), d.level_bases(X.target))
    ]


class InvariantData(_Value):
    """The computed pointed invariant of a diagram, restricted to representatives.

    The group fixes everything but the values: ``objects`` and ``scales`` run
    over the representatives ``subgroups(group)``, labelled Q1, Q2, ..., and
    ``multipliers`` over ``simples_of(group)``.
    """

    group: FiniteAbelianGroup
    objects: tuple[K0Description, ...]
    scales: tuple[Fraction | None, ...]
    multipliers: tuple[Fraction | None, ...]
    pointed: Fraction | tuple[int, ...]

    def __init__(self, group, objects, scales, multipliers, pointed) -> None:
        super().__init__(group, objects, scales, multipliers, pointed)
        for field, values, count, what in (
            ("objects", self.objects, len(self.labels), "Q-systems"),
            ("scales", self.scales, len(self.labels), "Q-systems"),
            ("morphisms", self.multipliers, len(self.simples), "simple bimodules"),
        ):
            if len(values) != count:
                raise InvalidInputError(f"{field} must list each of the {count} {what} once")
        for name, desc, scale in zip(self.labels, self.objects, self.scales):
            if isinstance(desc, RankOneForm) != (scale is not None and scale > 0):
                raise InvalidInputError(f"scale of {name} must be positive if rank-one, else null")

    @cached_property
    def representatives(self) -> tuple[Subgroup, ...]:
        return subgroups(self.group)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(qsystem_label(i) for i in range(len(self.representatives)))

    @cached_property
    def simples(self) -> tuple[SimpleBimodule, ...]:
        return simples_of(self.group)

    @cached_property
    def morphisms(self) -> tuple[tuple[SimpleBimodule, Fraction | None], ...]:
        """Each simple with its multiplier."""
        return tuple(zip(self.simples, self.multipliers))


def compute_invariant(d: EnrichedBratteliDiagram) -> InvariantData:
    """Objects, morphism multipliers, and the pointed class, all exact."""
    reps = subgroups(d.group)
    systems = {P: object_diagram(d, P) for P in reps}
    descs = {P: stationary_k0(StationarySystem(mats[-1])) for P, mats in systems.items()}

    multipliers = []
    for (P, Q), simples in simples_by_pair(d.group).items():
        for X in simples:
            mats = morphism_matrices(d, X)
            _check_intertwining(systems[P], systems[Q], mats, X)
            if isinstance(descs[P], RankOneForm) and isinstance(descs[Q], RankOneForm):
                # the tail intertwining was checked just above
                q = _multiplier(descs[P], descs[Q], mats[-1])
            else:
                q = None
            multipliers.append(q)

    # push the level-0 generator weights through the prefix to the tail start
    unit = reps[0]
    w = d.generator_weights
    for M in systems[unit][:-1]:
        w = mat_vec(M, w)
    if isinstance(descs[unit], RankOneForm):
        pointed: Fraction | tuple[int, ...] = value_map(descs[unit], 0, w)
    else:
        pointed = tuple(w)

    inv = InvariantData(
        group=d.group,
        objects=tuple(descs.values()),
        scales=tuple(desc.scale if isinstance(desc, RankOneForm) else None
                     for desc in descs.values()),
        multipliers=tuple(multipliers),
        pointed=pointed,
    )
    _check_fusion_consistency(inv.group, inv.morphisms)
    return inv


def _transpose(A):
    return tuple(zip(*A))


def _intertwines(AQ, M, N, AP) -> bool:
    """Whether AQ·M == N·AP, with the sparse morphism matrices M and N as left factors.

    AQ·M is compared as its transpose Mᵀ·AQᵀ, so both products skip the zeros
    of a morphism matrix inside ``mat_mul``.
    """
    return mat_mul(_transpose(M), _transpose(AQ)) == _transpose(mat_mul(N, AP))


def _check_intertwining(sysP, sysQ, mats, X) -> None:
    if not _intertwines(sysQ[-1], mats[-1], mats[-1], sysP[-1]):
        raise InternalConsistencyError(
            f"morphism matrix of {X} does not intertwine the stationary tails"
        )
    for n, (MP, MQ) in enumerate(zip(sysP[:-1], sysQ[:-1])):
        if not _intertwines(MQ, mats[n], mats[n + 1], MP):
            raise InternalConsistencyError(
                f"morphism matrices of {X} do not intertwine at level {n}"
            )


"""Metamorphic relations: rewrites of a diagram that keep its inductive limit keep its invariant.

- Reordering the edges of a block changes no connecting matrix.
- Prepending a level that joins each level-0 vertex to itself by its identity
  bimodule prepends identity connecting maps.
- Permuting the vertices of every level, with the edge ends and the level-0
  weight blocks, conjugates the connecting maps by permutations, so the
  action is the same up to equivalence.

The rewritten diagrams are built from the original's own edges, identity
bimodules and permutations; nothing here fuses bimodules.
"""

import json
import time

import pytest

from afinv.bimodules import identity_bimodule, simple_bimodules
from afinv.compare import EQUIVALENT, INEQUIVALENT, compare, verify_witness
from afinv.diagrams import DiagramEdge, EnrichedBratteliDiagram, compute_invariant
from afinv.k0 import RankOneForm
from afinv.serialize import invariant_to_json

BOUND_S = 5.0


@pytest.fixture(scope="module", autouse=True)
def _bounded():
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < BOUND_S, f"the metamorphic relations took {dt:.2f}s, bound {BOUND_S}s"


@pytest.fixture()
def diagrams(z4, z4_reps, z4_diagrams, two_level_diagram):
    """The Z/4 running examples, the two-level diagram, and one two-vertex, two-level diagram."""
    Q1, Q2, Q3 = z4_reps
    first = (
        DiagramEdge(0, 0, simple_bimodules(Q2, Q1)[0]),
        DiagramEdge(1, 1, simple_bimodules(Q3, Q2)[0]),
        DiagramEdge(1, 0, simple_bimodules(Q2, Q2)[1]),
    )
    tail = tuple(DiagramEdge(0, 0, b) for b in simple_bimodules(Q2, Q2))
    tail += (DiagramEdge(0, 1, simple_bimodules(Q3, Q2)[0]),)
    two_vertex = EnrichedBratteliDiagram(
        z4, ((Q1, Q2), (Q2, Q3)), (first, tail), generator_weights=(1, 0, 0, 0, 1, 1)
    )
    return {**z4_diagrams, "two-level": two_level_diagram, "two-vertex": two_vertex}


def _invariant_text(d: EnrichedBratteliDiagram) -> str:
    return json.dumps(invariant_to_json(compute_invariant(d)))


def _with_edges_reversed(d):
    return EnrichedBratteliDiagram(
        d.group, d.levels, tuple(block[::-1] for block in d.edges), d.generator_weights
    )


def _with_identity_level(d):
    identity = tuple(DiagramEdge(i, i, identity_bimodule(v)) for i, v in enumerate(d.levels[0]))
    return EnrichedBratteliDiagram(
        d.group, (d.levels[0],) + d.levels, (identity,) + d.edges, d.generator_weights
    )


def _with_vertices_reversed(d):
    """``d`` with the vertices of every level in reverse order."""
    last = len(d.levels) - 1
    levels = tuple(level[::-1] for level in d.levels)
    edges = tuple(
        tuple(
            DiagramEdge(
                len(d.levels[n]) - 1 - e.source,
                len(d.levels[min(n + 1, last)]) - 1 - e.target,
                e.bimodule,
                e.multiplicity,
            )
            for e in block
        )
        for n, block in enumerate(d.edges)
    )
    blocks, start = [], 0
    for v in d.levels[0]:  # the weights over v's hom basis move with v
        size = d.group.order // v.order
        blocks.append(d.generator_weights[start:start + size])
        start += size
    weights = tuple(w for block in reversed(blocks) for w in block)
    return EnrichedBratteliDiagram(d.group, levels, edges, weights)


def test_reordering_the_edges_of_every_block_keeps_the_invariant(diagrams):
    for name, d in diagrams.items():
        assert _invariant_text(_with_edges_reversed(d)) == _invariant_text(d), name


def test_prepending_an_identity_level_keeps_the_invariant(diagrams):
    for name, d in diagrams.items():
        assert _invariant_text(_with_identity_level(d)) == _invariant_text(d), name


def test_permuting_the_vertices_of_every_level_keeps_the_verdict(diagrams):
    decided = []
    for name, d in diagrams.items():
        inv, permuted = compute_invariant(d), compute_invariant(_with_vertices_reversed(d))
        verdict = compare(inv, permuted)
        if all(isinstance(desc, RankOneForm) for desc in inv.objects + permuted.objects):
            assert verdict.status == EQUIVALENT, name
            assert set(verdict.witness_map().values()) == {1}, name
            assert verify_witness(inv, permuted, verdict.witness_map()), name
            decided.append(name)
        else:
            assert verdict.status != INEQUIVALENT, name
    assert decided == ["F", "G", "H", "two-level", "two-vertex"]  # E stays UNKNOWN

import functools
import warnings

import pytest

from afinv import bimodules, groups
from afinv.bimodules import CompletenessWarning, qsystems, simple_bimodules
from afinv.diagrams import DiagramEdge, EnrichedBratteliDiagram, compute_invariant
from afinv.groups import make_group


@pytest.fixture(autouse=True)
def _quiet_completeness():
    # Many tests sweep over groups with non-cyclic subgroups; the completeness
    # warning is asserted explicitly where it matters.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompletenessWarning)
        yield


@pytest.fixture()
def fresh_lattice_index(monkeypatch):
    """An empty lattice index cache for one test, so the builds it makes can be counted."""
    fresh = functools.lru_cache(maxsize=None)(groups._lattice_index.__wrapped__)
    for module in (groups, bimodules):
        monkeypatch.setattr(module, "_lattice_index", fresh)


@pytest.fixture(scope="session")
def z4():
    return make_group(4)


@pytest.fixture(scope="session")
def z4_reps(z4):
    return qsystems(z4)


@pytest.fixture(scope="session")
def z4_simples(z4_reps):
    """All 22 simple bimodules of Hilb(Z/4), keyed by label."""
    from afinv.bimodules import bimodule_label

    out = {}
    for P in z4_reps:
        for Q in z4_reps:
            for s in simple_bimodules(P, Q):
                out[bimodule_label(s)] = s
    return out


@pytest.fixture(scope="session")
def z4_diagrams(z4_reps):
    """The four running examples: F, G, H (regular-ish) and E (trivial action)."""
    Q1, Q2, Q3 = z4_reps
    homog = EnrichedBratteliDiagram.homogeneous
    F = homog(Q1, {b: 1 for b in simple_bimodules(Q1, Q1)})
    G = homog(Q2, {b: 1 for b in simple_bimodules(Q2, Q2)})
    H = homog(Q3, {b: 1 for b in simple_bimodules(Q3, Q3)})
    triv = next(b for b in simple_bimodules(Q3, Q3) if not any(b.character.values))
    E = homog(Q3, {triv: 4})
    return {"F": F, "G": G, "H": H, "E": E}


@pytest.fixture(scope="session")
def z4_invariants(z4_diagrams):
    return {k: compute_invariant(d) for k, d in z4_diagrams.items()}


@pytest.fixture()
def two_level_diagram(z4, z4_reps, z4_simples):
    """Starts at the trivial Q-system, jumps to Q2, then repeats the Q2 action."""
    Q1, Q2, Q3 = z4_reps
    jump = DiagramEdge(0, 0, z4_simples["M_{2-1,0}"])
    tail = tuple(DiagramEdge(0, 0, b) for b in simple_bimodules(Q2, Q2))
    return EnrichedBratteliDiagram(
        group=z4,
        levels=((Q1,), (Q2,)),
        edges=((jump,), tail),
        generator_weights=(1, 1, 1, 1),
    )

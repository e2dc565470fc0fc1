"""JSON wire formats for every exported object.

All documents are plain JSON-compatible dicts; rationals travel as strings
("1/2", integers as "1") and group elements as integer arrays.

Input documents are the ones a command reads: groups, subgroups, characters,
bimodules, matrices and diagrams.  Each has a parser here that validates its
structure, raises InvalidInputError on malformed input so the CLI can map it
to its input-error exit code, and gives ``parse(render(x)) == x``.  Fusion
tables, K0 descriptions, invariants and verdicts are output only: afinv
computes them and no command reads them back, so they have renderers and no
parsers.

The parsers check the shape of a document only: it is an object, a key is
present, a value is a list.  Every value goes to its owner, which checks it:
``make_group`` the cyclic factors, ``FiniteAbelianGroup.reduce`` each element,
``EnrichedBratteliDiagram`` the edge ends, multiplicities and generator weights,
and ``StationarySystem`` the matrix entries.  The weight rule,
``diagrams._check_generator_weights``, reads no edge, so ``diagram_from_json``
also applies it once level 0 is read, before any edge is parsed.  A subgroup,
character or bimodule parses to the member the lattice index of its group
holds, found by the lookup its owner keeps (``groups.lattice_member``,
``groups.character_with_values``, ``bimodules.simple_bimodule``); this module
keeps none of its own.  The reads are lenient where the formats say so:
elements are reduced mod the factors and phases mod 1.  A matrix document may
carry a ``labels`` list, one entry per row; nothing reads its entries.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import diagrams, k0
from .bimodules import (
    SimpleBimodule,
    bimodule_label,
    simple_bimodule,
    simples_of,
)
from .errors import InvalidInputError, _cut
from .groups import (
    Character,
    FiniteAbelianGroup,
    Subgroup,
    character_with_values,
    lattice_member,
    make_group,
    subgroup_intersection,
)

__all__ = [
    "frac_to_str",
    "frac_from_str",
    "group_to_json",
    "group_from_json",
    "subgroup_to_json",
    "subgroup_from_json",
    "character_to_json",
    "character_from_json",
    "bimodule_to_json",
    "bimodule_from_json",
    "fusion_table_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "k0_to_json",
    "diagram_to_json",
    "diagram_from_json",
    "invariant_to_json",
    "verdict_to_json",
]


def frac_to_str(q: Fraction) -> str:
    return str(Fraction(q))


# the form frac_to_str writes: an optional minus, digits, optionally /digits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac_from_str(s) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise InvalidInputError(f"not a rational number: {_cut(repr(s))}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a rational number: {_cut(repr(s))}") from exc


def _expect(doc, key, kind):
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidInputError(f"missing required key {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise InvalidInputError(f"key {key!r} has the wrong type")
    return value


def _list(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise InvalidInputError(f"each {what} must be a list")
    return raw


def _element(G: FiniteAbelianGroup, raw) -> tuple[int, ...]:
    return G.reduce(_list(raw, "element"))


# -- groups and subgroups ---------------------------------------------------

def group_to_json(G: FiniteAbelianGroup) -> dict:
    return {"cyclic_factors": list(G.cyclic_factors)}


def group_from_json(doc) -> FiniteAbelianGroup:
    return make_group(_expect(doc, "cyclic_factors", list))


def subgroup_to_json(H: Subgroup) -> dict:
    return {"generators": [list(g) for g in H.minimal_generators()]}


def subgroup_from_json(G: FiniteAbelianGroup, doc) -> Subgroup:
    """The subgroup ``doc`` generates, as the equal member of ``subgroups(G)``.

    So equal subgroups of a document, and of two documents on one group, are
    one object, the one ``compute_invariant`` enumerates.
    """
    gens = _expect(doc, "generators", list)
    return lattice_member(Subgroup.generated(G, [_element(G, g) for g in gens]))


# -- characters and bimodules -----------------------------------------------

def _element_key(e) -> str:
    return json.dumps(list(e), separators=(",", ":"))


def character_to_json(chi: Character) -> dict:
    E = chi.domain.group.exponent
    theta = {}
    for e, v in zip(chi.domain.elements, chi.values):
        if v:
            theta[_element_key(e)] = frac_to_str(Fraction(v, E))
    return {"theta": theta}


def character_from_json(domain: Subgroup, doc) -> Character:
    """The member of ``dual_characters(domain)`` with the phases ``theta`` lists.

    Each phase is read mod 1 as a numerator over the exponent E of the group;
    unlisted phases are 0.  A table that is none of those members, one with a
    phase that is not a multiple of 1/E included, is no homomorphism to Q/Z
    and is refused.
    """
    theta = _expect(doc, "theta", dict)
    G = domain.group
    E = G.exponent
    table = {}
    for key, raw in theta.items():
        try:
            elem = _element(G, json.loads(key))
        except (json.JSONDecodeError, RecursionError, InvalidInputError) as exc:
            raise InvalidInputError(f"bad element key {_cut(repr(key))}") from exc
        if not domain.contains(elem):
            raise InvalidInputError(f"element {_cut(key)} is outside the character domain")
        if elem in table:
            raise InvalidInputError(f"theta names the element {list(elem)} twice")
        table[elem] = frac_from_str(raw) * E % E
    return character_with_values(domain, tuple(table.get(e, 0) for e in domain.elements))


def bimodule_to_json(S: SimpleBimodule) -> dict:
    return {
        "source_generators": [list(g) for g in S.source.minimal_generators()],
        "target_generators": [list(g) for g in S.target.minimal_generators()],
        "coset_rep": list(S.rep),
        "character": character_to_json(S.character),
    }


def bimodule_from_json(G: FiniteAbelianGroup, doc) -> SimpleBimodule:
    """The simple the document names, as the equal member of ``simple_bimodules``.

    So a parsed edge and the simples every layer enumerates are one object.
    """
    H = subgroup_from_json(G, {"generators": _expect(doc, "source_generators", list)})
    K = subgroup_from_json(G, {"generators": _expect(doc, "target_generators", list)})
    x = _element(G, _expect(doc, "coset_rep", list))
    chi = character_from_json(
        subgroup_intersection(H, K), _expect(doc, "character", dict)
    )
    return simple_bimodule(H, K, x, chi)


# -- fusion tables ----------------------------------------------------------

def fusion_table_to_json(G: FiniteAbelianGroup, products: dict) -> dict:
    """The document of ``fusion_table(G)``, whose indices are positions in ``simples_of(G)``."""
    simples = simples_of(G)
    return {
        "group": group_to_json(G),
        "simples": [bimodule_to_json(s) for s in simples],
        "labels": [bimodule_label(s) for s in simples],
        "products": {
            f"{i},{j}": [{"index": k, "multiplicity": m} for k, m in terms]
            for (i, j), terms in products.items()
        },
    }


# -- matrices and K0 descriptions -------------------------------------------

def matrix_to_json(sys: k0.StationarySystem) -> dict:
    return {"rows": [list(r) for r in sys.matrix]}


def matrix_from_json(doc) -> k0.StationarySystem:
    matrix = [_list(row, "matrix row") for row in _expect(doc, "rows", list)]
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InvalidInputError("matrix labels must be a list")
    sys = k0.StationarySystem(matrix)
    if labels is not None and len(labels) != len(sys.matrix):
        raise InvalidInputError("label count does not match matrix size")
    return sys


def _rank_one_to_json(desc: k0.RankOneForm) -> dict:
    return {
        "variant": "rank-one",
        "matrix": [list(r) for r in desc.matrix],
        "eigenvalue": desc.eigenvalue,
        "left_vector": list(desc.left_vector),
        "prime_set": sorted(desc.prime_set),
        "scale": frac_to_str(desc.scale),
    }


def k0_to_json(desc: k0.K0Description) -> dict:
    if isinstance(desc, k0.RankOneForm):
        return _rank_one_to_json(desc)
    if isinstance(desc, k0.DirectSumForm):
        return {
            "variant": "direct-sum",
            "matrix": [list(r) for r in desc.matrix],
            "blocks": [_rank_one_to_json(b) for b in desc.blocks],
            "partition": [list(p) for p in desc.partition],
        }
    return {
        "variant": "opaque",
        "matrix": [list(r) for r in desc.matrix],
        "rank": desc.rank,
    }


# -- diagrams ----------------------------------------------------------------

def diagram_to_json(d: diagrams.EnrichedBratteliDiagram) -> dict:
    if d.is_stationary and len(d.levels[0]) == 1:
        return {
            "group": group_to_json(d.group),
            "vertex": subgroup_to_json(d.levels[0][0]),
            "edge": [
                {"bimodule": bimodule_to_json(e.bimodule), "multiplicity": e.multiplicity}
                for e in d.edges[0]
            ],
            "generator_weights": list(d.generator_weights),
        }
    return {
        "group": group_to_json(d.group),
        "levels": [
            [subgroup_to_json(v) for v in level] for level in d.levels
        ],
        "edges": [
            [
                {
                    "from": e.source,
                    "to": e.target,
                    "bimodule": bimodule_to_json(e.bimodule),
                    "multiplicity": e.multiplicity,
                }
                for e in block
            ]
            for block in d.edges
        ],
        "generator_weights": list(d.generator_weights),
    }


def _edge_from_json(G, doc, bimodules: dict, ends: bool) -> diagrams.DiagramEdge:
    """One edge; ``bimodules`` maps each bimodule already read, as its ``repr``, to its parse.

    Its ``from`` and ``to`` are read when ``ends`` is true; otherwise the edge
    runs from vertex 0 to vertex 0.  Edges that repeat a bimodule share one
    object, parsed and validated once.  The ``repr`` tells ``True`` from
    ``1``; the same bimodule with its keys in another order is only parsed
    once more.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError(f"edge {_cut(repr(doc))} must be an object")
    source = target = 0
    if ends:
        source, target = _expect(doc, "from", None), _expect(doc, "to", None)
    raw = _expect(doc, "bimodule", dict)
    key = repr(raw)
    bimodule = bimodules.get(key)
    if bimodule is None:
        bimodule = bimodules[key] = bimodule_from_json(G, raw)
    return diagrams.DiagramEdge(source, target, bimodule, doc.get("multiplicity", 1))


def diagram_from_json(doc) -> diagrams.EnrichedBratteliDiagram:
    """A diagram document; the single-vertex shape is read as one level of one vertex."""
    G = group_from_json(_expect(doc, "group", dict))
    weights = _expect(doc, "generator_weights", list)
    ends = "vertex" not in doc
    if ends:
        levels = tuple(
            tuple(subgroup_from_json(G, v) for v in _list(level, "level"))
            for level in _expect(doc, "levels", list)
        )
    else:
        levels = ((subgroup_from_json(G, doc["vertex"]),),)
    if levels:
        diagrams._check_generator_weights(G, levels[0], weights)
    raw_blocks = _expect(doc, "edges", list) if ends else [_expect(doc, "edge", list)]
    bimodules: dict[str, SimpleBimodule] = {}
    blocks = tuple(
        tuple(_edge_from_json(G, e, bimodules, ends) for e in _list(block, "edge block"))
        for block in raw_blocks
    )
    return diagrams.EnrichedBratteliDiagram(G, levels, blocks, tuple(weights))


# -- invariants ---------------------------------------------------------------

def _optional_str(q: Fraction | None) -> str | None:
    return None if q is None else frac_to_str(q)


def invariant_to_json(inv: diagrams.InvariantData) -> dict:
    pointed = inv.pointed
    return {
        "group": group_to_json(inv.group),
        "representatives": [subgroup_to_json(H) for H in inv.representatives],
        "labels": list(inv.labels),
        "objects": {label: k0_to_json(desc) for label, desc in zip(inv.labels, inv.objects)},
        "scales": {label: _optional_str(r) for label, r in zip(inv.labels, inv.scales)},
        "morphisms": [
            {"label": bimodule_label(X), "bimodule": bimodule_to_json(X),
             "multiplier": _optional_str(q)}
            for X, q in inv.morphisms
        ],
        "pointed": frac_to_str(pointed) if isinstance(pointed, Fraction) else list(pointed),
    }


# -- verdicts ------------------------------------------------------------------

def verdict_to_json(v) -> dict:
    """The document of a ``compare`` verdict: its status and the one field that comes with it."""
    doc: dict = {"verdict": v.status}
    if v.witness is not None:
        doc["witness"] = {label: frac_to_str(u) for label, u in v.witness}
    if v.certificate is not None:
        c = v.certificate
        doc["certificate"] = {
            "kind": c.kind,
            "at": c.at,
            "left": c.left,
            "right": c.right,
        }
    if v.reason is not None:
        doc["reason"] = v.reason
    return doc

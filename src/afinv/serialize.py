"""JSON wire formats for every exported object.

All documents are plain JSON-compatible dicts; rationals travel as strings
("1/2", integers as "1") and group elements as integer arrays.  Parsers
validate structure and raise InvalidInputError on malformed input so the CLI
can map those to its input-error exit code.  For every renderer here,
``parse(render(x)) == x``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .bimodules import QSystem, SimpleBimodule, FusionTable, bimodule_label
from .compare import EQUIVALENT, INEQUIVALENT, UNKNOWN, Certificate, Verdict
from .diagrams import DiagramEdge, EnrichedBratteliDiagram, InvariantData
from .errors import InvalidInputError
from .groups import (
    Character,
    FiniteAbelianGroup,
    Subgroup,
    coset_of,
    make_group,
    subgroup_intersection,
    subgroup_sum,
)
from .k0 import (
    DirectSumForm,
    K0Description,
    OpaquePresentation,
    RankOneForm,
    StationarySystem,
    scaled_localization,
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
    "fusion_table_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "k0_to_json",
    "k0_from_json",
    "diagram_to_json",
    "diagram_from_json",
    "invariant_to_json",
    "invariant_from_json",
    "verdict_to_json",
    "verdict_from_json",
]


def frac_to_str(q: Fraction) -> str:
    return str(Fraction(q))


# the form frac_to_str writes: an optional minus, digits, optionally /digits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac_from_str(s) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise InvalidInputError(f"not a rational number: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a rational number: {s!r}") from exc


def _expect(doc, key, kind):
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidInputError(f"missing required key {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise InvalidInputError(f"key {key!r} has the wrong type")
    return value


def _is_int(x) -> bool:
    # bool subclasses int in Python, but JSON true/false are not numbers
    return isinstance(x, int) and not isinstance(x, bool)


def _expect_int(doc, key) -> int:
    value = _expect(doc, key, None)
    if not _is_int(value):
        raise InvalidInputError(f"key {key!r} must be an integer")
    return value


def _ints(raw, what: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(_is_int(x) for x in raw):
        raise InvalidInputError(f"{what} must be a list of integers")
    return tuple(raw)


def _list(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise InvalidInputError(f"each {what} must be a list")
    return raw


def _element(G: FiniteAbelianGroup, raw) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != G.rank:
        raise InvalidInputError(f"element {raw!r} does not match the group rank")
    return G.reduce(_ints(raw, f"element {raw!r}"))


# -- groups and subgroups ---------------------------------------------------

def group_to_json(G: FiniteAbelianGroup) -> dict:
    return {"cyclic_factors": list(G.cyclic_factors)}


def group_from_json(doc) -> FiniteAbelianGroup:
    factors = _expect(doc, "cyclic_factors", list)
    if not factors or not all(_is_int(n) and n >= 1 for n in factors):
        raise InvalidInputError("cyclic_factors must be a nonempty list of positive ints")
    return make_group(factors)


def subgroup_to_json(H: Subgroup) -> dict:
    return {"generators": [list(g) for g in H.minimal_generators()]}


def subgroup_from_json(G: FiniteAbelianGroup, doc) -> Subgroup:
    gens = _expect(doc, "generators", list)
    return Subgroup.generated(G, [_element(G, g) for g in gens])


# -- characters and bimodules -----------------------------------------------

def _element_key(e) -> str:
    return json.dumps(list(e), separators=(",", ":"))


def character_to_json(chi: Character) -> dict:
    theta = {}
    for e in chi.domain.elements:
        if chi(e) != 0:
            theta[_element_key(e)] = frac_to_str(chi(e))
    return {"theta": theta}


def character_from_json(domain: Subgroup, doc) -> Character:
    theta = _expect(doc, "theta", dict)
    G = domain.group
    table = {}
    for key, raw in theta.items():
        try:
            elem = _element(G, json.loads(key))
        except (json.JSONDecodeError, InvalidInputError) as exc:
            raise InvalidInputError(f"bad element key {key!r}") from exc
        if not domain.contains(elem):
            raise InvalidInputError(f"element {key} is outside the character domain")
        table[elem] = frac_from_str(raw)
    return Character.from_values(domain, table)


def bimodule_to_json(S: SimpleBimodule) -> dict:
    return {
        "source_generators": [list(g) for g in S.source.subgroup.minimal_generators()],
        "target_generators": [list(g) for g in S.target.subgroup.minimal_generators()],
        "coset_rep": list(S.coset.rep),
        "character": character_to_json(S.character),
    }


def bimodule_from_json(G: FiniteAbelianGroup, doc) -> SimpleBimodule:
    H = subgroup_from_json(G, {"generators": _expect(doc, "source_generators", list)})
    K = subgroup_from_json(G, {"generators": _expect(doc, "target_generators", list)})
    rep = _element(G, _expect(doc, "coset_rep", list))
    coset = coset_of(G, subgroup_sum(H, K), rep)
    chi = character_from_json(
        subgroup_intersection(H, K), _expect(doc, "character", dict)
    )
    return SimpleBimodule(QSystem(H), QSystem(K), coset, chi)


# -- fusion tables ----------------------------------------------------------

def fusion_table_to_json(table: FusionTable) -> dict:
    products = {}
    for (i, j), terms in table.products:
        products[f"{i},{j}"] = [
            {"index": k, "multiplicity": m} for k, m in terms
        ]
    return {
        "group": group_to_json(table.group),
        "simples": [bimodule_to_json(s) for s in table.simples],
        "labels": list(table.labels()),
        "products": products,
    }


def fusion_table_from_json(doc) -> FusionTable:
    G = group_from_json(_expect(doc, "group", dict))
    simples = tuple(
        bimodule_from_json(G, s) for s in _expect(doc, "simples", list)
    )
    labels = _expect(doc, "labels", list)
    if list(labels) != [bimodule_label(s) for s in simples]:
        raise InvalidInputError("labels do not match the listed simples")
    products = []
    for key, terms in _expect(doc, "products", dict).items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError as exc:
            raise InvalidInputError(f"bad product key {key!r}") from exc
        if not (0 <= i < len(simples) and 0 <= j < len(simples)):
            raise InvalidInputError(f"product key {key!r} is out of range")
        if not isinstance(terms, list):
            raise InvalidInputError(f"product {key!r} must be a list of terms")
        parsed = tuple(
            (_expect_int(t, "index"), _expect_int(t, "multiplicity")) for t in terms
        )
        products.append(((i, j), parsed))
    products.sort(key=lambda item: item[0])
    return FusionTable(G, simples, tuple(products))


# -- matrices and K0 descriptions -------------------------------------------

def matrix_to_json(sys: StationarySystem) -> dict:
    doc = {"rows": [list(r) for r in sys.matrix]}
    if sys.labels is not None:
        doc["labels"] = list(sys.labels)
    return doc


def matrix_from_json(doc) -> StationarySystem:
    matrix = tuple(_ints(row, "matrix rows") for row in _expect(doc, "rows", list))
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise InvalidInputError("matrix labels must be a list")
        labels = tuple(str(x) for x in labels)
    return StationarySystem(matrix, labels)


def _rank_one_to_json(desc: RankOneForm) -> dict:
    return {
        "variant": "rank-one",
        "matrix": [list(r) for r in desc.matrix],
        "eigenvalue": desc.eigenvalue,
        "left_vector": list(desc.left_vector),
        "prime_set": sorted(desc.prime_set),
        "scale": frac_to_str(scaled_localization(desc).scale),
    }


def k0_to_json(desc: K0Description) -> dict:
    if isinstance(desc, RankOneForm):
        return _rank_one_to_json(desc)
    if isinstance(desc, DirectSumForm):
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


def _json_to_matrix(doc) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(row, "matrix rows") for row in _expect(doc, "matrix", list))


def _rank_one_from_json(doc) -> RankOneForm:
    return RankOneForm(
        matrix=_json_to_matrix(doc),
        eigenvalue=_expect_int(doc, "eigenvalue"),
        left_vector=_ints(_expect(doc, "left_vector", None), "left_vector"),
        prime_set=frozenset(_ints(_expect(doc, "prime_set", None), "prime_set")),
    )


def k0_from_json(doc) -> K0Description:
    variant = _expect(doc, "variant", str)
    if variant == "rank-one":
        return _rank_one_from_json(doc)
    if variant == "direct-sum":
        return DirectSumForm(
            matrix=_json_to_matrix(doc),
            blocks=tuple(_rank_one_from_json(b) for b in _expect(doc, "blocks", list)),
            partition=tuple(
                _ints(p, "partition blocks") for p in _expect(doc, "partition", list)
            ),
        )
    if variant == "opaque":
        return OpaquePresentation(
            matrix=_json_to_matrix(doc), rank=_expect_int(doc, "rank")
        )
    raise InvalidInputError(f"unknown K0 description variant {variant!r}")


# -- diagrams ----------------------------------------------------------------

def diagram_to_json(d: EnrichedBratteliDiagram) -> dict:
    if d.is_stationary and len(d.levels[0]) == 1:
        return {
            "group": group_to_json(d.group),
            "vertex": subgroup_to_json(d.levels[0][0].subgroup),
            "edge": [
                {"bimodule": bimodule_to_json(e.bimodule), "multiplicity": e.multiplicity}
                for e in d.edges[0]
            ],
            "generator_weights": list(d.generator_weights),
        }
    return {
        "group": group_to_json(d.group),
        "levels": [
            [subgroup_to_json(v.subgroup) for v in level] for level in d.levels
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


def _edge_from_json(G, doc, source=0, target=0) -> DiagramEdge:
    if not isinstance(doc, dict):
        raise InvalidInputError(f"edge {doc!r} must be an object")
    mult = doc.get("multiplicity", 1)
    if not _is_int(mult):
        raise InvalidInputError("edge multiplicity must be an integer")
    return DiagramEdge(
        source, target, bimodule_from_json(G, _expect(doc, "bimodule", dict)), mult
    )


def diagram_from_json(doc) -> EnrichedBratteliDiagram:
    G = group_from_json(_expect(doc, "group", dict))
    weights = _expect(doc, "generator_weights", list)
    if not all(_is_int(w) for w in weights):
        raise InvalidInputError("generator_weights must be integers")
    if "vertex" in doc:
        vertex = QSystem(subgroup_from_json(G, doc["vertex"]))
        edges = tuple(
            _edge_from_json(G, e) for e in _expect(doc, "edge", list)
        )
        return EnrichedBratteliDiagram(G, ((vertex,),), (edges,), tuple(weights))
    levels = tuple(
        tuple(QSystem(subgroup_from_json(G, v)) for v in _list(level, "level"))
        for level in _expect(doc, "levels", list)
    )
    blocks = []
    for block in _expect(doc, "edges", list):
        parsed = []
        for e in _list(block, "edge block"):
            parsed.append(
                _edge_from_json(G, e, _expect_int(e, "from"), _expect_int(e, "to"))
            )
        blocks.append(tuple(parsed))
    return EnrichedBratteliDiagram(G, levels, tuple(blocks), tuple(weights))


# -- invariants ---------------------------------------------------------------

def invariant_to_json(inv: InvariantData) -> dict:
    objects = {}
    scales = {}
    for k, label in enumerate(inv.labels):
        objects[label] = k0_to_json(inv.objects[k])
        scales[label] = (
            frac_to_str(inv.scales[k]) if inv.scales[k] is not None else None
        )
    morphisms = []
    for X, q in inv.morphisms:
        morphisms.append(
            {
                "label": bimodule_label(X),
                "bimodule": bimodule_to_json(X),
                "multiplier": frac_to_str(q) if q is not None else None,
            }
        )
    pointed = (
        frac_to_str(inv.pointed)
        if isinstance(inv.pointed, Fraction)
        else list(inv.pointed)
    )
    return {
        "group": group_to_json(inv.group),
        "representatives": [subgroup_to_json(q.subgroup) for q in inv.representatives],
        "labels": list(inv.labels),
        "objects": objects,
        "scales": scales,
        "morphisms": morphisms,
        "pointed": pointed,
    }


def invariant_from_json(doc) -> InvariantData:
    G = group_from_json(_expect(doc, "group", dict))
    reps = tuple(
        QSystem(subgroup_from_json(G, s))
        for s in _expect(doc, "representatives", list)
    )
    labels = tuple(str(x) for x in _expect(doc, "labels", list))
    if len(labels) != len(reps):
        raise InvalidInputError("labels and representatives must align")
    objects_doc = _expect(doc, "objects", dict)
    scales_doc = _expect(doc, "scales", dict)
    objects = []
    scales = []
    for label in labels:
        if label not in objects_doc:
            raise InvalidInputError(f"missing object entry for {label}")
        objects.append(k0_from_json(objects_doc[label]))
        raw = scales_doc.get(label)
        scales.append(frac_from_str(raw) if raw is not None else None)
    morphisms = []
    for m in _expect(doc, "morphisms", list):
        X = bimodule_from_json(G, _expect(m, "bimodule", dict))
        raw = m.get("multiplier")
        morphisms.append((X, frac_from_str(raw) if raw is not None else None))
    pointed_raw = _expect(doc, "pointed", None)
    if isinstance(pointed_raw, list):
        pointed = _ints(pointed_raw, "pointed class vector")
    else:
        pointed = frac_from_str(pointed_raw)
    return InvariantData(
        group=G,
        representatives=reps,
        labels=labels,
        objects=tuple(objects),
        scales=tuple(scales),
        morphisms=tuple(morphisms),
        pointed=pointed,
    )


# -- verdicts ------------------------------------------------------------------

def verdict_to_json(v: Verdict) -> dict:
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


def verdict_from_json(doc) -> Verdict:
    status = _expect(doc, "verdict", str)
    if status not in (EQUIVALENT, INEQUIVALENT, UNKNOWN):
        raise InvalidInputError(f"unknown verdict status {status!r}")
    witness = None
    if "witness" in doc:
        witness = tuple(
            (str(label), frac_from_str(u)) for label, u in doc["witness"].items()
        )
    certificate = None
    if "certificate" in doc:
        c = doc["certificate"]
        certificate = Certificate(
            kind=str(_expect(c, "kind", str)),
            at=str(_expect(c, "at", str)),
            left=str(_expect(c, "left", str)),
            right=str(_expect(c, "right", str)),
        )
    return Verdict(status, witness, certificate, doc.get("reason"))

"""Wire-format round-trips and rejection of malformed documents."""

import json
from fractions import Fraction

import pytest

from afinv.bimodules import fusion_table, identity_bimodule, qsystems, simple_bimodules
from afinv.compare import Verdict, compare
from afinv.diagrams import (
    DiagramEdge,
    EnrichedBratteliDiagram,
    compute_invariant,
    object_diagram,
)
from afinv.errors import InvalidInputError
from afinv.groups import Subgroup, dual_characters, make_group, subgroups
from afinv.k0 import StationarySystem, stationary_k0
from afinv.serialize import (
    bimodule_from_json,
    bimodule_to_json,
    character_from_json,
    character_to_json,
    diagram_from_json,
    diagram_to_json,
    frac_from_str,
    frac_to_str,
    fusion_table_from_json,
    fusion_table_to_json,
    group_from_json,
    group_to_json,
    invariant_from_json,
    invariant_to_json,
    k0_from_json,
    k0_to_json,
    matrix_from_json,
    matrix_to_json,
    subgroup_from_json,
    subgroup_to_json,
    verdict_from_json,
    verdict_to_json,
)


def through_json(doc):
    """Force a pass through real JSON text to catch non-serializable leftovers."""
    return json.loads(json.dumps(doc))


# ------------------------------------------------------------------- fractions


def test_fraction_strings_canonicalize():
    assert frac_to_str(Fraction(2, 4)) == "1/2"
    assert frac_to_str(Fraction(3)) == "3"
    assert frac_from_str("2/4") == Fraction(1, 2)
    assert frac_from_str("-7") == -7
    for bad in ["1/0", "abc", None, "", "1.5.2", "1e999", "1.5", "1_0", 0.5, True]:
        with pytest.raises(InvalidInputError):
            frac_from_str(bad)


# --------------------------------------------------------- groups and friends


def test_group_round_trip():
    for factors in [[2], [4], [2, 4], [3, 9]]:
        G = make_group(factors)
        assert group_from_json(through_json(group_to_json(G))) == G
    with pytest.raises(InvalidInputError):
        group_from_json({})
    with pytest.raises(InvalidInputError):
        group_from_json({"cyclic_factors": []})
    with pytest.raises(InvalidInputError):
        group_from_json({"cyclic_factors": [0]})
    with pytest.raises(InvalidInputError):
        group_from_json({"cyclic_factors": ["4"]})


def test_subgroup_round_trip():
    G = make_group([2, 4])
    for H in subgroups(G):
        assert subgroup_from_json(G, through_json(subgroup_to_json(H))) == H
    # elements are reduced modulo the cyclic factors
    Z4 = make_group(4)
    assert subgroup_from_json(Z4, {"generators": [[5]]}) == Subgroup.generated(
        Z4, [(1,)]
    )
    with pytest.raises(InvalidInputError):
        subgroup_from_json(Z4, {"generators": [[1, 0]]})
    with pytest.raises(InvalidInputError):
        subgroup_from_json(Z4, {})


def test_character_round_trip(z4):
    H = Subgroup.generated(z4, [(1,)])
    for chi in dual_characters(H):
        doc = through_json(character_to_json(chi))
        assert character_from_json(H, doc) == chi
    half = Subgroup.generated(z4, [(2,)])
    with pytest.raises(InvalidInputError):
        character_from_json(half, {"theta": {"nonsense": "1/2"}})
    with pytest.raises(InvalidInputError):
        character_from_json(half, {"theta": {"[1]": "1/2"}})  # outside the domain
    with pytest.raises(InvalidInputError):
        character_from_json(half, {"theta": {"[2]": "1/3"}})  # not a homomorphism
    with pytest.raises(InvalidInputError):
        character_from_json(half, {})


def test_bimodule_round_trip(z4, z4_simples):
    for label, s in z4_simples.items():
        doc = through_json(bimodule_to_json(s))
        assert bimodule_from_json(z4, doc) == s, label
    with pytest.raises(InvalidInputError):
        bimodule_from_json(z4, {"source_generators": []})


def test_fusion_table_round_trip(z4):
    table = fusion_table(z4)
    doc = through_json(fusion_table_to_json(table))
    assert fusion_table_from_json(doc) == table

    with pytest.raises(InvalidInputError):
        fusion_table_from_json({**doc, "labels": doc["labels"][::-1]})
    bad_key = dict(doc["products"])
    bad_key["x,y"] = bad_key.pop("0,0")
    with pytest.raises(InvalidInputError):
        fusion_table_from_json({**doc, "products": bad_key})
    out_of_range = dict(doc["products"])
    out_of_range["99,0"] = out_of_range["0,0"]
    with pytest.raises(InvalidInputError):
        fusion_table_from_json({**doc, "products": out_of_range})


# ------------------------------------------------------------ matrices and K0


def test_matrix_round_trip():
    sys = StationarySystem(((2, 2), (2, 2)), ("a", "b"))
    assert matrix_from_json(through_json(matrix_to_json(sys))) == sys
    bare = StationarySystem(((4,),))
    assert matrix_from_json(through_json(matrix_to_json(bare))) == bare
    with pytest.raises(InvalidInputError):
        matrix_from_json({"rows": [["x"]]})
    with pytest.raises(InvalidInputError):
        matrix_from_json({})


@pytest.mark.parametrize(
    "matrix",
    [((2, 2), (2, 2)), ((4, 0), (0, 4)), ((1, 1), (0, 1)), ((2, 8), (0, 0))],
)
def test_k0_round_trip(matrix):
    desc = stationary_k0(StationarySystem(matrix))
    doc = through_json(k0_to_json(desc))
    assert k0_from_json(doc) == desc


def test_rank_one_documents_carry_a_derived_scale():
    doc = k0_to_json(stationary_k0(StationarySystem(((2, 8), (0, 0)))))
    assert doc["scale"] == "1/5"
    # the scale is derived data: parsers ignore it rather than trusting it
    tampered = {**doc, "scale": "7"}
    assert k0_from_json(tampered) == k0_from_json(doc)


def test_unknown_k0_variant_is_rejected():
    with pytest.raises(InvalidInputError):
        k0_from_json({"variant": "mystery", "matrix": [[1]]})


def _k0_doc(matrix):
    return k0_to_json(stationary_k0(StationarySystem(matrix)))


def _table_with_bool_multiplicity():
    doc = through_json(fusion_table_to_json(fusion_table(make_group(2))))
    doc["products"]["0,0"][0]["multiplicity"] = True
    return doc


def _invariant_with_bool_pointed():
    Q1 = qsystems(make_group(4))[0]
    inv = compute_invariant(
        EnrichedBratteliDiagram.homogeneous(Q1, {identity_bimodule(Q1): 1})
    )
    return {**invariant_to_json(inv), "pointed": [True, 1, 1, 1]}


@pytest.mark.parametrize(
    "parse, build",
    [
        pytest.param(k0_from_json, lambda: {**_k0_doc(((2, 2), (2, 2))), "eigenvalue": True},
                     id="bool-eigenvalue"),
        pytest.param(k0_from_json, lambda: {**_k0_doc(((2, 2), (2, 2))), "left_vector": [1.5, 1]},
                     id="float-left-vector"),
        pytest.param(k0_from_json, lambda: {**_k0_doc(((2, 2), (2, 2))), "prime_set": ["2"]},
                     id="string-prime"),
        pytest.param(k0_from_json, lambda: {**_k0_doc(((2, 2), (2, 2))), "matrix": [["2", 2], [2, 2]]},
                     id="string-matrix-entry"),
        pytest.param(k0_from_json, lambda: {**_k0_doc(((4, 0), (0, 4))), "partition": [[0], [True]]},
                     id="bool-partition-index"),
        pytest.param(k0_from_json, lambda: {**_k0_doc(((1, 1), (0, 1))), "rank": True},
                     id="bool-rank"),
        pytest.param(fusion_table_from_json, _table_with_bool_multiplicity,
                     id="bool-table-multiplicity"),
        pytest.param(invariant_from_json, _invariant_with_bool_pointed, id="bool-pointed"),
    ],
)
def test_integer_fields_take_only_json_integers(parse, build):
    with pytest.raises(InvalidInputError):
        parse(through_json(build()))


# -------------------------------------------------------------------- diagrams


def test_homogeneous_diagram_round_trip(z4_diagrams):
    for name, d in z4_diagrams.items():
        doc = through_json(diagram_to_json(d))
        assert "vertex" in doc and "edge" in doc, name
        assert diagram_from_json(doc) == d, name


def test_heterogeneous_diagram_round_trip(z4, z4_reps, z4_simples):
    Q1, Q2, _ = z4_reps
    d = EnrichedBratteliDiagram(
        group=z4,
        levels=((Q1,), (Q2,)),
        edges=(
            (DiagramEdge(0, 0, z4_simples["M_{2-1,0}"]),),
            tuple(DiagramEdge(0, 0, b) for b in simple_bimodules(Q2, Q2)),
        ),
        generator_weights=(1, 1, 1, 1),
    )
    doc = through_json(diagram_to_json(d))
    assert "levels" in doc and "edges" in doc
    assert doc["edges"][0][0]["from"] == 0 and doc["edges"][0][0]["to"] == 0
    assert diagram_from_json(doc) == d


def test_diagram_parser_validates(z4_diagrams):
    doc = diagram_to_json(z4_diagrams["F"])
    with pytest.raises(InvalidInputError):
        diagram_from_json({**doc, "generator_weights": ["1", "1", "1", "1"]})
    with pytest.raises(InvalidInputError):
        diagram_from_json({**doc, "generator_weights": [1, 1]})
    missing = dict(doc)
    del missing["group"]
    with pytest.raises(InvalidInputError):
        diagram_from_json(missing)


# ------------------------------------------------------------------ invariants


def test_invariant_round_trip(z4_invariants):
    for name in ("F", "G", "E"):
        inv = z4_invariants[name]
        doc = through_json(invariant_to_json(inv))
        assert invariant_from_json(doc) == inv, name


def test_invariant_round_trip_with_tuple_pointed(z4_reps):
    Q1 = z4_reps[0]
    inv = compute_invariant(
        EnrichedBratteliDiagram.homogeneous(Q1, {identity_bimodule(Q1): 1})
    )
    assert inv.pointed == (1, 1, 1, 1)
    doc = through_json(invariant_to_json(inv))
    assert doc["pointed"] == [1, 1, 1, 1]
    assert doc["scales"]["Q1"] is None
    assert invariant_from_json(doc) == inv


def test_invariant_parser_validates(z4_invariants):
    doc = invariant_to_json(z4_invariants["F"])
    with pytest.raises(InvalidInputError):
        invariant_from_json({**doc, "labels": ["Q1"]})
    pruned = {**doc, "objects": {k: v for k, v in doc["objects"].items() if k != "Q2"}}
    with pytest.raises(InvalidInputError):
        invariant_from_json(pruned)
    with pytest.raises(InvalidInputError):
        invariant_from_json({**doc, "pointed": "zero/none"})


# -------------------------------------------------------------------- verdicts


def test_equivalent_verdict_wire_format(z4_invariants):
    verdict = compare(z4_invariants["F"], z4_invariants["G"])
    doc = verdict_to_json(verdict)
    assert doc == {
        "verdict": "equivalent",
        "witness": {"Q1": "1", "Q2": "1/2", "Q3": "1/2"},
    }
    assert verdict_from_json(through_json(doc)) == verdict


def test_certificate_and_reason_round_trips(z4_invariants):
    cert = compare(z4_invariants["E"], z4_invariants["F"])
    doc = through_json(verdict_to_json(cert))
    assert doc["certificate"]["kind"] == "rank"
    assert verdict_from_json(doc) == cert

    unknown = compare(z4_invariants["E"], z4_invariants["E"])
    doc2 = through_json(verdict_to_json(unknown))
    assert "reason" in doc2
    assert verdict_from_json(doc2) == unknown


def test_verdict_parser_validates():
    with pytest.raises(InvalidInputError):
        verdict_from_json({"verdict": "definitely-maybe"})
    with pytest.raises(InvalidInputError):
        verdict_from_json({})
    with pytest.raises(InvalidInputError):
        verdict_from_json({"verdict": "equivalent", "witness": {"Q1": "sqrt2"}})


# ---------------------------------------------------- object-diagram documents


def test_object_diagram_documents_are_labelled(z4_diagrams, z4_reps):
    sys = object_diagram(z4_diagrams["F"], z4_reps[1])
    doc = through_json(matrix_to_json(sys))
    assert doc["labels"] == ["M_{1-2,0}", "M_{1-2,1}"]
    assert matrix_from_json(doc) == sys

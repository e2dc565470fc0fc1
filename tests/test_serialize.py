"""Round trips of input documents, pinned renderings of output ones, and malformed input."""

import itertools
import json
import re
from fractions import Fraction

import pytest

from afinv import serialize
from afinv.bimodules import (
    bimodule_label,
    fusion_table,
    identity_bimodule,
    qsystems,
    simple_bimodules,
    simples_of,
)
from afinv.compare import compare
from afinv.diagrams import (
    DiagramEdge,
    EnrichedBratteliDiagram,
    InvariantData,
    compute_invariant,
    object_diagram,
)
from afinv.errors import InvalidInputError
from afinv.groups import Character, Subgroup, dual_characters, make_group, subgroups
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
    fusion_table_to_json,
    group_from_json,
    group_to_json,
    invariant_to_json,
    k0_to_json,
    matrix_from_json,
    matrix_to_json,
    subgroup_from_json,
    subgroup_to_json,
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


@pytest.mark.parametrize(
    "factors",
    [[12], [2, 4], [2, 2, 2], [4], [2, 2], [6]],
    ids=["Z12", "Z2xZ4", "Z2^3", "Z4", "Z2xZ2", "Z6"],
)
def test_every_character_round_trips(factors):
    for H in subgroups(make_group(factors)):
        for chi in dual_characters(H):
            doc = through_json(character_to_json(chi))
            assert character_from_json(H, doc) == chi, (H, chi)


@pytest.mark.parametrize("factors", [[12], [2, 4], [2, 2, 2]], ids=["Z12", "Z2xZ4", "Z2^3"])
def test_parsed_characters_are_the_lattice_members(factors):
    for H in subgroups(make_group(factors)):
        for chi in dual_characters(H):
            doc = through_json(character_to_json(chi))
            assert character_from_json(H, doc) is chi, (H, chi)


@pytest.mark.parametrize("factors", [[4], [2, 2], [6], [2, 4]], ids=["Z4", "Z2xZ2", "Z6", "Z2xZ4"])
def test_a_shifted_phase_is_refused_unless_it_names_another_character(factors):
    G = make_group(factors)
    E = G.exponent
    refused = 0
    for H in subgroups(G):
        characters = {chi.values for chi in dual_characters(H)}
        for chi in dual_characters(H):
            for i in range(H.order):
                values = list(chi.values)
                values[i] = (values[i] + 1) % E
                doc = character_to_json(Character(H, tuple(values)))
                if tuple(values) in characters:  # an order-2 element in exponent 2
                    assert character_from_json(H, doc).values == tuple(values)
                    continue
                with pytest.raises(InvalidInputError, match="^character table is not a homomorphism$"):
                    character_from_json(H, doc)
                refused += 1
    assert refused


@pytest.mark.parametrize("factors", [[2, 2], [2, 4]], ids=["Z2xZ2", "Z2xZ4"])
def test_exactly_the_character_tables_are_accepted(factors):
    G = make_group(factors)
    E = G.exponent
    for H in (H for H in subgroups(G) if H.order <= 4):
        characters = {chi.values for chi in dual_characters(H)}
        for values in itertools.product(range(E), repeat=H.order):
            doc = character_to_json(Character(H, values))
            if values in characters:
                assert character_from_json(H, doc).values == values
            else:
                with pytest.raises(InvalidInputError):
                    character_from_json(H, doc)


def test_bimodule_round_trip(z4, z4_simples):
    for label, s in z4_simples.items():
        doc = through_json(bimodule_to_json(s))
        assert bimodule_from_json(z4, doc) is s, label
    with pytest.raises(InvalidInputError):
        bimodule_from_json(z4, {"source_generators": []})


SMALL_GROUPS = [[1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2]]


@pytest.mark.parametrize("factors", SMALL_GROUPS, ids=str)
def test_every_small_fusion_table_renders_its_table(factors):
    G = make_group(factors)
    table = fusion_table(G)
    doc = through_json(fusion_table_to_json(G))
    assert doc["group"] == {"cyclic_factors": factors}
    assert doc["simples"] == [bimodule_to_json(s) for s in simples_of(G)]
    assert doc["labels"] == [bimodule_label(s) for s in simples_of(G)]
    products = {
        tuple(int(i) for i in key.split(",")): tuple(
            (term["index"], term["multiplicity"]) for term in terms
        )
        for key, terms in doc["products"].items()
    }
    assert products == table
    assert list(products) == list(table)


@pytest.mark.parametrize("factors", [[4], [2, 2], [2, 4]], ids=str)
def test_a_fusion_table_document_holds_one_list_per_distinct_product(factors):
    G = make_group(factors)
    table = fusion_table(G)
    doc = fusion_table_to_json(G)
    lists = {id(terms) for terms in doc["products"].values()}
    assert len(lists) == len(set(table.values())) < len(table)
    # json.dumps prints a shared list in full at each of its keys: the text of one list per pair
    per_pair = dict(doc, products={
        f"{i},{j}": [{"index": k, "multiplicity": m} for k, m in terms]
        for (i, j), terms in table.items()
    })
    assert json.dumps(doc, indent=2) == json.dumps(per_pair, indent=2)


# ------------------------------------------------------------ matrices and K0


def test_matrix_round_trip():
    sys = StationarySystem(((2, 2), (2, 2)))
    assert matrix_from_json(through_json(matrix_to_json(sys))) == sys
    bare = StationarySystem(((4,),))
    assert matrix_from_json(through_json(matrix_to_json(bare))) == bare
    with pytest.raises(InvalidInputError):
        matrix_from_json({"rows": [["x"]]})
    with pytest.raises(InvalidInputError):
        matrix_from_json({})


@pytest.mark.parametrize(
    "labels", [5, {"0": "a"}, [], ["a"], ["a", "b", "c"]],
    ids=["number", "object", "empty", "too-few", "too-many"],
)
def test_matrix_reader_refuses_labels_that_are_not_one_per_row(labels):
    with pytest.raises(InvalidInputError, match="label"):
        matrix_from_json({"rows": [[1, 1], [1, 1]], "labels": labels})


def test_matrix_reader_checks_rows_before_the_label_count():
    with pytest.raises(InvalidInputError, match="nonempty square matrix"):
        matrix_from_json({"rows": [[1, 2]], "labels": ["a", "b"]})


def test_matrix_reader_reads_no_label_entry():
    bare = matrix_from_json({"rows": [[2, 2], [2, 2]]})
    for labels in (["a", "b"], [5, None], None):
        assert matrix_from_json({"rows": [[2, 2], [2, 2]], "labels": labels}) == bare


def _rank_one_doc(matrix, eigenvalue, left_vector, prime_set, scale):
    return {
        "variant": "rank-one", "matrix": matrix, "eigenvalue": eigenvalue,
        "left_vector": left_vector, "prime_set": prime_set, "scale": scale,
    }


@pytest.mark.parametrize(
    "matrix, rendered",
    [
        pytest.param(
            ((2, 2), (2, 2)), _rank_one_doc([[2, 2], [2, 2]], 4, [1, 1], [2], "1"), id="rank-one"
        ),
        pytest.param(
            ((4, 0), (0, 4)),
            {
                "variant": "direct-sum",
                "matrix": [[4, 0], [0, 4]],
                "blocks": [_rank_one_doc([[4]], 4, [1], [2], "1")] * 2,
                "partition": [[0], [1]],
            },
            id="direct-sum",
        ),
        pytest.param(
            ((1, 1), (0, 1)), {"variant": "opaque", "matrix": [[1, 1], [0, 1]], "rank": 2},
            id="opaque",
        ),
        pytest.param(
            ((2, 8), (0, 0)), _rank_one_doc([[2, 8], [0, 0]], 2, [1, 4], [2], "1/5"),
            id="rank-one-zero-row",
        ),
    ],
)
def test_k0_renderings(matrix, rendered):
    # K0 descriptions are output only: afinv renders them and reads none back
    assert through_json(k0_to_json(stationary_k0(StationarySystem(matrix)))) == rendered


def test_rank_one_documents_carry_a_derived_scale():
    doc = k0_to_json(stationary_k0(StationarySystem(((2, 8), (0, 0)))))
    # the scale is derived: 1 over the sum of the left vector [1, 4], off the primes of S = {2}
    assert doc["scale"] == "1/5"


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


@pytest.mark.parametrize("vertices", [1, 2], ids=["vertex-edge", "levels-edges"])
def test_each_distinct_edge_bimodule_is_parsed_once(vertices, z4, z4_reps, monkeypatch):
    Q1 = z4_reps[0]
    three = simple_bimodules(Q1, Q1)[:3]
    edges = tuple(
        DiagramEdge(k % vertices, k // 2 % vertices, three[k % 3], 1 + k % 2)
        for k in range(200)
    )
    d = EnrichedBratteliDiagram(z4, ((Q1,) * vertices,), (edges,), (1,) * 4 * vertices)
    doc = through_json(diagram_to_json(d))
    assert ("vertex" in doc) == (vertices == 1)
    calls = []
    parse = serialize.bimodule_from_json

    def counting(G, raw):
        calls.append(raw)
        return parse(G, raw)

    monkeypatch.setattr(serialize, "bimodule_from_json", counting)
    got = diagram_from_json(doc)
    assert got == d
    assert len(calls) == 3
    assert len({id(e.bimodule) for e in got.edges[0]}) == 3


def test_equal_subgroups_of_a_parsed_diagram_are_one_object(z4, z4_reps):
    _, Q2, Q3 = z4_reps
    down = next(b for b in simple_bimodules(Q3, Q2) if not any(b.character.values))
    d = EnrichedBratteliDiagram(
        z4,
        ((Q2, Q2), (Q3,)),
        (
            (DiagramEdge(0, 0, down), DiagramEdge(1, 0, down)),
            tuple(DiagramEdge(0, 0, b) for b in simple_bimodules(Q3, Q3)),
        ),
        (1, 1, 1, 1),
    )
    doc = through_json(diagram_to_json(d))
    # name Z/4 by other generating sets, so that no two documents of it are the same
    doc["levels"][1][0]["generators"] = [[3]]
    for k, e in enumerate(doc["edges"][1]):
        e["bimodule"]["source_generators"] = [[3]] if k % 2 else [[1], [2]]
        e["bimodule"]["target_generators"] = [[3], [2]] if k % 2 else [[1]]
    got = diagram_from_json(doc)
    assert got == d
    (v0, v1), (w,) = got.levels
    assert v0 is v1 is Q2 and w is Q3  # the members of subgroups(G)
    for e in got.edges[0]:
        assert e.bimodule.source is w and e.bimodule.target is v0
    for e in got.edges[1]:
        assert e.bimodule.source is w and e.bimodule.target is w
    assert len({id(e.bimodule) for e in got.edges[1]}) == 4


def test_a_repeated_edge_bimodule_reads_each_spelling_on_its_own(z4_diagrams):
    doc = through_json(diagram_to_json(z4_diagrams["F"]))
    one = next(e for e in doc["edge"] if e["bimodule"]["coset_rep"] == [1])
    reordered = {key: one["bimodule"][key] for key in reversed(list(one["bimodule"]))}
    doc["edge"].append({"bimodule": reordered, "multiplicity": 2})
    got = diagram_from_json(doc)
    assert got.edges[0][-1].bimodule == got.edges[0][1].bimodule
    copy = json.loads(json.dumps(one))
    copy["bimodule"]["coset_rep"] = [True]
    doc["edge"].append(copy)
    with pytest.raises(InvalidInputError, match="must be a list of integers"):
        diagram_from_json(doc)


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
    # a non-object edge is refused as such in either shape, before any key of it is read
    levels = {
        "group": doc["group"],
        "levels": [[doc["vertex"]]],
        "edges": [[{"from": 0, "to": 0, **e} for e in doc["edge"]]],
        "generator_weights": doc["generator_weights"],
    }
    assert diagram_from_json(levels) == z4_diagrams["F"]
    for shaped, block in ((doc, doc["edge"]), (levels, levels["edges"][0])):
        block.append(5)
        with pytest.raises(InvalidInputError, match="^edge 5 must be an object$"):
            diagram_from_json(shaped)


# ------------------------------------------------------------------ invariants


Z4_SIMPLE_LABELS = [
    "M_{1-1,0}", "M_{1-1,1}", "M_{1-1,2}", "M_{1-1,3}", "M_{1-2,0}", "M_{1-2,1}", "M_{1-3}",
    "M_{2-1,0}", "M_{2-1,1}", "M_{2-2,0}^triv", "M_{2-2,0}^sign", "M_{2-2,1}^triv",
    "M_{2-2,1}^sign", "M_{2-3}^triv", "M_{2-3}^sign", "M_{3-1}", "M_{3-2}^triv", "M_{3-2}^sign",
    "M_{3-3}^triv", "M_{3-3}^chi1", "M_{3-3}^chi2", "M_{3-3}^chi3",
]


def _check_morphisms(doc, inv, multipliers):
    assert [m["label"] for m in doc["morphisms"]] == Z4_SIMPLE_LABELS
    assert [m["bimodule"] for m in doc["morphisms"]] == [bimodule_to_json(X) for X in inv.simples]
    assert [m["multiplier"] for m in doc["morphisms"]] == multipliers


def test_invariant_rendering_of_diagram_f(z4_invariants):
    # invariants are output only: afinv renders them and reads none back
    inv = z4_invariants["F"]
    doc = through_json(invariant_to_json(inv))
    assert list(doc) == [
        "group", "representatives", "labels", "objects", "scales", "morphisms", "pointed"
    ]
    assert doc["group"] == {"cyclic_factors": [4]}
    assert doc["representatives"] == [
        {"generators": []}, {"generators": [[2]]}, {"generators": [[1]]}
    ]
    assert doc["labels"] == ["Q1", "Q2", "Q3"]
    assert doc["objects"] == {
        "Q1": _rank_one_doc([[1] * 4] * 4, 4, [1] * 4, [2], "1"),
        "Q2": _rank_one_doc([[2, 2], [2, 2]], 4, [1, 1], [2], "1"),
        "Q3": _rank_one_doc([[4]], 4, [1], [2], "1"),
    }
    assert doc["scales"] == {"Q1": "1", "Q2": "1", "Q3": "1"}
    _check_morphisms(doc, inv, ["1"] * 4 + ["2", "2", "4"] + ["1"] * 6 + ["2", "2"] + ["1"] * 7)
    assert doc["pointed"] == "1"


def test_invariant_rendering_with_tuple_pointed():
    inv = _identity_action_invariant()
    assert inv.pointed == (1, 1, 1, 1)
    doc = through_json(invariant_to_json(inv))
    assert doc["pointed"] == [1, 1, 1, 1]
    assert doc["scales"] == {"Q1": None, "Q2": None, "Q3": "1"}
    unit = _rank_one_doc([[1]], 1, [1], [], "1")
    assert doc["objects"] == {
        "Q1": {
            "variant": "direct-sum",
            "matrix": [[int(i == j) for j in range(4)] for i in range(4)],
            "blocks": [unit] * 4,
            "partition": [[0], [1], [2], [3]],
        },
        "Q2": {
            "variant": "direct-sum", "matrix": [[1, 0], [0, 1]], "blocks": [unit] * 2,
            "partition": [[0], [1]],
        },
        "Q3": unit,
    }
    _check_morphisms(doc, inv, [None] * 18 + ["1"] * 4)


def _identity_action_invariant():
    """The identity action of Z/4 at Q1: its objects are not rank-one."""
    Q1 = qsystems(make_group(4))[0]
    return compute_invariant(EnrichedBratteliDiagram.homogeneous(Q1, {identity_bimodule(Q1): 1}))


def _with(inv, **fields):
    """``InvariantData`` of ``inv``'s fields, with ``fields`` replaced."""
    values = {name: getattr(inv, name) for name in InvariantData.__match_args__}
    return InvariantData(**{**values, **fields})


@pytest.mark.parametrize("keep", [0, 1, 21])
def test_invariant_documents_list_one_morphism_per_simple(z4_invariants, keep):
    inv = z4_invariants["F"]
    with pytest.raises(InvalidInputError, match="each of the 22 simple bimodules"):
        _with(inv, multipliers=inv.multipliers[:keep])


@pytest.mark.parametrize(
    "build, index, scale",
    [
        (lambda invs: invs["F"], 1, None),
        (lambda invs: invs["F"], 1, Fraction(0)),
        (lambda invs: invs["F"], 1, Fraction(-1, 2)),
        (lambda invs: _identity_action_invariant(), 0, Fraction(1)),
        (lambda invs: _identity_action_invariant(), 0, Fraction(0)),
        (lambda invs: _identity_action_invariant(), 0, Fraction(-1, 2)),
    ],
    ids=["rank-one-null", "rank-one-zero", "rank-one-negative", "not-rank-one-with-a-scale",
         "not-rank-one-zero", "not-rank-one-negative"],
)
def test_scales_are_positive_exactly_on_rank_one_objects(z4_invariants, build, index, scale):
    inv = build(z4_invariants)
    scales = list(inv.scales)
    scales[index] = scale
    with pytest.raises(InvalidInputError, match="must be positive if rank-one, else null"):
        _with(inv, scales=tuple(scales))


def test_scales_pointed_class_and_gauges_are_free_data(z4_invariants):
    # free: a positive scale, any positive rational pointed class over a rank-one Q1, and
    # any positive gauge per rank-one object; a null multiplier only off them
    inv = z4_invariants["F"]
    inv = _with(inv, scales=(inv.scales[0], Fraction(7, 3), *inv.scales[2:]), pointed=Fraction(5))
    assert (inv.scales[1], inv.pointed) == (Fraction(7, 3), 5)
    g = dict(zip(inv.representatives, (1, Fraction(7), 1)))
    regauged = _with(inv, multipliers=tuple(q * g[X.target] / g[X.source] for X, q in inv.morphisms))
    assert regauged.gauges == (1, 7, 1)
    # the identity action's one rank-one object is Q3, whose own simples the gauge fixes
    # at dim/|Q3| = 1
    identity = _identity_action_invariant()
    assert [q for _, q in identity.morphisms] == [None] * 18 + [1] * 4
    with pytest.raises(InvalidInputError,
                       match=re.escape("multiplier of M_{3-3}^triv is 3, not its gauge value 1")):
        _with(identity, multipliers=(None,) * 18 + (Fraction(3),) * 4)


def test_a_multiplier_where_an_end_object_is_not_rank_one_is_refused(z4_invariants):
    inv = z4_invariants["E"]
    k = inv.multipliers.index(None)
    multipliers = inv.multipliers[:k] + (Fraction(1),) + inv.multipliers[k + 1:]
    message = f"multiplier of {inv.simples[k]} must be positive if both ends are rank-one"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        _with(inv, multipliers=multipliers)


@pytest.mark.parametrize(
    "field, value",
    [("multipliers", 1.5), ("multipliers", "1"), ("scales", "1")],
    ids=["float-multiplier", "str-multiplier", "str-scale"],
)
def test_a_multiplier_or_scale_that_is_no_fraction_is_refused(z4_invariants, field, value):
    # a positive value is not enough: every computed one is a Fraction, so compare stays exact
    inv = z4_invariants["F"]
    with pytest.raises(InvalidInputError, match="must be positive if"):
        _with(inv, **{field: (value,) + getattr(inv, field)[1:]})


def test_a_rational_pointed_class_is_refused_when_q1_is_not_rank_one():
    with pytest.raises(InvalidInputError,
                       match="pointed class must be rational if Q1 is rank-one, else a vector"):
        _with(_identity_action_invariant(), pointed=Fraction(1))


@pytest.mark.parametrize(
    "pointed, message",
    [
        ((1,), "must be rational if Q1 is rank-one, else a vector of 4 integers"),
        ((-5, "x"), "must be rational if Q1 is rank-one, else a vector of 4 integers"),
        ((), "must be rational if Q1 is rank-one, else a vector of 4 integers"),
        ((1, 1, 1.0, 1), "must be rational if Q1 is rank-one, else a vector of 4 integers"),
        ((1, -1, 1, 1), "must not be negative"),
    ],
    ids=["short", "negative-and-no-number", "empty", "float-entry", "negative-entry"],
)
def test_a_pointed_vector_is_one_nonnegative_integer_per_tail_basis_element(pointed, message):
    # Q1 of the identity action is not rank-one, and its tail basis has 4 elements
    with pytest.raises(InvalidInputError, match=f"^pointed class {message}$"):
        _with(_identity_action_invariant(), pointed=pointed)


# -------------------------------------------------------------------- verdicts


def test_equivalent_verdict_wire_format(z4_invariants):
    verdict = compare(z4_invariants["F"], z4_invariants["G"])
    assert through_json(verdict_to_json(verdict)) == {
        "verdict": "equivalent",
        "witness": {"Q1": "1", "Q2": "1/2", "Q3": "1/2"},
    }


def test_certificate_and_reason_verdict_wire_formats(z4_invariants):
    # verdicts are output only: afinv renders them and reads none back
    cert = compare(z4_invariants["E"], z4_invariants["F"])
    assert through_json(verdict_to_json(cert)) == {
        "verdict": "inequivalent",
        "certificate": {"kind": "rank", "at": "Q2", "left": "2", "right": "1"},
    }
    unknown = compare(z4_invariants["E"], z4_invariants["E"])
    assert through_json(verdict_to_json(unknown)) == {
        "verdict": "unknown",
        "reason": "objects not rank-one identified: Q2, Q3",
    }


# ---------------------------------------------------- object-diagram documents


def test_object_diagram_tails_render_as_bare_matrices(z4_diagrams, z4_reps):
    sys = StationarySystem(object_diagram(z4_diagrams["F"], z4_reps[1])[-1])
    doc = through_json(matrix_to_json(sys))
    assert doc == {"rows": [[2, 2], [2, 2]]}
    assert matrix_from_json(doc) == sys

"""The contract of the frozen value types: fields, equality, hash, repr, immutability."""

import pytest

from afinv.bimodules import SimpleBimodule, simple_bimodules
from afinv.compare import Certificate, Verdict, compare
from afinv.diagrams import (
    DiagramEdge,
    EnrichedBratteliDiagram,
    InvariantData,
    compute_invariant,
)
from afinv.groups import (
    Character,
    FiniteAbelianGroup,
    Subgroup,
    dual_characters,
    make_group,
    subgroups,
)
from afinv.k0 import (
    DirectSumForm,
    OpaquePresentation,
    RankOneForm,
    StationarySystem,
    stationary_k0,
)
from values import fields_of, replace

FIELDS = {
    FiniteAbelianGroup: ("cyclic_factors",),
    Subgroup: ("group", "elements"),
    Character: ("domain", "values"),
    SimpleBimodule: ("source", "target", "rep", "character"),
    Certificate: ("kind", "at", "left", "right"),
    Verdict: ("status", "witness", "certificate", "reason"),
    DiagramEdge: ("source", "target", "bimodule", "multiplicity"),
    EnrichedBratteliDiagram: ("group", "levels", "edges", "generator_weights"),
    InvariantData: ("group", "objects", "scales", "multipliers", "pointed"),
    StationarySystem: ("matrix",),
    RankOneForm: ("matrix", "eigenvalue", "left_vector", "prime_set"),
    DirectSumForm: ("matrix", "blocks", "partition"),
    OpaquePresentation: ("matrix", "rank"),
}


@pytest.fixture(scope="module")
def examples():
    """One value of each of the 13 types, keyed by type."""
    G = make_group([2, 4])
    trivial, H = subgroups(G)[0], subgroups(G)[1]
    S = simple_bimodules(H, trivial)[1]
    edge = {s: 1 for s in simple_bimodules(trivial, trivial)[:2]}
    d = EnrichedBratteliDiagram.homogeneous(trivial, edge)
    inv = compute_invariant(d)
    certificate = Certificate("rank", "Q1", "1", "2")
    out = [
        G,
        H,
        dual_characters(H)[1],
        S,
        certificate,
        Verdict("inequivalent", certificate=certificate),
        DiagramEdge(0, 0, S, 2),
        d,
        inv,
        StationarySystem(((1, 1), (1, 0))),
        stationary_k0(StationarySystem(((2,),))),
        stationary_k0(StationarySystem(((1, 0), (0, 2)))),
        stationary_k0(StationarySystem(((1, 1), (1, 0)))),
    ]
    assert [type(x) for x in out] == list(FIELDS)
    return {type(x): x for x in out}


def test_each_type_lists_its_fields_in_order(examples):
    assert len(FIELDS) == 13
    for cls, names in FIELDS.items():
        assert cls.__match_args__ == names
        assert tuple(fields_of(examples[cls])) == names


def test_a_rebuilt_value_is_equal_and_hashes_as_its_field_tuple(examples):
    for cls, x in examples.items():
        y = replace(x)
        assert y is not x and y == x and not y != x
        assert hash(x) == hash(y) == hash(tuple(fields_of(x).values()))


def test_a_changed_field_makes_an_unequal_value(examples):
    G = examples[FiniteAbelianGroup]
    assert replace(G, cyclic_factors=(4, 2)) != G
    S = examples[SimpleBimodule]
    assert replace(S, rep=(1, 1)) != S
    assert replace(examples[Verdict], reason="other") != examples[Verdict]


def test_values_of_different_classes_are_never_equal(examples):
    for cls, x in examples.items():
        as_tuple = tuple(fields_of(x).values())
        assert x != as_tuple and as_tuple != x
        assert x.__eq__(as_tuple) is NotImplemented
        for other, y in examples.items():
            if other is not cls:
                assert x != y and not x == y
    # the same matrix in two classes is still two values
    M = ((1, 1), (1, 0))
    assert OpaquePresentation(M, 2) != StationarySystem(M)


def test_values_refuse_assignment_and_deletion(examples):
    for cls, x in examples.items():
        before = fields_of(x)
        for name in (*FIELDS[cls], "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert fields_of(x) == before and not hasattr(x, "extra")


def test_pinned_reprs(examples):
    assert repr(make_group([2, 4])) == "FiniteAbelianGroup(cyclic_factors=(2, 4))"
    assert repr(subgroups(make_group(2))[0]) == (
        "Subgroup(group=FiniteAbelianGroup(cyclic_factors=(2,)), elements=((0,),))"
    )
    assert repr(examples[Verdict]) == (
        "Verdict(status='inequivalent', witness=None, "
        "certificate=Certificate(kind='rank', at='Q1', left='1', right='2'), reason=None)"
    )
    assert repr(examples[RankOneForm]) == (
        "RankOneForm(matrix=((2,),), eigenvalue=2, left_vector=(1,), prime_set=frozenset({2}))"
    )
    assert repr(examples[OpaquePresentation]) == (
        "OpaquePresentation(matrix=((1, 1), (1, 0)), rank=2)"
    )
    assert repr(examples[StationarySystem]) == (
        "StationarySystem(matrix=((1, 1), (1, 0)))"
    )
    S = examples[SimpleBimodule]
    assert repr(DiagramEdge(0, 1, S)) == (
        f"DiagramEdge(source=0, target=1, bimodule={S!r}, multiplicity=1)"
    )


# the fields each declared signature requires; every other type requires all of them
REQUIRED = {Verdict: 1, DiagramEdge: 3}
# the types with no ``__init__`` of their own: the shared one takes their fields by position only
FIELD_ONLY = (SimpleBimodule, Certificate, RankOneForm, DirectSumForm, OpaquePresentation)


def test_defaults_and_keywords(examples):
    # every type takes its fields by position, and a wrong count is a TypeError
    for cls, x in examples.items():
        args = tuple(fields_of(x).values())
        assert cls(*args) == x
        for bad in (args[: REQUIRED.get(cls, len(args)) - 1], (*args, None)):
            with pytest.raises(TypeError):
                cls(*bad)
    with pytest.raises(TypeError, match=r"Certificate\(\) takes 4 fields, got 3"):
        Certificate("rank", "Q1", "1")
    # the two declared signatures take keywords and fill their defaults
    S = examples[SimpleBimodule]
    assert DiagramEdge(0, 0, S) == DiagramEdge(0, 0, S, 1)
    assert DiagramEdge(source=0, target=0, bimodule=S, multiplicity=3).multiplicity == 3
    v = Verdict("equivalent")
    assert (v.status, v.witness, v.certificate, v.reason) == ("equivalent", None, None, None)
    assert v.exit_code == 0 and v.witness_map() is None
    assert Verdict(status="unknown", reason="r") == Verdict("unknown", None, None, "r")
    # a checking type's own __init__ names its fields
    assert StationarySystem(matrix=[[2]]) == StationarySystem([[2]])
    assert StationarySystem(matrix=[[2]]).matrix == ((2,),)
    # a keyword to any other field-only type is a TypeError, whether it names a field or not
    for cls in FIELD_ONLY:
        fields = fields_of(examples[cls])
        *first, last = fields.values()
        for args, kwargs in (
            ((), fields),  # every field by keyword
            (first, {cls.__match_args__[-1]: last}),  # the last field by keyword
            (first + [last], {"extra": None}),  # a keyword that names no field
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_values_match_by_position_and_keyword(examples):
    match examples[Verdict]:
        case Verdict("inequivalent", None, Certificate(kind=kind)):
            assert kind == "rank"
        case _:
            pytest.fail("the verdict did not match its fields")


def test_invariant_data_keeps_its_cached_properties(examples):
    inv = examples[InvariantData]
    assert inv.labels == ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8")
    assert inv.labels is inv.labels
    assert inv.representatives == tuple(subgroups(inv.group))
    assert len(inv.simples) == len(inv.multipliers)
    assert inv.morphisms is inv.morphisms
    copy = replace(inv)
    assert copy == inv and hash(copy) == hash(inv)
    assert compare(inv, copy).status == compare(inv, inv).status


import itertools
import time
from collections.abc import Mapping
from fractions import Fraction

import pytest

from afinv.errors import InternalConsistencyError, InvalidInputError
from afinv.groups import (
    FiniteAbelianGroup,
    Subgroup,
    _characters_of,
    _lattice_index,
    coset_space,
    dual_characters,
    lattice_member,
    make_group,
    subgroup_intersection,
    subgroup_sum,
    subgroups,
)
from afinv.serialize import character_from_json

from gen_loader import load_gen


def brute_force_subgroups(G):
    """Every subset containing 0 that is closed under addition and negation."""
    elems = list(G.elements())
    zero = G.zero()
    rest = [e for e in elems if e != zero]
    found = set()
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subset = frozenset(combo) | {zero}
            closed = all(
                G.add(a, b) in subset for a in subset for b in subset
            ) and all(G.neg(a) in subset for a in subset)
            if closed:
                found.add(tuple(sorted(subset)))
    return found


@pytest.mark.parametrize(
    "factors,count",
    [([1], 1), ([2], 2), ([4], 3), ([2, 2], 5), ([6], 4), ([8], 4), ([2, 4], 8)],
)
def test_subgroup_enumeration_against_brute_force(factors, count):
    G = make_group(factors)
    expected = brute_force_subgroups(G)
    got = {H.elements for H in subgroups(G)}
    assert got == expected
    assert len(got) == count


def generator_closure_subgroups(G):
    """Reference lattice: close each subgroup found under one more element."""
    trivial = Subgroup.generated(G, [])
    seen = {trivial.elements: trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            for g in G.elements():
                if sub.contains(g):
                    continue
                bigger = Subgroup.generated(G, list(sub.minimal_generators()) + [g])
                if bigger.elements not in seen:
                    seen[bigger.elements] = bigger
                    new_frontier.append(bigger)
        frontier = new_frontier
    return sorted(seen.values(), key=Subgroup.sort_key)


def invariant_factors(n, d=1):
    """Each list d_1 | d_2 | ... of factors above 1, each a multiple of d, with product n."""
    if n == 1:
        yield []
    for m in range(2, n + 1):
        if n % m == 0 and m % d == 0:
            yield from ([m] + rest for rest in invariant_factors(n // m, m))


def group_types(max_order, max_rank=None):
    """One presentation of each finite abelian group of order at most ``max_order``."""
    return [[1]] + [
        f
        for n in range(2, max_order + 1)
        for f in invariant_factors(n)
        if max_rank is None or len(f) <= max_rank
    ]


# unsorted, non-primary and padded presentations
PRESENTATIONS = [[4, 2], [9, 3], [6, 4], [1, 4], [4, 1], [2, 1, 2], [4, 4, 2]]


@pytest.mark.parametrize(
    "factors,count",
    [([2, 2, 4], 27), ([4, 4], 15), ([3, 9], 10), ([2, 2, 2, 2], 67), ([9, 9], 23)]
    + [pytest.param(f, None, id=str(f)) for f in group_types(32) + PRESENTATIONS],
)
def test_subgroups_match_generator_closure(factors, count):
    G = make_group(factors)
    got = [H.elements for H in subgroups(G)]
    assert got == [H.elements for H in generator_closure_subgroups(G)]
    assert count is None or len(got) == count


def test_subgroup_counts_of_large_lattices():
    # each lattice is enumerated afresh, so the bound catches an enumeration
    # that rebuilds subgroups it has found: a closure under H -> H + <g> took
    # over 35 s on Z/2 x Z/4 x Z/8 x Z/8 alone (2 CPUs, Python 3.11)
    counts = {(2, 4, 8, 8): 1922}
    closed_form = [[2] * 5, [2] * 6, [3] * 4] + group_types(128, max_rank=2)
    gen = load_gen()
    counts.update((tuple(f), gen.subgroup_count(f)) for f in closed_form)
    start = time.perf_counter()
    for factors, count in counts.items():
        assert len(_lattice_index.__wrapped__(make_group(factors)).subgroups) == count, factors
    assert time.perf_counter() - start < 5


def test_factors_of_one_add_no_work_to_the_lattice(fresh_lattice_index):
    # a factor of 1 has no divisor d < 1, so its coordinate grows no subgroup;
    # walking it anyway took about 6 s here for 5 000 such factors (2 CPUs, Python 3.11)
    start = time.perf_counter()
    subs = subgroups(make_group([1] * 5000))
    assert time.perf_counter() - start < 1
    assert [H.elements for H in subs] == [((0,) * 5000,)]
    padded = make_group([1] * 2000 + [2] + [1] * 2000)
    assert [H.order for H in subgroups(padded)] == [1, 2]


@pytest.mark.parametrize("n", [1, 12, 30, 128, 512])
def test_cyclic_subgroup_count_is_divisor_count(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    subs = subgroups(make_group(n))
    assert len(subs) == len(divisors)
    assert [H.order for H in subs] == divisors


def test_subgroup_enumeration_builds_no_generated_closure(monkeypatch):
    def refuse(cls, group, generators):
        raise AssertionError("Subgroup.generated called")

    monkeypatch.setattr(Subgroup, "generated", classmethod(refuse))
    # bypass the cache, so the enumeration really runs under the patch
    assert len(_lattice_index.__wrapped__(make_group([2, 2, 4])).subgroups) == 27


def test_subgroups_sorted_by_order_then_elements():
    G = make_group(4)
    orders = [H.order for H in subgroups(G)]
    assert orders == sorted(orders)
    assert orders[0] == 1 and orders[-1] == G.order


@pytest.mark.parametrize("factors", [[1], [12], [2, 4], [2, 2, 2]], ids=["Z1", "Z12", "Z2xZ4", "Z2^3"])
def test_lattice_member_is_the_enumerated_object(factors):
    G = make_group(factors)
    for H in subgroups(G):
        copy = Subgroup.generated(G, H.minimal_generators())
        assert copy == H and lattice_member(copy) is H
def test_element_arithmetic():
    G = make_group([2, 4])
    assert G.add((1, 3), (1, 2)) == (0, 1)
    assert G.neg((1, 1)) == (1, 3)
    assert G.element_order((0, 1)) == 4
    assert G.element_order((1, 2)) == 2
    assert G.exponent == 4
    assert len(list(G.elements())) == 8


def test_trivial_group_is_degenerate_but_legal():
    T = make_group(1)
    assert T.order == 1 and T.exponent == 1
    assert list(T.elements()) == [T.zero()]
    subs = subgroups(T)
    assert len(subs) == 1 and subs[0].order == 1
    chars = dual_characters(subs[0])
    assert len(chars) == 1 and chars[0].values == (0,)


def brute_force_characters(H):
    """All Q/Z-valued homomorphisms on H, found by exhaustive search.

    A phase v/e, e the exponent of G, is written as the integer v mod e.
    """
    G = H.group
    e = G.exponent
    homs = set()
    elems = H.elements
    for values in itertools.product(range(e), repeat=len(elems)):
        table = dict(zip(elems, values))
        if table[G.zero()] != 0:
            continue
        if all(
            (table[a] + table[b]) % e == table[G.add(a, b)]
            for a in elems
            for b in elems
        ):
            homs.add(values)
    return homs


@pytest.mark.parametrize("factors,gens", [([4], [(2,)]), ([4], [(1,)]), ([2, 2], [(1, 0), (0, 1)]), ([6], [(2,)])])
def test_dual_characters_against_brute_force(factors, gens):
    G = make_group(factors)
    H = Subgroup.generated(G, gens)
    chars = dual_characters(H)
    assert len(chars) == H.order
    assert {c.values for c in chars} == brute_force_characters(H)
    assert not any(chars[0].values)


def fraction_sum_characters(H):
    """Reference value tables: sum Fractions c_i * e_i / n_i for every coefficient tuple c."""
    G = H.group
    seen = set()
    for coeffs in itertools.product(*(range(n) for n in G.cyclic_factors)):
        values = tuple(
            sum((Fraction(c * x, n) for c, x, n in zip(coeffs, e, G.cyclic_factors)),
                start=Fraction(0)) % 1
            for e in H.elements
        )
        seen.add(values)
    return sorted(seen)


@pytest.mark.parametrize("factors", [[12], [2, 4], [2, 2, 2], [16], [3, 9]])
def test_dual_characters_match_fraction_sum(factors):
    for H in subgroups(make_group(factors)):
        E = H.group.exponent
        got = [tuple(Fraction(v, E) for v in chi.values) for chi in dual_characters(H)]
        assert got == fraction_sum_characters(H), H


def enumerated_characters(H):
    """Reference tables: restrict every ambient coefficient tuple c, |G|·|H|·r products."""
    G = H.group
    E = G.exponent
    weights = [tuple(x * (E // n) for x, n in zip(e, G.cyclic_factors)) for e in H.elements]
    return sorted({
        tuple(sum(c * w for c, w in zip(coeffs, ws)) % E for ws in weights)
        for coeffs in itertools.product(*(range(n) for n in G.cyclic_factors))
    })


@pytest.mark.parametrize(
    "factors",
    [[64], [81], [3, 9], [2, 8], [32], [2, 2, 2, 2], [4, 16], [2] * 6, [9, 9]],
    ids=str,
)
def test_dual_characters_match_the_enumerated_restrictions(factors):
    for H in subgroups(make_group(factors)):
        chars = dual_characters(H)
        assert [chi.values for chi in chars] == enumerated_characters(H), H
        assert all(chi.domain is H for chi in chars)


def test_a_character_count_off_the_order_is_an_internal_error(monkeypatch):
    # a fresh index, so no cached character tuple answers first; an exponent of
    # 1 collapses every coordinate table to zero
    H = _lattice_index.__wrapped__(make_group([4])).subgroups[-1]
    monkeypatch.setattr(FiniteAbelianGroup, "exponent", property(lambda self: 1))
    with pytest.raises(InternalConsistencyError, match="expected 4 characters, found 1"):
        _characters_of(H)


def test_character_homomorphism_validation():
    G = make_group(4)
    H = Subgroup.generated(G, [(2,)])
    chi = character_from_json(H, {"theta": {"[2]": "1/2"}})
    assert chi((2,)) == 2  # the phase 2/4
    with pytest.raises(InvalidInputError):
        character_from_json(H, {"theta": {"[2]": "1/4"}})


def test_character_conjugate_and_product():
    G = make_group(4)
    H = Subgroup.generated(G, [(1,)])
    chars = dual_characters(H)
    chi = chars[1]
    assert chi((1,)) == 1  # the phase 1/4
    assert chi.conjugate().values == (0, 3, 2, 1)
    assert all((u + v) % 4 == 0 for u, v in zip(chi.values, chi.conjugate().values))
    assert tuple(2 * v % 4 for v in chi.values) == chars[2].values


@pytest.mark.parametrize("factors", [[2, 4], [6]])
def test_coset_space_partitions_group(factors):
    G = make_group(factors)
    for H in subgroups(G):
        rep_of = coset_space(H)
        assert sorted(rep_of) == sorted(G.elements())
        reps = list(dict.fromkeys(rep_of.values()))
        assert len(reps) == G.order // H.order
        assert reps == sorted(reps)
        for x, rep in rep_of.items():
            members = sorted(G.add(x, h) for h in H.elements)
            assert rep == members[0]
            assert all(rep_of[y] == rep for y in members)


@pytest.mark.parametrize("factors", [[12], [2, 4], [2, 2, 2]], ids=["Z12", "Z2xZ4", "Z2^3"])
def test_sums_and_intersections_are_the_lattice_members(factors):
    G = make_group(factors)
    subs = subgroups(G)
    # equal copies outside the lattice give the same members as the members do
    copies = [Subgroup.generated(G, H.minimal_generators()) for H in subs]
    for operands in (subs, copies):
        for H in operands:
            for K in operands:
                S, I = subgroup_sum(H, K), subgroup_intersection(H, K)
                assert S is lattice_member(S) and I is lattice_member(I)
                assert set(S.elements) == {G.add(h, k) for h in H.elements for k in K.elements}
                assert set(I.elements) == set(H.elements) & set(K.elements)


def test_subgroups_characters_and_coset_maps_are_the_index_tables_read_only():
    G = make_group([2, 4])
    subs = subgroups(G)
    assert subgroups(G) is subs
    tables = [subs]
    for H in subs:
        chars, rep_of = dual_characters(H), coset_space(H)
        assert dual_characters(H) is chars and coset_space(H) is rep_of
        assert all(chi.domain is H for chi in chars)
        tables += [chars, rep_of]

    def contents():
        return [dict(t) if isinstance(t, Mapping) else list(t) for t in tables]

    before = contents()
    for table in tables:
        key = next(iter(table)) if isinstance(table, Mapping) else 0
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]
    assert subgroups(G) is subs and contents() == before


def test_a_set_that_is_no_subgroup_is_refused():
    G = make_group(4)
    with pytest.raises(InvalidInputError):
        lattice_member(Subgroup(G, ((0,), (1,))))


def test_sum_and_intersection():
    G = make_group([2, 4])
    A = Subgroup.generated(G, [(1, 0)])
    B = Subgroup.generated(G, [(1, 2)])
    S = subgroup_sum(A, B)
    I = subgroup_intersection(A, B)
    assert S.order == 4 and I.order == 1
    assert all(S.contains(x) for x in A.elements)
    assert I.elements == (G.zero(),)
    other = subgroups(make_group(4))[1]
    for op in (subgroup_sum, subgroup_intersection):
        with pytest.raises(InvalidInputError, match="subgroups live in different groups"):
            op(A, other)


def pairwise_closure(G, generators):
    """Reference closure: all sums of the elements so far with each multiple of a generator."""
    closure = {G.zero()}
    for gen in generators:
        multiples = [tuple(k * x % n for x, n in zip(gen, G.cyclic_factors))
                     for k in range(G.element_order(gen))]
        closure = {G.add(h, m) for h in closure for m in multiples}
    return tuple(sorted(closure))


def pairwise_greedy_generators(H):
    """Reference greedy choice: highest order first, re-closing all chosen generators each time."""
    gens = []
    for a in sorted(H.elements, key=lambda x: (-H.group.element_order(x), x)):
        if a not in pairwise_closure(H.group, gens):
            gens.append(a)
            if len(pairwise_closure(H.group, gens)) == H.order:
                break
    return tuple(gens)


@pytest.mark.parametrize("factors", [[12], [2, 4], [2, 2, 2], [3, 9], [4, 4]])
def test_joins_match_pairwise_reference(factors):
    G = make_group(factors)
    subs = subgroups(G)
    for H in subs:
        gens = H.minimal_generators()
        assert gens == pairwise_greedy_generators(H), H
        assert Subgroup.generated(G, gens).elements == H.elements
        for K in subs:
            pairwise = tuple(sorted({G.add(h, k) for h in H.elements for k in K.elements}))
            assert subgroup_sum(H, K).elements == pairwise, (H, K)
    rank = len(G.cyclic_factors)
    assert Subgroup.generated(G, [(5,) * rank, (-1,) * rank]).elements == pairwise_closure(
        G, [G.reduce((5,) * rank), G.reduce((-1,) * rank)]
    )


def test_schur_trivial_is_cyclicity():
    G = make_group([2, 2])
    names = {H.elements: H.is_cyclic() for H in subgroups(G)}
    # only the full Klein group is non-cyclic
    assert sum(1 for v in names.values() if not v) == 1
    assert all(H.is_cyclic() for H in subgroups(make_group(4)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_group([2.5]),
        lambda: make_group(["4"]),
        lambda: make_group("44"),
        lambda: make_group([True, 2]),
        lambda: FiniteAbelianGroup((True, 2)),
        lambda: Subgroup.generated(make_group([4]), [(1.5,)]),
        lambda: make_group([4]).reduce(("1",)),
        lambda: make_group([4]).reduce((True,)),
    ],
    ids=["float", "numeric-string", "string", "bool", "bool-in-constructor",
         "float-generator", "numeric-string-element", "bool-element"],
)
def test_group_constructors_refuse_what_is_not_an_integer(build):
    with pytest.raises(InvalidInputError):
        build()


def test_group_constructor_refuses_a_list_of_factors():
    # a list would be accepted and then fail its first hash, in the lattice index's cache
    with pytest.raises(InvalidInputError, match="must be a tuple"):
        FiniteAbelianGroup([2])


@pytest.mark.parametrize(
    "elements, message",
    [
        (((0,), (0,), (2,)), "sorted and duplicate-free"),  # sorted, so only the count shows it
        (((0,), (2,), (0,)), "sorted and duplicate-free"),
        (((2,), (0,)), "sorted and duplicate-free"),
        (((1,), (2,)), "must contain the identity"),
    ],
    ids=["repeated", "repeated-unsorted", "unsorted", "no-identity"],
)
def test_subgroup_constructor_refuses_a_bad_element_tuple(elements, message):
    with pytest.raises(InvalidInputError, match=message):
        Subgroup(make_group([4]), elements)
    assert Subgroup(make_group([4]), ((0,), (2,))).order == 2


@pytest.mark.parametrize("factors", [[4], [2, 4], [2, 2, 2]])
def test_conjugate_characters_are_the_lattice_members(factors):
    for H in subgroups(make_group(factors)):
        chars = dual_characters(H)
        for chi in chars:
            conj = chi.conjugate()
            assert any(conj is member for member in chars)
            assert conj.conjugate() is chi


def test_make_group_rejects_bad_factors():
    with pytest.raises(InvalidInputError):
        make_group([0])
    with pytest.raises(InvalidInputError):
        make_group([-3])
    with pytest.raises(InvalidInputError):
        make_group([])
    with pytest.raises(InvalidInputError, match=r"must be positive integers, got 2\.5"):
        make_group(2.5)


def test_a_group_needs_a_cyclic_factor():
    with pytest.raises(InvalidInputError) as caught:
        FiniteAbelianGroup(())
    assert str(caught.value) == "need at least one cyclic factor (use [1] for the trivial group)"

import itertools
from fractions import Fraction

import pytest

from afinv.errors import InvalidInputError
from afinv.groups import (
    Character,
    CocycleTable,
    Subgroup,
    _subgroups_cached,
    coset_of,
    coset_space,
    dual_characters,
    make_group,
    subgroup_intersection,
    subgroup_sum,
    subgroups,
    validate_2cocycle,
)


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


@pytest.mark.parametrize(
    "factors,count",
    [([2, 2, 4], 27), ([4, 4], 15), ([3, 9], 10), ([2, 2, 2, 2], 67), ([9, 9], 23)],
)
def test_subgroups_match_generator_closure(factors, count):
    G = make_group(factors)
    got = [H.elements for H in subgroups(G)]
    assert got == [H.elements for H in generator_closure_subgroups(G)]
    assert len(got) == count


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
    assert len(_subgroups_cached.__wrapped__(make_group([2, 2, 4]))) == 27


def test_subgroups_sorted_by_order_then_elements():
    G = make_group(4)
    orders = [H.order for H in subgroups(G)]
    assert orders == sorted(orders)
    assert orders[0] == 1 and orders[-1] == G.order


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
    assert len(chars) == 1 and chars[0].is_trivial()


def brute_force_characters(H):
    """All Q/Z-valued homomorphisms on H, found by exhaustive search."""
    G = H.group
    e = G.exponent
    candidates = [Fraction(k, e) for k in range(e)]
    homs = set()
    elems = H.elements
    for values in itertools.product(candidates, repeat=len(elems)):
        table = dict(zip(elems, values))
        if table[G.zero()] != 0:
            continue
        if all(
            (table[a] + table[b]) % 1 == table[G.add(a, b)]
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
    assert chars[0].is_trivial()


def fraction_sum_characters(H):
    """Reference characters: sum Fractions c_i * e_i / n_i for every coefficient tuple c."""
    G = H.group
    seen = {}
    for coeffs in itertools.product(*(range(n) for n in G.cyclic_factors)):
        values = tuple(
            sum((Fraction(c * x, n) for c, x, n in zip(coeffs, e, G.cyclic_factors)),
                start=Fraction(0)) % 1
            for e in H.elements
        )
        seen.setdefault(values, Character(H, values))
    return [seen[v] for v in sorted(seen)]


@pytest.mark.parametrize("factors", [[12], [2, 4], [2, 2, 2], [16], [3, 9]])
def test_dual_characters_match_fraction_sum(factors):
    for H in subgroups(make_group(factors)):
        assert dual_characters(H) == fraction_sum_characters(H), H


def test_character_homomorphism_validation():
    G = make_group(4)
    H = Subgroup.generated(G, [(2,)])
    chi = Character.from_values(H, {(2,): Fraction(1, 2)})
    assert chi((2,)) == Fraction(1, 2)
    with pytest.raises(InvalidInputError):
        Character.from_values(H, {(2,): Fraction(1, 4)})


def test_character_conjugate_and_product():
    G = make_group(4)
    H = Subgroup.generated(G, [(1,)])
    chars = dual_characters(H)
    chi = chars[1]
    assert chi((1,)) == Fraction(1, 4)
    assert chi.product(chi.conjugate()).is_trivial()
    assert chi.product(chi).values == chars[2].values


@pytest.mark.parametrize("factors", [[2, 4], [6]])
def test_coset_space_partitions_group(factors):
    G = make_group(factors)
    for H in subgroups(G):
        cosets = coset_space(G, H)
        assert len(cosets) == G.order // H.order
        seen = [x for c in cosets for x in c.members]
        assert sorted(seen) == sorted(G.elements())
        for c in cosets:
            assert c.rep == min(c.members)
            assert coset_of(G, H, c.rep) == c


def test_sum_and_intersection():
    G = make_group([2, 4])
    A = Subgroup.generated(G, [(1, 0)])
    B = Subgroup.generated(G, [(1, 2)])
    S = subgroup_sum(A, B)
    I = subgroup_intersection(A, B)
    assert S.order == 4 and I.order == 1
    assert all(S.contains(x) for x in A.elements)
    assert I.elements == (G.zero(),)


def test_schur_trivial_is_cyclicity():
    G = make_group([2, 2])
    names = {H.elements: H.is_cyclic() for H in subgroups(G)}
    # only the full Klein group is non-cyclic
    assert sum(1 for v in names.values() if not v) == 1
    assert all(H.is_cyclic() for H in subgroups(make_group(4)))


def test_cocycle_validation():
    G = make_group([2, 2])
    H = Subgroup.generated(G, [(1, 0), (0, 1)])
    mu = CocycleTable.from_function(H, lambda a, b: Fraction(a[1] * b[0], 2))
    assert validate_2cocycle(mu)
    assert not mu.is_trivial()
    assert validate_2cocycle(CocycleTable.trivial(H))

    # breaking normalization must fail
    bad = CocycleTable.from_function(
        H, lambda a, b: Fraction(1, 2) if a == (0, 0) else Fraction(0)
    )
    assert not validate_2cocycle(bad)


def test_cocycle_identity_violation_detected():
    G = make_group(4)
    H = Subgroup.generated(G, [(1,)])

    def crooked(a, b):
        if a == (1,) and b == (1,):
            return Fraction(1, 3)
        return Fraction(0)

    assert not validate_2cocycle(CocycleTable.from_function(H, crooked))


def test_make_group_rejects_bad_factors():
    with pytest.raises(InvalidInputError):
        make_group([0])
    with pytest.raises(InvalidInputError):
        make_group([-3])
    with pytest.raises(InvalidInputError):
        make_group([])

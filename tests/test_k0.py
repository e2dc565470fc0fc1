"""Stationary limit-group identification, value maps, and multipliers."""

import importlib.util
import pathlib
from fractions import Fraction

import pytest
import random
import time
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from afinv import k0 as k0_module
from afinv.diagrams import object_diagram
from afinv.errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from afinv.groups import subgroups
from afinv.k0 import (
    DirectSumForm,
    OpaquePresentation,
    RankOneForm,
    StationarySystem,
    is_s_unit,
    mat_mul,
    mat_pow,
    mat_vec,
    morphism_multiplier,
    shift_equivalent_bounded,
    stationary_k0,
    strip_primes,
    value_map,
    vec_mat,
)
from afinv.serialize import diagram_from_json


def k0(matrix):
    return stationary_k0(StationarySystem(matrix))


def rational_rank(rows) -> int:
    """Rank over Q by fraction-exact Gaussian elimination (the reference)."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------- basic forms


def test_uniform_two_by_two_is_rank_one():
    desc = k0([[2, 2], [2, 2]])
    assert isinstance(desc, RankOneForm)
    assert desc.eigenvalue == 4
    assert desc.left_vector == (1, 1)
    assert desc.prime_set == frozenset({2})
    assert desc.scale == 1


def test_single_entry_matrix():
    desc = k0([[4]])
    assert isinstance(desc, RankOneForm)
    assert (desc.eigenvalue, desc.left_vector, desc.prime_set) == (4, (1,), {2})
    assert k0([[6]]).prime_set == frozenset({2, 3})


def test_identity_system_gives_plain_integers():
    desc = k0([[1]])
    assert isinstance(desc, RankOneForm)
    assert (desc.eigenvalue, desc.left_vector) == (1, (1,))
    assert desc.prime_set == frozenset()
    assert desc.scale == 1
    # q is in r*Z[1/S] exactly when q/r has no denominator once S is stripped
    assert strip_primes(Fraction(3) / desc.scale, desc.prime_set).denominator == 1
    assert strip_primes(Fraction(1, 2) / desc.scale, desc.prime_set).denominator != 1


def test_scaled_image_with_nonuniform_eigenvector():
    desc = k0([[2, 8], [0, 0]])
    assert isinstance(desc, RankOneForm)
    assert desc.eigenvalue == 2
    assert desc.left_vector == (1, 4)
    # v.1 = 5 survives stripping by {2}: the image is (1/5) * Z[1/2]
    assert desc.scale == Fraction(1, 5)
    S = desc.prime_set
    assert strip_primes(Fraction(1, 5) / desc.scale, S).denominator == 1
    assert strip_primes(Fraction(3, 10) / desc.scale, S).denominator == 1
    assert strip_primes(Fraction(1, 15) / desc.scale, S).denominator != 1


def test_diagonal_matrix_splits_into_blocks():
    desc = k0([[4, 0], [0, 4]])
    assert isinstance(desc, DirectSumForm)
    assert desc.rank == 2
    assert desc.partition == ((0,), (1,))
    for block in desc.blocks:
        assert block.eigenvalue == 4
        assert block.prime_set == frozenset({2})


def test_unipotent_matrix_stays_opaque():
    desc = k0([[1, 1], [0, 1]])
    assert isinstance(desc, OpaquePresentation)
    assert desc.rank == 2


def test_connected_full_rank_matrix_stays_opaque():
    desc = k0([[2, 1], [1, 2]])
    assert isinstance(desc, OpaquePresentation)
    assert desc.rank == 2


def test_limit_rank_drops_nilpotent_directions():
    assert k0([[0, 1], [0, 2]]).rank == 1
    assert k0([[0, 1], [0, 0]]).rank == 0
    assert k0([[2, 2], [2, 2]]).rank == 1
    assert k0([[4, 0], [0, 4]]).rank == 2
    assert k0([[1]]).rank == 1
    assert rational_rank([[1, 2], [2, 4]]) == 1


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param([[1, 1], [1, 0]], id="connected"),
        pytest.param([[1, 1, 0], [1, 0, 0], [0, 0, 2]], id="one-opaque-component"),
    ],
)
def test_opaque_limit_takes_no_power_and_at_most_b_plus_one_products(matrix, monkeypatch):
    calls = {"mat_mul": 0, "mat_pow": 0}

    def counted(name):
        original = getattr(k0_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(k0_module, name, counted(name))
    desc = k0(matrix)
    assert isinstance(desc, OpaquePresentation)
    assert desc.rank == len(matrix)
    assert calls["mat_pow"] == 0
    assert calls["mat_mul"] <= len(matrix) + 1


def two_power_rank_one(A):
    """Reference rank-one test: rank(A^b) == 1, then v from the rows of A^2b."""
    power = mat_pow(A, len(A))
    if rational_rank(power) != 1:
        return None
    v = next(row for row in mat_mul(power, power) if any(row))
    g = gcd(*v) if len(v) > 1 else v[0]
    v = tuple(x // g for x in v)
    w = tuple(sum(v[i] * A[i][j] for i in range(len(v))) for j in range(len(A)))
    nz = next(i for i, x in enumerate(v) if x)
    if w[nz] % v[nz] != 0:
        return None
    lam = w[nz] // v[nz]
    if lam <= 0 or w != tuple(lam * x for x in v):
        return None
    return lam, v


def test_rank_one_forms_match_the_two_power_reference():
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        # sparse entries, so that nilpotent, reducible and rank-one cases all occur
        A = tuple(
            tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(n)
        )
        if not any(map(any, A)):
            continue
        desc = k0(A)
        expected = two_power_rank_one(A)
        if expected is None:
            assert not isinstance(desc, RankOneForm), A
            assert desc.rank == rational_rank(mat_pow(A, n)), A
        else:
            assert isinstance(desc, RankOneForm), A
            assert (desc.eigenvalue, desc.left_vector) == expected, A
        seen.add(type(desc))
    assert seen == {RankOneForm, DirectSumForm, OpaquePresentation}


def _prime_set(n):
    return frozenset(p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p)))


def two_power_summary(A):
    """What the A^b route identifies: the form, the rank, each block's
    (eigenvalue, left vector, prime set) and the partition of a direct sum."""
    found = two_power_rank_one(A)
    if found is not None:
        return RankOneForm, 1, ((found[0], found[1], _prime_set(found[0])),), None
    comps = k0_module._components(A)
    if len(comps) > 1:
        blocks = [two_power_rank_one([[A[i][j] for j in c] for i in c]) for c in comps]
        if all(blocks):
            data = tuple((lam, v, _prime_set(lam)) for lam, v in blocks)
            return DirectSumForm, len(comps), data, tuple(map(tuple, comps))
    return OpaquePresentation, rational_rank(mat_pow(A, len(A))), (), None


def summary(desc):
    if isinstance(desc, RankOneForm):
        return RankOneForm, 1, ((desc.eigenvalue, desc.left_vector, desc.prime_set),), None
    if isinstance(desc, DirectSumForm):
        data = tuple((b.eigenvalue, b.left_vector, b.prime_set) for b in desc.blocks)
        return DirectSumForm, desc.rank, data, desc.partition
    return OpaquePresentation, desc.rank, (), None


def _entry(rng):
    return rng.choice((0, 0, 0, 1, 2, 3))


def _rank_one_block(rng, size):
    """w u^T with u in {1, 2, 3}^size and w a nonzero 0/1 vector."""
    u, w = [rng.randint(1, 3) for _ in range(size)], [rng.randint(0, 1) for _ in range(size)]
    w[rng.randrange(size)] = 1
    return [[w[i] * u[j] for j in range(size)] for i in range(size)]


def _seeded_matrix(rng, n, kind):
    """An n x n matrix with entries in {0, 1, 2, 3} of one of three kinds."""
    if kind == "sparse":
        return [[_entry(rng) for _ in range(n)] for _ in range(n)]
    if kind == "triangular":
        # a nilpotent strictly upper triangular part feeding a rank-one tail
        m = rng.randint(0, n)
        tail = _rank_one_block(rng, n - m) if m < n else []
        head = [[_entry(rng) * (j > i) for j in range(n)] for i in range(m)]
        return head + [[0] * m + row for row in tail]
    # permuted block diagonal: each block rank-one (most often), sparse or
    # strictly triangular
    A, at = [[0] * n for _ in range(n)], 0
    while at < n:
        size = rng.randint(1, n - at)
        style = rng.choice(("rank-one", "rank-one", "rank-one", "sparse", "nilpotent"))
        if style == "rank-one":
            block = _rank_one_block(rng, size)
        else:
            block = [[_entry(rng) * (style == "sparse" or j > i) for j in range(size)]
                     for i in range(size)]
        for i, row in enumerate(block):
            A[at + i][at : at + size] = row
        at += size
    perm = list(range(n))
    rng.shuffle(perm)
    return [[A[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_every_form_matches_the_a_power_b_reference(monkeypatch):
    products = {"mat_mul": 0}
    original = k0_module.mat_mul

    def counted(*args):
        products["mat_mul"] += 1
        return original(*args)

    monkeypatch.setattr(k0_module, "mat_mul", counted)
    rng = random.Random(11)
    seen, most_products = set(), 0
    for t in range(2000):
        n = rng.randint(1, 8)
        A = _seeded_matrix(rng, n, ("sparse", "triangular", "block-diagonal")[t % 3])
        products["mat_mul"] = 0
        got = summary(k0(A))
        assert got == two_power_summary(A), A
        most_products = max(most_products, products["mat_mul"])
        seen.add(got[0])
    assert seen == {RankOneForm, DirectSumForm, OpaquePresentation}
    assert most_products >= 4  # some matrices need several steps to settle


def triple_sum_product(A, B):
    """Reference product: entry (i, j) is the sum over k of A[i][k] * B[k][j]."""
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def _random_matrix(rng, rows, cols, shape, entry):
    """A rows x cols matrix of ``entry()`` values laid out as ``shape`` says."""
    if shape == "monomial":  # one nonzero per row, in distinct columns where it can
        perm = rng.sample(range(cols), min(rows, cols)) + [rng.randrange(cols)] * (rows - cols)
        return [[(entry() or 1) if j == perm[i] else 0 for j in range(cols)] for i in range(rows)]
    if shape == "triangular":  # strictly upper triangular
        return [[entry() if j > i else 0 for j in range(cols)] for i in range(rows)]
    out = []
    for _ in range(rows):
        density = {"sparse": 0.1, "dense": 0.9}.get(shape) or rng.random()  # mixed: per row
        out.append([entry() if rng.random() < density else 0 for _ in range(cols)])
    return out


def test_mat_mul_matches_the_triple_sum_reference():
    rng = random.Random(2016)
    entries = {
        "small": lambda: rng.randint(0, 3),
        "negative": lambda: rng.randint(-5, 5),
        "huge": lambda: rng.choice((-1, 1)) * rng.randrange(10**299, 10**300),
    }
    shapes = ("monomial", "sparse", "dense", "triangular", "mixed")
    sizes = [(n, n) for n in (1, 2, 3, 4, 7, 16, 33)] + [(1, 9), (9, 1), (1, 1), (5, 3), (3, 5)]
    for (rows, inner), cols in ((size, rng.randint(1, 9)) for size in sizes for _ in range(2)):
        for left, right in ((a, b) for a in shapes for b in shapes):
            for kind, entry in entries.items():
                A = _random_matrix(rng, rows, inner, left, entry)
                B = _random_matrix(rng, inner, cols, right, entry)
                want = triple_sum_product(A, B)
                assert mat_mul(A, B) == want, (kind, left, right, rows, inner, cols)
                assert mat_mul(tuple(map(tuple, A)), tuple(map(tuple, B))) == want


def test_mat_mul_rows_at_half_density_take_either_route_to_the_same_product():
    B = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    for row in ((0, 0, 0, 0), (2, 0, 0, 0), (0, -3, 0, 5), (1, 1, 1, 0), (1, 1, 1, 1)):
        assert mat_mul((row,), B) == triple_sum_product((row,), B)


def test_sixty_four_vertex_opaque_tail_is_identified_within_seconds():
    rng = random.Random(64)
    A = [[rng.randint(0, 3) + 5 * (i == j) for j in range(64)] for i in range(64)]
    start = time.perf_counter()
    desc = k0(A)
    assert time.perf_counter() - start < 5
    assert isinstance(desc, OpaquePresentation)
    assert desc.rank == 64


@pytest.mark.parametrize(
    "matrix",
    [((1.5, 0.7), (2, "3")), ((True, 1), (1, 1))],
    ids=["float-and-string-entries", "bool-entry"],
)
def test_stationary_system_refuses_what_it_would_have_to_convert(matrix):
    with pytest.raises(InvalidInputError):
        StationarySystem(matrix)


def test_stationary_system_validation():
    with pytest.raises(InvalidInputError):
        StationarySystem([[1, 2]])
    with pytest.raises(InvalidInputError):
        StationarySystem([[1, -1], [0, 1]])


def test_stationary_system_is_its_matrix():
    assert StationarySystem.__match_args__ == ("matrix",)
    with pytest.raises(TypeError):
        StationarySystem(((1,),), ("a",))


# ----------------------------------------------------------------- value maps


def test_value_map_examples():
    desc = k0([[2, 2], [2, 2]])
    assert value_map(desc, 0, (1, 1)) == 1
    assert value_map(desc, 1, (1, 1)) == Fraction(1, 4)
    assert value_map(desc, 0, (1, 0)) == Fraction(1, 2)
    assert value_map(desc, 0, (0, 0)) == 0
    with pytest.raises(InvalidInputError):
        value_map(desc, 0, (1, 1, 1))
    with pytest.raises(InvalidInputError):
        value_map(desc, -1, (1, 1))


def test_value_map_deeper_level_on_all_ones_system():
    desc = k0([[1, 1, 1, 1]] * 4)
    x = (1, 0, 0, 0)
    assert value_map(desc, 1, x) == Fraction(1, 16)
    assert value_map(desc, 2, mat_vec(desc.matrix, x)) == Fraction(1, 16)


@given(st.lists(st.integers(0, 9), min_size=2, max_size=2), st.integers(0, 3))
def test_value_map_coherent_across_levels(x, n):
    desc = k0([[2, 2], [2, 2]])
    assert value_map(desc, n + 1, mat_vec(desc.matrix, x)) == value_map(desc, n, x)


def test_value_map_coherence_nonuniform():
    desc = k0([[2, 8], [0, 0]])
    for x in [(1, 0), (0, 1), (3, 5)]:
        assert value_map(desc, 1, mat_vec(desc.matrix, x)) == value_map(desc, 0, x)


# ---------------------------------------------------------------- multipliers


def test_multiplier_summing_onto_smaller_system():
    descP = k0([[1, 1, 1, 1]] * 4)
    descQ = k0([[4]])
    M = [[1, 1, 1, 1]]
    assert morphism_multiplier(descP, descQ, M) == 4


def test_multiplier_scalar_and_averaging_maps():
    desc = k0([[2, 2], [2, 2]])
    assert morphism_multiplier(desc, desc, [[1, 0], [0, 1]]) == 1
    assert morphism_multiplier(desc, desc, [[2, 0], [0, 2]]) == 2
    assert morphism_multiplier(desc, desc, [[1, 1], [1, 1]]) == 2


def test_multiplier_zero_map_is_degenerate_zero():
    descP = k0([[2]])
    descQ = k0([[2, 0], [2, 0]])
    assert morphism_multiplier(descP, descQ, [[0], [0]]) == Fraction(0)


def test_multiplier_zero_when_eigenvalues_differ():
    descP = k0([[2]])
    descQ = k0([[4]])
    # the zero matrix intertwines anything of the right shape, but the two
    # value maps rescale differently from level to level
    assert morphism_multiplier(descP, descQ, [[0]]) == Fraction(0)
    descQ2 = k0([[2, 8], [0, 0]])
    desc44 = k0([[2, 2], [2, 2]])
    M = [[0, 0], [0, 0]]
    assert morphism_multiplier(descQ2, desc44, M) == Fraction(0)
    # a nonzero intertwiner between eigenvalues 2 and 4: v_Q M = 0, so the
    # multiplier is 0, never undefined
    M = [[0, 0], [0, 1]]
    assert morphism_multiplier(k0([[2, 0], [0, 0]]), k0([[4, 0], [0, 0]]), M) == Fraction(0)


def test_multiplier_rejects_non_intertwiners():
    desc = k0([[2, 2], [2, 2]])
    with pytest.raises(InvalidInputError):
        morphism_multiplier(desc, desc, [[1, 0], [0, 2]])
    with pytest.raises(InvalidInputError):
        morphism_multiplier(desc, desc, [[1, 0, 0], [0, 1, 0]])


def test_multiplier_respects_value_maps():
    descP = k0([[1, 1, 1, 1]] * 4)
    descQ = k0([[2, 2], [2, 2]])
    M = [[1, 1, 0, 0], [0, 0, 1, 1]]
    assert mat_mul(descQ.matrix, M) == mat_mul(M, descP.matrix)
    q = morphism_multiplier(descP, descQ, M)
    assert q == 2
    for x in [(1, 0, 0, 0), (1, 2, 3, 4), (0, 0, 0, 1)]:
        assert value_map(descQ, 0, mat_vec(M, x)) == q * value_map(descP, 0, x)


def test_multiplier_refuses_a_row_not_proportional_to_v_p():
    # An intertwiner maps v_Q into the eigenline of v_P, so no intertwiner
    # reaches the self-check; these matrices intertwine nothing and drive it directly.
    descP, descQ = k0([[1, 1], [1, 1]]), k0([[2]])
    assert k0_module._multiplier(descP, descQ, ((1, 1),)) == 2
    for M in (((1, 0),), ((0, 3),)):
        with pytest.raises(InternalConsistencyError, match="not proportional to v_P"):
            k0_module._multiplier(descP, descQ, M)


def test_a_one_row_eventual_space_that_is_no_eigenvector_is_a_failed_self_check(monkeypatch):
    # The one eventual row of a nonnegative matrix is always a positive-eigenvalue
    # eigenvector, so a tampered row space drives the self-check directly.
    monkeypatch.setattr(k0_module, "_eventual_rows", lambda A: [(1, 0)])
    with pytest.raises(InternalConsistencyError, match="not an eigenvector"):
        k0([[1, 1], [1, 1]])


# ---------------------------------------------------- bounded shift equivalence


def test_shift_equivalence_found_between_telescoped_systems():
    A = [[4]]
    B = [[2, 2], [2, 2]]
    found = shift_equivalent_bounded(A, B, lag_bound=2, entry_bound=2)
    assert found is not None
    R, S, lag = found
    assert mat_mul(R, A) == mat_mul(B, R)
    assert mat_mul(S, B) == mat_mul(A, S)
    assert mat_mul(S, R) == mat_pow(A, lag)
    assert mat_mul(R, S) == mat_pow(B, lag)


def test_shift_equivalence_of_a_system_with_itself():
    found = shift_equivalent_bounded([[4]], [[4]], lag_bound=1, entry_bound=4)
    assert found is not None
    R, S, lag = found
    assert mat_mul(S, R) == mat_pow([[4]], lag)


def test_shift_equivalence_absent_for_different_growth():
    assert shift_equivalent_bounded([[2]], [[3]], lag_bound=3, entry_bound=4) is None
    assert shift_equivalent_bounded([[4]], [[2]], lag_bound=3, entry_bound=4) is None


def test_shift_equivalence_search_is_bounded():
    A = [[1, 1, 1, 1]] * 4
    with pytest.raises(ResourceLimitError):
        shift_equivalent_bounded(A, A, lag_bound=1, entry_bound=4)


def test_shift_equivalence_search_stops_past_its_check_budget(monkeypatch):
    # [[2]] with entries <= 1: R = 1 against S in {0, 1} at each lag makes
    # 2 * lag_bound checks, and none is a witness since SR = S != 2^lag.
    monkeypatch.setattr(k0_module, "SHIFT_SEARCH_BUDGET", 6)
    assert shift_equivalent_bounded([[2]], [[2]], lag_bound=3, entry_bound=1) is None
    monkeypatch.setattr(k0_module, "SHIFT_SEARCH_BUDGET", 5)
    with pytest.raises(ResourceLimitError, match="passed 5 checks"):
        shift_equivalent_bounded([[2]], [[2]], lag_bound=3, entry_bound=1)
    # [[1]]: S = 0 fails at lags 1..3, then S = 1 is a witness at check 4
    monkeypatch.setattr(k0_module, "SHIFT_SEARCH_BUDGET", 4)
    found = shift_equivalent_bounded([[1]], [[1]], lag_bound=3, entry_bound=1)
    assert found == (((1,),), ((1,),), 1)
    monkeypatch.setattr(k0_module, "SHIFT_SEARCH_BUDGET", 3)
    with pytest.raises(ResourceLimitError):
        shift_equivalent_bounded([[1]], [[1]], lag_bound=3, entry_bound=1)


def test_shift_equivalence_builds_powers_only_as_the_lags_are_reached(monkeypatch):
    # [[2]] against [[3]] has only R = 0 and S = 0 as candidates, so no lag is
    # ever checked and no power of either matrix may be built, however large
    # the lag bound.
    calls = {"mat_mul": 0, "mat_pow": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(k0_module, "mat_mul", counting("mat_mul", mat_mul))
    monkeypatch.setattr(k0_module, "mat_pow", counting("mat_pow", mat_pow))
    assert shift_equivalent_bounded([[2]], [[3]], lag_bound=10**9, entry_bound=1) is None
    # two products for each of the 2 + 2 matrices tried as candidates, no more
    assert calls == {"mat_mul": 8, "mat_pow": 0}
    # with a candidate pair, the same lag bound ends at the check budget
    monkeypatch.setattr(k0_module, "SHIFT_SEARCH_BUDGET", 5)
    with pytest.raises(ResourceLimitError, match="passed 5 checks"):
        shift_equivalent_bounded([[2]], [[2]], lag_bound=10**9, entry_bound=1)


def test_shift_equivalence_candidate_space_is_bounded_by_the_budget(monkeypatch):
    # entries <= 1 on a 1x1 pair give 2 candidates per side: over a budget
    # of 1, the search is refused before any candidate matrix is built
    calls = []
    monkeypatch.setattr(k0_module, "mat_mul", lambda *args: calls.append(args) or mat_mul(*args))
    monkeypatch.setattr(k0_module, "SHIFT_SEARCH_BUDGET", 1)
    with pytest.raises(ResourceLimitError, match="too large"):
        shift_equivalent_bounded([[2]], [[2]], lag_bound=1, entry_bound=1)
    assert calls == []


# ----------------------------------------------------------- prime-set helpers


def trial_division_primes(n: int) -> frozenset[int]:
    """Reference: the primes dividing n, by trial division up to the square root."""
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def test_prime_factors_agree_with_trial_division():
    for n in range(1, 10**5 + 1):
        assert k0_module._prime_factors(n) == trial_division_primes(n), n
    rng = random.Random(12)
    primes = []
    while len(primes) < 12:
        p = rng.randrange(10**9 - 10**6, 10**9 + 10**6) | 1
        while trial_division_primes(p) != {p}:
            p += 2
        primes.append(p)
    for p, q in zip(primes[::2], primes[1::2]):
        for n in (p * q, p * p, 6 * p * q, p):
            assert k0_module._prime_factors(n) == {d for d in (2, 3, p, q) if n % d == 0}


def test_prime_factors_split_powers_of_primes_above_the_trial_bound():
    # no factor below 2**16, cofactors far above the Miller-Rabin exact range:
    # the "composite" verdict is certain at every size, so rho splits them
    assert k0_module._prime_factors(65537**6) == {65537}
    assert k0_module._prime_factors(100003**5) == {100003}
    assert k0_module._prime_factors(12 * 65537**3 * 100003**4) == {2, 3, 65537, 100003}
    assert k0_module._prime_factors(4 * (2**61 - 1) * (2**31 - 1)) == {2, 2**31 - 1, 2**61 - 1}


def test_prime_factors_refuse_what_they_cannot_prove_within_budget(monkeypatch):
    # the Mersenne prime 2**89 - 1 passes Miller-Rabin on 13 bases, which
    # proves nothing above 3.3 * 10**24
    with pytest.raises(ResourceLimitError, match="89-bit factor"):
        k0_module._prime_factors(6 * (2**89 - 1))
    monkeypatch.setattr(k0_module, "RHO_STEP_BUDGET", 100)
    with pytest.raises(ResourceLimitError, match="passed 100 rho steps"):
        k0_module._prime_factors((10**9 + 7) * (10**9 + 9))


def test_strip_primes_and_s_units():
    assert strip_primes(Fraction(12, 35), {2, 3}) == Fraction(1, 35)
    assert strip_primes(Fraction(8), {2}) == 1
    assert is_s_unit(Fraction(8, 3), {2, 3})
    assert is_s_unit(Fraction(1), frozenset())
    assert not is_s_unit(Fraction(5), {2, 3})
    assert not is_s_unit(Fraction(-2), {2})
    with pytest.raises(InvalidInputError):
        strip_primes(Fraction(0), {2})


# --------------------------------------------------------------- random forms


@settings(max_examples=100)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.data(),
)
def test_outer_product_systems_identify_as_rank_one(u, data):
    v = data.draw(st.lists(st.integers(1, 5), min_size=len(u), max_size=len(u)))
    A = [[ui * vj for vj in v] for ui in u]
    desc = k0(A)
    assert isinstance(desc, RankOneForm)
    lam = sum(ui * vi for ui, vi in zip(u, v))
    assert desc.eigenvalue == lam
    # left vector is v up to the positive scalar removed by normalization
    ratios = {Fraction(a, b) for a, b in zip(v, desc.left_vector)}
    assert len(ratios) == 1


def test_shift_equivalence_refuses_a_huge_entry_bound_before_sizing_its_space():
    # (10^3999 + 1)^4096 has about 16 million digits; the refusal may compute
    # no more of it than the factors that pass the budget
    A = [[1] * 64] * 64
    start = time.process_time()
    with pytest.raises(ResourceLimitError, match=r"search space \(10{3998}1\^4096\) too large"):
        shift_equivalent_bounded(A, A, lag_bound=1, entry_bound=10**3999)
    assert time.process_time() - start < 0.5


# ------------------------------------------------------- forms against F_p
#
# Tensoring with F_p commutes with direct limits, so lim(Z^n, A) / p is
# lim(F_p^n, A mod p) = F_p^{r_p}, r_p the eventual rank of A mod p.  Each
# form predicts r_p: Z[1/S] / p is 0 for p in S and F_p otherwise, a direct
# sum adds its blocks, and a torsion-free group of rank r has r_p <= r.

GEN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row_basis_mod(rows, p) -> list[list[int]]:
    """An echelon basis of the row space of ``rows`` over F_p."""
    basis: dict[int, list[int]] = {}  # pivot column -> a row that is 1 there
    for row in rows:
        row = [x % p for x in row]
        for col, b in basis.items():  # each later row is 0 at every earlier pivot
            if row[col]:
                c = row[col]
                row = [(x - c * y) % p for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            basis[lead] = [x * inv % p for x in row]
    return list(basis.values())


def eventual_rank_mod(A, p) -> int:
    """r_p by Fitting iteration: the row spaces of A, A^2, ... over F_p shrink
    until one step keeps the dimension, and from there on they stay put."""
    basis = row_basis_mod(A, p)
    while True:
        image = row_basis_mod([vec_mat(v, A) for v in basis], p)
        if len(image) == len(basis):
            return len(basis)
        basis = image


def check_forms_mod_p(A):
    """The form of A, after checking its r_p at each small prime and each prime in S."""
    desc = k0(A)
    if isinstance(desc, OpaquePresentation):
        blocks = None
    else:
        blocks = desc.blocks if isinstance(desc, DirectSumForm) else (desc,)
    primes = set(SMALL_PRIMES).union(*(b.prime_set for b in blocks or ()))
    for p in sorted(primes):
        r_p = eventual_rank_mod(A, p)
        if blocks is None:
            assert r_p <= desc.rank, (A, p)
        else:
            assert r_p == sum(p not in b.prime_set for b in blocks), (A, p)
    return desc


def test_forms_predict_the_eventual_rank_mod_p_on_the_bench_tails():
    gen = load_gen()
    docs = gen.build("k0-wide", 1)["docs"]
    matrices = [doc["rows"] for name, doc in docs.items() if name.startswith("matrix-")]
    assert len(matrices) == 4
    docs = gen.build("cli-cold", 1)["docs"]
    diagrams = [diagram_from_json(doc) for doc in docs.values() if "generator_weights" in doc]
    tails = [object_diagram(d, P)[-1] for d in diagrams for P in subgroups(d.group)]
    assert len(tails) > len(diagrams)
    # a prime factor above the trial-division bound, and a nilpotent tail
    fixed = [[[2 * 65537]], [[0, 1], [0, 0]]]
    forms = {type(check_forms_mod_p(A)) for A in matrices + tails + fixed}
    assert forms == {RankOneForm, DirectSumForm, OpaquePresentation}


def _drawn_rank_one(draw, size):
    u = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    v = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    return [[a * b for b in v] for a in u]


def _permuted(draw, A):
    perm = draw(st.permutations(range(len(A))))
    return [[A[perm[i]][perm[j]] for j in range(len(A))] for i in range(len(A))]


@st.composite
def tails(draw):
    """A rank-one, direct-sum or nilpotent tail, with the rank its form must have."""
    kind = draw(st.sampled_from(("rank-one", "direct-sum", "nilpotent")))
    if kind == "rank-one":
        return _drawn_rank_one(draw, draw(st.integers(1, 5))), 1
    if kind == "direct-sum":
        count = draw(st.integers(2, 3))
        blocks = [_drawn_rank_one(draw, draw(st.integers(1, 3))) for _ in range(count)]
        n = sum(map(len, blocks))
        A, at = [[0] * n for _ in range(n)], 0
        for block in blocks:
            for i, row in enumerate(block):
                A[at + i][at : at + len(row)] = row
            at += len(block)
        return _permuted(draw, A), len(blocks)
    n = draw(st.integers(1, 5))
    A = [[draw(st.integers(0, 3)) if j > i else 0 for j in range(n)] for i in range(n)]
    return _permuted(draw, A), 0


@settings(max_examples=150, deadline=None)
@given(tails())
def test_forms_predict_the_eventual_rank_mod_p_on_drawn_tails(tail):
    A, rank = tail
    assert check_forms_mod_p(A).rank == rank

"""K0 of stationary inductive systems of free abelian groups.

A stationary system is a square nonnegative integer matrix A iterated along
levels Z^b -> Z^b.  When the eventual row space of A is one-dimensional with
a positive integer eigenvalue, the limit group is identified with a scaled
localization r*Z[1/S] of the rationals via the normative value map

    val_n(x) = eigenvalue^(-n) * (v . x) / (v . 1),

where v is the primitive nonnegative left eigenvector.  Morphism matrices
that intertwine two identified systems act as multiplication by a single
rational, the multiplier.  The eventual row space is found by integer
elimination on the block of each connected component of A, once per block
and never on a power of A; values are exact Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import add, mul

from .errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from .groups import _is_int, _Value

__all__ = [
    "StationarySystem",
    "RankOneForm",
    "DirectSumForm",
    "OpaquePresentation",
    "stationary_k0",
    "value_map",
    "morphism_multiplier",
    "shift_equivalent_bounded",
]

Matrix = tuple[tuple[int, ...], ...]

# The most candidate matrices per side, and the most (R, S, lag) checks, of
# one bounded shift-equivalence search.
SHIFT_SEARCH_BUDGET = 200_000


def _as_matrix(rows) -> Matrix:
    """``rows`` as a tuple of tuples; an entry that is not an integer is refused."""
    M = tuple(map(tuple, rows))
    if not all(map(_is_int, itertools.chain.from_iterable(M))):
        raise InvalidInputError("matrix entries must be integers")
    if M and any(len(row) != len(M[0]) for row in M):
        raise InvalidInputError("ragged matrix")
    return M


def mat_mul(A, B):
    """The product A·B, built row by row from each row of A alone.

    A row of A with fewer nonzero entries than zeros gives the sum of its
    nonzero entries times the matching rows of B; any other row takes the dot
    product with each column of B.  Both routes stay, as each wins on its own
    rows: dot products about 2x on dense A, row sums over 20x on a permutation.
    """
    if not A or not B:
        return tuple()
    if len(A[0]) != len(B):
        raise InvalidInputError(f"shape mismatch: {len(A[0])} columns vs {len(B)} rows")
    zero = (0,) * len(B[0])
    cols = None
    out = []
    for row in A:
        if 2 * row.count(0) > len(row):
            acc = zero
            for k in itertools.compress(range(len(row)), row):
                a = row[k]
                acc = tuple(map(add, acc, B[k] if a == 1 else [a * x for x in B[k]]))
            out.append(acc)
        else:
            if cols is None:
                cols = tuple(zip(*B))
            out.append(tuple(sum(map(mul, row, col)) for col in cols))
    return tuple(out)


def mat_vec(A, x):
    if len(A[0]) != len(x):
        raise InvalidInputError("shape mismatch in matrix-vector product")
    return tuple(sum(a * xi for a, xi in zip(row, x)) for row in A)


def mat_pow(A, n: int):
    size = len(A)
    result = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    base = A
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def _eventual_rows(A: Matrix) -> list[tuple[int, ...]]:
    """The eventual row space of A as primitive integer echelon rows, pivots positive.

    Starting from W = Z^b, W shrinks to the row space of W*A until a step keeps
    its dimension, by the size b of A at the latest (Fitting).  Dividing a row by
    its content after each elimination step bounds its entries by minors.
    """
    dim, rows = len(A), A
    while True:
        basis: dict[int, tuple[int, ...]] = {}  # pivot column -> row
        for r in rows:
            for p, b in sorted(basis.items()):
                if r[p]:
                    r = [b[p] * x - r[p] * y for x, y in zip(r, b)]
                    g = gcd(*r) or 1
                    r = [x // g for x in r]
            if any(r):
                p = next(i for i, x in enumerate(r) if x)
                g = gcd(*r) if r[p] > 0 else -gcd(*r)
                basis[p] = tuple(x // g for x in r)
        echelon = [basis[p] for p in sorted(basis)]
        if len(echelon) == dim:
            return echelon
        dim, rows = len(echelon), mat_mul(echelon, A)


# Trial division takes the primes below this bound, so a cofactor left below
# its square is prime.
_TRIAL_BOUND = 1 << 16
# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2017); a probable prime at or above it is refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# The most Pollard-Brent rho iterations one factorization makes.  Rho finds a
# prime factor p in about 1.2 * sqrt(p) iterations, so this reaches p near 10**12.
RHO_STEP_BUDGET = 1 << 21


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES: exact for odd n with 41 < n < _MR_EXACT_BELOW."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the composite n by Pollard-Brent rho, and the budget left.

    The polynomials x^2 + c are tried for c = 1, 2, ... from x = 2, so the
    result is deterministic.  Past the budget it raises ResourceLimitError.
    """
    block = 128
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(block, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += block
            budget -= 2 * r
            if budget < 0:
                raise ResourceLimitError(
                    f"factoring the eigenvalue passed {RHO_STEP_BUDGET} rho steps"
                )
            r *= 2
        if g == n:  # the batch overshot: step back one product at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def _prime_factors(n: int) -> frozenset[int]:
    """The primes dividing n >= 1, each one proven prime.

    Trial division takes the primes below _TRIAL_BOUND, so a cofactor below
    its square is prime.  Past that, Miller-Rabin's "composite" is certain at
    every size, and Pollard-Brent rho splits such a cofactor; its "prime" is
    a proof only below _MR_EXACT_BELOW.  A probable prime at or above that
    bound, or a split past RHO_STEP_BUDGET iterations, raises
    ResourceLimitError.
    """
    out = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    budget = RHO_STEP_BUDGET
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND:
            out.add(m)
        elif not _is_prime(m):
            f, budget = _rho_divisor(m, budget)
            stack += [f, m // f]
        elif m < _MR_EXACT_BELOW:
            out.add(m)
        else:
            raise ResourceLimitError(
                f"cannot prove prime a {m.bit_length()}-bit factor of the eigenvalue"
            )
    return frozenset(out)


class StationarySystem(_Value):
    """A square nonnegative integer connecting matrix, repeated at every level.

    Its limit is read off the matrix alone, so the matrix is the whole value.
    """

    matrix: Matrix

    def __init__(self, matrix: Matrix) -> None:
        M = _as_matrix(matrix)
        super().__init__(M)
        if len(M) == 0 or any(len(row) != len(M) for row in M):
            raise InvalidInputError("stationary system needs a nonempty square matrix")
        if any(x < 0 for row in M for x in row):
            raise InvalidInputError("connecting matrix must be nonnegative")


class RankOneForm(_Value):
    """Eventual row space of A is Q*v with vA = eigenvalue*v; limit is r*Z[1/S]."""

    matrix: Matrix
    eigenvalue: int
    left_vector: tuple[int, ...]
    prime_set: frozenset[int]

    @property
    def rank(self) -> int:
        return 1

    @property
    def scale(self) -> Fraction:
        """The r of the limit r*Z[1/S]: the image of the value map over all levels."""
        return Fraction(1, _strip_primes(sum(self.left_vector), self.prime_set))


class DirectSumForm(_Value):
    """A permutation-disjoint direct sum of rank-one blocks."""

    matrix: Matrix
    blocks: tuple[RankOneForm, ...]
    partition: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.blocks)


class OpaquePresentation(_Value):
    """No normal form found; the limit is presented by the matrix itself."""

    matrix: Matrix
    rank: int


K0Description = RankOneForm | DirectSumForm | OpaquePresentation


def _strip_primes(n: int, primes) -> int:
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def strip_primes(q: Fraction, primes) -> Fraction:
    """Remove every factor of the given primes from a positive rational."""
    if q <= 0:
        raise InvalidInputError("can only strip primes from a positive rational")
    return Fraction(_strip_primes(q.numerator, primes), _strip_primes(q.denominator, primes))


def is_s_unit(q: Fraction, primes) -> bool:
    """Whether q is a unit of Z[1/S], i.e. a ratio of products of primes in S."""
    return q > 0 and strip_primes(q, primes) == 1


def prime_set_text(primes) -> str:
    """A prime set S as text and in certificates: ascending, comma-separated, ``{2,3}``."""
    return "{" + ",".join(map(str, sorted(primes))) + "}"


def _try_rank_one(A: Matrix, v: tuple[int, ...]) -> RankOneForm:
    """The rank-one form of A, given the one echelon row v of its eventual row space.

    Q*v holds a nonnegative row of a power of A, so v, whose pivot is positive,
    is nonnegative and primitive; as the space W has W*A = W, vA = lambda*v for
    a positive integer lambda.  A v that fails this is a failed self-check:
    InternalConsistencyError.
    """
    w = mat_mul((v,), A)[0]
    nz = next(i for i, x in enumerate(v) if x)
    lam = w[nz] // v[nz]
    if lam <= 0 or w != tuple(lam * x for x in v):
        raise InternalConsistencyError("the one eventual row of A is not an eigenvector")
    return RankOneForm(A, lam, v, _prime_factors(lam))


def _components(A: Matrix) -> list[list[int]]:
    """Connected components of the symmetrized nonzero pattern."""
    n = len(A)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and (A[i][j] or A[j][i]):
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def stationary_k0(sys: StationarySystem) -> K0Description:
    """Identify the limit group of a stationary system, degrading gracefully.

    Each component of A is eliminated once, on its own block; the eventual row
    space of A is the direct sum of the blocks' spaces.  One row in all gives
    the rank-one form of A, one row in each of several components a direct sum
    of the blocks' rank-one forms; otherwise the rank is the number of rows.
    """
    A = sys.matrix
    comps = _components(A)
    blocks = [A] if len(comps) == 1 else [
        tuple(tuple(A[i][j] for j in comp) for i in comp) for comp in comps
    ]
    rows = [_eventual_rows(block) for block in blocks]
    rank = sum(map(len, rows))
    if rank == 1:
        comp, (r,) = next((comp, rs) for comp, rs in zip(comps, rows) if rs)
        at = dict(zip(comp, r))
        return _try_rank_one(A, tuple(at.get(i, 0) for i in range(len(A))))
    if all(len(rs) == 1 for rs in rows):
        forms = tuple(_try_rank_one(block, r) for block, (r,) in zip(blocks, rows))
        return DirectSumForm(A, forms, tuple(map(tuple, comps)))
    return OpaquePresentation(A, rank)


def value_map(desc: RankOneForm, n: int, x) -> Fraction:
    """val_n(x) = eigenvalue^-n * (v.x)/(v.1) for a level-n lattice vector x."""
    v = desc.left_vector
    if len(x) != len(v):
        raise InvalidInputError("vector length does not match system size")
    if n < 0:
        raise InvalidInputError("level must be nonnegative")
    dot = sum(a * b for a, b in zip(v, x))
    return Fraction(dot, sum(v)) / desc.eigenvalue**n


def morphism_multiplier(descP: RankOneForm, descQ: RankOneForm, M) -> Fraction:
    """The rational q with val_Q(Mx) = q * val_P(x).

    Requires M to intertwine the connecting matrices exactly (A_Q M = M A_P),
    so one q always exists.  It is zero exactly when v_Q annihilates the
    image of M, as it does whenever the two eigenvalues differ.
    """
    M = _as_matrix(M)
    if len(M) != len(descQ.left_vector) or (M and len(M[0]) != len(descP.left_vector)):
        raise InvalidInputError("multiplier matrix has wrong shape")
    if mat_mul(descQ.matrix, M) != mat_mul(M, descP.matrix):
        raise InvalidInputError("matrix does not intertwine the connecting maps")
    return _multiplier(descP, descQ, M)


def _multiplier(descP: RankOneForm, descQ: RankOneForm, M: Matrix) -> Fraction:
    """``morphism_multiplier`` of a matrix already known to intertwine, of the right shape.

    w = v_Q·M satisfies w·A_P = λ_Q·w, so w lies in every row space of the
    powers of A_P and thus in the eventual one, Q·v_P.  Hence w = 0, or
    w = c·v_P and λ_Q = λ_P.  A nonzero w not proportional to v_P is a
    failed self-check and raises ``InternalConsistencyError``.
    """
    w = mat_mul((descQ.left_vector,), M)[0]
    vP = descP.left_vector
    if all(x == 0 for x in w):
        return Fraction(0)
    nz = next(i for i, x in enumerate(vP) if x)
    # w = c·vP with c = w[nz]/vP[nz], tested by integer cross-products
    if any(x * vP[nz] != w[nz] * y for x, y in zip(w, vP)):
        raise InternalConsistencyError("v_Q·M is not proportional to v_P")
    return Fraction(w[nz] * sum(vP), vP[nz] * sum(descQ.left_vector))


def shift_equivalent_bounded(A, B, lag_bound: int, entry_bound: int):
    """Search for a shift equivalence (R, S, lag): RA=BR, SB=AS, SR=A^l, RS=B^l.

    Exhaustive over integer matrices with entries in [0, entry_bound]; the
    search space must stay small (this is a desk-scale certifier, not a
    decision procedure): a candidate space of more than SHIFT_SEARCH_BUDGET
    matrices per side, or more than SHIFT_SEARCH_BUDGET (R, S, lag) checks,
    raises ResourceLimitError.  Returns (R, S, lag) or None.
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    a, b = len(A), len(B)
    cells = a * b
    choices = range(entry_bound + 1)
    # len(choices) ** cells candidates per side, multiplied out one factor at a
    # time (len() overflows on a huge bound): once past the budget, after at
    # most 18 factors of 2 or more, or stuck at 0 or 1, the rest cannot change
    # the outcome
    space = 1
    for _ in range(cells):
        space *= max(entry_bound + 1, 0)
        if not 1 < space <= SHIFT_SEARCH_BUDGET:
            break
    if space > SHIFT_SEARCH_BUDGET:
        raise ResourceLimitError(
            f"shift-equivalence search space ({entry_bound + 1}^{cells}) too large"
        )

    def candidates(rows: int, cols: int, left, right):
        """All nonneg matrices M with left*M == M*right, entries bounded."""
        out = []
        for flat in itertools.product(choices, repeat=rows * cols):
            M = tuple(tuple(flat[r * cols + c] for c in range(cols)) for r in range(rows))
            if mat_mul(left, M) == mat_mul(M, right):
                out.append(M)
        return out

    rs = candidates(b, a, B, A)  # R: level map Z^a -> Z^b with RA = BR
    ss = candidates(a, b, A, B)
    checks = 0
    for R in rs:
        if all(all(x == 0 for x in row) for row in R):
            continue
        for S in ss:
            SR = mat_mul(S, R)
            # A^lag, one product per lag as the loop reaches it.  Only the
            # current power is held: all of them up to a lag near the check
            # budget would hold gigabytes of integers.
            power = A
            for lag in range(1, lag_bound + 1):
                checks += 1
                if checks > SHIFT_SEARCH_BUDGET:
                    raise ResourceLimitError(
                        f"shift-equivalence search passed {SHIFT_SEARCH_BUDGET} checks"
                    )
                if lag > 1:
                    power = mat_mul(power, A)
                if SR == power and mat_mul(R, S) == mat_pow(B, lag):
                    return R, S, lag
    return None

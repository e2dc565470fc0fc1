"""Finite abelian groups, their subgroups, characters and cosets.

Elements of a group with factors ``(n_1, ..., n_r)`` are integer tuples of
length ``r`` with ``0 <= a_i < n_i``.  Characters take values in Q/Z; every
such value is a multiple of 1/E, E the exponent of the group, so a character
is stored as a table of integers v in ``[0, E)``, each standing for the phase
v/E.  No floats appear anywhere in this module.  A coset x + D is named by
its lexicographically least member.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import InvalidInputError

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "Character",
    "make_group",
    "subgroups",
    "lattice_member",
    "dual_characters",
    "coset_space",
    "coset_rep",
    "subgroup_sum",
    "subgroup_intersection",
]

Element = tuple  # alias for readability; elements are tuples of ints


def _stored_hash(self) -> int:
    """The generated dataclass hash, computed on first use and then stored.

    A class sets ``__hash__ = _stored_hash`` in its own body, since
    ``dataclass`` replaces an inherited ``__hash__`` with the generated one.
    The stored value spares every later dict and cache lookup a walk over
    the nested element tuples.
    """
    try:
        return self._hash
    except AttributeError:
        h = hash(tuple(getattr(self, f.name) for f in fields(self) if f.compare))
        object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group presented as a direct product of cyclic factors.

    >>> G = make_group([4])
    >>> G.order, G.exponent
    (4, 4)
    >>> G.add((3,), (2,))
    (1,)
    """

    cyclic_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(n, int) or n < 1 for n in self.cyclic_factors):
            raise InvalidInputError(
                f"cyclic factors must be positive integers, got {self.cyclic_factors!r}"
            )

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.cyclic_factors) if self.cyclic_factors else 1

    @property
    def rank(self) -> int:
        return len(self.cyclic_factors)

    def zero(self) -> Element:
        return (0,) * len(self.cyclic_factors)

    def reduce(self, a) -> Element:
        if len(a) != len(self.cyclic_factors):
            raise InvalidInputError(f"element {a!r} has wrong length for {self}")
        return tuple(x % n for x, n in zip(a, self.cyclic_factors))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_factors))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.cyclic_factors))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.cyclic_factors))

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic order."""
        return tuple(itertools.product(*(range(n) for n in self.cyclic_factors)))

    def element_order(self, a: Element) -> int:
        """Smallest m >= 1 with m*a = 0.

        >>> make_group([4]).element_order((2,))
        2
        """
        return math.lcm(*(n // math.gcd(x, n) for x, n in zip(a, self.cyclic_factors))) if a else 1

    def __str__(self) -> str:
        if not self.cyclic_factors:
            return "Z/1"
        return " x ".join(f"Z/{n}" for n in self.cyclic_factors)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup, stored as its full sorted element tuple (always contains 0)."""

    group: FiniteAbelianGroup
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_member_set", frozenset(self.elements))
        if tuple(sorted(self.elements)) != self.elements:
            raise InvalidInputError("subgroup elements must be sorted and duplicate-free")
        if self.group.zero() not in self._member_set:
            raise InvalidInputError("subgroup must contain the identity")

    __hash__ = _stored_hash

    @classmethod
    def generated(cls, group: FiniteAbelianGroup, generators) -> "Subgroup":
        """The subgroup generated by the given elements.

        >>> Subgroup.generated(make_group([4]), [(2,)]).elements
        ((0,), (2,))
        """
        closure = {group.zero()}
        for gen in generators:
            closure = _join(group, closure, group.reduce(gen))
        return cls(group, tuple(sorted(closure)))

    def contains(self, a: Element) -> bool:
        return a in self._member_set  # type: ignore[attr-defined]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_cyclic(self) -> bool:
        """Whether H is cyclic, i.e. every 2-cocycle on H is a coboundary."""
        return any(self.group.element_order(a) == self.order for a in self.elements)

    def minimal_generators(self) -> tuple[Element, ...]:
        """A short generating tuple (greedy; not guaranteed minimal in rank)."""
        gens: list[Element] = []
        current = {self.group.zero()}
        for a in sorted(self.elements, key=lambda x: (-self.group.element_order(x), x)):
            if a not in current:
                gens.append(a)
                current = _join(self.group, current, a)
                if len(current) == self.order:
                    break
        return tuple(gens)

    def sort_key(self):
        return (self.order, self.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


def make_group(cyclic_factors) -> FiniteAbelianGroup:
    """Build the direct product of cyclic groups Z/n_1 x ... x Z/n_r.

    A bare integer n is shorthand for the cyclic group Z/n.
    """
    if isinstance(cyclic_factors, int):
        cyclic_factors = (cyclic_factors,)
    factors = tuple(int(n) for n in cyclic_factors)
    if not factors:
        raise InvalidInputError("need at least one cyclic factor (use [1] for the trivial group)")
    return FiniteAbelianGroup(factors)


def _join(group: FiniteAbelianGroup, H, g: Element) -> set:
    """The element set of H + <g> for a subgroup's element set H.

    It is the union of the cosets k*g + H for k below the first k with k*g
    in H, so it costs |H + <g>| additions.
    """
    joined = set(H)
    shift = g
    while shift not in H:
        joined.update(group.add(shift, h) for h in H)
        shift = group.add(shift, g)
    return joined


def _cyclic_generators(group: FiniteAbelianGroup) -> list[Element]:
    """One generator g of each nontrivial cyclic subgroup <g>, in lex order of g.

    The multiples k*g with gcd(k, |g|) = 1 generate the same subgroup, so they
    are marked and skipped; each cyclic subgroup is walked once.
    """
    gens = []
    done = {group.zero()}
    for g in group.elements():
        if g in done:
            continue
        gens.append(g)
        n = group.element_order(g)
        x = g
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                done.add(x)
            x = group.add(x, g)
    return gens


@lru_cache(maxsize=None)
def _subgroups_cached(group: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    # Every subgroup of a finite abelian group is a join of cyclic subgroups,
    # so closing {0} under H -> H + <g> reaches the whole lattice.
    gens = _cyclic_generators(group)
    seen = {frozenset([group.zero()])}
    frontier = list(seen)
    while frontier:
        new_frontier = []
        for H in frontier:
            for g in gens:
                if g in H:
                    continue
                joined = frozenset(_join(group, H, g))
                if joined not in seen:
                    seen.add(joined)
                    new_frontier.append(joined)
        frontier = new_frontier
    found = [Subgroup(group, tuple(sorted(H))) for H in seen]
    return tuple(sorted(found, key=Subgroup.sort_key))


def subgroups(group: FiniteAbelianGroup) -> list[Subgroup]:
    """All subgroups, sorted by (order, element list); the trivial one is first.

    >>> [H.order for H in subgroups(make_group([4]))]
    [1, 2, 4]
    """
    return list(_subgroups_cached(group))


def lattice_member(H: Subgroup) -> Subgroup:
    """The member of ``subgroups(H.group)`` equal to H.

    Subgroups passed through it are one object per distinct subgroup, the one
    the lattice enumeration holds, so comparisons and dict lookups among them
    stop at identity.
    """
    lattice = _subgroups_cached(H.group)
    return lattice[bisect.bisect_left(lattice, H.sort_key(), key=Subgroup.sort_key)]


def subgroup_sum(H: Subgroup, K: Subgroup) -> Subgroup:
    """The subgroup H + K."""
    if H.group != K.group:
        raise InvalidInputError("subgroups live in different groups")
    joined = set(H.elements)
    for k in K.elements:
        if k not in joined:
            joined = _join(H.group, joined, k)
    return Subgroup(H.group, tuple(sorted(joined)))


def subgroup_intersection(H: Subgroup, K: Subgroup) -> Subgroup:
    """The subgroup H∩K: H or K itself when it lies in the other."""
    if H.group != K.group:
        raise InvalidInputError("subgroups live in different groups")
    common = tuple(e for e in H.elements if K.contains(e))
    if len(common) == H.order:
        return H
    if len(common) == K.order:
        return K
    return Subgroup(H.group, common)


@dataclass(frozen=True)
class Character:
    """A homomorphism from a subgroup to Q/Z, tabulated on sorted elements.

    ``values[i]`` is an integer v in [0, E), E the exponent of the ambient
    group, standing for the phase v/E at ``domain.elements[i]``.  The table
    is not checked here: :func:`dual_characters` builds every character, and
    the parser checks that a table is additive before it builds one.
    """

    domain: Subgroup
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_table", dict(zip(self.domain.elements, self.values))
        )

    __hash__ = _stored_hash

    def __call__(self, element: Element) -> int:
        return self._table[element]  # type: ignore[attr-defined]

    def conjugate(self) -> "Character":
        E = self.domain.group.exponent
        return Character(self.domain, tuple((-v) % E for v in self.values))


def dual_characters(H: Subgroup) -> list[Character]:
    """All characters of H, sorted by value table; the trivial character is first.

    Every character of a subgroup extends to the ambient group (Q/Z is
    divisible), so the restrictions of the ambient characters are all of
    them.  Those restrictions form the group spanned by the r coordinate
    tables e -> e_i * (E / n_i) mod E, E the exponent of G, so the tables are
    found by closing {0} under adding each coordinate table: |Ĥ|·r·|H|
    additions at most.

    >>> H = Subgroup.generated(make_group([4]), [(2,)])
    >>> [chi.values for chi in dual_characters(H)]
    [(0, 0), (0, 2)]
    """
    G = H.group
    E = G.exponent
    tables = {(0,) * H.order}
    for i, n in enumerate(G.cyclic_factors):
        step = tuple(e[i] * (E // n) for e in H.elements)
        frontier = tables
        while True:
            frontier = {tuple((a + b) % E for a, b in zip(t, step)) for t in frontier}
            if frontier <= tables:
                break
            tables |= frontier
    if len(tables) != H.order:
        raise InvalidInputError(f"expected {H.order} characters, found {len(tables)}")
    return [Character(H, t) for t in sorted(tables)]


def coset_space(group: FiniteAbelianGroup, D: Subgroup) -> dict[Element, Element]:
    """Each element of the group mapped to the least member of its coset of D.

    The cosets are met in lexicographic order, so the distinct values first
    appear in ascending order.
    """
    if D.group != group:
        raise InvalidInputError("subgroup does not live in the given group")
    rep_of: dict[Element, Element] = {}
    for x in group.elements():  # lex order, so the first unseen member is the rep
        if x not in rep_of:
            for d in D.elements:
                rep_of[group.add(x, d)] = x
    return rep_of


def coset_rep(group: FiniteAbelianGroup, D: Subgroup, x: Element) -> Element:
    """The least member of the coset x + D."""
    return min(group.add(x, d) for d in D.elements)

"""Finite abelian groups, their subgroups, characters, cosets, and 2-cocycles.

Elements of a group with factors ``(n_1, ..., n_r)`` are integer tuples of
length ``r`` with ``0 <= a_i < n_i``.  Characters take values in Q/Z and are
stored as exact :class:`fractions.Fraction` objects in ``[0, 1)``; no floats
appear anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "Character",
    "Coset",
    "CocycleTable",
    "make_group",
    "subgroups",
    "dual_characters",
    "coset_space",
    "validate_2cocycle",
    "subgroup_sum",
    "subgroup_intersection",
]

Element = tuple  # alias for readability; elements are tuples of ints


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

    def scale(self, m: int, a: Element) -> Element:
        return tuple((m * x) % n for x, n in zip(a, self.cyclic_factors))

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == len(self.cyclic_factors)
            and all(isinstance(x, int) and 0 <= x < n for x, n in zip(a, self.cyclic_factors))
        )

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

    @classmethod
    def generated(cls, group: FiniteAbelianGroup, generators) -> "Subgroup":
        """The subgroup generated by the given elements.

        >>> Subgroup.generated(make_group([4]), [(2,)]).elements
        ((0,), (2,))
        """
        closure = {group.zero()}
        for gen in generators:
            gen = group.reduce(gen)
            multiples = []
            g = group.zero()
            for _ in range(group.element_order(gen)):
                multiples.append(g)
                g = group.add(g, gen)
            closure = {group.add(h, m) for h in closure for m in multiples}
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
        current = Subgroup.generated(self.group, [])
        for a in sorted(self.elements, key=lambda x: (-self.group.element_order(x), x)):
            if not current.contains(a):
                gens.append(a)
                current = Subgroup.generated(self.group, gens)
                if current.order == self.order:
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
    # so closing {0} under H -> H + <g> reaches the whole lattice.  H + <g> is
    # the union of the cosets k*g + H for k below the first k with k*g in H.
    gens = _cyclic_generators(group)
    seen = {frozenset([group.zero()])}
    frontier = list(seen)
    while frontier:
        new_frontier = []
        for H in frontier:
            for g in gens:
                if g in H:
                    continue
                joined = set(H)
                shift = g
                while shift not in H:
                    joined.update(group.add(shift, h) for h in H)
                    shift = group.add(shift, g)
                joined = frozenset(joined)
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


def subgroup_sum(H: Subgroup, K: Subgroup) -> Subgroup:
    """The subgroup H + K."""
    if H.group != K.group:
        raise InvalidInputError("subgroups live in different groups")
    elems = {H.group.add(h, k) for h in H.elements for k in K.elements}
    return Subgroup(H.group, tuple(sorted(elems)))


def subgroup_intersection(H: Subgroup, K: Subgroup) -> Subgroup:
    if H.group != K.group:
        raise InvalidInputError("subgroups live in different groups")
    return Subgroup(H.group, tuple(e for e in H.elements if K.contains(e)))


@dataclass(frozen=True)
class Character:
    """A homomorphism from a subgroup to Q/Z, tabulated on sorted elements."""

    domain: Subgroup
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.domain.elements):
            raise InvalidInputError("character value table has wrong length")
        if any(not (0 <= v < 1) for v in self.values):
            raise InvalidInputError("character values must be reduced mod 1 into [0, 1)")
        object.__setattr__(
            self, "_table", dict(zip(self.domain.elements, self.values))
        )
        if self._table[self.domain.group.zero()] != 0:  # type: ignore[attr-defined]
            raise InvalidInputError("character must send 0 to 0")

    @classmethod
    def from_values(cls, domain: Subgroup, table) -> "Character":
        """Build from an element->Fraction mapping and verify it is a homomorphism."""
        values = []
        for e in domain.elements:
            v = Fraction(table.get(e, 0)) % 1
            values.append(v)
        char = cls(domain, tuple(values))
        G = domain.group
        for a in domain.elements:
            for b in domain.elements:
                if (char(a) + char(b)) % 1 != char(G.add(a, b)):
                    raise InvalidInputError(
                        f"value table is not a homomorphism at {a} + {b}"
                    )
        return char

    def __call__(self, element: Element) -> Fraction:
        return self._table[element]  # type: ignore[attr-defined]

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def conjugate(self) -> "Character":
        return Character(self.domain, tuple((-v) % 1 for v in self.values))

    def product(self, other: "Character") -> "Character":
        if self.domain != other.domain:
            raise InvalidInputError("character product requires a common domain")
        return Character(
            self.domain, tuple((u + v) % 1 for u, v in zip(self.values, other.values))
        )

    def restrict(self, sub: Subgroup) -> "Character":
        return Character(sub, tuple(self(e) for e in sub.elements))


def dual_characters(H: Subgroup) -> list[Character]:
    """All characters of H, sorted by value table; the trivial character is first.

    Every character of a subgroup extends to the ambient group (Q/Z is
    divisible), so restricting all ambient characters is exhaustive.  The
    values are computed as integers over the common denominator E = exponent
    of G: the ambient character with coefficients c takes e to
    sum c_i * e_i * (E / n_i) mod E, over E.
    """
    G = H.group
    E = G.exponent
    # each element of H as its integer weights e_i * (E / n_i)
    weights = [
        tuple(x * (E // n) for x, n in zip(e, G.cyclic_factors)) for e in H.elements
    ]
    tables = {
        tuple(sum(c * w for c, w in zip(coeffs, ws)) % E for ws in weights)
        for coeffs in itertools.product(*(range(n) for n in G.cyclic_factors))
    }
    if len(tables) != H.order:
        raise InvalidInputError(f"expected {H.order} characters, found {len(tables)}")
    phase = {v: Fraction(v, E) for v in set().union(*tables)}
    return [Character(H, tuple(phase[v] for v in t)) for t in sorted(tables)]


@dataclass(frozen=True)
class Coset:
    """A coset of a subgroup, with its lexicographically least member as rep."""

    rep: Element
    members: tuple[Element, ...]

    def __contains__(self, a) -> bool:
        return a in self.members

    @property
    def size(self) -> int:
        return len(self.members)


def coset_space(group: FiniteAbelianGroup, D: Subgroup) -> list[Coset]:
    """The cosets of D in the group, sorted by canonical representative."""
    if D.group != group:
        raise InvalidInputError("subgroup does not live in the given group")
    cosets = []
    seen: set[Element] = set()
    for x in group.elements():  # lex order, so the first unseen member is the rep
        if x in seen:
            continue
        members = tuple(sorted(group.add(x, d) for d in D.elements))
        seen.update(members)
        cosets.append(Coset(x, members))
    return cosets


def coset_of(group: FiniteAbelianGroup, D: Subgroup, x: Element) -> Coset:
    """The coset x + D with canonical representative."""
    members = tuple(sorted(group.add(x, d) for d in D.elements))
    return Coset(members[0], members)


@dataclass(frozen=True)
class CocycleTable:
    """A normalized Q/Z-valued 2-cochain on a subgroup, tabulated on pairs."""

    domain: Subgroup
    values: tuple[tuple[tuple[Element, Element], Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", dict(self.values))

    @classmethod
    def from_function(cls, domain: Subgroup, fn) -> "CocycleTable":
        pairs = []
        for a in domain.elements:
            for b in domain.elements:
                pairs.append(((a, b), Fraction(fn(a, b)) % 1))
        return cls(domain, tuple(pairs))

    @classmethod
    def trivial(cls, domain: Subgroup) -> "CocycleTable":
        return cls.from_function(domain, lambda a, b: Fraction(0))

    def __call__(self, a: Element, b: Element) -> Fraction:
        return self._table[(a, b)]  # type: ignore[attr-defined]

    def is_trivial(self) -> bool:
        return all(v == 0 for _, v in self.values)


def validate_2cocycle(t: CocycleTable) -> bool:
    """Check normalization and the 2-cocycle identity over all triples."""
    H = t.domain
    G = H.group
    zero = G.zero()
    for a in H.elements:
        if t(zero, a) != 0 or t(a, zero) != 0:
            return False
    for a in H.elements:
        for b in H.elements:
            ab = G.add(a, b)
            for c in H.elements:
                if (t(a, b) + t(ab, c)) % 1 != (t(b, c) + t(a, G.add(b, c))) % 1:
                    return False
    return True

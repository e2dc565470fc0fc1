"""Finite abelian groups, their subgroups, characters and cosets.

Elements of a group with factors ``(n_1, ..., n_r)`` are integer tuples of
length ``r`` with ``0 <= a_i < n_i``.  Characters take values in Q/Z; every
such value is a multiple of 1/E, E the exponent of the group, so a character
is stored as a table of integers v in ``[0, E)``, each standing for the phase
v/E.  No floats appear anywhere in this module.  A coset x + D is named by
its lexicographically least member.  Each group's lattice, one H' + <g> per
subgroup, and the sums, intersections, coset maps and characters of its
subgroups, are built once and kept in one lattice index per group.

This module owns three rules.  The integer rule, ``_is_int``: every
constructor that takes integers, here and in ``k0`` and ``diagrams``, refuses
anything else.  The element rule, ``FiniteAbelianGroup.reduce``: an element
given as input holds one integer per factor and is read mod the factors.  And
the lookups of the index's members: ``lattice_member`` finds a subgroup and
``character_with_values`` a character; ``afinv.bimodules`` owns the one
lookup of a simple bimodule.  Only ``_characters_of`` builds a ``Character``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Mapping
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType

from .errors import InternalConsistencyError, InvalidInputError, _cut

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "Character",
    "make_group",
    "subgroups",
    "lattice_member",
    "dual_characters",
    "character_with_values",
    "coset_space",
    "subgroup_sum",
    "subgroup_intersection",
]

Element = tuple  # alias for readability; elements are tuples of ints


def _is_int(x) -> bool:
    """The one integer rule: an ``int`` that is not a ``bool`` (JSON true is no number)."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Value:
    """A frozen value, equal and hashed by its annotated fields in order.

    A subclass annotates its fields, and the one ``__init__`` takes exactly
    those fields, in order, by position: any other count is a ``TypeError``,
    and it takes no keyword and fills no default.  A subclass whose callers
    name or omit a field declares that signature in an ``__init__`` of its
    own, as does one that checks or derives something; each passes the
    fields on by position.  Two values are equal when they have the same class and
    equal field tuples; the hash is the hash of the field tuple, computed on
    first use and then stored, which spares every later dict and cache lookup
    a walk over the nested element tuples.  Assigning or deleting an
    attribute raises ``AttributeError``.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = names = tuple(cls.__annotations__)
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._fields = get if len(names) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *args) -> None:
        names = self.__match_args__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields, got {len(args)}")
        self.__dict__.update(zip(names, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # a tuple equals itself item by item through identity, so ``is`` decides the same
            return self is other or self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._fields(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteAbelianGroup(_Value):
    """A finite abelian group presented as a direct product of cyclic factors.

    >>> G = make_group([4])
    >>> G.order, G.exponent
    (4, 4)
    >>> G.add((3,), (2,))
    (1,)
    """

    cyclic_factors: tuple[int, ...]

    def __init__(self, cyclic_factors: tuple[int, ...]) -> None:
        super().__init__(cyclic_factors)
        factors = self.cyclic_factors
        if not isinstance(factors, tuple):
            raise InvalidInputError(f"cyclic factors must be a tuple, got {_cut(repr(factors))}")
        if any(not _is_int(n) or n < 1 for n in factors):
            raise InvalidInputError(
                f"cyclic factors {_cut(repr(factors))} must be positive integers"
            )

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.cyclic_factors) if self.cyclic_factors else 1

    def zero(self) -> Element:
        return (0,) * len(self.cyclic_factors)

    def reduce(self, a) -> Element:
        """``a``, a tuple or list of one integer per factor, reduced mod the factors.

        This is the one rule for an element given as input: a float, string or
        bool is refused, not converted.
        """
        factors = self.cyclic_factors
        if not isinstance(a, (tuple, list)) or len(a) != len(factors):
            raise InvalidInputError(f"element {_cut(repr(a))} does not match the group rank")
        if not all(map(_is_int, a)):
            raise InvalidInputError(f"element {_cut(repr(a))} must be a list of integers")
        return tuple(x % n for x, n in zip(a, factors))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_factors))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.cyclic_factors))

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


class Subgroup(_Value):
    """A subgroup, stored as its full sorted element tuple (always contains 0)."""

    group: FiniteAbelianGroup
    elements: tuple[Element, ...]

    def __init__(self, group: FiniteAbelianGroup, elements: tuple[Element, ...]) -> None:
        super().__init__(group, elements)
        object.__setattr__(self, "_member_set", frozenset(elements))
        if tuple(sorted(elements)) != elements or len(self._member_set) != len(elements):
            raise InvalidInputError("subgroup elements must be sorted and duplicate-free")
        if group.zero() not in self._member_set:
            raise InvalidInputError("subgroup must contain the identity")

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

    A bare integer n is shorthand for the cyclic group Z/n.  A factor that is
    not an integer is refused, not converted.
    """
    if isinstance(cyclic_factors, int):
        cyclic_factors = (cyclic_factors,)
    try:
        factors = tuple(cyclic_factors)
    except TypeError:
        raise InvalidInputError(
            f"cyclic factors must be positive integers, got {_cut(repr(cyclic_factors))}"
        ) from None
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


class _LatticeIndex:
    """The subgroup lattice of one group, and the data read off it.

    ``subgroups`` and ``position`` are built with the index; every other
    table is filled on first use and then shared: ``sums[H, K]`` and
    ``meets[H, K]`` are lattice members, ``coset_maps[D]`` is one read-only
    ``coset_space`` map and ``characters[H]`` one tuple of characters per
    subgroup, and ``simples[H, K]`` is the slot where ``afinv.bimodules``
    keeps each pair's simples.  The public functions return these tuples and
    maps themselves; neither takes item assignment, so no caller can change
    the index.
    """

    def __init__(self, group: FiniteAbelianGroup) -> None:
        self.subgroups = _enumerate_subgroups(group)
        self.position = {H: i for i, H in enumerate(self.subgroups)}
        self.sums: dict[tuple[Subgroup, Subgroup], Subgroup] = {}
        self.meets: dict[tuple[Subgroup, Subgroup], Subgroup] = {}
        self.coset_maps: dict[Subgroup, Mapping[Element, Element]] = {}
        self.characters: dict[Subgroup, tuple[Character, ...]] = {}
        self.simples: dict[tuple[Subgroup, Subgroup], tuple] = {}

    def member(self, H: Subgroup) -> Subgroup:
        """The member of the lattice equal to H."""
        try:
            return self.subgroups[self.position[H]]
        except KeyError:
            raise InvalidInputError(f"{H} is not a subgroup of {H.group}") from None


def _enumerate_subgroups(group: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    # G_i: the elements whose coordinates before i are zero.  A subgroup H of
    # G_i is H' + <g> for H' = H ∩ G_{i+1} and one g: g_i = d with d·Z/e_i the
    # i-th coordinates of H, and g's tail b the least member of b + H' in
    # G_{i+1}, with (e_i/d)·b in H'.  So from G_n = {0} up to G_0 = G, each
    # subgroup is built once, from one triple (H', d, b).
    factors = group.cyclic_factors
    found = [{group.zero()}]
    for i in reversed(range(len(factors))):
        e = factors[i]
        if e == 1:  # no divisor d < 1, so no subgroup grows at this coordinate
            continue
        tail = [(0,) * (i + 1) + x for x in itertools.product(*map(range, factors[i + 1 :]))]
        grown = list(found)
        for H in found:
            covered = set()
            for b in tail:  # lex order, so the first uncovered member is its coset's least
                if b in covered:
                    continue
                covered.update(group.add(b, h) for h in H)
                for d in range(1, e):
                    if e % d == 0 and tuple(e // d * x % n for x, n in zip(b, factors)) in H:
                        grown.append(_join(group, H, b[:i] + (d,) + b[i + 1 :]))
        found = grown
    found = [Subgroup(group, tuple(sorted(H))) for H in found]
    return tuple(sorted(found, key=Subgroup.sort_key))


@lru_cache(maxsize=None)
def _lattice_index(group: FiniteAbelianGroup) -> _LatticeIndex:
    """The one lattice index of ``group``."""
    return _LatticeIndex(group)


def _common_index(H: Subgroup, K: Subgroup) -> _LatticeIndex:
    if H.group != K.group:
        raise InvalidInputError("subgroups live in different groups")
    return _lattice_index(H.group)


def subgroups(group: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by (order, element list); the trivial one is first.

    Every call returns the one tuple the lattice index holds.

    >>> [H.order for H in subgroups(make_group([4]))]
    [1, 2, 4]
    """
    return _lattice_index(group).subgroups


def lattice_member(H: Subgroup) -> Subgroup:
    """The member of ``subgroups(H.group)`` equal to H.

    Subgroups passed through it are one object per distinct subgroup, the one
    the lattice enumeration holds, so comparisons and dict lookups among them
    stop at identity.
    """
    return _lattice_index(H.group).member(H)


def subgroup_sum(H: Subgroup, K: Subgroup) -> Subgroup:
    """The subgroup H + K, as the member of ``subgroups(H.group)``."""
    index = _common_index(H, K)
    got = index.sums.get((H, K))
    if got is None:
        joined = set(H.elements)
        for k in K.elements:
            if k not in joined:
                joined = _join(H.group, joined, k)
        got = index.sums[H, K] = index.member(Subgroup(H.group, tuple(sorted(joined))))
    return got


def subgroup_intersection(H: Subgroup, K: Subgroup) -> Subgroup:
    """The subgroup H∩K, as the member of ``subgroups(H.group)``."""
    index = _common_index(H, K)
    got = index.meets.get((H, K))
    if got is None:
        common = tuple(e for e in H.elements if K.contains(e))
        got = index.meets[H, K] = index.member(Subgroup(H.group, common))
    return got


class Character(_Value):
    """A homomorphism from a subgroup to Q/Z, tabulated on sorted elements.

    ``values[i]`` is an integer v in [0, E), E the exponent of the ambient
    group, standing for the phase v/E at ``domain.elements[i]``.  The table
    is not checked here: :func:`dual_characters` builds every character, and
    :func:`character_with_values` finds one by its table.
    """

    domain: Subgroup
    values: tuple[int, ...]

    def __init__(self, domain: Subgroup, values: tuple[int, ...]) -> None:
        super().__init__(domain, values)
        object.__setattr__(self, "_table", dict(zip(domain.elements, values)))

    def __call__(self, element: Element) -> int:
        return self._table[element]  # type: ignore[attr-defined]

    def conjugate(self) -> "Character":
        """The pointwise negative, as the member of ``dual_characters(domain)``."""
        E = self.domain.group.exponent
        return character_with_values(self.domain, tuple((-v) % E for v in self.values))


def dual_characters(H: Subgroup) -> tuple[Character, ...]:
    """All characters of H, sorted by value table; the trivial character is first.

    Every character of a subgroup extends to the ambient group (Q/Z is
    divisible), so the restrictions of the ambient characters are all of
    them.  Those restrictions form the group spanned by the r coordinate
    tables e -> e_i * (E / n_i) mod E, E the exponent of G, so the tables are
    found by closing {0} under adding each coordinate table: |Ĥ|·r·|H|
    additions at most.  They are found once per subgroup, with the lattice
    member as their domain, and every call returns that one tuple.

    >>> H = Subgroup.generated(make_group([4]), [(2,)])
    >>> [chi.values for chi in dual_characters(H)]
    [(0, 0), (0, 2)]
    """
    index = _lattice_index(H.group)
    chars = index.characters.get(H)
    if chars is None:
        chars = index.characters[H] = _characters_of(index.member(H))
    return chars


def _characters_of(H: Subgroup) -> tuple[Character, ...]:
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
        raise InternalConsistencyError(f"expected {H.order} characters, found {len(tables)}")
    return tuple(Character(H, t) for t in sorted(tables))


def character_with_values(H: Subgroup, values: tuple[int, ...]) -> Character:
    """The member of ``dual_characters(H)`` whose value table is ``values``.

    The members are sorted by table, so this is one binary search.  A table
    that is no member is no homomorphism from H to Q/Z and is refused.
    """
    chars = dual_characters(H)
    i = bisect_left(chars, values, key=attrgetter("values"))
    if i == len(chars) or chars[i].values != values:
        raise InvalidInputError("character table is not a homomorphism")
    return chars[i]


def coset_space(D: Subgroup) -> Mapping[Element, Element]:
    """Each element of ``D.group`` mapped to the least member of its coset of D.

    The cosets are met in lexicographic order, so the distinct values first
    appear in ascending order.  The map is built once per subgroup, wrapped
    read-only, and every call returns that one map.
    """
    index = _lattice_index(D.group)
    rep_of = index.coset_maps.get(D)
    if rep_of is None:
        rep_of = index.coset_maps[D] = MappingProxyType(_coset_map(D.group, D))
    return rep_of


def _coset_map(group: FiniteAbelianGroup, D: Subgroup) -> dict[Element, Element]:
    rep_of: dict[Element, Element] = {}
    for x in group.elements():  # lex order, so the first unseen member is the rep
        if x not in rep_of:
            for d in D.elements:
                rep_of[group.add(x, d)] = x
    return rep_of

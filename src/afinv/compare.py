"""Deciding equivalence of two computed invariants.

Equivalence of the underlying actions is detected by finding a family of
positive rationals u_Q, one per representative Q-system, such that

* each u_Q carries the identified image r1*Z[1/S] onto r2*Z[1/S]
  (so u_Q * r1/r2 is a positive unit of Z[1/S]),
* naturality holds for every simple bimodule X: P -> Q,
  u_Q * f1(X) == f2(X) * u_P, and
* the unit component maps the distinguished class: u_unit * p1 == p2.

When every object is rank-one identified, naturality pins the family up to
one global scalar and pointedness pins that scalar, so the search is exact:
either a witness exists (returned, and replayed through verify_witness) or a
specific violated constraint is returned as a certificate.  Objects that
resist rank-one identification make the outcome UNKNOWN, optionally with
bounded shift-equivalence diagnostics.
"""

from __future__ import annotations

from fractions import Fraction

from .bimodules import bimodule_label
from .diagrams import InvariantData
from .errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from .groups import _Value
from .k0 import (
    DirectSumForm,
    RankOneForm,
    is_s_unit,
    prime_set_text,
    shift_equivalent_bounded,
)

__all__ = [
    "Certificate",
    "Verdict",
    "compare",
    "verify_witness",
]

EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"
UNKNOWN = "unknown"


class Certificate(_Value):
    """A violated constraint, pinned to the object or bimodule where it fails."""

    kind: str  # rank, prime-set, constraint-inconsistency, unit-obstruction, pointed-obstruction
    at: str
    left: str
    right: str


class Verdict(_Value):
    status: str
    witness: tuple[tuple[str, Fraction], ...] | None
    certificate: Certificate | None
    reason: str | None

    def __init__(self, status, witness=None, certificate=None, reason=None) -> None:
        super().__init__(status, witness, certificate, reason)

    @property
    def exit_code(self) -> int:
        return {EQUIVALENT: 0, INEQUIVALENT: 3, UNKNOWN: 4}[self.status]

    def witness_map(self) -> dict[str, Fraction] | None:
        return dict(self.witness) if self.witness is not None else None


def _prime_profile(desc):
    """Multiset of block prime sets, or None when not comparable."""
    if isinstance(desc, RankOneForm):
        return (tuple(sorted(desc.prime_set)),)
    if isinstance(desc, DirectSumForm):
        return tuple(sorted(tuple(sorted(b.prime_set)) for b in desc.blocks))
    return None


def _fmt_profile(profile) -> str:
    return " + ".join(map(prime_set_text, profile))


def _check_preconditions(x1, x2) -> None:
    """Refuse two invariants, or the two diagrams they come from, over different groups."""
    if x1.group != x2.group:
        raise InvalidInputError("invariants live over different groups")


def compare(
    inv1: InvariantData,
    inv2: InvariantData,
    se_lag: int = 0,
    se_entries: int = 0,
) -> Verdict:
    """Decide equivalence, returning a witness, a certificate, or UNKNOWN."""
    _check_preconditions(inv1, inv2)
    labels = inv1.labels

    for i, label in enumerate(labels):
        d1, d2 = inv1.objects[i], inv2.objects[i]
        if d1.rank != d2.rank:
            return Verdict(
                INEQUIVALENT,
                certificate=Certificate("rank", label, str(d1.rank), str(d2.rank)),
            )
        p1, p2 = _prime_profile(d1), _prime_profile(d2)
        if p1 is not None and p2 is not None and p1 != p2:
            return Verdict(
                INEQUIVALENT,
                certificate=Certificate(
                    "prime-set", label, _fmt_profile(p1), _fmt_profile(p2)
                ),
            )

    opaque = [
        i
        for i in range(len(labels))
        if not isinstance(inv1.objects[i], RankOneForm)
        or not isinstance(inv2.objects[i], RankOneForm)
    ]
    if opaque:
        reason = "objects not rank-one identified: " + ", ".join(labels[i] for i in opaque)
        if se_lag > 0 and se_entries > 0:
            notes = []
            for i in opaque:
                A, B = inv1.objects[i].matrix, inv2.objects[i].matrix
                try:
                    found = shift_equivalent_bounded(A, B, se_lag, se_entries)
                except ResourceLimitError:
                    notes.append(f"{labels[i]}: bounded shift equivalence search too large")
                    continue
                notes.append(
                    f"{labels[i]}: bounded shift equivalence "
                    + (f"witness at lag {found[2]}" if found else "not found")
                )
            reason += "; " + "; ".join(notes)
        return Verdict(UNKNOWN, reason=reason)

    # Every object is rank-one: solve the naturality system exactly.
    position = {P: k for k, P in enumerate(inv1.representatives)}
    pending: list[tuple[int, int, object, Fraction, Fraction]] = []
    for X, f1, f2 in zip(inv1.simples, inv1.multipliers, inv2.multipliers):
        # compute_invariant gives every simple between rank-one objects a
        # multiplier; only an invariant built by hand can lack one here
        if f1 is None or f2 is None:
            which = bimodule_label(X)
            return Verdict(
                UNKNOWN, reason=f"no scalar multiplier recorded for {which}"
            )
        if (f1 == 0) != (f2 == 0):
            return Verdict(
                INEQUIVALENT,
                certificate=Certificate(
                    "constraint-inconsistency", bimodule_label(X), str(f1), str(f2)
                ),
            )
        pending.append((position[X.source], position[X.target], X, f1, f2))

    # Spanning-tree propagation of the ratios c, anchored at the unit object.
    c: list[Fraction | None] = [None] * len(labels)
    c[0] = Fraction(1)
    frontier = [0]
    while frontier:
        k = frontier.pop()
        for i, j, X, f1, f2 in pending:
            if f1 == 0:
                continue
            if i == k and c[j] is None:
                c[j] = c[k] * f2 / f1
                frontier.append(j)
            elif j == k and c[i] is None:
                c[i] = c[k] * f1 / f2
                frontier.append(i)
    if any(ci is None for ci in c):
        missing = [labels[k] for k, ci in enumerate(c) if ci is None]
        return Verdict(
            UNKNOWN,
            reason="naturality constraints do not reach: " + ", ".join(missing),
        )

    for i, j, X, f1, f2 in pending:
        if c[j] * f1 != f2 * c[i]:
            return Verdict(
                INEQUIVALENT,
                certificate=Certificate(
                    "constraint-inconsistency",
                    bimodule_label(X),
                    str(c[j] * f1),
                    str(f2 * c[i]),
                ),
            )

    p1, p2 = inv1.pointed, inv2.pointed
    if not isinstance(p1, Fraction) or not isinstance(p2, Fraction):
        return Verdict(UNKNOWN, reason="pointed class is not a rational value")
    if (p1 == 0) != (p2 == 0):
        return Verdict(
            INEQUIVALENT,
            certificate=Certificate("pointed-obstruction", labels[0], str(p1), str(p2)),
        )
    if p1 == 0:
        return Verdict(UNKNOWN, reason="degenerate pointed class on both sides")
    t = p2 / p1
    if t <= 0:
        return Verdict(
            INEQUIVALENT,
            certificate=Certificate("pointed-obstruction", labels[0], str(p1), str(p2)),
        )

    witness = tuple((labels[k], t * c[k]) for k in range(len(labels)))
    for k, (label, u) in enumerate(witness):
        ratio = u * inv1.scales[k] / inv2.scales[k]
        S = inv1.objects[k].prime_set
        if not is_s_unit(ratio, S):
            return Verdict(
                INEQUIVALENT,
                certificate=Certificate(
                    "unit-obstruction",
                    label,
                    str(ratio),
                    "S=" + prime_set_text(S),
                ),
            )

    if not verify_witness(inv1, inv2, dict(witness)):
        raise InternalConsistencyError("computed witness failed replay verification")
    return Verdict(EQUIVALENT, witness=witness)


def verify_witness(inv1: InvariantData, inv2: InvariantData, witness) -> bool:
    """Replay a claimed witness against every defining constraint."""
    _check_preconditions(inv1, inv2)
    try:
        u = [Fraction(witness[label]) for label in inv1.labels]
    except (KeyError, ValueError, TypeError, ZeroDivisionError):
        return False
    if any(q <= 0 for q in u):
        return False

    for k, (d1, d2) in enumerate(zip(inv1.objects, inv2.objects)):
        if not isinstance(d1, RankOneForm) or not isinstance(d2, RankOneForm):
            return False
        if d1.prime_set != d2.prime_set:
            return False
        if not is_s_unit(u[k] * inv1.scales[k] / inv2.scales[k], d1.prime_set):
            return False

    position = {P: k for k, P in enumerate(inv1.representatives)}
    for X, f1, f2 in zip(inv1.simples, inv1.multipliers, inv2.multipliers):
        if f1 is None or f2 is None:
            return False
        if u[position[X.target]] * f1 != f2 * u[position[X.source]]:
            return False

    p1, p2 = inv1.pointed, inv2.pointed
    if not isinstance(p1, Fraction) or not isinstance(p2, Fraction):
        return False
    return u[0] * p1 == p2


"""Deciding equivalence of two computed invariants.

Equivalence of the underlying actions is detected by finding a family of
positive rationals u_Q, one per representative Q-system, such that

* each u_Q carries the identified image r1*Z[1/S] onto r2*Z[1/S]
  (so u_Q * r1/r2 is a positive unit of Z[1/S]),
* naturality holds for every simple bimodule X: P -> Q,
  u_Q * f1(X) == f2(X) * u_P, and
* the unit component maps the distinguished class: u_unit * p1 == p2.

When every object is rank-one identified, each side's multipliers are one
gauge per object, q(X) = (dim X/|P|)·g_Q/g_P with g 1 at the unit
(``InvariantData`` refuses any other table), so naturality holds exactly
when u_Q / u_unit = g2_Q / g1_Q: the family is read off the gauges.
Pointedness pins the remaining scalar, t = p2/p1 (``InvariantData`` refuses a
rational pointed class of 0, and none is computed), so the decision is exact:
either a witness exists (returned, and replayed through verify_witness) or a
specific violated constraint is returned as a certificate.  Only objects that
resist rank-one identification make the outcome UNKNOWN, optionally with
bounded shift-equivalence diagnostics.
"""

from __future__ import annotations

from fractions import Fraction

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

    kind: str  # rank, prime-set, unit-obstruction
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

    # every object is rank-one, so both pointed classes are positive, both gauges are 1 at
    # the unit, and naturality fixes u_Q = t·g2_Q/g1_Q
    t = inv2.pointed / inv1.pointed
    gauges = zip(labels, inv1.gauges, inv2.gauges)
    witness = tuple((label, t * g2 / g1) for label, g1, g2 in gauges)
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
        if u[position[X.target]] * f1 != f2 * u[position[X.source]]:
            return False

    p1, p2 = inv1.pointed, inv2.pointed
    return u[0] * p1 == p2


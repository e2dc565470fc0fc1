"""Verdicts, witnesses, and certificates for pairs of computed invariants."""

import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from afinv import k0
from afinv.bimodules import qsystems, simple_bimodules
from afinv.compare import (
    EQUIVALENT,
    INEQUIVALENT,
    UNKNOWN,
    Verdict,
    compare,
    verify_witness,
)
from afinv.diagrams import EnrichedBratteliDiagram, InvariantData, compute_invariant
from afinv.errors import InternalConsistencyError, InvalidInputError
from afinv.groups import make_group
from afinv.k0 import strip_primes
from fuse_oracle import oracle_fuse
from values import replace


def _with_multiplier(inv, label_of, new_value):
    """Copy of inv with the multiplier of one simple replaced."""
    from afinv.bimodules import bimodule_label

    multipliers = tuple(
        new_value if bimodule_label(X) == label_of else q
        for X, q in inv.morphisms
    )
    return replace(inv, multipliers=multipliers)


# ------------------------------------------------------------ positive results


def test_translation_actions_on_distinct_subgroups_are_equivalent(z4_invariants):
    verdict = compare(z4_invariants["F"], z4_invariants["G"])
    assert verdict.status == EQUIVALENT
    assert verdict.witness_map() == {
        "Q1": Fraction(1),
        "Q2": Fraction(1, 2),
        "Q3": Fraction(1, 2),
    }
    assert verdict.exit_code == 0


def test_second_and_third_translation_actions(z4_invariants):
    verdict = compare(z4_invariants["G"], z4_invariants["H"])
    assert verdict.status == EQUIVALENT
    assert verdict.witness_map() == {
        "Q1": Fraction(1),
        "Q2": Fraction(1),
        "Q3": Fraction(1, 2),
    }


def test_self_comparison_yields_identity_witness(z4_invariants):
    for name in ("F", "G", "H"):
        verdict = compare(z4_invariants[name], z4_invariants[name])
        assert verdict.status == EQUIVALENT
        assert set(verdict.witness_map().values()) == {Fraction(1)}


def test_indicator_weight_convention_shifts_the_witness(z4_reps):
    # with the Q-system itself as generator the unit components differ by 4
    # vs 2, so the witness doubles on the unit instead
    Q1, Q2, _ = z4_reps
    F = EnrichedBratteliDiagram.homogeneous(
        Q1, {b: 1 for b in simple_bimodules(Q1, Q1)}, generator_weights=(1, 0, 0, 0)
    )
    G = EnrichedBratteliDiagram.homogeneous(
        Q2, {b: 1 for b in simple_bimodules(Q2, Q2)}, generator_weights=(1, 0)
    )
    verdict = compare(compute_invariant(F), compute_invariant(G))
    assert verdict.status == EQUIVALENT
    assert verdict.witness_map() == {
        "Q1": Fraction(2),
        "Q2": Fraction(1),
        "Q3": Fraction(1),
    }


def test_doubled_generator_is_a_two_unit_away(z4_reps, z4_invariants):
    Q1 = z4_reps[0]
    doubled = EnrichedBratteliDiagram.homogeneous(
        Q1, {b: 1 for b in simple_bimodules(Q1, Q1)}, generator_weights=(2, 2, 2, 2)
    )
    verdict = compare(z4_invariants["F"], compute_invariant(doubled))
    assert verdict.status == EQUIVALENT
    assert set(verdict.witness_map().values()) == {Fraction(2)}


def _telescoped(d):
    """The homogeneous diagram d with every two consecutive edge blocks fused into one.

    The products come from the exact oracle, not from ``afinv.fuse``.
    """
    ((vertex,),), (edges,) = d.levels, d.edges
    fused = Counter()
    for e1 in edges:
        for e2 in edges:
            for Z, m in oracle_fuse(e2.bimodule, e1.bimodule).items():
                fused[Z] += e1.multiplicity * e2.multiplicity * m
    return EnrichedBratteliDiagram.homogeneous(vertex, fused, d.generator_weights)


def test_telescoping_a_homogeneous_diagram_keeps_its_invariant():
    t0 = time.perf_counter()
    pairs = 0
    for factors in ([2], [3], [4], [2, 2]):
        for P in qsystems(make_group(factors)):
            for k in (1, 2):
                d = EnrichedBratteliDiagram.homogeneous(P, dict.fromkeys(simple_bimodules(P, P), k))
                telescope = _telescoped(d)
                assert telescope.edges != d.edges
                verdict = compare(compute_invariant(d), compute_invariant(telescope))
                assert verdict.status == EQUIVALENT, (factors, P, k)
                assert set(verdict.witness_map().values()) == {1}, (factors, P, k)
                pairs += 1
    assert pairs == 2 * (2 + 2 + 3 + 5)
    assert time.perf_counter() - t0 < 15


# ------------------------------------------------------------------ negatives


def test_trivial_tail_is_not_equivalent_to_translations(z4_invariants):
    verdict = compare(z4_invariants["E"], z4_invariants["F"])
    assert verdict.status == INEQUIVALENT
    assert verdict.certificate.kind == "rank"
    assert verdict.certificate.at == "Q2"
    assert (verdict.certificate.left, verdict.certificate.right) == ("2", "1")
    assert verdict.exit_code == 3


def test_odd_weight_fails_the_unit_check(z4_reps, z4_invariants):
    Q1 = z4_reps[0]
    odd = EnrichedBratteliDiagram.homogeneous(
        Q1, {b: 1 for b in simple_bimodules(Q1, Q1)}, generator_weights=(3, 1, 1, 1)
    )
    verdict = compare(z4_invariants["F"], compute_invariant(odd))
    assert verdict.status == INEQUIVALENT
    assert verdict.certificate.kind == "unit-obstruction"
    assert verdict.certificate.at == "Q1"
    assert verdict.certificate.left == "3/2"


@pytest.mark.parametrize(
    "tampered, message",
    [("M_{1-2,0}", "is 1, not its gauge value 3"), ("M_{1-2,1}", "is 3, not its gauge value 1")],
    ids=["first-simple-into-Q2", "second-simple-into-Q2"],
)
def test_a_tampered_multiplier_is_refused_before_compare(z4_invariants, tampered, message):
    # G's multiplier is 1 at both simples from Q1 into Q2.  Q2's gauge is read off
    # M_{1-2,0}, the first of them, so the fault shows at M_{1-2,1} whichever of the
    # two is tripled, and no invariant reaches compare to be certified
    with pytest.raises(InvalidInputError, match=re.escape(f"multiplier of M_{{1-2,1}} {message}")):
        _with_multiplier(z4_invariants["G"], tampered, Fraction(3))


def test_zero_nonzero_multiplier_mismatch(z4_invariants):
    # both ends of M_{1-1,1} are rank-one, so its multiplier must be positive
    with pytest.raises(InvalidInputError, match=r"multiplier of M_\{1-1,1\} must be positive"):
        _with_multiplier(z4_invariants["G"], "M_{1-1,1}", Fraction(0))


def test_zero_multipliers_out_of_the_unit_are_refused(z4_invariants):
    # every simple out of Q1 into Q2 or Q3 zeroed: no action's invariant has
    # a zero multiplier between rank-one objects
    inv = z4_invariants["F"]
    Q1 = inv.representatives[0]
    with pytest.raises(InvalidInputError, match=r"multiplier of M_\{1-2,0\} must be positive"):
        replace(inv, multipliers=tuple(
            Fraction(0) if X.source == Q1 != X.target else q for X, q in inv.morphisms
        ))


def test_a_zero_pointed_class_is_refused(z4_invariants):
    # no computed pointed class is 0 (the InvariantData docstring proves it), so
    # compare issues no certificate and no unknown for one
    with pytest.raises(InvalidInputError, match="^pointed class must not be 0 if rational$"):
        replace(z4_invariants["F"], pointed=Fraction(0))


def test_a_negative_pointed_class_is_refused(z4_invariants):
    F = z4_invariants["F"]
    with pytest.raises(InvalidInputError, match="pointed class must not be negative"):
        replace(F, pointed=-F.pointed)


# -------------------------------------------------------------------- unknowns


def test_non_rank_one_objects_stay_unknown(z4_invariants):
    verdict = compare(z4_invariants["E"], z4_invariants["E"])
    assert verdict.status == UNKNOWN
    assert "Q2" in verdict.reason and "Q3" in verdict.reason
    assert verdict.exit_code == 4


def test_shift_equivalence_diagnostics(z4_invariants, monkeypatch):
    verdict = compare(z4_invariants["E"], z4_invariants["E"], se_lag=1, se_entries=2)
    assert verdict.status == UNKNOWN
    assert "Q2: bounded shift equivalence witness at lag 1" in verdict.reason
    assert "Q3: bounded shift equivalence search too large" in verdict.reason
    # a search that passes the check budget is reported the same way
    monkeypatch.setattr(k0, "SHIFT_SEARCH_BUDGET", 0)
    verdict = compare(z4_invariants["E"], z4_invariants["E"], se_lag=1, se_entries=2)
    assert "Q2: bounded shift equivalence search too large" in verdict.reason


def test_a_pointed_class_that_is_no_rational_is_refused(z4_invariants):
    # Q1 of F is rank-one, so no invariant compare could read has a vector there
    with pytest.raises(InvalidInputError, match="pointed class must be rational if Q1 is"):
        replace(z4_invariants["F"], pointed=(1, 1, 1, 1))


def test_missing_multiplier_is_refused(z4_invariants):
    # both ends of M_{2-3}^triv are rank-one in G, so its multiplier cannot be null
    with pytest.raises(InvalidInputError, match=r"multiplier of M_\{2-3\}\^triv must be positive"):
        _with_multiplier(z4_invariants["G"], "M_{2-3}^triv", None)


def test_disconnected_naturality_graph_is_refused(z4_invariants):
    # every simple between two distinct Q-systems zeroed
    inv = z4_invariants["F"]
    crossless = tuple(
        Fraction(0) if X.source != X.target else q for X, q in inv.morphisms
    )
    with pytest.raises(InvalidInputError, match="must be positive if both ends are rank-one"):
        replace(inv, multipliers=crossless)


# --------------------------------------------------------------- preconditions


def test_different_groups_are_rejected(z4_invariants):
    G2 = make_group(2)
    Q1 = qsystems(G2)[0]
    other = compute_invariant(
        EnrichedBratteliDiagram.homogeneous(
            Q1, {b: 1 for b in simple_bimodules(Q1, Q1)}
        )
    )
    with pytest.raises(InvalidInputError):
        compare(z4_invariants["F"], other)


def test_mismatched_bimodule_tables_are_rejected(z4_invariants):
    with pytest.raises(InvalidInputError, match="each of the 22 simple bimodules"):
        replace(
            z4_invariants["G"], multipliers=z4_invariants["G"].multipliers[1:]
        )


# ----------------------------------------------------------- witness replaying


def test_verify_witness_accepts_and_rejects(z4_invariants):
    F, G, E = (z4_invariants[k] for k in ("F", "G", "E"))
    assert verify_witness(F, G, {"Q1": 1, "Q2": "1/2", "Q3": Fraction(1, 2)})
    assert verify_witness(F, F, {"Q1": 1, "Q2": 1, "Q3": 1})
    assert not verify_witness(F, G, {"Q1": 1, "Q2": 1, "Q3": 1})
    assert not verify_witness(F, G, {"Q1": 1, "Q2": 1, "Q3": Fraction(1, 2)})
    assert not verify_witness(F, G, {"Q1": 1, "Q2": "1/2"})
    assert not verify_witness(F, G, {"Q1": 0, "Q2": "1/2", "Q3": "1/2"})
    assert not verify_witness(F, G, {"Q1": -1, "Q2": "1/2", "Q3": "1/2"})
    assert not verify_witness(F, G, {"Q1": 1, "Q2": "nonsense", "Q3": "1/2"})
    # a 3 on the unit breaks the 2-unit requirement even though 3 > 0
    assert not verify_witness(F, F, {"Q1": 3, "Q2": 3, "Q3": 3})
    assert not verify_witness(E, E, {"Q1": 1, "Q2": 1, "Q3": 1})


def test_verify_witness_refuses_objects_of_different_prime_sets(z4_reps, z4_invariants):
    # every multiplicity tripled: the eigenvalue 12 has the prime set {2, 3}, F's 4 has {2}
    Q1 = z4_reps[0]
    tripled = compute_invariant(EnrichedBratteliDiagram.homogeneous(
        Q1, {b: 3 for b in simple_bimodules(Q1, Q1)}
    ))
    F = z4_invariants["F"]
    assert (F.objects[0].prime_set, tripled.objects[0].prime_set) == ({2}, {2, 3})
    assert not verify_witness(F, tripled, {"Q1": 1, "Q2": 1, "Q3": 1})
    assert compare(F, tripled).certificate.kind == "prime-set"


def test_a_witness_that_fails_its_replay_is_an_internal_error(z4_invariants, monkeypatch):
    F, G = z4_invariants["F"], z4_invariants["G"]
    assert compare(F, G).status == EQUIVALENT
    monkeypatch.setattr("afinv.compare.verify_witness", lambda *args: False)
    with pytest.raises(InternalConsistencyError, match="failed replay verification"):
        compare(F, G)


# ------------------------------------------------------------------ rescaling


def rescaled_invariant(inv: InvariantData, factors) -> InvariantData:
    """The same invariant presented under per-object renormalized value maps.

    ``factors`` maps labels to positive rationals c_Q; multipliers become
    f(X: P->Q) * c_Q / c_P, the pointed class picks up c_unit, and each scale
    is replaced by the S-free part of c_Q * scale.  Comparison verdicts must
    not change under this transformation.
    """
    c = {label: Fraction(factors.get(label, 1)) for label in inv.labels}
    if any(q <= 0 for q in c.values()):
        raise InvalidInputError("rescaling factors must be positive")
    by_rep = {rep: c[inv.labels[k]] for k, rep in enumerate(inv.representatives)}

    multipliers = []
    for X, f in inv.morphisms:
        if f is None:
            multipliers.append(None)
        else:
            multipliers.append(f * by_rep[X.target] / by_rep[X.source])

    scales = []
    for k, r in enumerate(inv.scales):
        if r is None:
            scales.append(None)
        else:
            scales.append(strip_primes(c[inv.labels[k]] * r, inv.objects[k].prime_set))

    pointed = inv.pointed
    if isinstance(pointed, Fraction):
        pointed = c[inv.labels[0]] * pointed

    return InvariantData(
        group=inv.group,
        objects=inv.objects,
        scales=tuple(scales),
        multipliers=tuple(multipliers),
        pointed=pointed,
    )


def test_rescaling_preserves_verdicts(z4_invariants):
    F, G = z4_invariants["F"], z4_invariants["G"]
    scaledG = rescaled_invariant(G, {"Q2": 3, "Q3": Fraction(5, 7)})
    verdict = compare(F, scaledG)
    assert verdict.status == EQUIVALENT
    assert verify_witness(F, scaledG, verdict.witness_map())
    assert verdict.witness_map() == {
        "Q1": Fraction(1),
        "Q2": Fraction(3, 2),
        "Q3": Fraction(5, 14),
    }

    # a genuine obstruction survives any renormalization
    E = z4_invariants["E"]
    assert compare(rescaled_invariant(E, {"Q1": 2}), F).status == INEQUIVALENT

    scaled_both = compare(rescaled_invariant(F, {"Q1": 9}), rescaled_invariant(G, {"Q1": 9}))
    assert scaled_both.status == EQUIVALENT


def test_rescaling_rejects_nonpositive_factors(z4_invariants):
    with pytest.raises(InvalidInputError):
        rescaled_invariant(z4_invariants["F"], {"Q1": 0})
    with pytest.raises(InvalidInputError):
        rescaled_invariant(z4_invariants["F"], {"Q2": Fraction(-1, 2)})


def test_verdict_exit_codes_cover_all_statuses():
    assert Verdict(EQUIVALENT).exit_code == 0
    assert Verdict(INEQUIVALENT).exit_code == 3
    assert Verdict(UNKNOWN).exit_code == 4
    assert Verdict(UNKNOWN).witness_map() is None

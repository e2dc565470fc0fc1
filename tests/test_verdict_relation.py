"""Verdicts form an equivalence relation, and witnesses compose as isomorphisms.

The invariant is complete, so "equivalent" is an equivalence relation and a
witness is an isomorphism of invariants: the inverse of a witness, and the
product of two, are witnesses too.  ``compare`` reads each ratio off the two
invariants' gauges, so a slip in that read, such as a dropped reciprocal,
can make a verdict depend on the order of the pair.

The inputs are the README diagrams F, G, H and E, F with each edge tripled
and F with generator weights 3, and every diagram of the seed-1 ``cli-cold``
and ``sweep-warm`` documents of ``bench/gen.py``, compared pair by pair within
each group.  A renormalization of the value maps, drawn
by hypothesis and applied through ``test_compare.rescaled_invariant``,
presents the same invariant, so it keeps the relation, and the factors
themselves are its witness whenever the original compares EQUIVALENT to
itself.
"""

import inspect
import itertools
from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from afinv import compare as compare_module
from afinv.bimodules import qsystems, simple_bimodules
from afinv.compare import EQUIVALENT, INEQUIVALENT, UNKNOWN, compare, verify_witness
from afinv.diagrams import EnrichedBratteliDiagram, compute_invariant
from afinv.groups import make_group
from afinv.serialize import diagram_from_json

from gen_loader import load_gen
from test_compare import rescaled_invariant

# the certificates whose two sides are the two invariants' own values, in order
SWAPPED_KINDS = ("rank", "prime-set")


@cache
def bench_invariants():
    """{group: {name: invariant}} over the seed-1 ``cli-cold`` and ``sweep-warm`` diagrams."""
    gen = load_gen()
    pools = {}
    for workload in ("cli-cold", "sweep-warm"):
        for name, doc in gen.build(workload, 1)["docs"].items():
            if "group" in doc:  # the others are group documents
                inv = compute_invariant(diagram_from_json(doc))
                pools.setdefault(inv.group, {})[f"{workload}/{name}"] = inv
    return pools


@cache
def tripled_readme_f():
    """README F with each edge three times (eigenvalue 12), and with generator weights 3.

    Against F, the first has the prime set {2, 3} at Q1 and the second the
    pointed class 3, no unit of Z[1/2].
    """
    Q1 = qsystems(make_group(4))[0]
    translations = simple_bimodules(Q1, Q1)
    homogeneous = EnrichedBratteliDiagram.homogeneous
    return {
        "README F, multiplicity 3": homogeneous(Q1, dict.fromkeys(translations, 3)),
        "README F, weights 3": homogeneous(Q1, dict.fromkeys(translations, 1), (3, 3, 3, 3)),
    }


def pools_with_readme(z4_invariants):
    pools = {G: dict(invs) for G, invs in bench_invariants().items()}
    G = z4_invariants["F"].group
    pools[G].update((f"README {name}", inv) for name, inv in z4_invariants.items())
    pools[G].update((name, compute_invariant(d)) for name, d in tripled_readme_f().items())
    return pools


def inverse(witness):
    return tuple((label, 1 / u) for label, u in witness)


def product(w1, w2):
    return tuple((label, u * v) for (label, u), (_, v) in zip(w1, w2))


def relation_faults(pools, compare=compare) -> list[str]:
    """Each place where the verdicts of ``compare`` on ``pools`` are no equivalence relation."""
    faults = []
    for G, invs in pools.items():
        names = list(invs)
        v = {(a, b): compare(invs[a], invs[b]) for a in names for b in names}
        for (a, b), ab in v.items():
            ba = v[b, a]
            where = f"{G}: {a} vs {b}"
            if ab.status != ba.status:
                faults.append(f"{where}: {ab.status}, but {ba.status} swapped")
            elif ab.status == EQUIVALENT:
                if ba.witness != inverse(ab.witness):
                    faults.append(f"{where}: the swapped witness is no inverse")
                if not verify_witness(invs[b], invs[a], dict(inverse(ab.witness))):
                    faults.append(f"{where}: the inverse witness fails verify_witness")
            elif ab.status == INEQUIVALENT:
                c1, c2 = ab.certificate, ba.certificate
                if (c1.kind, c1.at) != (c2.kind, c2.at):
                    faults.append(f"{where}: certificate {c1.kind} at {c1.at}, "
                                  f"but {c2.kind} at {c2.at} swapped")
                elif c1.kind in SWAPPED_KINDS and (c1.left, c1.right) != (c2.right, c2.left):
                    faults.append(f"{where}: {c1.kind} certificate sides not swapped")
            elif ab.status == UNKNOWN and ab.reason != ba.reason:
                faults.append(f"{where}: unknown for another reason swapped")
        for a, b, c in itertools.product(names, repeat=3):
            if v[a, b].status == v[b, c].status == EQUIVALENT:
                where = f"{G}: {a} ~ {b} ~ {c}"
                composed = product(v[a, b].witness, v[b, c].witness)
                if v[a, c].status != EQUIVALENT:
                    faults.append(f"{where}, but {v[a, c].status}")
                elif v[a, c].witness != composed:
                    faults.append(f"{where}: the witnesses do not compose")
                elif not verify_witness(invs[a], invs[c], dict(composed)):
                    faults.append(f"{where}: the composed witness fails verify_witness")
    return faults


def test_verdicts_form_an_equivalence_relation(z4_invariants):
    pools = pools_with_readme(z4_invariants)
    assert relation_faults(pools) == []
    # so that no branch above is vacuous, every status and every certificate kind occurs,
    # and no other kind
    verdicts = [compare(a, b) for invs in pools.values()
                for a, b in itertools.product(invs.values(), repeat=2)]
    kinds = {v.certificate.kind if v.status == INEQUIVALENT else v.status for v in verdicts}
    assert kinds == {"rank", "prime-set", "unit-obstruction", EQUIVALENT, UNKNOWN}


def compare_dropping_a_reciprocal():
    """``compare`` whose read of a ratio off the gauges takes g2 but does not divide by g1.

    Its own replay of the witness is dropped too, as that replay alone would
    refuse the wrong witness; what is left to catch the slip is the relation.
    """
    source = inspect.getsource(compare_module)
    edits = {"t * g2 / g1": "t * g2",
             "if not verify_witness(inv1, inv2, dict(witness)):": "if False:"}
    for honest, tampered in edits.items():
        assert source.count(honest) == 1
        source = source.replace(honest, tampered)
    namespace = {"__name__": compare_module.__name__, "__package__": "afinv"}
    exec(compile(source, "<tampered compare>", "exec"), namespace)
    return namespace["compare"]


def test_a_compare_that_drops_one_reciprocal_breaks_the_relation(z4_invariants):
    faults = relation_faults(pools_with_readme(z4_invariants), compare_dropping_a_reciprocal())
    assert any("swapped" in fault for fault in faults)


@st.composite
def renormalized_pools(draw):
    """One group's pool: a few of its bench invariants, each beside a drawn renormalization."""
    pools = bench_invariants()
    invs = pools[draw(st.sampled_from(list(pools)))]
    factor = st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30)
    pool, renormalized = {}, []
    for k, name in enumerate(draw(st.lists(st.sampled_from(list(invs)), min_size=1, max_size=3))):
        inv = invs[name]
        factors = {label: draw(factor) for label in inv.labels}
        scaled = rescaled_invariant(inv, factors)
        pool[f"{k} {name}"], pool[f"{k} {name} renormalized"] = inv, scaled
        renormalized.append((inv, scaled, factors))
    return {inv.group: pool}, renormalized


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(renormalized_pools())
def test_renormalized_invariants_keep_the_relation(drawn):
    pools, renormalized = drawn
    assert relation_faults(pools) == []
    for inv, scaled, factors in renormalized:
        if compare(inv, inv).status == EQUIVALENT:
            verdict = compare(inv, scaled)
            assert verdict.status == EQUIVALENT
            assert verdict.witness_map() == factors

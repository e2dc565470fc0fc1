"""Seeded inputs for the afinv benchmark, each with the outcome it must have.

Every document is built here from the group structure alone, with the
standard library only, so each expectation holds by construction and is
never read back from afinv:

* the translation actions of any two subgroups of one group are equivalent;
  for the README diagrams F, G, H over Z/4 the witnesses are known;
* scaling every generator weight by k gives witness k on every object when
  k is a unit of Z[1/S] (S = the primes of |G|), and a unit-obstruction at
  Q1 when k is a prime outside S;
* scaling every edge multiplicity by a prime p outside S adds p to the prime
  set of every object: a prime-set certificate at Q1;
* a stationary matrix a·bᵀ is rank-one, a block-diagonal sum of such blocks
  is a direct sum, and a positive strictly diagonally dominant matrix (full
  rank, connected) is opaque; a vertex permutation is an isomorphism.

The seed changes coset representatives, subgroup generators, edge order,
vertex orders, the order of matrix entries, generator weights, scaling
factors and request order.  It never changes the groups, the commands, the
sizes or the magnitude of any number, so the cost of a round does not depend
on it.

    python3 bench/gen.py --seed 7 --out DIR    # writes DIR/<workload>/...
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("cli-cold", "sweep-warm", "k0-wide", "lattice")

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


# -- finite abelian groups, enough to write documents -----------------------

def elements(factors):
    return list(itertools.product(*(range(n) for n in factors)))


def add(factors, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, factors))


def closure(factors, gens):
    """The sorted element tuple of the subgroup generated by ``gens``."""
    out = {tuple(0 for _ in factors)}
    frontier = list(out)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                s = add(factors, h, g)
                if s not in out:
                    out.add(s)
                    nxt.append(s)
        frontier = nxt
    return tuple(sorted(out))


def subgroups(factors):
    """All subgroups in afinv's order: by (order, sorted element tuple)."""
    seen = {closure(factors, [])}
    frontier = list(seen)
    all_elements = elements(factors)
    while frontier:
        nxt = []
        for H in frontier:
            members = set(H)
            for g in all_elements:
                if g not in members:
                    K = closure(factors, list(H) + [g])
                    if K not in seen:
                        seen.add(K)
                        nxt.append(K)
        frontier = nxt
    return sorted(seen, key=lambda H: (len(H), H))


def subgroup_count(factors):
    """Number of subgroups, in closed form for rank <= 2 and (Z/p)^r."""
    if len(factors) == 1:
        factors = (1,) + tuple(factors)
    if len(factors) == 2:
        m, n = factors
        return sum(
            math.gcd(a, b)
            for a in range(1, m + 1) if m % a == 0
            for b in range(1, n + 1) if n % b == 0
        )
    p, r = factors[0], len(factors)
    if any(f != p for f in factors) or any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"no closed-form subgroup count for {factors}")

    def gaussian(k):
        num = den = 1
        for i in range(k):
            num *= p ** (r - i) - 1
            den *= p ** (i + 1) - 1
        return num // den

    return sum(gaussian(k) for k in range(r + 1))


def generators(factors, H, rng):
    """A seeded generating set of H (any generating set names the same subgroup)."""
    pool = [h for h in H if any(h)]
    rng.shuffle(pool)
    gens, current = [], closure(factors, [])
    for h in pool:
        if h not in current:
            gens.append(h)
            current = closure(factors, gens)
            if len(current) == len(H):
                break
    return [list(g) for g in gens]


def characters(factors, H):
    """Every character of H as {element: value in [0, 1)}, trivial first."""
    seen = {}
    for coeffs in itertools.product(*(range(n) for n in factors)):
        values = tuple(
            sum((Fraction(c * x, n) for c, x, n in zip(coeffs, e, factors)), Fraction(0)) % 1
            for e in H
        )
        seen.setdefault(values, dict(zip(H, values)))
    return [seen[v] for v in sorted(seen)]


def theta(chi):
    return {
        json.dumps(list(e), separators=(",", ":")): str(v) for e, v in chi.items() if v
    }


def cosets(factors, H):
    out, seen = [], set()
    for x in elements(factors):
        if x not in seen:
            members = sorted(add(factors, x, h) for h in H)
            seen.update(members)
            out.append(members)
    return out


def prime_set(n):
    return {p for p in PRIMES if n % p == 0}


# -- diagram documents --------------------------------------------------------

def bimodule(factors, H, K, rep, chi, rng):
    return {
        "source_generators": generators(factors, H, rng),
        "target_generators": generators(factors, K, rng),
        "coset_rep": list(rep),
        "character": {"theta": theta(chi)},
    }


def translation_edges(factors, H, rng):
    """Every simple H-H bimodule once: the translation action of H."""
    edges = [
        {"bimodule": bimodule(factors, H, H, rng.choice(c), chi, rng), "multiplicity": 1}
        for c in cosets(factors, H)
        for chi in characters(factors, H)
    ]
    rng.shuffle(edges)
    return edges


def translation_action(factors, H, rng):
    return {
        "group": {"cyclic_factors": list(factors)},
        "vertex": {"generators": generators(factors, H, rng)},
        "edge": translation_edges(factors, H, rng),
        "generator_weights": [1] * (math.prod(factors) // len(H)),
    }


def readme_e(rng):
    """README diagram E: the trivial character of Q3 = Z/4, multiplicity 4."""
    factors = (4,)
    G = closure(factors, [(1,)])
    return {
        "group": {"cyclic_factors": [4]},
        "vertex": {"generators": generators(factors, G, rng)},
        "edge": [{
            "bimodule": bimodule(factors, G, G, (0,), characters(factors, G)[0], rng),
            "multiplicity": 4,
        }],
        "generator_weights": [1],
    }


def two_level(factors, H, rng, weights):
    """Level 0 is the trivial Q-system; one jump to H, then H's translation action."""
    trivial = closure(factors, [])
    jump = bimodule(factors, H, trivial, rng.choice(elements(factors)), {trivial[0]: Fraction(0)}, rng)
    tail = [dict(e, **{"from": 0, "to": 0}) for e in translation_edges(factors, H, rng)]
    return {
        "group": {"cyclic_factors": list(factors)},
        "levels": [[{"generators": []}], [{"generators": generators(factors, H, rng)}]],
        "edges": [[{"from": 0, "to": 0, "bimodule": jump, "multiplicity": 1}], tail],
        "generator_weights": list(weights),
    }


def scaled(doc, *, weights=1, mult=1):
    """The same diagram with every generator weight and edge multiplicity scaled."""
    out = json.loads(json.dumps(doc))
    out["generator_weights"] = [w * weights for w in out["generator_weights"]]
    for e in out.get("edge", []) + [e for block in out.get("edges", []) for e in block]:
        e["multiplicity"] = e.get("multiplicity", 1) * mult
    return out


def labels(factors):
    return [f"Q{i + 1}" for i in range(len(subgroups(factors)))]


def uniform_witness(factors, k):
    return {label: str(k) for label in labels(factors)}


def outside_prime(factors, rng):
    return rng.choice([p for p in PRIMES if math.prod(factors) % p])


# -- requests -----------------------------------------------------------------

class _Manifest:
    """Collects documents and requests; documents are referenced as @name."""

    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.manifest = {"workload": workload, "seed": seed, "docs": {}, "requests": []}

    def doc(self, name, body):
        self.manifest["docs"][name] = body
        return "@" + name

    def cli(self, rid, argv, **expect):
        expect.setdefault("exit", 0)
        self.manifest["requests"].append({"id": rid, "argv": argv, "expect": expect})

    def compare(self, rid, a, b, status, certificate=None, witness=None):
        exit_code = {"equivalent": 0, "inequivalent": 3, "unknown": 4}[status]
        self.cli(
            rid, ["compare", a, b, "--format", "json"], check="compare", exit=exit_code,
            status=status, certificate=certificate, witness=witness,
        )

    def sweep(self, rid, diagram, reference, status, certificate=None, witness=None):
        self.manifest["requests"].append({
            "id": rid, "diagram": diagram, "reference": reference,
            "expect": {"status": status, "certificate": certificate, "witness": witness},
        })


# The groups of each cli-cold request family.  A round should take well
# under ten seconds, because a run repeats it at least three times.
TRANSLATION_GROUPS = ((2,), (3,))
SCALED_GROUPS = ((4,),)
TWO_LEVEL_GROUPS = ((4,),)
FUSION_TABLE_GROUPS = ((5,), (2, 2), (6,))


def _name(factors):
    return "x".join(map(str, factors))


def _cli_cold(b: _Manifest):
    rng = b.rng
    # README F, G, H, E over Z/4 with their known witnesses and certificates.
    z4 = (4,)
    Q1, Q2, Q3 = subgroups(z4)
    F = b.doc("F", translation_action(z4, Q1, rng))
    G = b.doc("G", translation_action(z4, Q2, rng))
    H = b.doc("H", translation_action(z4, Q3, rng))
    E = b.doc("E", readme_e(rng))
    b.compare("readme-F-G", F, G, "equivalent", witness={"Q1": "1", "Q2": "1/2", "Q3": "1/2"})
    b.compare("readme-G-H", G, H, "equivalent", witness={"Q1": "1", "Q2": "1", "Q3": "1/2"})
    b.compare("readme-E-F", E, F, "inequivalent", certificate="rank")
    b.compare("readme-E-E", E, E, "unknown")

    # Translation actions of two distinct subgroups: equivalent.
    for factors in TRANSLATION_GROUPS:
        subs = subgroups(factors)
        i, j = sorted(rng.sample(range(len(subs)), 2))
        name = _name(factors)
        a = b.doc(f"t{name}-{i}", translation_action(factors, subs[i], rng))
        c = b.doc(f"t{name}-{j}", translation_action(factors, subs[j], rng))
        b.compare(f"translation-{name}", a, c, "equivalent")

    # Scaled generator weights and multiplicities of one translation action.
    for factors in SCALED_GROUPS:
        subs = subgroups(factors)
        name = _name(factors)
        base = translation_action(factors, subs[len(subs) // 2], rng)
        k = rng.choice(sorted(prime_set(math.prod(factors))))
        q = outside_prime(factors, rng)
        p = outside_prime(factors, rng)
        a = b.doc(f"base-{name}", base)
        b.compare(f"weights-unit-{name}", a, b.doc(f"w{k}-{name}", scaled(base, weights=k)),
                  "equivalent", witness=uniform_witness(factors, k))
        b.compare(f"weights-obstruction-{name}", a, b.doc(f"w{q}-{name}", scaled(base, weights=q)),
                  "inequivalent", certificate="unit-obstruction")
        b.compare(f"mult-prime-{name}", a, b.doc(f"m{p}-{name}", scaled(base, mult=p)),
                  "inequivalent", certificate="prime-set")

    # Seeded heterogeneous two-level diagrams.
    for factors in TWO_LEVEL_GROUPS:
        subs = subgroups(factors)
        H = subs[len(subs) // 2]
        name = _name(factors)
        weights = [rng.randint(1, 3) for _ in range(math.prod(factors))]
        d = two_level(factors, H, rng, weights)
        a = b.doc(f"two-level-{name}", d)
        b.cli(f"invariant-two-level-{name}", ["invariant", a, "--format", "json"],
              check="invariant", objects=len(subs))
        k = rng.choice(sorted(prime_set(math.prod(factors))))
        b.compare(f"two-level-weights-{name}", a, b.doc(f"two-level-w{k}-{name}", scaled(d, weights=k)),
                  "equivalent", witness=uniform_witness(factors, k))

    for factors in FUSION_TABLE_GROUPS:
        name = _name(factors)
        g = b.doc(f"group-{name}", {"cyclic_factors": list(factors)})
        b.cli(f"fusion-table-{name}", ["fusion-table", g, "--format", "json"], check="fusion-table")


SWEEP_GROUPS = ((4,), (6,), (2, 2), (8,))


def _sweep_warm(b: _Manifest):
    """In-process requests: one invariant of a diagram against a reference.

    The reference of each group is its regular action (the translation action
    of the trivial subgroup); every request pairs a diagram with it.
    """
    rng = b.rng
    for factors in SWEEP_GROUPS:
        subs = subgroups(factors)
        name = _name(factors)
        base = translation_action(factors, subs[0], rng)
        ref = b.doc(f"ref-{name}", base)
        for i in range(1, len(subs)):
            b.sweep(f"translation-{name}-{i}", b.doc(f"t{name}-{i}", translation_action(factors, subs[i], rng)),
                    ref, "equivalent")
        k = rng.choice(sorted(prime_set(math.prod(factors))))
        q = outside_prime(factors, rng)
        p = outside_prime(factors, rng)
        b.sweep(f"weights-unit-{name}", b.doc(f"w{k}-{name}", scaled(base, weights=k)), ref,
                "equivalent", witness={label: str(Fraction(1, k)) for label in labels(factors)})
        b.sweep(f"weights-obstruction-{name}", b.doc(f"w{q}-{name}", scaled(base, weights=q)), ref,
                "inequivalent", certificate="unit-obstruction")
        b.sweep(f"mult-prime-{name}", b.doc(f"m{p}-{name}", scaled(base, mult=p)), ref,
                "inequivalent", certificate="prime-set")


# The seed permutes fixed multisets of entries and fixes block sizes, so the
# size of every big integer, and with it the cost of a request, does not
# depend on it.

def _spread(n, values, rng):
    """A seeded order of n entries cycling through ``values``."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _rank_one(n, rng):
    a, c = _spread(n, (1, 2, 3), rng), _spread(n, (1, 2, 3), rng)
    return [[x * y for y in c] for x in a], [sum(x * y for x, y in zip(a, c))]


def _direct_sum(n, rng):
    """Three rank-one blocks of sizes n/2, n/4 and n/4 along the diagonal."""
    sizes = (n - 2 * (n // 4), n // 4, n // 4)
    M = [[0] * n for _ in range(n)]
    eigenvalues, at = [], 0
    for size in sizes:
        block, (lam,) = _rank_one(size, rng)
        for i in range(size):
            M[at + i][at : at + size] = block[i]
        eigenvalues.append(lam)
        at += size
    return M, eigenvalues


def _opaque(n, rng):
    """a·aᵀ + D with D a positive diagonal: positive definite, so invertible and
    of rank n > 1, and connected because every entry is positive."""
    a, d = _spread(n, (1, 2), rng), _spread(n, (1, 2, 3), rng)
    return [[a[i] * a[j] + (i == j) * d[i] for j in range(n)] for i in range(n)], []


MATRIX_KINDS = {"rank-one": _rank_one, "direct-sum": _direct_sum, "opaque": _opaque}


def stationary(factors, M, weights, rng, perm=None):
    """All vertices trivial; each edge pair (v, w) carries every coset of G, M[w][v] times.

    Under ``perm`` vertex v becomes perm[v]: an isomorphic diagram.
    """
    n = len(M)
    perm = perm or list(range(n))
    trivial = closure(factors, [])
    chi = {trivial[0]: Fraction(0)}
    edges = [
        {"from": perm[v], "to": perm[w], "multiplicity": M[w][v],
         "bimodule": bimodule(factors, trivial, trivial, g, chi, rng)}
        for w in range(n) for v in range(n) if M[w][v]
        for g in elements(factors)
    ]
    rng.shuffle(edges)
    order = math.prod(factors)
    blocks = [weights[v * order : (v + 1) * order] for v in range(n)]
    moved = [None] * n
    for v in range(n):
        moved[perm[v]] = blocks[v]
    return {
        "group": {"cyclic_factors": list(factors)},
        "levels": [[{"generators": []} for _ in range(n)]],
        "edges": [edges],
        "generator_weights": [w for block in moved for w in block],
    }


# (group, vertices per level, tail kind, requests).  "k0" identifies the
# tail matrix alone; "permuted" compares the diagram with a vertex-permuted
# copy (equivalent for rank-one tails, unknown otherwise); "prime" compares
# it with every multiplicity scaled by a new prime (a prime-set certificate).
K0_REQUESTS = (
    ((1,), 48, "rank-one", ("k0", "prime")),
    ((1,), 32, "direct-sum", ("k0", "permuted")),
    ((1,), 32, "opaque", ("k0",)),
    ((2,), 16, "rank-one", ("permuted",)),
    ((2,), 16, "direct-sum", ("prime",)),
    ((2,), 16, "opaque", ("permuted",)),
    ((3,), 16, "rank-one", ("permuted",)),
    ((3,), 16, "opaque", ("k0",)),
)


def _k0_wide(b: _Manifest):
    rng = b.rng
    for factors, n, kind, requests in K0_REQUESTS:
        order = math.prod(factors)
        name = f"{kind}-{order}-{n}"
        M, eigenvalues = MATRIX_KINDS[kind](n, rng)
        weights = [rng.randint(1, 3) for _ in range(n * order)]
        d = b.doc(name, stationary(factors, M, weights, rng))
        if "k0" in requests:
            m = b.doc(f"matrix-{name}", {"rows": M})
            b.cli(f"k0-{name}", ["k0", "--matrix", m, "--format", "json"], check="k0", variant=kind)
        if "permuted" in requests:
            perm = list(range(n))
            rng.shuffle(perm)
            c = b.doc(f"{name}-permuted", stationary(factors, M, weights, rng, perm))
            if kind == "rank-one":
                b.compare(f"permuted-{name}", d, c, "equivalent", witness=uniform_witness(factors, 1))
            else:
                b.compare(f"permuted-{name}", d, c, "unknown")
        if "prime" in requests:
            # A prime of fixed size, so the scaled entries cost the same for every seed.
            p = next(q for q in (97, 101, 103) if order * math.prod(eigenvalues) % q)
            scaled_m = [[x * p for x in row] for row in M]
            e = b.doc(f"{name}-times{p}", stationary(factors, scaled_m, weights, rng))
            b.compare(f"prime-{name}", d, e, "inequivalent", certificate="prime-set")


# Half of these requests cost within about 10 % of each other, so that the
# median request is not a jump between two very different costs.
LATTICE_QSYSTEMS = ((64,), (128,), (3, 9), (2, 32), (4, 16), (2, 2, 2, 2), (9, 9))
LATTICE_ORACLE = ((64,), (3, 9), (81,), (2, 8), (32,))


def _lattice(b: _Manifest):
    for command, groups in (("qsystems", LATTICE_QSYSTEMS), ("oracle", LATTICE_ORACLE)):
        for factors in groups:
            name = _name(factors)
            g = b.doc(f"group-{name}", {"cyclic_factors": list(factors)})
            b.cli(f"{command}-{name}", [command, g, "--format", "json"], check=command,
                  subgroups=subgroup_count(factors))


_WORKLOADS = {"cli-cold": _cli_cold, "sweep-warm": _sweep_warm, "k0-wide": _k0_wide, "lattice": _lattice}


def build(workload: str, seed: int) -> dict:
    """The manifest of one workload: its documents and its ordered requests."""
    b = _Manifest(workload, seed)
    _WORKLOADS[workload](b)
    b.rng.shuffle(b.manifest["requests"])
    if workload != "sweep-warm":
        # The set-up probe: a no-op fresh process, qsystems on Z/1.
        b.manifest["setup"] = {
            "id": "setup", "argv": ["qsystems", b.doc("z1", {"cyclic_factors": [1]}), "--format", "json"],
            "expect": {"exit": 0, "check": "qsystems", "subgroups": 1},
        }
    return b.manifest


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write(manifest: dict, out_dir: str) -> None:
    """Write each document as <name>.json and the manifest beside them."""
    os.makedirs(out_dir, exist_ok=True)
    for name, body in manifest["docs"].items():
        with open(os.path.join(out_dir, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(dumps(body))
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(manifest))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)
    for w in args.workload or WORKLOADS:
        write(build(w, args.seed), os.path.join(args.out, w))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

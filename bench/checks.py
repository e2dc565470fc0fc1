"""Output checks for CLI requests; a request that fails one counts as failed.

Each check compares a request's exit code and JSON output with the outcome
``gen.py`` recorded when it built the input, never with another afinv run.
"""

from __future__ import annotations

import json

import gen


def _compare(expect, doc):
    if doc.get("verdict") != expect["status"]:
        return f"verdict {doc.get('verdict')}, expected {expect['status']}"
    kind = (doc.get("certificate") or {}).get("kind")
    if kind != expect["certificate"]:
        return f"certificate {kind}, expected {expect['certificate']}"
    if expect["witness"] is not None and doc.get("witness") != expect["witness"]:
        return f"witness {doc.get('witness')}, expected {expect['witness']}"
    return None


def _invariant(expect, doc):
    variants = [o["variant"] for o in doc["objects"].values()]
    if len(doc["labels"]) != expect["objects"] or len(variants) != expect["objects"]:
        return f"{len(doc['labels'])} objects, expected {expect['objects']}"
    if any(v != "rank-one" for v in variants):
        return f"object forms {variants}, expected all rank-one"
    return None


def _fusion_table(expect, doc):
    """Every product conserves dimension and every composable pair has one.

    A simple H-K bimodule has dimension |H+K|, and composing over the middle
    Q-system K divides by |K|: dim(S1 ⊗_K S2) = dim S1 · dim S2 / |K|.
    """
    factors = tuple(doc["group"]["cyclic_factors"])

    def sub(gens):
        return gen.closure(factors, [tuple(g) for g in gens])

    simples = []
    for s in doc["simples"]:
        H, K = sub(s["source_generators"]), sub(s["target_generators"])
        simples.append((H, K, len(gen.closure(factors, list(H) + list(K)))))
    composable = sum(1 for a in simples for b in simples if a[1] == b[0])
    if len(doc["products"]) != composable:
        return f"{len(doc['products'])} products, expected {composable} composable pairs"
    for key, terms in doc["products"].items():
        i, j = (int(x) for x in key.split(","))
        (_, K, dim_i), (_, _, dim_j) = simples[i], simples[j]
        got = sum(t["multiplicity"] * simples[t["index"]][2] for t in terms)
        if got * len(K) != dim_i * dim_j:
            return f"product {key} has dimension {got}, expected {dim_i * dim_j / len(K)}"
    return None


def _oracle(expect, doc):
    if doc.get("all_ok") is not True:
        return "oracle reports a failed pair"
    if len(doc["pairs"]) != expect["subgroups"] ** 2:
        return f"{len(doc['pairs'])} oracle pairs, expected {expect['subgroups'] ** 2}"
    return None


def _qsystems(expect, doc):
    if len(doc["qsystems"]) != expect["subgroups"]:
        return f"{len(doc['qsystems'])} Q-systems, expected {expect['subgroups']}"
    return None


def _k0(expect, doc):
    if doc.get("variant") != expect["variant"]:
        return f"form {doc.get('variant')}, expected {expect['variant']}"
    return None


CHECKS = {
    "compare": _compare,
    "invariant": _invariant,
    "fusion-table": _fusion_table,
    "oracle": _oracle,
    "qsystems": _qsystems,
    "k0": _k0,
}


def check(expect: dict, exit_code: int, stdout: bytes, stderr: str):
    """None when the request behaved as built, else why it failed."""
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if exit_code != expect["exit"]:
        return f"exit {exit_code}, expected {expect['exit']}: {stderr.strip()[-200:]}"
    try:
        doc = json.loads(stdout)
        return CHECKS[expect["check"]](expect, doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}"

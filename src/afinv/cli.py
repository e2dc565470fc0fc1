"""Command-line interface.

Subcommands cover the whole pipeline: enumerating Q-systems and simple
bimodules, printing composition tables, computing the invariant of a diagram,
comparing two diagrams, running the crossed-product consistency oracle, and
identifying a single stationary matrix.

Exit codes: 0 success (or verdict "equivalent"), 1 bad input, a usage error,
a refused resource bound, a result too long to print or a request that ran
out of memory, 2 internal consistency failure or a failed oracle, 3 verdict
"inequivalent", 4 verdict "unknown".

The CLI alone bounds the order of the groups it reads (``--max-group-order``);
the library functions take no bounds.

Each subcommand but ``fusion-table`` builds one document, the JSON it prints,
and renders its text from that document alone, so the formats cannot drift
and a JSON request builds no text.  ``fusion-table`` builds only the format it
prints: its document for (Z/2)^4 is far larger than its text.

Each request is one process, so the CLI loads only what its subcommand runs.
Importing this module registers ``compare``, ``crossed``, ``diagrams`` and
``k0`` to be executed on their first attribute access; ``qsystems``,
``bimodules`` and ``fusion-table`` run none of them, ``oracle`` runs
``crossed`` and ``k0`` runs ``k0``.  A module imported before this one is
reused as it is.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import warnings


def _lazy(name: str):
    """``afinv.<name>``, compiled and executed on its first attribute access.

    A module imported before is returned as it is, so no second copy appears.
    A new one goes into ``sys.modules`` and onto the package, where
    ``from . import name`` finds it without loading it.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Before serialize, which takes diagrams and k0 from the package.
compare, crossed, diagrams, k0 = map(_lazy, ("compare", "crossed", "diagrams", "k0"))

from . import serialize as ser
from .bimodules import (
    bimodule_label,
    fusion_table,
    qsystem_label,
    qsystems,
    simple_bimodules,
    simples_by_pair,
    simples_of,
)
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    OracleFailureError,
    ResourceLimitError,
)

__all__ = ["main", "run"]

# The group-order bounds the CLI admits by default.  A fusion table is
# quadratic in the simple count, so it gets the smaller one.
DEFAULT_ORDER_BOUND = 512
FUSION_TABLE_ORDER_BOUND = 16


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # bad JSON or UTF-8, an integer past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror or exc}") from exc


def _emit(args, doc, render) -> None:
    """Print ``doc`` as JSON, or the list of lines ``render(doc)`` builds before any is printed."""
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in render(doc):
            print(line)


def _admit(args, G) -> None:
    """Refuse a group above the subcommand's order bound, before any work on it."""
    if G.order > args.max_group_order:
        raise ResourceLimitError(
            f"group order {G.order} exceeds the bound {args.max_group_order}"
        )


def _load_group(args, path: str):
    G = ser.group_from_json(_load_json(path))
    _admit(args, G)
    return G


def _load_diagram(args, path: str):
    doc = _load_json(path)
    # Admit the group before diagram_from_json builds any subgroup of it; a
    # document without a group object is left for the parser to reject.
    if isinstance(doc, dict) and isinstance(doc.get("group"), dict):
        _admit(args, ser.group_from_json(doc["group"]))
    return ser.diagram_from_json(doc)


def _fmt_terms(labels, terms) -> str:
    parts = []
    for idx, mult in terms:
        parts.append(labels[idx] if mult == 1 else f"{mult}*{labels[idx]}")
    return " + ".join(parts)


def _render_columns(header, rows) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    out = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(header)).rstrip()]
    for row in rows:
        out.append("  ".join(c.ljust(widths[k]) for k, c in enumerate(row)).rstrip())
    return out


def _cmd_fusion_table(args) -> int:
    G = _load_group(args, args.group)
    products = fusion_table(G)
    # on both paths: qsystems warns when twisted Q-systems are left out
    reps = qsystems(G)
    # no renderer here: for (Z/2)^4 the document is far larger than the text
    if args.format == "json":
        _emit(args, ser.fusion_table_to_json(G, products), None)
        return 0
    simples = simples_of(G)
    labels = [bimodule_label(s) for s in simples]
    lines = [f"simple bimodules of Hilb({G}): {len(labels)}"]
    for mi, mid in enumerate(reps):
        rows_of = [i for i, s in enumerate(simples) if s.target == mid]
        cols_of = [j for j, s in enumerate(simples) if s.source == mid]
        lines.append("")
        lines.append(f"products through {qsystem_label(mi)}:")
        header = ["left \\ right"] + [labels[j] for j in cols_of]
        rows = []
        for i in rows_of:
            row = [labels[i]]
            for j in cols_of:
                row.append(_fmt_terms(labels, products[i, j]))
            rows.append(row)
        lines.extend(_render_columns(header, rows))
    _emit(args, None, lambda _: lines)
    return 0


def _group_text(doc) -> str:
    return str(ser.group_from_json(doc["group"]))


def _k0_text(doc) -> str:
    """A ``k0_to_json`` document as one line, without its label."""
    def image(form):
        return f"{form['scale']} * Z[1/{k0.prime_set_text(form['prime_set'])}]"

    if doc["variant"] == "rank-one":
        return f"rank 1, image {image(doc)} (eigenvalue {doc['eigenvalue']})"
    if doc["variant"] == "direct-sum":
        return f"rank {len(doc['blocks'])}, direct sum " + " + ".join(map(image, doc["blocks"]))
    return f"rank {doc['rank']} (no closed identification)"


def _cmd_qsystems(args) -> int:
    G = _load_group(args, args.group)
    entries = [
        {"label": qsystem_label(k), "subgroup": ser.subgroup_to_json(H), "order": H.order,
         "schur_trivial": H.is_cyclic()}
        for k, H in enumerate(qsystems(G))
    ]
    _emit(args, {"group": ser.group_to_json(G), "qsystems": entries}, _qsystems_text)
    return 0


def _qsystems_text(doc) -> list[str]:
    lines = [f"Q-systems of Hilb({_group_text(doc)}): {len(doc['qsystems'])}"]
    for q in doc["qsystems"]:
        gens = ", ".join(str(g) for g in q["subgroup"]["generators"]) or "0"
        lines.append(
            f"  {q['label']}: order {q['order']}, generated by {gens}"
            + ("" if q["schur_trivial"] else "  [may admit nontrivial twists]")
        )
    return lines


def _cmd_bimodules(args) -> int:
    G = _load_group(args, args.group)
    reps = qsystems(G)
    if not (1 <= args.source <= len(reps) and 1 <= args.target <= len(reps)):
        raise InvalidInputError(f"source/target must be between 1 and {len(reps)}")
    sims = simple_bimodules(reps[args.source - 1], reps[args.target - 1])
    doc = {
        "group": ser.group_to_json(G),
        "source": qsystem_label(args.source - 1),
        "target": qsystem_label(args.target - 1),
        "bimodules": [
            {"label": bimodule_label(s), "dimension": s.dimension, **ser.bimodule_to_json(s)}
            for s in sims
        ],
    }
    _emit(args, doc, _bimodules_text)
    return 0


def _bimodules_text(doc) -> list[str]:
    lines = [f"simple {doc['source']}-{doc['target']} bimodules: {len(doc['bimodules'])}"]
    for b in doc["bimodules"]:
        lines.append(f"  {b['label']}: dimension {b['dimension']}, coset rep {b['coset_rep']}")
    return lines


def _cmd_invariant(args) -> int:
    inv = diagrams.compute_invariant(_load_diagram(args, args.diagram))
    _emit(args, ser.invariant_to_json(inv), _invariant_text)
    return 0


def _invariant_text(doc) -> list[str]:
    lines = [f"invariant over Hilb({_group_text(doc)})", "objects:"]
    lines += [f"  {label}: {_k0_text(doc['objects'][label])}" for label in doc["labels"]]
    lines.append("multipliers:")
    for m in doc["morphisms"]:
        shown = "undefined" if m["multiplier"] is None else m["multiplier"]
        lines.append(f"  {m['label']}: {shown}")
    pointed = "pointed class" if isinstance(doc["pointed"], str) else "pointed class vector"
    return lines + [f"{pointed}: {doc['pointed']}"]


def _cmd_compare(args) -> int:
    # Refuse a bad second document or a second group before either invariant is computed.
    d1, d2 = _load_diagram(args, args.first), _load_diagram(args, args.second)
    compare._check_preconditions(d1, d2)
    inv1, inv2 = diagrams.compute_invariant(d1), diagrams.compute_invariant(d2)
    verdict = compare.compare(inv1, inv2, se_lag=args.se_lag, se_entries=args.se_entries)
    _emit(args, ser.verdict_to_json(verdict), _verdict_text)
    return verdict.exit_code


def _verdict_text(doc) -> list[str]:
    lines = [f"verdict: {doc['verdict']}"]
    if "witness" in doc:
        lines.append("witness:")
        lines += [f"  {label} -> {u}" for label, u in doc["witness"].items()]
    if "certificate" in doc:
        c = doc["certificate"]
        lines.append(f"certificate: {c['kind']} at {c['at']}: {c['left']} vs {c['right']}")
    if "reason" in doc:
        lines.append(f"reason: {doc['reason']}")
    return lines


def _cmd_oracle(args) -> int:
    G = _load_group(args, args.group)
    reps = qsystems(G)
    by_pair = simples_by_pair(G)
    pairs = []
    for i, P in enumerate(reps):
        for j, Q in enumerate(reps):
            categorical = len(by_pair[P, Q])
            rank = len(crossed.crossed_product_blocks(G, Q, P))
            pairs.append({"source": qsystem_label(i), "target": qsystem_label(j),
                          "categorical": categorical, "crossed_rank": rank,
                          "ok": categorical == rank})
    all_ok = all(p["ok"] for p in pairs)
    _emit(args, {"group": ser.group_to_json(G), "pairs": pairs, "all_ok": all_ok}, _oracle_text)
    if not all_ok:
        raise OracleFailureError("categorical and crossed-product counts disagree")
    return 0


def _oracle_text(doc) -> list[str]:
    lines = [f"crossed-product oracle over Hilb({_group_text(doc)})"]
    for p in doc["pairs"]:
        lines.append(
            f"  {p['source']} -> {p['target']}: bimodules {p['categorical']}, "
            f"crossed K0 rank {p['crossed_rank']}: {'PASS' if p['ok'] else 'FAIL'}"
        )
    lines.append("oracle: " + ("PASS" if doc["all_ok"] else "FAIL"))
    return lines


def _cmd_k0(args) -> int:
    sys_ = ser.matrix_from_json(_load_json(args.matrix))
    _emit(args, ser.k0_to_json(k0.stationary_k0(sys_)), _matrix_text)
    return 0


def _matrix_text(doc) -> list[str]:
    return [f"matrix: {_k0_text(doc)}"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on the input-error exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int):
    """The argparse type of an integer option that refuses values below ``minimum``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    return parse


def _add_order_bound(p, default: int) -> None:
    # Declared per subparser: argparse shares a parent parser's actions
    # between subparsers, so one default set there would leak into all.
    p.add_argument(
        "--max-group-order", type=_int_at_least(1), default=default, metavar="N",
        help=f"refuse groups with more than N elements (default {default})",
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    parser = _Parser(
        prog="afinv",
        description="Exact invariants of AF-actions of pointed fusion categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fusion-table", parents=[common],
                       help="all simple bimodules and their compositions")
    p.add_argument("group", help="group JSON file (or - for stdin)")
    _add_order_bound(p, FUSION_TABLE_ORDER_BOUND)
    p.set_defaults(handler=_cmd_fusion_table)

    p = sub.add_parser("qsystems", parents=[common],
                       help="representative Q-systems of the category")
    p.add_argument("group")
    _add_order_bound(p, DEFAULT_ORDER_BOUND)
    p.set_defaults(handler=_cmd_qsystems)

    p = sub.add_parser("bimodules", parents=[common],
                       help="simple bimodules between two Q-systems")
    p.add_argument("group")
    p.add_argument("--source", type=int, required=True, metavar="I",
                   help="1-based index of the source Q-system")
    p.add_argument("--target", type=int, required=True, metavar="J",
                   help="1-based index of the target Q-system")
    _add_order_bound(p, DEFAULT_ORDER_BOUND)
    p.set_defaults(handler=_cmd_bimodules)

    p = sub.add_parser("invariant", parents=[common],
                       help="compute the pointed invariant of a diagram")
    p.add_argument("diagram")
    _add_order_bound(p, DEFAULT_ORDER_BOUND)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("compare", parents=[common],
                       help="decide equivalence of two diagrams")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--se-lag", type=_int_at_least(0), default=0, metavar="L",
                   help="probe bounded shift equivalence up to this lag")
    p.add_argument("--se-entries", type=_int_at_least(0), default=0, metavar="E",
                   help="entry bound for the shift-equivalence probe")
    _add_order_bound(p, DEFAULT_ORDER_BOUND)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("oracle", parents=[common],
                       help="cross-check simple counts against crossed products")
    p.add_argument("group")
    _add_order_bound(p, DEFAULT_ORDER_BOUND)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("k0", parents=[common],
                       help="identify the limit of one stationary matrix")
    p.add_argument("--matrix", required=True, metavar="FILE",
                   help="matrix JSON file (or - for stdin)")
    p.set_defaults(handler=_cmd_k0)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.handler(args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalConsistencyError, OracleFailureError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a result too long to print: every renderer converts before anything is printed
        if "integer string conversion" not in str(exc):
            raise
        print("error: a result is too long to print (sys.set_int_max_str_digits)", file=sys.stderr)
        return 1


def run() -> None:
    """The ``afinv`` process: run ``main``, flush its output and exit with its code.

    The process ends by ``os._exit`` right after the flushes, so the
    interpreter's shutdown, and the full collections it would make of objects
    about to be freed, never run.  ``main`` itself ends nothing, so an
    in-process caller keeps its interpreter.  A reader that closes the output
    pipe early (``afinv ... | head``) ends the process with exit code 1 and no
    traceback: what is left in the buffer goes nowhere.  Any other exception,
    ``SystemExit`` from argparse included, leaves as it leaves ``main``.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

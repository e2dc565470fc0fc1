"""Command-line interface.

Subcommands cover the whole pipeline: enumerating Q-systems and simple
bimodules, printing composition tables, computing the invariant of a diagram,
comparing two diagrams, running the crossed-product consistency oracle, and
identifying a single stationary matrix.

Exit codes: 0 success (or verdict "equivalent"), 1 bad input, a usage error
or a refused resource bound, 2 internal consistency failure or a failed
oracle, 3 verdict "inequivalent", 4 verdict "unknown".

The CLI alone bounds the order of the groups it reads (``--max-group-order``);
the library functions take no bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings

from . import serialize as ser
from .bimodules import (
    bimodule_label,
    fusion_table,
    qsystem_label,
    qsystems,
    simple_bimodules,
    simples_by_pair,
)
from .compare import _check_preconditions, compare
from .crossed import crossed_product_blocks
from .diagrams import compute_invariant
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    OracleFailureError,
    ResourceLimitError,
)
from .k0 import DirectSumForm, RankOneForm, prime_set_text, stationary_k0

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


def _emit(args, doc, lines) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
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
    table = fusion_table(G)
    labels = table.labels()
    doc = ser.fusion_table_to_json(table)

    lines = [f"simple bimodules of Hilb({G}): {len(labels)}"]
    for mi, mid in enumerate(qsystems(G)):
        rows_of = [i for i, s in enumerate(table.simples) if s.target == mid]
        cols_of = [j for j, s in enumerate(table.simples) if s.source == mid]
        lines.append("")
        lines.append(f"products through {qsystem_label(mi)}:")
        header = ["left \\ right"] + [labels[j] for j in cols_of]
        rows = []
        for i in rows_of:
            row = [labels[i]]
            for j in cols_of:
                row.append(_fmt_terms(labels, table.product(i, j)))
            rows.append(row)
        lines.extend(_render_columns(header, rows))
    _emit(args, doc, lines)
    return 0


def _cmd_qsystems(args) -> int:
    G = _load_group(args, args.group)
    reps = qsystems(G)
    entries = []
    lines = [f"Q-systems of Hilb({G}): {len(reps)}"]
    for k, H in enumerate(reps):
        entry = {
            "label": qsystem_label(k),
            "subgroup": ser.subgroup_to_json(H),
            "order": H.order,
            "schur_trivial": H.is_cyclic(),
        }
        entries.append(entry)
        gens = ", ".join(str(g) for g in entry["subgroup"]["generators"]) or "0"
        lines.append(
            f"  {entry['label']}: order {H.order}, generated by {gens}"
            + ("" if entry["schur_trivial"] else "  [may admit nontrivial twists]")
        )
    doc = {"group": ser.group_to_json(G), "qsystems": entries}
    _emit(args, doc, lines)
    return 0


def _cmd_bimodules(args) -> int:
    G = _load_group(args, args.group)
    reps = qsystems(G)
    if not (1 <= args.source <= len(reps) and 1 <= args.target <= len(reps)):
        raise InvalidInputError(
            f"source/target must be between 1 and {len(reps)}"
        )
    P = reps[args.source - 1]
    Q = reps[args.target - 1]
    sims = simple_bimodules(P, Q)
    source, target = qsystem_label(args.source - 1), qsystem_label(args.target - 1)
    doc = {
        "group": ser.group_to_json(G),
        "source": source,
        "target": target,
        "bimodules": [
            {
                "label": bimodule_label(s),
                "dimension": s.dimension,
                **ser.bimodule_to_json(s),
            }
            for s in sims
        ],
    }
    lines = [f"simple {source}-{target} bimodules: {len(sims)}"]
    for s in sims:
        lines.append(
            f"  {bimodule_label(s)}: dimension {s.dimension}, "
            f"coset rep {list(s.rep)}"
        )
    _emit(args, doc, lines)
    return 0


def _describe_object(label, desc) -> str:
    if isinstance(desc, RankOneForm):
        return (
            f"  {label}: rank 1, image {desc.scale} * Z[1/{prime_set_text(desc.prime_set)}] "
            f"(eigenvalue {desc.eigenvalue})"
        )
    if isinstance(desc, DirectSumForm):
        parts = [f"{b.scale} * Z[1/{prime_set_text(b.prime_set)}]" for b in desc.blocks]
        return f"  {label}: rank {desc.rank}, direct sum " + " + ".join(parts)
    return f"  {label}: rank {desc.rank} (no closed identification)"


def _cmd_invariant(args) -> int:
    inv = compute_invariant(_load_diagram(args, args.diagram))
    doc = ser.invariant_to_json(inv)
    lines = [f"invariant over Hilb({inv.group})", "objects:"]
    for k, label in enumerate(inv.labels):
        lines.append(_describe_object(label, inv.objects[k]))
    lines.append("multipliers:")
    for X, q in inv.morphisms:
        shown = "undefined" if q is None else str(q)
        lines.append(f"  {bimodule_label(X)}: {shown}")
    pointed = doc["pointed"]
    lines.append(
        f"pointed class: {pointed}"
        if isinstance(pointed, str)
        else f"pointed class vector: {pointed}"
    )
    _emit(args, doc, lines)
    return 0


def _cmd_compare(args) -> int:
    # Refuse a bad second document or a second group before either invariant is computed.
    d1, d2 = _load_diagram(args, args.first), _load_diagram(args, args.second)
    _check_preconditions(d1, d2)
    inv1, inv2 = compute_invariant(d1), compute_invariant(d2)
    verdict = compare(inv1, inv2, se_lag=args.se_lag, se_entries=args.se_entries)
    doc = ser.verdict_to_json(verdict)
    lines = [f"verdict: {verdict.status}"]
    if verdict.witness is not None:
        lines.append("witness:")
        for label, u in verdict.witness:
            lines.append(f"  {label} -> {u}")
    if verdict.certificate is not None:
        c = verdict.certificate
        lines.append(f"certificate: {c.kind} at {c.at}: {c.left} vs {c.right}")
    if verdict.reason is not None:
        lines.append(f"reason: {verdict.reason}")
    _emit(args, doc, lines)
    return verdict.exit_code


def _cmd_oracle(args) -> int:
    G = _load_group(args, args.group)
    reps = qsystems(G)
    pairs = []
    lines = [f"crossed-product oracle over Hilb({G})"]
    all_ok = True
    by_pair = simples_by_pair(G)
    for i, P in enumerate(reps):
        for j, Q in enumerate(reps):
            categorical = len(by_pair[P, Q])
            blocks = crossed_product_blocks(G, Q, P)
            ok = categorical == blocks.k0_rank
            all_ok = all_ok and ok
            source, target = qsystem_label(i), qsystem_label(j)
            pairs.append(
                {
                    "source": source,
                    "target": target,
                    "categorical": categorical,
                    "crossed_rank": blocks.k0_rank,
                    "ok": ok,
                }
            )
            lines.append(
                f"  {source} -> {target}: bimodules {categorical}, "
                f"crossed K0 rank {blocks.k0_rank}: {'PASS' if ok else 'FAIL'}"
            )
    lines.append("oracle: " + ("PASS" if all_ok else "FAIL"))
    doc = {"group": ser.group_to_json(G), "pairs": pairs, "all_ok": all_ok}
    _emit(args, doc, lines)
    if not all_ok:
        raise OracleFailureError("categorical and crossed-product counts disagree")
    return 0


def _cmd_k0(args) -> int:
    sys_ = ser.matrix_from_json(_load_json(args.matrix))
    desc = stationary_k0(sys_)
    doc = ser.k0_to_json(desc)
    lines = [_describe_object("matrix", desc).strip()]
    _emit(args, doc, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on the input-error exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _order_bound(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_order_bound(p, default: int) -> None:
    # Declared per subparser: argparse shares a parent parser's actions
    # between subparsers, so one default set there would leak into all.
    p.add_argument(
        "--max-group-order", type=_order_bound, default=default, metavar="N",
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
    p.add_argument("--se-lag", type=int, default=0, metavar="L",
                   help="probe bounded shift equivalence up to this lag")
    p.add_argument("--se-entries", type=int, default=0, metavar="E",
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


def run() -> None:
    """The ``afinv`` process: run ``main`` and exit with its code.

    Freezing every live object first spares the interpreter the full
    collections of its shutdown, which would only walk objects about to be
    freed.  ``main`` itself freezes nothing, so an in-process caller keeps
    collecting its own garbage.  A reader that closes the output pipe early
    (``afinv ... | head``) ends the process with exit code 1 and no
    traceback.  Any other exception, ``SystemExit`` from argparse included,
    leaves as it leaves ``main``.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes nowhere, so the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

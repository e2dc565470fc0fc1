"""CLI output bytes on the benchmark's requests must not drift.

``bench/gen.py`` builds the documents and requests of the three CLI
workloads.  This loads it by path, unchanged, writes the seed-1 and seed-2
manifests of ``cli-cold``, ``k0-wide`` and ``lattice``, runs
``afinv.cli.main`` in-process on every request (the set-up probe included) in
text and in JSON, and compares the sha256 of (exit code, stdout, stderr) with
the committed table of its seed, ``cli_output_digests.json`` for seed 1 and
``cli_output_digests_seed2.json`` for seed 2.  At seed 2, ``cli-cold`` and
``k0-wide`` draw other subgroups, primes and permutations.  A change to the
documents ``gen.py`` writes, or a deliberate change of output, regenerates
both tables:

    PYTHONPATH=src python tests/test_cli_outputs.py --write    # from the repository root

Without ``--write`` it prints the digests of any ``--seed`` as JSON, so two
checkouts can be compared by hand.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from afinv.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GEN = ROOT / "bench" / "gen.py"
HERE = pathlib.Path(__file__).resolve().parent
TABLES = {1: HERE / "cli_output_digests.json", 2: HERE / "cli_output_digests_seed2.json"}
WORKLOADS = ("cli-cold", "k0-wide", "lattice")


def load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def digests(seed, out_dir):
    """``{"<workload>/<request id>/<format>": sha256}`` over every request of ``seed``."""
    gen = load_gen()
    table = {}
    for workload in WORKLOADS:
        manifest = gen.build(workload, seed)
        inputs = pathlib.Path(out_dir) / workload
        gen.write(manifest, str(inputs))
        for req in [manifest["setup"], *manifest["requests"]]:
            argv = [str(inputs / (a[1:] + ".json")) if a.startswith("@") else a for a in req["argv"]]
            at = argv.index("--format") + 1
            for fmt in ("text", "json"):
                argv[at] = fmt
                table[f"{workload}/{req['id']}/{fmt}"] = _run(argv)
    return table


def test_cli_output_bytes_match_the_committed_digests(tmp_path):
    for seed, table in TABLES.items():
        expected = json.loads(table.read_text())
        got = digests(seed, tmp_path / str(seed))
        assert sorted(got) == sorted(expected), seed
        assert [name for name in sorted(got) if got[name] != expected[name]] == [], seed


def _table_text(table) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--write", action="store_true", help="rewrite the committed seed-1 and seed-2 tables")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.write:
            for seed, table in TABLES.items():
                table.write_text(_table_text(digests(seed, pathlib.Path(tmp) / str(seed))))
        else:
            sys.stdout.write(_table_text(digests(args.seed, tmp)))

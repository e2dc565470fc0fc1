"""Quick tests of the benchmark itself; they take a few seconds.

    python3 -m unittest discover -s bench -p 'test_*.py'    # from the repository root
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402

# The smallest instance of every request family the workloads build.
SMALLEST = {
    "TRANSLATION_GROUPS": ((2,),),
    "SCALED_GROUPS": ((2,),),
    "TWO_LEVEL_GROUPS": ((2,),),
    "FUSION_TABLE_GROUPS": ((2,),),
    "SWEEP_GROUPS": ((2,),),
    "K0_REQUESTS": tuple(
        (factors, 10, kind, requests)
        for factors in ((1,), (2,))
        for kind, requests in (("rank-one", ("k0", "permuted", "prime")),
                               ("direct-sum", ("k0", "permuted", "prime")),
                               ("opaque", ("k0", "permuted")))
    ),
    "LATTICE_QSYSTEMS": ((4,), (2, 2)),
    "LATTICE_ORACLE": ((4,), (2, 2)),
}


def _scratch():
    path = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(path, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=path)


def _run_cli(argv):
    import afinv.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = afinv.cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in gen.WORKLOADS:
            with _scratch() as a, _scratch() as b:
                gen.write(gen.build(workload, 5), a)
                gen.write(gen.build(workload, 5), b)
                self.assertEqual(sorted(os.listdir(a)), sorted(os.listdir(b)))
                for name in os.listdir(a):
                    with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                        self.assertEqual(fa.read(), fb.read(), f"{workload}/{name}")

    def test_other_seeds_give_other_inputs(self):
        for workload in gen.WORKLOADS:
            self.assertNotEqual(gen.dumps(gen.build(workload, 5)), gen.dumps(gen.build(workload, 6)))

    def test_closed_form_subgroup_counts(self):
        for factors in ((8,), (2, 4), (4, 4), (3, 9), (2, 2, 2), (3, 3)):
            self.assertEqual(gen.subgroup_count(factors), len(gen.subgroups(factors)), factors)


class ExpectationTest(unittest.TestCase):
    """Every by-construction expectation holds at the smallest size."""

    def setUp(self):
        patcher = mock.patch.multiple(gen, **SMALLEST)
        patcher.start()
        self.addCleanup(patcher.stop)

    def test_cli_workloads(self):
        for workload in ("cli-cold", "k0-wide", "lattice"):
            manifest = gen.build(workload, 3)
            with _scratch() as tmp:
                gen.write(manifest, tmp)
                for req in manifest["requests"] + [manifest["setup"]]:
                    argv = [os.path.join(tmp, a[1:] + ".json") if a.startswith("@") else a
                            for a in req["argv"]]
                    self.assertIsNone(checks.check(req["expect"], *_run_cli(argv)), req["id"])

    def test_sweep_workload(self):
        from afinv import compare as cmp, diagrams, serialize

        manifest = gen.build("sweep-warm", 3)
        docs = {k: serialize.diagram_from_json(v) for k, v in manifest["docs"].items()}
        for req in manifest["requests"]:
            inv = diagrams.compute_invariant(docs[req["diagram"][1:]])
            ref = diagrams.compute_invariant(docs[req["reference"][1:]])
            verdict = cmp.compare(inv, ref)
            self.assertIsNone(sweep._check(cmp, req["expect"], inv, ref, verdict), req["id"])

    def test_checks_reject_a_wrong_outcome(self):
        manifest = gen.build("cli-cold", 3)
        req = next(r for r in manifest["requests"] if r["id"] == "readme-F-G")
        wrong = {"verdict": "equivalent", "witness": {"Q1": "1", "Q2": "1", "Q3": "1"}}
        self.assertIsNotNone(checks.check(req["expect"], 0, json.dumps(wrong).encode(), ""))
        self.assertIsNotNone(checks.check(req["expect"], 3, b"{}", ""))


class MetricNamesTest(unittest.TestCase):
    """The names the benchmark prints are the ones BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_end_to_end(self):
        declared = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        self.assertEqual(declared, list(run.END_TO_END))
        sample = {"id": "a", "traced": False, "error": None, "wall_s": 1.0, "cpu_s": 0.9}
        self.assertEqual(list(run.end_to_end([0.3], [sample], 30.0)), [n for n, _ in declared])

    def test_per_layer(self):
        declared = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(declared, list(layers.PER_LAYER))
        metrics = layers.aggregate([{}], [1.0], [1.0], errors=0, imports=[(0.1, 0.1)])
        self.assertEqual(list(metrics), [n for n, _ in declared])

    def test_workloads(self):
        declared = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(declared, [w for w in gen.WORKLOADS if w != "sweep-warm"])

    def test_traced_request_records_spans_and_restores_functions(self):
        import afinv.bimodules
        import afinv.diagrams

        fuse = afinv.bimodules.fuse
        with mock.patch.multiple(gen, **SMALLEST), _scratch() as tmp:
            manifest = gen.build("cli-cold", 3)
            gen.write(manifest, tmp)
            rec = layers.Recorder()
            rec.install()
            try:
                self.assertIsNot(afinv.diagrams.fuse, fuse)
                code, _, _ = _run_cli(["invariant", os.path.join(tmp, "two-level-2.json")])
            finally:
                rec.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(afinv.diagrams.fuse, fuse)
        summary = rec.summary()
        self.assertEqual(summary["diagrams.compute_invariant.calls"], 1)
        self.assertEqual(summary["k0.form.rank_one"], summary["k0.stationary_k0.calls"])


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        """Outside a checkout of the repository the run fails and prints no result."""
        with _scratch() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

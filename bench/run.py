"""The afinv benchmark: one workload, one seed, one line of JSON metrics.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; afinv is run from ./src, never installed.  The
inputs come from ``gen.py`` and the seed.  The load is a closed loop with one
client and one request in flight.  The CLI workloads start one
``python -m afinv.cli`` process per request; ``sweep-warm`` calls the API in
a few long-lived processes (``sweep.py``).  A run repeats rounds of the
workload's fixed request set until --seconds have passed, to the nearest
whole round; an untraced CLI run makes at least three rounds.  Every output
is checked (``checks.py``).

With --trace 0 the last line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of ``layers.py``, and every request runs twice,
untraced and traced, in alternating order.  The lines before it give each
metric with its unit and sample count, the environment and where the raw
samples were written (.bench_results/).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import gen
import layers

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
REQUEST_TIMEOUT_S = 60
SETUP_REPEATS = 5     # no-op processes per CLI run; setup_s is their median
SWEEP_PROCESSES = 3   # sweep-warm set-ups per run; setup_s is their median
# Rounds per untraced CLI run at the least, so that every request is timed
# at three points of the run rather than once.
MIN_ROUNDS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_s.p50", "s"),
    ("cpu_s.per_req", "s"),
    ("peak_rss_mb", "MB"),
)


def _spawn(argv, out_path, err_path):
    """Run one child to completion: (wall s, cpu s, max RSS MB, exit code)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_env())
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def _env():
    src = os.path.join(ROOT, "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


class _Run:
    """One workload run: its scratch directory, inputs and samples."""

    def __init__(self, workload, seed, seconds, trace, tmp):
        self.seconds, self.trace, self.tmp = seconds, trace, tmp
        self.manifest = gen.build(workload, seed)
        self.inputs = os.path.join(tmp, "inputs")
        gen.write(self.manifest, self.inputs)
        self.samples = []
        self.setup = []
        self.imports = []
        self.peak_rss = 0.0
        self.rounds = 0

    def _argv(self, argv):
        return [os.path.join(self.inputs, a[1:] + ".json") if a.startswith("@") else a for a in argv]

    def cli_request(self, req, traced):
        out, err = os.path.join(self.tmp, "out"), os.path.join(self.tmp, "err")
        summary_path = os.path.join(self.tmp, "summary.json")
        if traced:
            argv = [sys.executable, os.path.join(BENCH, "tracer.py"), summary_path]
        else:
            argv = [sys.executable, "-m", "afinv.cli"]
        wall, cpu, rss, code = _spawn(argv + self._argv(req["argv"]), out, err)
        with open(out, "rb") as fh:
            stdout = fh.read()
        with open(err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        sample = {
            "id": req["id"], "traced": traced, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
            "exit": code, "errored": code in (1, 2),
            "error": checks.check(req["expect"], code, stdout, stderr),
        }
        if traced and sample["error"] is None:
            with open(summary_path, encoding="utf-8") as fh:
                sample["summary"] = json.load(fh)
            self.imports.append(sample["summary"].pop("import_s"))
        self.peak_rss = max(self.peak_rss, rss)
        return sample

    def _probe(self):
        """One no-op fresh process (the manifest's set-up request): its wall time."""
        s = self.cli_request(self.manifest["setup"], False)
        if s["error"]:
            raise RuntimeError(f"set-up request failed: {s['error']}")
        return s["wall_s"]

    def run_cli(self):
        # The first probe fills the bytecode caches and is not counted.  The
        # rest are spread over the run, so one slow spell of a shared machine
        # does not set the median.
        self._probe()
        self.setup += [self._probe() for _ in range(SETUP_REPEATS - MIN_ROUNDS)]
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for i, req in enumerate(self.manifest["requests"]):
                order = (False, True) if (self.rounds + i) % 2 == 0 else (True, False)
                for traced in order if self.trace else (False,):
                    self.samples.append(self.cli_request(req, traced))
            self.rounds += 1
            now = time.perf_counter()
            if self.rounds <= MIN_ROUNDS:
                self.setup.append(self._probe())
            enough = self.trace or self.rounds >= MIN_ROUNDS
            if enough and now - start + (now - r0) / 2 >= self.seconds:
                break

    def run_sweep(self):
        for k in range(SWEEP_PROCESSES):
            result = os.path.join(self.tmp, f"sweep{k}.json")
            argv = [sys.executable, os.path.join(BENCH, "sweep.py"), self.inputs,
                    str(self.seconds / SWEEP_PROCESSES), str(int(self.trace)), result,
                    repr(time.monotonic())]
            _, _, rss, code = _spawn(argv, os.path.join(self.tmp, "out"), os.path.join(self.tmp, "err"))
            if code != 0:
                with open(os.path.join(self.tmp, "err"), encoding="utf-8", errors="replace") as fh:
                    raise RuntimeError(f"sweep process exited {code}: {fh.read()[-2000:]}")
            with open(result, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.setup.append(doc["setup_s"])
            self.imports.append(doc["imports"])
            self.samples.extend(doc["samples"])
            self.rounds += doc["rounds"]
            self.peak_rss = max(self.peak_rss, rss)

    def per_layer(self):
        ok = [s for s in self.samples if not s["error"]]
        return layers.aggregate(
            [s["summary"] for s in ok if s["traced"]],
            traced_walls=[s["wall_s"] for s in ok if s["traced"]],
            untraced_walls=[s["wall_s"] for s in ok if not s["traced"]],
            errors=sum(1 for s in self.samples if s.get("errored")),
            imports=self.imports,
        )


def end_to_end(setup, samples, peak_rss):
    """The end-to-end metrics of one untraced run, by name."""
    ok = [s for s in samples if not s["traced"] and not s["error"]]
    walls = [s["wall_s"] for s in ok]
    return {
        "setup_s": statistics.median(setup),
        "throughput_rps": len(walls) / sum(walls),
        "latency_s.p50": statistics.median(walls),
        "cpu_s.per_req": sum(s["cpu_s"] for s in ok) / len(ok),
        "peak_rss_mb": peak_rss,
    }


def _git_sha():
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "numpy": numpy,
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; print its table and return the result object."""
    env = _environment()
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        run = _Run(workload, seed, seconds, trace, tmp)
        if workload == "sweep-warm":
            run.run_sweep()
        else:
            run.run_cli()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    if all(s["error"] for s in run.samples):
        raise RuntimeError("every request failed: " + run.samples[0]["error"])

    attempted = len(run.samples)
    failed = [s for s in run.samples if s["error"]]
    plain = [s["wall_s"] for s in run.samples if not s["traced"] and not s["error"]]
    if trace:
        units = dict(layers.PER_LAYER)
        metrics = run.per_layer()
    else:
        units = dict(END_TO_END)
        metrics = end_to_end(run.setup, run.samples, run.peak_rss)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}: {attempted} requests "
          f"in {run.rounds} round(s), {len(failed)} failed")
    for s in failed[:10]:
        print(f"  FAILED {s['id']} (traced={s['traced']}): {s['error']}")
    counts = {"setup_s": len(run.setup), "peak_rss_mb": attempted}
    n_default = sum(1 for s in run.samples if s["traced"]) if trace else len(plain)
    for name, value in metrics.items():
        n = counts.get(name, n_default)
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={n}")
    if not trace:
        if len(plain) >= 100:
            p90 = statistics.quantiles(plain, n=10)[8]
            print(f"  {'latency_s.p90':40s} {p90:14.6g} {'s':6s} n={len(plain)}")
        else:
            print(f"  {'latency_s.p90':40s} {'-':>14s} {'s':6s} n={len(plain)} (< 100)")
        print(f"  {'failed_frac':40s} {len(failed) / attempted:14.6g} {'frac':6s} n={attempted}")
    print("  env " + json.dumps(env))

    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json")
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "metrics": metrics, "setup_samples": run.setup,
        "samples": [{k: v for k, v in s.items() if k != "summary"} for s in run.samples],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    print(f"  raw samples: {os.path.relpath(path, ROOT)}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="afinv benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "afinv", "cli.py")):
        print("error: run from the repository root; src/afinv is missing", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans for the traced benchmark run, recorded from outside afinv.

``Recorder.install`` replaces each public function of a layer in every afinv
module namespace that holds it (``afinv.bimodules.fuse`` and
``afinv.diagrams.fuse`` alike), so calls between modules are seen without
changing ``src/``.  Each call records (name, start, end, parent) in memory;
``summary`` turns the spans into per-layer calls and self times, where a
span's self time is its duration minus the part its child spans cover.
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

# (span name, defining module, function[, the only namespaces to patch])
# (afinv.cli.main itself is spanned as "cli.main" by the caller.)
SPANS = (
    ("groups.subgroups", "afinv.groups", "subgroups"),
    ("groups.subgroup_sum", "afinv.groups", "subgroup_sum"),
    ("groups.subgroup_intersection", "afinv.groups", "subgroup_intersection"),
    ("groups.dual_characters", "afinv.groups", "dual_characters"),
    ("groups.coset_space", "afinv.groups", "coset_space"),
    ("crossed.crossed_product_blocks", "afinv.crossed", "crossed_product_blocks"),
    ("bimodules.fuse", "afinv.bimodules", "fuse"),
    ("bimodules.fusion_table", "afinv.bimodules", "fusion_table"),
    ("bimodules.simple_bimodules", "afinv.bimodules", "simple_bimodules"),
    ("bimodules.qsystems", "afinv.bimodules", "qsystems"),
    ("bimodules.bimodule_label", "afinv.bimodules", "bimodule_label"),
    ("diagrams.compute_invariant", "afinv.diagrams", "compute_invariant"),
    ("diagrams.object_diagram", "afinv.diagrams", "object_diagram"),
    ("diagrams.morphism_matrices", "afinv.diagrams", "morphism_matrices"),
    # Only the intertwining check's products: k0's own mat_mul calls (inside
    # mat_pow) stay in k0's self time.
    ("diagrams.mat_mul", "afinv.k0", "mat_mul", ("afinv.diagrams",)),
    ("k0.stationary_k0", "afinv.k0", "stationary_k0"),
    ("k0.morphism_multiplier", "afinv.k0", "morphism_multiplier"),
    ("compare.compare", "afinv.compare", "compare"),
    ("compare.verify_witness", "afinv.compare", "verify_witness"),
    ("serialize.parse", "afinv.cli", "_load_json"),
    ("serialize.render", "afinv.cli", "_emit"),
)

# The fusion cache the diagrams layer reads through; counted, not spanned.
FUSE_CACHE = ("afinv.diagrams", "_fuse_cached")

_FORMS = {"RankOneForm": "rank_one", "DirectSumForm": "direct_sum", "OpaquePresentation": "opaque"}

# Every per-layer metric of the traced run, with its unit; BENCHMARK.json
# lists the same names.  Counts and times are per traced request.
PER_LAYER = (
    [("cli.import_s.numpy", "s"), ("cli.import_s.afinv", "s"), ("cli.main.self_s", "s"),
     ("cli.errors", "count")]
    + [(f"groups.{f}.{k}", u) for f in ("subgroups", "subgroup_sum", "subgroup_intersection",
                                        "dual_characters", "coset_space")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("crossed.crossed_product_blocks.calls", "count"),
       ("crossed.crossed_product_blocks.self_s", "s")]
    + [(f"bimodules.{f}.{k}", u) for f in ("fuse", "fusion_table", "simple_bimodules",
                                           "qsystems", "bimodule_label")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("bimodules.fuse.us_per_call", "us"), ("bimodules.fuse_cache.hits", "count"),
       ("bimodules.fuse_cache.misses", "count"), ("bimodules.fuse_cache.currsize", "count"),
       ("bimodules.fuse_cache.hit_ratio", "ratio")]
    + [(f"diagrams.{f}.{k}", u) for f in ("compute_invariant", "object_diagram",
                                          "morphism_matrices")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("diagrams.consistency_s", "s"), ("diagrams.consistency.fuse_calls", "count"),
       ("diagrams.intertwining_s", "s")]
    + [(f"k0.{f}.{k}", u) for f in ("stationary_k0", "morphism_multiplier")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("k0.matrix_size.max", "rows"), ("k0.form.rank_one", "count"),
       ("k0.form.direct_sum", "count"), ("k0.form.opaque", "count"),
       ("k0.rank_one_ratio", "ratio")]
    + [(f"compare.{f}.{k}", u) for f in ("compare", "verify_witness")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("compare.verdict.equivalent", "count"), ("compare.verdict.inequivalent", "count"),
       ("compare.verdict.unknown", "count")]
    + [(f"serialize.{f}.{k}", u) for f in ("parse", "render")
       for k, u in (("calls", "count"), ("self_s", "s"), ("bytes", "B"))]
    + [("trace.overhead_frac", "frac"), ("trace.unattributed_frac", "frac")]
)


def _afinv_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "afinv" or name.startswith("afinv.")]


class Recorder:
    """Spans of one traced request, plus the counts read at its boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.matrix_max = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_lookups(self, fn):
        """Count the fusion-cache lookups the consistency check makes.

        It is the only caller that is not itself a span, so its lookups are
        the ones made directly under compute_invariant.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if stack and spans[stack[-1]][0] == "diagrams.compute_invariant":
                counts["diagrams.consistency.fuse_calls"] += 1
            return fn(*args)

        return wrapper

    # -- observers: counts taken where the work happens ----------------------

    def _observe_k0(self, args, result):
        self.matrix_max = max(self.matrix_max, len(args[0].matrix))
        self.counts["k0.form." + _FORMS[type(result).__name__]] += 1

    def _observe_compare(self, args, result):
        self.counts["compare.verdict." + result.status] += 1

    def _observe_parse(self, args, result):
        # afinv.cli._load_json(path) reads the file; the *_from_json parsers
        # it feeds take documents, whose bytes are already counted.
        if isinstance(args[0], str) and args[0] != "-":
            self.counts["serialize.parse.bytes"] += os.path.getsize(args[0])

    def install(self):
        """Wrap every target in every afinv namespace that holds it."""
        observers = {
            "k0.stationary_k0": self._observe_k0,
            "compare.compare": self._observe_compare,
            "serialize.parse": self._observe_parse,
        }
        targets = [(spec[0], sys.modules[spec[1]], spec[2], spec[3] if len(spec) > 3 else None)
                   for spec in SPANS]
        ser = sys.modules["afinv.serialize"]
        for attr in dir(ser):
            if attr.endswith("_from_json"):
                targets.append(("serialize.parse", ser, attr, None))
            elif attr.endswith("_to_json"):
                targets.append(("serialize.render", ser, attr, None))
        for name, home, attr, only in targets:
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, observers.get(name))
            self._patch(original, wrapped, only)
        home, attr = FUSE_CACHE
        original = getattr(sys.modules[home], attr)
        self._patch(original, self._count_lookups(original), (home,))

    def _patch(self, original, wrapped, only):
        for module in _afinv_modules():
            if only is not None and module.__name__ not in only:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-span-name calls, self and total seconds, plus the counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            d = end - start
            out[name + ".calls"] += 1
            out[name + ".self_s"] += d - child[i]
            out[name + ".total_s"] += d
            if parent < 0:
                out["covered_s"] += d
            elif name == "diagrams.mat_mul" and spans[parent][0] == "diagrams.compute_invariant":
                out["diagrams.intertwining_s"] += d
        out.update(self.counts)
        out["k0.matrix_size.max"] = self.matrix_max
        return dict(out)


def fuse_cache_info():
    return getattr(sys.modules[FUSE_CACHE[0]], FUSE_CACHE[1]).cache_info()


def aggregate(summaries, traced_walls, untraced_walls, errors, imports):
    """The per-layer metrics of one traced run.

    ``summaries`` holds one ``Recorder.summary`` per traced request, with the
    fusion-cache counters merged in; ``imports`` holds (numpy, afinv) import
    seconds per traced process.
    """
    n = max(len(summaries), 1)
    tot: Counter = Counter()
    for s in summaries:
        tot.update(s)
    m = {name: tot[name] / n for name, _ in PER_LAYER}
    m["cli.import_s.numpy"] = sum(i[0] for i in imports) / max(len(imports), 1)
    m["cli.import_s.afinv"] = sum(i[1] for i in imports) / max(len(imports), 1)
    m["cli.errors"] = errors
    fuse_calls = tot["bimodules.fuse.calls"]
    m["bimodules.fuse.us_per_call"] = 1e6 * tot["bimodules.fuse.total_s"] / fuse_calls if fuse_calls else 0.0
    hits, misses = tot["bimodules.fuse_cache.hits"], tot["bimodules.fuse_cache.misses"]
    m["bimodules.fuse_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["diagrams.consistency_s"] = m["diagrams.compute_invariant.self_s"]
    m["k0.matrix_size.max"] = max((s.get("k0.matrix_size.max", 0) for s in summaries), default=0)
    k0_calls = tot["k0.stationary_k0.calls"]
    m["k0.rank_one_ratio"] = tot["k0.form.rank_one"] / k0_calls if k0_calls else 0.0
    m["trace.overhead_frac"] = sum(traced_walls) / sum(untraced_walls) - 1
    m["trace.unattributed_frac"] = 1 - tot["covered_s"] / sum(traced_walls)
    return m

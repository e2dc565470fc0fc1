"""The sweep-warm workload: one process, warm caches, direct API calls.

    python3 bench/sweep.py INPUT_DIR SECONDS TRACE RESULT.json SPAWNED_AT

Run from the repository root; afinv is imported from ./src.  The process
imports afinv once and serves every request of the manifest once to fill the
caches: that is its set-up, timed from SPAWNED_AT (the parent's
``time.monotonic()`` when it started this process).  Then it repeats rounds
of requests for SECONDS.  A request is one ``compute_invariant`` plus one
``compare`` against the reference invariant of the same group.  With TRACE 1
every request runs twice, untraced and traced, in alternating order.
"""

import json
import os
import resource
import sys
import time
import traceback

import layers


def _check(cmp, expect, inv, ref, verdict):
    """Verdict as built, witness as built, and a replay through verify_witness."""
    if verdict.status != expect["status"]:
        return f"verdict {verdict.status}, expected {expect['status']}"
    kind = verdict.certificate.kind if verdict.certificate else None
    if kind != expect["certificate"]:
        return f"certificate {kind}, expected {expect['certificate']}"
    witness = verdict.witness_map()
    if expect["witness"] is not None and (
        witness is None or {k: str(v) for k, v in witness.items()} != expect["witness"]
    ):
        return f"witness {witness}, expected {expect['witness']}"
    # An equivalent verdict's witness must replay; any other verdict must
    # reject the identity candidate.
    replay = witness if witness is not None else {label: 1 for label in inv.labels}
    if cmp.verify_witness(inv, ref, replay) != (verdict.status == "equivalent"):
        return "verify_witness disagrees with the verdict"
    return None


def main() -> int:
    in_dir, seconds, trace, out_path, spawned_at = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (afinv.bimodules imports it first thing)
    t1 = time.perf_counter()
    import afinv.cli  # noqa: F401  (every module, as the CLI loads them)
    from afinv import compare as cmp, diagrams, serialize
    imports = [t1 - t0, time.perf_counter() - t1]

    with open(os.path.join(in_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    docs = {name: serialize.diagram_from_json(doc) for name, doc in manifest["docs"].items()}
    refs = {}

    def serve(req):
        ref_name = req["reference"][1:]
        if ref_name not in refs:
            refs[ref_name] = diagrams.compute_invariant(docs[ref_name])
        ref, d = refs[ref_name], docs[req["diagram"][1:]]
        w0, c0 = time.perf_counter(), time.process_time()
        inv = diagrams.compute_invariant(d)
        verdict = cmp.compare(inv, ref)
        return time.perf_counter() - w0, time.process_time() - c0, inv, ref, verdict

    def run(req, traced):
        sample = {"id": req["id"], "traced": traced}
        rec = layers.Recorder() if traced else None
        if traced:
            before = layers.fuse_cache_info()
            rec.install()
        try:
            wall, cpu, inv, ref, verdict = serve(req)
        except Exception:  # a request that raises is a failed request
            sample.update(error=traceback.format_exc(limit=-3), errored=True, wall_s=0.0, cpu_s=0.0)
            return sample
        finally:
            if traced:
                rec.uninstall()
        sample.update(wall_s=wall, cpu_s=cpu, error=_check(cmp, req["expect"], inv, ref, verdict))
        if traced:
            after = layers.fuse_cache_info()
            summary = rec.summary()
            summary.update({
                "bimodules.fuse_cache.hits": after.hits - before.hits,
                "bimodules.fuse_cache.misses": after.misses - before.misses,
                "bimodules.fuse_cache.currsize": after.currsize,
            })
            sample["summary"] = summary
        return sample

    requests = manifest["requests"]
    for req in requests:
        run(req, False)
    setup_s = time.monotonic() - float(spawned_at)

    samples, rounds, start = [], 0, time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for i, req in enumerate(requests):
            order = (False, True) if (rounds + i) % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                samples.append(run(req, traced))
        rounds += 1
        if time.perf_counter() - start + (time.perf_counter() - r0) / 2 >= seconds:
            break

    result = {
        "setup_s": setup_s,
        "imports": imports,
        "rounds": rounds,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

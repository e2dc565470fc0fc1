"""Run one afinv CLI request with layer spans on, then write their summary.

    python3 bench/tracer.py SUMMARY.json <afinv arguments...>

Run from the repository root: afinv is imported from ./src, exactly as
``PYTHONPATH=src python -m afinv.cli`` would run it.  The request's output,
exit code and errors are those of ``afinv.cli.main``.
"""

import json
import os
import sys
import time

import layers


class _CountingStream:
    """Counts the characters a request prints (the rendered output)."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    rec = layers.Recorder()
    with rec.span("cli.import.numpy"):
        import numpy  # noqa: F401  (afinv.bimodules imports it first thing)
    with rec.span("cli.import.afinv"):
        import afinv.cli
    out = _CountingStream(sys.stdout)
    sys.stdout = out
    rec.install()
    try:
        code = rec.wrap("cli.main", afinv.cli.main)(argv)
    finally:
        rec.uninstall()
        sys.stdout = out.inner
        info = layers.fuse_cache_info()
        summary = rec.summary()
        summary.update({
            "serialize.render.bytes": out.count,
            "bimodules.fuse_cache.hits": info.hits,
            "bimodules.fuse_cache.misses": info.misses,
            "bimodules.fuse_cache.currsize": info.currsize,
            "import_s": [summary["cli.import.numpy.total_s"], summary["cli.import.afinv.total_s"]],
        })
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

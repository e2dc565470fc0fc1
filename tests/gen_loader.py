"""``bench/gen.py``, the benchmark's document generator, loaded by path.

``bench`` is no package, so the tests load its generator from the file, as it
stands, through ``load_gen``.
"""

import functools
import importlib.util
import pathlib

GEN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"


@functools.cache
def load_gen():
    """The module ``bench/gen.py``, loaded once; it keeps no state between calls."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

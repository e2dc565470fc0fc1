"""The names the traced benchmark wraps must exist in afinv.

``bench/layers.py`` patches afinv functions by name at run time, so a rename
in ``src/`` would only show up when the traced benchmark runs.  This loads
the file by path, unchanged, and resolves every name it lists.
"""

import importlib
import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    layers = load_layers()
    assert layers.SPANS
    for spec in layers.SPANS:
        name, home, attr = spec[:3]
        original = getattr(importlib.import_module(home), attr, None)
        assert callable(original), name
        # a span restricted to some namespaces sees calls only where they hold it
        for namespace in spec[3] if len(spec) > 3 else ():
            assert getattr(importlib.import_module(namespace), attr, None) is original, name


def test_fuse_cache_resolves_with_cache_info():
    home, attr = load_layers().FUSE_CACHE
    cache = getattr(importlib.import_module(home), attr)
    assert callable(cache.cache_info)

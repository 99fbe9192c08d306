"""The benchmark's per-layer tracer names package functions; they must exist.

bench/tracing.py wraps each TRACED function by name and refuses any that
is not public. It is loaded here by path, without instrument(), so that
deleting or hiding a traced function fails this suite and not only the
benchmark's own tests.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_public_callables():
    tracing = load_tracing()
    for module, functions in tracing.TRACED.items():
        home = importlib.import_module(f"tamesigns.{module}")
        public = getattr(home, "__all__", None)
        for name in functions:
            where = f"tamesigns.{module}.{name}"
            assert not name.startswith("_"), where
            assert public is None or name in public, where
            assert callable(getattr(home, name, None)), where
    for module, names in tracing.CACHED.items():
        home = importlib.import_module(f"tamesigns.{module}")
        for name in names:
            assert callable(getattr(getattr(home, name), "cache_info", None)), name

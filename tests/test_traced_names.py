"""The benchmark names and calls package functions; they must exist.

bench/tracing.py wraps each TRACED function by name and refuses any that
is not public. It is loaded here by path, without instrument(), so that
deleting or hiding a traced function fails this suite and not only the
benchmark's own tests. The benchmark's scripts (bench/child.py runs the
workloads) are parsed, not run: every package name they import or read
must exist, and every package function they call must accept the call.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


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


def package_bindings(tree: ast.Module) -> dict[str, object]:
    """The names a script binds to tamesigns modules and their members."""
    bound: dict[str, object] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tamesigns":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["tamesigns"] = importlib.import_module("tamesigns")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] != "tamesigns":
                continue
            home = importlib.import_module(node.module)
            for alias in node.names:
                where = f"{node.module}.{alias.name}"
                if not hasattr(home, alias.name):
                    importlib.import_module(where)  # a submodule, or raises
                assert hasattr(home, alias.name), where
                bound[alias.asname or alias.name] = getattr(home, alias.name)
    return bound


def resolve(node: ast.expr, bound: dict[str, object]) -> object:
    # the package object an expression names, or None if it names none
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve(node.value, bound)
        if inspect.ismodule(base):
            where = f"{base.__name__}.{node.attr}"
            assert hasattr(base, node.attr), where
            return getattr(base, node.attr)
    return None


def test_bench_scripts_use_only_what_the_package_has():
    called = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = package_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node, bound)
            if not isinstance(node, ast.Call):
                continue
            function = resolve(node.func, bound)
            if not callable(function):
                continue
            called.add((path.name, function.__name__))
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                keyword.arg is None for keyword in node.keywords
            ):
                continue  # an unpacked call's shape is not in the source
            args = [None] * len(node.args)
            kwargs = dict.fromkeys(keyword.arg for keyword in node.keywords)
            try:
                inspect.signature(function).bind(*args, **kwargs)
            except TypeError as error:
                raise AssertionError(
                    f"bench/{path.name}:{node.lineno} {function.__name__}: {error}"
                ) from None
    # engine_sweep's calls, theta_sign(G, theta, psi) among them
    theta_sign = importlib.import_module("tamesigns.metacyclic").theta_sign
    assert list(inspect.signature(theta_sign).parameters) == ["G", "theta", "psi"]
    assert {
        ("child.py", name)
        for name in ("make_group", "enumerate_irreps", "identity_involution",
                     "involution_count", "fs_indicator", "fs_indicator_raw",
                     "theta_sign", "main", "cyc_integer")
    } <= called

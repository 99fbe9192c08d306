"""Per-layer tracing from outside the package.

instrument() replaces each traced public function of tamesigns with a
wrapper at every place the function object is bound: the module that
defines it, every module that imported it by name, and module-level
dicts such as cli.DISPATCH. Nothing under src/ is edited; the wrappers
live only in the process that calls instrument().

A "span" wrapper times each call and charges it to a stack, so a
layer's self time is its span minus the spans of traced calls made
inside it. A "count" wrapper only counts calls; it is used on hot
predicates where a timer would cost more than the call. Spans are
aggregated in memory (calls and self seconds per function) and
read once, by snapshot(), when the pass ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> {public function: "span" | "count"}
TRACED = {
    "cyclotomic": {"root_sum": "span"},
    "metacyclic": {
        "enumerate_irreps": "span",
        "is_irreducible_induced": "span",
        "fs_indicator": "span",
        "fs_indicator_raw": "span",
        "theta_sign": "span",
        "orbit_of": "count",
        "det_exponents": "count",
    },
    "division": {
        "enumerate_level1_selfdual": "span",
        "sign_division_oracle": "span",
        "is_regular": "count",
        "is_selfdual_division": "count",
    },
    "weil": {"sign_weil_closed_form": "span", "attach_parameter": "count"},
    "signs": {"verify_flip": "span"},
    "rationality": {"character_field": "span"},
    "cli": {
        "build_parser": "span",
        "config_from_args": "span",
        "render": "span",
        "cmd_verify_flip": "span",
    },
}

# functools.cache-wrapped functions whose cache_info() is read, not wrapped
CACHED = {"cyclotomic": ("factorize", "cyclotomic_polynomial")}


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.values: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[float] = []  # child-span seconds of each open span

    def span(self, key: str, fn, observe=None):
        calls, self_time, stack = self.calls, self.self_time, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[key] += 1
                self_time[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self.values, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def snapshot(self) -> dict:
        """Raw counters, seconds and cache statistics, as plain JSON data."""
        caches = {}
        for module, names in CACHED.items():
            mod = sys.modules[f"tamesigns.{module}"]
            for name in names:
                info = getattr(mod, name).cache_info()
                caches[f"{module}.{name}"] = {"hits": info.hits, "misses": info.misses}
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_time),
            "values": dict(self.values),
            "caches": caches,
            "bindings": self.bindings,
        }


def _observe_root_sum(values, args, result) -> None:
    key = "cyclotomic.root_sum.max_conductor"
    values[key] = max(values[key], args[0])


def _observe_render(values, args, result) -> None:
    values["cli.render.bytes"] += len(result.encode())


def _observe_character_field(values, args, result) -> None:
    values["rationality.character_field.units_scanned"] += result.conductor
    values["rationality.character_field.stabilizer_size"] += len(result.stabilizer)


OBSERVERS = {
    "cyclotomic.root_sum": _observe_root_sum,
    "cli.render": _observe_render,
    "rationality.character_field": _observe_character_field,
}


def instrument(clock=time.perf_counter) -> Tracer:
    """Wrap every TRACED function at all of its binding sites in tamesigns.

    Only public names are traced: a name must not start with "_" and, when
    its module declares __all__, must be listed there.
    """
    import tamesigns.cli  # noqa: F401  (loads every traced module)

    tracer = Tracer(clock)
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "tamesigns" or name.startswith("tamesigns.")
    }
    for module, functions in TRACED.items():
        home = modules[f"tamesigns.{module}"]
        public = getattr(home, "__all__", None)
        for name, mode in functions.items():
            if name.startswith("_") or (public is not None and name not in public):
                raise ValueError(f"tamesigns.{module}.{name} is not public")
            original = getattr(home, name)
            key = f"{module}.{name}"
            if mode == "span":
                wrapper = tracer.span(key, original, OBSERVERS.get(key))
            else:
                wrapper = tracer.count(key, original)
            sites = []
            for mod_name, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        sites.append(f"{mod_name}.{attr}")
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                sites.append(f"{mod_name}.{attr}[{k!r}]")
            tracer.bindings[key] = sites
    return tracer

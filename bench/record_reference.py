"""Write bench/reference.json: the expected outputs the benchmark checks.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/record_reference.py

It records the sha256 and size of the flip_grid output, the size of the
engine sweep, and a digest of (exit code, stdout) for every entry of the
sign_queries pool. The package's output is byte-deterministic, so a
later commit that changes any of these bytes fails the benchmark's
checks until the change is reviewed and the reference re-recorded.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import queries  # noqa: E402
from child import FLIP_ARGV, engine_groups  # noqa: E402
from tamesigns.cli import main as cli_main  # noqa: E402
from tamesigns.cyclotomic import factorize  # noqa: E402
from tamesigns.metacyclic import enumerate_irreps, make_group  # noqa: E402


def call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def flip_grid() -> dict:
    code, text = call(list(FLIP_ARGV))
    if code != 0:
        raise SystemExit(f"flip_grid exited {code}")
    data = text.encode()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    q_values = [q for q in range(2, 17) if len(factorize(q)) == 1]
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "rows": len(lines) - 1,
        "qn_cells": len(q_values) * 7,
        "cells": len(q_values) * 7 * 2,
    }


def engine_sweep() -> dict:
    groups = engine_groups()
    return {
        "groups": len(groups),
        "irreps": sum(len(enumerate_irreps(make_group(*g))) for g in groups),
    }


def sign_queries() -> dict:
    replies = {}
    conductors = []
    for argv, label, _ in queries.pool():
        code, out = call(list(argv))
        replies[" ".join(argv)] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]
        if label != "invalid":
            conductors.append(json.loads(out)["rows"][0]["field_conductor"])
    return {
        "queries_per_pass": queries.QUERIES_PER_PASS,
        "pool": len(replies),
        "field_conductor_range": [min(conductors), max(conductors)],
        "replies": replies,
    }


if __name__ == "__main__":
    reference = {
        "flip_grid": flip_grid(),
        "engine_sweep": engine_sweep(),
        "sign_queries": sign_queries(),
    }
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")

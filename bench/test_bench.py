"""Tests of the benchmark itself (about a minute and a half on 2 CPUs).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import queries
import run

COUNT_SUFFIXES = (".calls", ".calls_per_cell", ".calls_per_row", ".calls_per_indicator",
                  ".units_scanned")


def _pass(workload: str, trace: bool, seed: int = 5) -> dict:
    run.OUT.mkdir(exist_ok=True)
    result = run.run_child(workload, trace, seed, run.monotonic() + 600)
    assert result["ok"], result.get("error")
    return result


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_stream_is_a_pure_function_of_the_seed():
    code = "import queries, json; print(json.dumps(queries.stream(7)))"
    other = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH,
                           capture_output=True, text=True, check=True)
    assert json.loads(other.stdout) == json.loads(json.dumps(queries.stream(7)))
    assert queries.stream(7) == queries.stream(7)
    assert queries.stream(7) != queries.stream(8)
    assert sorted(queries.stream(7)) != sorted(queries.stream(8))


def test_every_pool_entry_has_a_reference_reply():
    reference = json.loads((run.BENCH / "reference.json").read_text())["sign_queries"]
    keys = {" ".join(argv) for argv, _, _ in queries.pool()}
    assert keys == set(reference["replies"])


@pytest.mark.parametrize("workload", ["flip_grid", "sign_queries"])
def test_traced_stdout_is_byte_identical_to_untraced(workload):
    plain = _pass(workload, trace=False)
    traced = _pass(workload, trace=True)
    assert plain["stdout"] and plain["stdout"] == traced["stdout"]


CLOCK_PROBE = """
import json, time, child
child.HOST.start()
wall, program = time.perf_counter(), child.program_clock()
while time.perf_counter() - wall < 0.5:
    pass
wall, program = time.perf_counter() - wall, child.program_clock() - program
child.HOST.stop()
print(json.dumps([wall, program, child.HOST.spent, len(child.HOST.samples)]))
"""


def test_program_clock_leaves_the_calibration_loops_out():
    env = dict(run.os.environ, PYTHONPATH=f"{run.SRC}{run.os.pathsep}{run.BENCH}")
    proc = subprocess.run([sys.executable, "-c", CLOCK_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    wall, program, spent, loops = json.loads(proc.stdout)
    assert loops >= 5 and spent > 0
    assert abs(wall - program - spent) < 0.002


@pytest.mark.parametrize("trace", [False, True])
def test_every_pass_reports_cpu_speed(trace):
    res = _pass("sign_queries", trace=trace)
    assert res["cal_n"] > 0 and 0 < res["cal_s"] < 0.05


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_traced_runs_and_cover_the_spec(workload):
    ref = run.workload_reference(workload, 5)
    first, second = (
        run.layer_metrics(_pass(workload, trace=True)["trace"], ref)
        for _ in range(2)
    )
    names = [m["name"] for m in _spec()["per_layer"] if m["name"] != "trace_overhead_s"]
    assert set(names) <= set(first)
    counts = [name for name in names if name.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = _spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", "flip_grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

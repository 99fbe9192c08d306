"""Benchmark for tamesigns: three fixed workloads, end-to-end and per-layer.

Usage, from the repository root:

    python3 bench/run.py [--workload flip_grid|engine_sweep|sign_queries|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (child.py) started
with sys.executable and PYTHONPATH=src, so the package is measured as a
plain checkout runs it. A run repeats passes, one at a time (a closed
loop with one client), until --seconds have passed, and reports medians
over its passes.

Workloads (why each was chosen is in BENCHMARK.json):
  flip_grid     verify-flip --q 2..16 --n 2..8 --recipe both, CSV; one
                CLI call per pass; items are output rows.
  engine_sweep  the 21 model groups C_{q^n-1} x| C_{2n} (q in
                {2,3,4,5,7,8,9}, n in {2,4,6}, q^n - 1 <= 10^6): every
                irrep's fs_indicator, fs_indicator_raw and theta_sign
                with the identity involution; items are irreps.
  sign_queries  979 single-datum `sign --format json` calls through
                cli.main in one process, drawn by queries.stream(seed);
                items are queries.

End-to-end metrics (--trace 0), medians over the run's passes:
  wall_s        the timed body of one pass (time inside the program's calls)
  items_per_s   items of one pass divided by its wall_s
  setup_s       from spawning a child to tamesigns.cli imported and ready,
                over the pass children and SETUP_PROBES import-only ones
  peak_rss_mib  the child's peak resident set size
  query_p50_ms, query_p99_ms
                per-query latency, nearest rank within a pass: one sign
                call of 979 (sign_queries); flip_grid and engine_sweep
                are one request per pass, so both read that pass's time
fail_ratio is printed too; the final JSON line carries it as
failed / attempted.

Every timing is reported at one fixed CPU speed. On a shared host the
speed of a CPU drifts by up to a third within seconds, which no run length
averages out. So every child runs a fixed calibration loop
interleaved with the program (see child.py), leaves the loop's time out
of its timings, and reports the loop's time at the pass's average
speed; the pass's timings are multiplied by CAL_NOMINAL_S over that
time. setup_s (interpreter start and imports) is not corrected. A change
to the program moves the corrected figures as it moves the uncorrected
ones, which the record keeps as "uncorrected" and which are printed
beside them.

Per-layer metrics (--trace 1) come from tracing.py, which wraps the
public functions of each module at every binding site; the run
alternates untraced and traced passes, and trace_overhead_s is the
traced wall_s minus the untraced one, both at the fixed CPU speed. The
self_s metrics are uncorrected seconds.

Every pass is checked: flip_grid against the sha256 of the output
recorded from the seed code, engine_sweep by its group identities,
sign_queries against reference.json and the sign invariants. A record of
the run (environment, raw samples, checks) is written to
.bench_out/<workload>-seed<seed>-trace<t>.json. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("flip_grid", "engine_sweep", "sign_queries")
ITEM_NAME = {"flip_grid": "rows", "engine_sweep": "irreps", "sign_queries": "queries"}
RUN_DEADLINE_S = 170  # a run never starts a pass it could not finish by then
# Seconds child.calibration_loop takes at the CPU speed timings are reported at
CAL_NOMINAL_S = 0.0007
SETUP_PROBES = 5

sys.path.insert(0, str(BENCH))
import queries  # noqa: E402


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_rev() -> str:
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(workload: str, trace: bool, seed: int, deadline: float) -> dict:
    """Run child.py once; return its result with its stdout and set-up seconds."""
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        result_path = tmp / "result.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, str(BENCH / "child.py"), workload, str(int(trace)),
                str(seed), str(result_path)]
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            spawned = monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, deadline - monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        stdout = (tmp / "stdout").read_bytes()
        stderr = (tmp / "stderr").read_bytes().decode(errors="replace")
        result = json.loads(result_path.read_text()) if result_path.exists() else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or result is None:
        return {"ok": False, "error": f"child exit {code}: {stderr[-2000:]}"}
    result.update(ok=True, stdout=stdout, setup_s=result["ready"] - spawned)
    return result


# ---------------------------------------------------------------------------
# output checks; each returns (attempted, failed, notes)


def check_flip_grid(res: dict, ref: dict, seed: int) -> tuple[int, int, list[str]]:
    notes = []
    if res["exit_code"] != 0:
        notes.append(f"exit code {res['exit_code']}")
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    if digest != ref["sha256"]:
        notes.append(f"stdout sha256 {digest[:12]} != reference {ref['sha256'][:12]}")
    lines = res["stdout"].decode().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    if len(rows) != ref["rows"]:
        notes.append(f"{len(rows)} rows, reference {ref['rows']}")
    res["items"] = len(rows)
    bad = sum(1 for r in rows if r.get("recipe") == "PR" and r.get("consistent") != "true")
    if bad:
        notes.append(f"{bad} inconsistent PR rows")
    return 1, int(bool(notes)), notes


def check_engine_sweep(res: dict, ref: dict, seed: int) -> tuple[int, int, list[str]]:
    notes = list(res["mismatches"])
    failed = res["failed"]
    if (res["items"], res["groups"]) != (ref["irreps"], ref["groups"]):
        notes.append(f"{res['groups']} groups / {res['items']} irreps, reference "
                     f"{ref['groups']} / {ref['irreps']}")
        failed += 1
    return res["attempted"], failed, notes


def check_sign_queries(res: dict, ref: dict, seed: int) -> tuple[int, int, list[str]]:
    expected = queries.stream(seed)
    replies = [json.loads(line) for line in res["stdout"].decode().splitlines()]
    notes = []
    failed = 0
    if len(replies) != len(expected):
        notes.append(f"{len(replies)} replies to {len(expected)} queries")
        failed += abs(len(expected) - len(replies))
    for (argv, label), (got_argv, code, out, err) in zip(expected, replies):
        problem = None
        key = " ".join(argv)
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]
        if got_argv != list(argv):
            problem = "reply out of order"
        elif label == "invalid":
            if code != 1 or out or not err.startswith("usage error:"):
                problem = f"expected a usage error, got exit {code}"
        elif code != 0:
            problem = f"exit {code}: {err.strip()}"
        else:
            try:
                row = json.loads(out)["rows"][0]
            except (ValueError, KeyError, IndexError):
                row = None
            selfdual = label == "selfdual"
            if row is None:
                problem = "reply is not a one-row JSON report"
            elif row.get("selfdual") != selfdual or (row.get("sign_oracle") != 0) != selfdual:
                problem = f"selfdual={row['selfdual']} sign_oracle={row['sign_oracle']}"
            elif selfdual and row["sign_closed"] != row["sign_oracle"]:
                problem = f"sign_closed {row['sign_closed']} != oracle {row['sign_oracle']}"
        if problem is None and ref["replies"].get(key) != digest:
            problem = f"reply digest {digest} != reference {ref['replies'].get(key)}"
        if problem is not None:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{key}: {problem}")
    return len(expected), failed, notes


CHECKS = {
    "flip_grid": check_flip_grid,
    "engine_sweep": check_engine_sweep,
    "sign_queries": check_sign_queries,
}


def expected_attempts(workload: str, ref: dict) -> int:
    """Operations a pass would have checked, charged as failed if it crashes."""
    if workload == "engine_sweep":
        return ref["irreps"] + ref["groups"]
    return queries.QUERIES_PER_PASS if workload == "sign_queries" else 1


# ---------------------------------------------------------------------------
# metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, ref: dict) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    calls, self_s, values = snap["calls"], snap["self_s"], snap["values"]
    out = {}
    for key in snap["bindings"]:
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    for key, info in snap["caches"].items():
        out[f"{key}.hit_ratio"] = _ratio(info["hits"], info["hits"] + info["misses"])
    out.update(values)
    # (q, n) cells exist only in flip_grid; output rows in flip_grid and sign_queries
    out["division.enumerate_level1_selfdual.calls_per_cell"] = _ratio(
        calls.get("division.enumerate_level1_selfdual", 0), ref.get("qn_cells", 0))
    out["division.is_regular.calls_per_row"] = _ratio(
        calls.get("division.is_regular", 0), ref.get("rows", 0))
    indicators = sum(calls.get(f"metacyclic.{name}", 0)
                     for name in ("fs_indicator", "fs_indicator_raw", "theta_sign"))
    out["metacyclic.is_irreducible_induced.calls_per_indicator"] = _ratio(
        calls.get("metacyclic.is_irreducible_induced", 0), indicators)
    scanned = values.get("rationality.character_field.units_scanned", 0)
    out["rationality.character_field.units_scanned"] = scanned
    out["rationality.character_field.stabilizer_per_scanned"] = _ratio(
        values.get("rationality.character_field.stabilizer_size", 0), scanned)
    out["cyclotomic.root_sum.max_conductor"] = values.get("cyclotomic.root_sum.max_conductor", 0)
    out["cli.render.bytes"] = values.get("cli.render.bytes", 0)
    return out


def end_to_end(passes: list[dict], setups: list[float], speed_corrected: bool = True) -> dict:
    """Medians over passes; run timings at CAL_NOMINAL_S unless speed_corrected is off."""
    def at_nominal(p: dict) -> float:
        return CAL_NOMINAL_S / p["cal_s"] if speed_corrected else 1.0

    return {
        "wall_s": median([p["wall_s"] * at_nominal(p) for p in passes]),
        "items_per_s": median([p["items"] / (p["wall_s"] * at_nominal(p)) for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mib": median([p["maxrss_kib"] / 1024 for p in passes]),
        "query_p50_ms": median([p["latency_s"]["p50"] * 1000 * at_nominal(p) for p in passes]),
        "query_p99_ms": median([p["latency_s"]["p99"] * 1000 * at_nominal(p) for p in passes]),
    }


# ---------------------------------------------------------------------------
# one run of one workload


def workload_reference(workload: str, seed: int) -> dict:
    """reference.json's entry for the workload, with the seed's row count."""
    ref = json.loads((BENCH / "reference.json").read_text())[workload]
    if workload == "sign_queries":
        ref["rows"] = sum(1 for _, label in queries.stream(seed) if label != "invalid")
    return ref


def warm_up() -> None:
    """Import the package once, so no pass pays for writing bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import tamesigns.cli"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ref = workload_reference(workload, seed)
    start = monotonic()
    deadline = start + RUN_DEADLINE_S
    warm_up()
    # engine_sweep's long passes give a run two set-ups of its own, too few
    # for a steady median, so every run also times SETUP_PROBES children
    # that only import the package
    probes = [run_child("setup", False, seed, deadline) for _ in range(SETUP_PROBES)]
    setups = [res["setup_s"] for res in probes if res["ok"]]
    body_start = monotonic()
    modes = [False, True] if trace else [False]
    passes = {False: [], True: []}
    attempted = failed = 0
    notes: list[str] = []
    durations = {}
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        began = monotonic()
        res = run_child(workload, mode, seed, deadline)
        durations[mode] = monotonic() - began
        if res["ok"]:
            a, f, n = CHECKS[workload](res, ref, seed)
            res.pop("stdout")
            passes[mode].append(res)
            setups.append(res["setup_s"])
        else:
            a, f, n = (expected_attempts(workload, ref),) * 2 + ([res["error"]],)
        attempted, failed = attempted + a, failed + f
        notes.extend(n[: max(0, 10 - len(notes))])
        if not res["ok"]:
            break
        turn += 1
        nxt = modes[turn % len(modes)]
        have_all = all(passes[m] for m in modes)
        expected_end = monotonic() + durations.get(nxt, durations[mode])
        if have_all and (monotonic() - body_start >= seconds or expected_end > deadline):
            break
    complete = all(passes[m] for m in modes)
    metrics = {}
    if complete:
        plain = passes[False]
        if trace:
            traced = passes[True]
            layers = [layer_metrics(p["trace"], ref) for p in traced]
            merged = dict(layers[0])
            for key in merged:
                if key.endswith(".self_s"):
                    merged[key] = median([layer[key] for layer in layers])
            merged["trace_overhead_s"] = (end_to_end(traced, setups)["wall_s"]
                                          - end_to_end(plain, setups)["wall_s"])
            counts_repeat = all(
                {k: v for k, v in layer.items() if not k.endswith("_s")}
                == {k: v for k, v in layers[0].items() if not k.endswith("_s")}
                for layer in layers
            )
            wanted = spec["per_layer"]
            metrics = {m["name"]: merged[m["name"]] for m in wanted}
        else:
            values = end_to_end(plain, setups)
            metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
            raw = end_to_end(plain, setups, speed_corrected=False)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stated_size": {k: v for k, v in ref.items() if k not in ("sha256", "replies")},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": _ratio(failed, attempted),
        "notes": notes,
        "setup_samples_s": setups,
        "passes": {
            "untraced": [_pass_samples(p) for p in passes[False]],
            "traced": [_pass_samples(p) for p in passes[True]],
        },
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    if complete and not trace:
        record["uncorrected"] = raw
    if trace and complete:
        record["counts_repeat_across_traced_passes"] = counts_repeat
        record["bindings"] = passes[True][0]["trace"]["bindings"]
        record["layers_raw"] = [p["trace"] for p in passes[True]]
    record["correct"] = complete and failed == 0
    return record


def _pass_samples(p: dict) -> dict:
    keep = ("wall_s", "items", "setup_s", "maxrss_kib", "latency_s", "exit_code",
            "cal_s", "cal_n")
    return {k: p[k] for k in keep if k in p}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "git_rev": git_rev(),
    }


def print_record(record: dict) -> None:
    w = record["workload"]
    print(f"== {w} seed={record['seed']} trace={int(record['trace'])} "
          f"passes={len(record['passes']['untraced'])}+{len(record['passes']['traced'])} "
          f"size={json.dumps(record['stated_size'], sort_keys=True)}")
    samples = sum(p["latency_s"]["n"] for p in record["passes"]["untraced"])
    for name, m in record["metrics"].items():
        unit = m["unit"] + (f" ({ITEM_NAME[w]}/s)" if name == "items_per_s" else "")
        if name.startswith("query_"):
            unit += f" ({samples} samples)"
        value = f"{m['value']:.6g}" if isinstance(m["value"], float) else m["value"]
        raw = record.get("uncorrected", {}).get(name)
        if raw is not None and raw != m["value"]:
            unit += f" (uncorrected {raw:.6g})"
        print(f"{w:<13} {name:<58} {value} {unit}")
    print(f"{w:<13} {'fail_ratio':<58} {record['fail_ratio']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for sites in record.get("bindings", {}).items():
        print(f"{w:<13} traced {sites[0]} at {', '.join(sites[1])}")
    for note in record["notes"]:
        print(f"{w:<13} FAIL {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tamesigns" / "cli.py").is_file():
        print(f"bench: no package sources at {SRC}/tamesigns", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"environment {json.dumps(env, sort_keys=True)}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for w in workloads:
        record = run_workload(w, args.seed, seconds, bool(args.trace), spec)
        record["environment"] = env
        path = OUT / f"{w}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print_record(record)
        print(f"{w:<13} record {path.relative_to(ROOT)}")
        records.append(record)
    prefix = len(records) > 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): m
            for r in records
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

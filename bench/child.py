"""One pass of one workload, run in a fresh interpreter by run.py.

Usage: python child.py WORKLOAD TRACE SEED RESULT_PATH
(with PYTHONPATH pointing at the package sources).

WORKLOAD is flip_grid, engine_sweep, sign_queries or setup (import
only). The first thing the child does is import tamesigns.cli; the
monotonic clock right after that import is "ready", which run.py
subtracts from the moment it spawned the child. The pass writes the
program's output to stdout and its timings, counts and check results as
one JSON object to RESULT_PATH.

Every pass also measures the speed of the CPU it runs on, which on a
shared host drifts by up to a third within seconds. A timer signal runs a
fixed calibration loop (HostSpeed) about every CAL_INTERVAL_S,
interleaved with the program on the same CPU, and every timing of the
pass (the tracer's spans too) is read from program_clock(), which leaves
the loop's time out. run.py divides the pass's timings by the loop's
time at the pass's average speed, so they are expressed at one fixed
CPU speed.
"""

import time

import tamesigns.cli  # noqa: E402  (timed: set-up ends when this import is done)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import io  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

FLIP_ARGV = ["verify-flip", "--q", "2..16", "--n", "2..8", "--recipe", "both", "--format", "csv"]
ENGINE_Q = (2, 3, 4, 5, 7, 8, 9)
ENGINE_N = (2, 4, 6)
ENGINE_TORUS_BOUND = 10**6
CAL_INTERVAL_S = 0.025


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes on this CPU now (about 0.6 ms).

    Integer arithmetic, then the kind of work the package does: orbits
    under multiplication modulo m, built into lists, sets and sorted
    tuples. Arithmetic alone misses slow periods that hit the package's
    container work harder, as when the host's caches are contended.
    """
    start = time.perf_counter()
    s = 0
    for i in range(5_000):
        s += i * i % 7
    m = 3**7 - 1
    seen = set()
    for a in range(1, 160):
        if a in seen:
            continue
        orbit = [a]
        c = a * 3 % m
        while c != a:
            orbit.append(c)
            c = c * 3 % m
        seen.update(orbit)
        tuple(sorted(orbit))
    return time.perf_counter() - start


class HostSpeed:
    """Calibration loops on a timer signal, and the time they took."""

    def __init__(self) -> None:
        self.samples = array("d")
        self.spent = 0.0  # seconds inside the signal handler so far

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


HOST = HostSpeed()


def program_clock() -> float:
    """perf_counter without the time spent in calibration loops."""
    while True:
        spent = HOST.spent
        now = time.perf_counter()
        if spent == HOST.spent:  # no loop ran between the two reads
            return now - spent


def engine_groups() -> list[tuple[int, int, int]]:
    """(m, N, s) for the model groups C_{q^n-1} x| C_{2n} of the engine sweep."""
    return [
        (q**n - 1, 2 * n, q)
        for q in ENGINE_Q
        for n in ENGINE_N
        if q**n - 1 <= ENGINE_TORUS_BOUND
    ]


def _percentiles(samples: list[float]) -> dict:
    ordered = sorted(samples)
    n = len(ordered)
    # nearest rank; the 99th has nine samples above it in a pass of 979
    return {
        "n": n,
        "p50": ordered[(n - 1) // 2],
        "p99": ordered[min(n - 1, (99 * n + 99) // 100 - 1)],
    }


def pass_flip_grid() -> dict:
    start = program_clock()
    code = tamesigns.cli.main(list(FLIP_ARGV))
    sys.stdout.flush()
    wall = program_clock() - start
    return {"wall_s": wall, "exit_code": code, "latencies": array("d", [wall])}


def pass_engine_sweep() -> dict:
    from tamesigns.cyclotomic import cyc_integer
    from tamesigns import metacyclic as mc

    wall = 0.0
    items = failed = 0
    mismatches = []
    for m, N, s in engine_groups():
        t0 = program_clock()
        G = mc.make_group(m, N, s)
        irreps = mc.enumerate_irreps(G)
        theta = mc.identity_involution(G)
        involutions = mc.involution_count(G)
        wall += program_clock() - t0
        group_ok = sum(p.f * p.f for p in irreps) == G.order
        weighted = 0
        for psi in irreps:
            t0 = program_clock()
            ind = mc.fs_indicator(G, psi)
            raw = mc.fs_indicator_raw(G, psi)
            sign = mc.theta_sign(G, theta, psi)
            wall += program_clock() - t0
            items += 1
            weighted += psi.f * ind
            if not (ind in (-1, 0, 1) and sign == ind
                    and raw == cyc_integer(G.order * ind, raw.conductor)):
                failed += 1
                if len(mismatches) < 5:
                    mismatches.append(f"group {(m, N, s)} psi {tuple(psi)}")
        if not (group_ok and weighted == involutions):
            failed += 1
            mismatches.append(f"group {(m, N, s)}: sum f^2 or sum f*ind wrong")
    return {
        "wall_s": wall,
        "items": items,
        "groups": len(engine_groups()),
        "attempted": items + len(engine_groups()),
        "failed": failed,
        "mismatches": mismatches,
        "latencies": array("d", [wall]),
    }


def pass_sign_queries(seed: int) -> dict:
    from queries import stream

    main = tamesigns.cli.main
    queries = stream(seed)
    latencies = array("d")
    real_stdout, real_stderr = sys.stdout, sys.stderr
    for argv, _ in queries:
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        try:
            t0 = program_clock()
            code = main(list(argv))
            elapsed = program_clock() - t0
        finally:
            sys.stdout, sys.stderr = real_stdout, real_stderr
        latencies.append(elapsed)
        # written at once, so held replies do not make peak RSS depend on order
        print(json.dumps([list(argv), code, out.getvalue(), err.getvalue()]))
    return {
        "wall_s": sum(latencies),
        "items": len(queries),
        "latencies": latencies,
    }


def main(argv: list[str]) -> int:
    workload, trace, seed, result_path = argv[0], argv[1] == "1", int(argv[2]), argv[3]
    result = {"ready": READY}
    if workload == "setup":  # a set-up probe: spawned, imported, done
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0
    tracer = None
    if trace:
        from tracing import instrument

        tracer = instrument(clock=program_clock)
    HOST.start()
    if workload == "flip_grid":
        result.update(pass_flip_grid())
    elif workload == "engine_sweep":
        result.update(pass_engine_sweep())
    elif workload == "sign_queries":
        result.update(pass_sign_queries(seed))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    HOST.stop()
    if HOST.samples:
        # harmonic mean: the ticks are evenly spaced in time, so this is
        # the loop's time at the pass's average speed
        result["cal_s"] = len(HOST.samples) / sum(1 / t for t in HOST.samples)
        result["cal_n"] = len(HOST.samples)
    # read before sorting the latencies, whose copy is not the program's memory
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["latency_s"] = _percentiles(result.pop("latencies"))
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

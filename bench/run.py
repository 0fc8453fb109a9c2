"""Benchmark for hobind: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload codec --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source tree; the library is imported from
``src/``. A closed loop with one client and one thread sends the
workload's requests round-robin for ``--seconds`` and checks every output
against ``reference.py``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from alternating untraced and traced
passes over one fixed cycle. ``--smoke`` runs every workload at its two
smallest rungs in both modes and checks the metric names against
``BENCHMARK.json``. See ``bench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 9
# import the library and finish its first-call lazy set-up, in a fresh
# interpreter; prints the seconds that took
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hobind, hobind.cli
hobind.binder.ground_samples()
print(time.perf_counter() - t0)
"""


# The host's speed drifts by 20 % and more, in spells from seconds to a
# minute, and a 30 s run cannot average that out. So each cycle is
# bracketed by a fixed task that stands in for the host's speed: it builds
# and walks tuple trees, the kind of work the library does, and never calls
# the library. Times of a cycle, a set-up or a traced pass are scaled by
# CALIBRATION_S over the task's time around them, so the metrics read as
# times on a host that runs the task in CALIBRATION_S. The notes print the
# unscaled throughput too.
CALIBRATION_S = 0.0015


def calibration_seconds() -> float:
    def build(depth):
        return ("leaf",) if depth == 0 else ("node", build(depth - 1), build(depth - 1))

    def size(t):
        return 1 if t[0] == "leaf" else 1 + size(t[1]) + size(t[2])

    t0 = perf_counter()
    for _ in range(4):
        size(build(10))
    return perf_counter() - t0


def setup_seconds(runs: int) -> float:
    """Median set-up time, each scaled to the reference host speed."""
    times = []
    for _ in range(runs):
        before = calibration_seconds()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC],
                              capture_output=True, text=True, check=True, timeout=60)
        calibration = (before + calibration_seconds()) / 2
        times.append(float(done.stdout) * CALIBRATION_S / calibration)
    return statistics.median(times)


def attempt(workload, api, req):
    """Run one request and check it: (seconds, correct, nodes, checks, error)."""
    from hobind.expr import ExoticUse

    t0 = perf_counter()
    try:
        out = workload.run(api, req.payload)
    except (Exception, ExoticUse) as exc:  # RecursionError included
        return perf_counter() - t0, False, 0, 0, exc
    seconds = perf_counter() - t0
    try:
        ok, nodes, checks = workload.check(req, out)
    except Exception as exc:  # output too malformed for the reference to read
        return seconds, False, 0, 0, exc
    return seconds, ok, nodes, checks, None if ok else "output differs from the reference"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def add(self, req, ok: bool, error) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.first_error = self.first_error or f"{req.kind}@{req.rung}: {error!r}"


def slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def timed_run(workload, cycles, seconds: float, setup_runs: int):
    """End-to-end metrics with tracing off."""
    from workloads import library_api

    setup_s = setup_seconds(setup_runs)
    api = library_api()
    tally = Tally()
    for req in cycles[0]:  # warm-up, checked but not timed
        _, ok, _, _, error = attempt(workload, api, req)
        tally.add(req, ok, error)
    gc.collect()
    rungs = sorted({r.rung for r in cycles[0]})
    latencies = []  # scaled to the reference host speed
    # per cycle: (requests/s, nodes/s, checks/s, median latency, exponent,
    # calibration seconds, unscaled seconds in requests). Medians over
    # cycles keep a garbage collection or a hiccup in one cycle from moving
    # the result.
    per_cycle = []
    started = perf_counter()
    j = 0
    while j == 0 or perf_counter() - started < seconds:
        rung_time = dict.fromkeys(rungs, 0.0)
        cycle_lat = []
        nodes = checks = 0
        before = calibration_seconds()
        for req in cycles[j % len(cycles)]:
            dt, ok, n, c, error = attempt(workload, api, req)
            tally.add(req, ok, error)
            if ok:
                cycle_lat.append(dt)
                rung_time[req.rung] += dt
                nodes += n
                checks += c
        calibration = (before + calibration_seconds()) / 2
        scale = CALIBRATION_S / calibration
        j += 1
        if len(cycle_lat) < len(cycles[0]):
            continue  # a failed request: the run is reported incorrect anyway
        raw_busy = sum(cycle_lat)
        busy = raw_busy * scale
        per_cycle.append((len(cycle_lat) / busy, nodes / busy, checks / busy,
                          statistics.median(cycle_lat) * scale,
                          slope(rungs, [rung_time[r] for r in rungs]),
                          calibration, raw_busy))
        latencies.extend(dt * scale for dt in cycle_lat)
    failed_ratio = (f"failed_ratio {tally.failed / tally.attempted:g} "
                    f"({tally.failed} of {tally.attempted})")
    if not per_cycle:
        return {}, tally, [failed_ratio]
    latencies.sort()
    count = len(latencies)
    tail_rank = max(count - 10, 1)  # ten samples beyond it, when there are enough

    def median(i):
        return statistics.median(c[i] for c in per_cycle)

    metrics = {
        "requests_per_s": (median(0), "1/s"),
        "nodes_per_s": (median(1), "nodes/s"),
        "checks_per_s": (median(2), "1/s"),
        "latency_p50_ms": (median(3) * 1e3, "ms"),
        "latency_tail_ms": (latencies[tail_rank - 1] * 1e3, "ms"),
        "scaling_exponent": (median(4), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"{count} requests in {j} cycles and {perf_counter() - started:.2f} s wall, "
        f"{sum(c[6] for c in per_cycle):.2f} s of it inside requests",
        f"latency_tail_ms is p{100 * tail_rank / count:.2f} of {count} samples",
        f"the calibration task took {median(5) * 1e3:.3f} ms (reference "
        f"{CALIBRATION_S * 1e3:g} ms); unscaled requests_per_s "
        f"{statistics.median(len(cycles[0]) / c[6] for c in per_cycle):.6g}",
        failed_ratio,
    ]
    return metrics, tally, notes


def run_pass(workload, api, reqs, tally, tracer=None):
    """One cycle of requests; returns (wall seconds, verified nodes, scale
    to the reference host speed).
    """
    nodes = 0
    before = calibration_seconds()
    started = perf_counter()
    for i, req in enumerate(reqs):
        if tracer is None:
            _, ok, n, _, error = attempt(workload, api, req)
        else:
            tracer.request = i
            _, ok, n, _, error = tracer.bench_span(attempt, workload, api, req)
        tally.add(req, ok, error)
        nodes += n
    wall = perf_counter() - started
    return wall, nodes, CALIBRATION_S * 2 / (before + calibration_seconds())


def traced_run(workload, reqs, seconds: float, spans_path: str | None):
    """Per-layer metrics from alternating untraced and traced passes."""
    from tracing import LAYERS, Tracer
    from workloads import library_api

    raw = library_api()
    tally = Tally()
    run_pass(workload, raw, reqs, tally)  # warm-up
    plain_walls, passes = [], []
    notes = []
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        gc.collect()
        wall, _, scale = run_pass(workload, raw, reqs, tally)
        plain_walls.append(wall * scale)
        gc.collect()
        tracer = Tracer(keep_spans=not passes and spans_path is not None)
        api = library_api(tracer.wrap)
        tracer.install()
        try:
            wall, nodes, scale = run_pass(workload, api, reqs, tally, tracer)
        finally:
            tracer.uninstall()
        passes.append((wall, nodes, tracer, scale))
    if spans_path:
        first = passes[0][2]
        first.write(spans_path)
        notes.append(f"{len(first.spans)} spans of one pass written to {spans_path}")

    if tally.failed:
        return {}, tally, notes

    def counts_of(tracer):
        return {**tracer.calls, **tracer.counts}

    _, out_nodes, first, _ = passes[0]
    repeated = all(counts_of(t) == counts_of(first) for _, _, t, _ in passes)
    if not repeated:
        tally.failed += 1
        tally.first_error = tally.first_error or "counts differ between traced passes"
    accounted = [sum(t.self_s.values()) / wall for wall, _, t, _ in passes]
    if not all(0.95 < a <= 1.0 + 1e-9 for a in accounted):
        tally.failed += 1
        tally.first_error = tally.first_error or f"self times cover {accounted} of wall time"

    def self_s(layer):
        return statistics.median(t.self_s[layer] * scale for _, _, t, scale in passes)

    c = first.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
        metrics[f"{layer}.calls"] = (first.calls[layer], "count")
    metrics.update({
        "bench.self_s": (self_s("bench"), "s"),
        "terms.nodes_walked": (c["terms.nodes_walked"], "nodes"),
        "terms.walk_factor": (c["terms.nodes_walked"] / out_nodes, "ratio"),
        "expr.constructions": (c["expr.constructions"], "count"),
        "expr.inspections": (c["expr.inspections"], "count"),
        "expr.exotic_raised": (c["expr.exotic_raised"], "count"),
        "binder.sessions": (c["binder.sessions"], "count"),
        "binder.exotic_ratio": (c["binder.exotic_verdicts"] / c["binder.sessions"], "ratio"),
        "binder.body_nodes": (c["binder.body_nodes"], "nodes"),
        "named_lambda.beta_steps": (c["named_lambda.beta_steps"], "count"),
        "laws.checks": (c["laws.checks"], "count"),
        "trace.overhead_ratio": (statistics.median(w * scale for w, _, _, scale in passes)
                                 / statistics.median(plain_walls), "ratio"),
        "trace.accounted_ratio": (statistics.median(accounted), "ratio"),
    })
    notes.insert(0, f"{len(passes)} traced and {len(plain_walls)} untraced passes of "
                    f"{len(reqs)} requests; counts repeat exactly: {repeated}")
    return metrics, tally, notes


def report(metrics, tally, notes) -> bool:
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:26s} {value:14.6g} {unit}")
    correct = tally.failed == 0
    if not correct:
        print(f"FAILED: {tally.first_error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return correct


def smoke() -> bool:
    """Both modes on the two smallest rungs of every workload; checks the
    outputs and that the metric names and units match BENCHMARK.json.
    """
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    want = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for name, workload in WORKLOADS.items():
        small = set(workload.rungs[:2])
        cycles = [[r for r in cycle if r.rung in small] for cycle in workload.build(1)]
        for section, (metrics, tally, _) in (
            ("end_to_end", timed_run(workload, cycles, 0, 1)),
            ("per_layer", traced_run(workload, cycles[0], 0, None)),
        ):
            got = {m: unit for m, (_, unit) in metrics.items()}
            good = tally.failed == 0 and got == want[section] and all(
                math.isfinite(v) for v, _ in metrics.values())
            print(f"smoke {name} {section}: {'ok' if good else 'FAILED'}"
                  + ("" if tally.failed == 0 else f" ({tally.first_error})")
                  + ("" if got == want[section] else f" (metrics {sorted(got)})"))
            ok = ok and good
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("codec", "eval", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hobind", "__init__.py")):
        print(f"no hobind sources under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cycles = workload.build(args.seed)
    if args.trace:
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json.gz")
        result = traced_run(workload, cycles[0], args.seconds, spans)
    else:
        result = timed_run(workload, cycles, args.seconds, SETUP_RUNS)
    return 0 if report(*result) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for hilldraw.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hilldraw is imported from its
``src`` directory and from nowhere else.  One client runs ops in a closed
loop in this process, with ``workers=1`` everywhere.

--trace 0 measures the end-to-end metrics: ops run on fresh inputs in whole
cycles, and the run ends on the cycle edge nearest to S seconds, so every
input size weighs the same.  --trace 1 measures the per-layer metrics: the
first cycle of ops runs again and again, in pairs of an untraced and a
traced pass over the same inputs, for about S seconds; counts are per pass
and must agree across passes, times are medians over passes.  Spans go to
``.perfbench/spans-<workload>-<seed>.json`` when the run ends.

Reported times are CPU time (``spans.clock``, plus the fresh interpreter's
in set-up), not wall time: on a shared host, wall time also counts the time
the hypervisor gives to other guests.  They are divided by the run's host
factor (see hostspeed.py).  The unscaled CPU and wall-clock
median op latencies and the host factors are printed as plain lines.

Lines before the last describe the host and print each metric with its
unit; the last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
THREAD_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from spans import (NullTracer, Tracer, clock, layer_totals,  # noqa: E402
                   median_layers)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

# A percentile is reported only with at least ten samples beyond it, so
# op_p90_ms needs 100 ops; it is printed, not gated, because the workloads
# with long ops never reach that count in one run.
P90_MIN_OPS = 100

# Per-layer work counts per span name, with their units.
LAYER_COUNTS = {
    "construct.recursive_construct": {"half_circles": "count"},
    "docio.parse": {"bytes": "B", "edges": "count"},
    "docio.serialize": {"bytes": "B"},
    "drawing.build": {"edges": "count"},
    "drawing.circle_pairs": {"circle_pairs": "count"},
    "drawing.count_crossings": {"edge_pairs": "count", "crossings": "count"},
    "drawing.double": {},
    "drawing.mutate": {},
    "drawing.random_assignment": {},
    "drawing.verify": {"edge_pairs": "count"},
    "montecarlo.k4_census": {"samples": "count"},
    "montecarlo.sample_points": {"triples": "count"},
}
# Rates reported as count / self time; unit is per second.
LAYER_RATES = {
    "docio.parse": "edges",
    "drawing.build": "edges",
    "drawing.circle_pairs": "circle_pairs",
    "drawing.count_crossings": "edge_pairs",
    "drawing.verify": "edge_pairs",
    "montecarlo.k4_census": "samples",
}


def _import_program():
    """Import hilldraw from this checkout's src directory, or exit."""
    if not (SRC / "hilldraw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hilldraw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hilldraw
    if Path(hilldraw.__file__).resolve().parent != SRC / "hilldraw":
        sys.exit(f"perfbench: hilldraw imported from {hilldraw.__file__}, "
                 f"not from {SRC}")


def host_facts() -> dict:
    import numpy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "thread_pin": THREAD_PIN,
            "machine": platform.machine()}


def _fresh_import() -> None:
    """Import hilldraw in a fresh interpreter, as a user's command does."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import hilldraw, hilldraw.docio")
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                   cwd=ROOT, timeout=120)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup(workload_cls, seed: int,
          tr) -> tuple[object, float, float, list[str]]:
    """Imports, input generation and a warm-up op, repeated; returns the
    workload, the median set-up CPU time (the fresh interpreter's and this
    process's), the host factor around set-up and any missed warm-up
    check."""
    times, misses = [], []
    host = HostSpeed()
    for _ in range(SETUP_REPEATS):
        host.sample()
        start = clock() + _children_cpu()
        _fresh_import()
        work = workload_cls(seed)
        misses += work.warmup(tr)
        times.append(clock() + _children_cpu() - start)
    host.sample()
    return work, statistics.median(times), host.factor(), misses


def _run_op(work, i: int, tr) -> tuple[bool, float, float]:
    """Run op i; returns whether it passed, its CPU time and wall time."""
    tr.op = i
    wall, start = time.perf_counter(), clock()
    try:
        with tr.span("op"):
            misses = work.op(i, tr)
    except Exception as exc:  # an op that raises counts as failed
        misses = [f"raised {type(exc).__name__}: {exc}"]
    elapsed = clock() - start
    wall = time.perf_counter() - wall
    for m in misses:
        print(f"op {i} failed: {m}", file=sys.stderr)
    return not misses, elapsed, wall


def _at_last_edge(start: float, cycle_start: float, seconds: float) -> bool:
    """True on the edge nearest to ``seconds`` after ``start``, taking the
    next cycle (or pair of passes) to last as long as the one just ended."""
    now = time.perf_counter()
    return now - start + (now - cycle_start) / 2 >= seconds


def measure(work, seconds: float, tr) -> dict:
    """Closed loop over whole cycles of fresh inputs for about
    ``seconds``."""
    latencies, walls, passed, failed = [], [], [], 0
    host = HostSpeed()
    host.sample()
    start = time.perf_counter()
    i = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in range(work.cycle):
            ok, elapsed, wall = _run_op(work, i, tr)
            host.sample_if_due()
            latencies.append(elapsed)
            walls.append(wall)
            if ok:
                passed.append(i)
            else:
                failed += 1
            i += 1
        if _at_last_edge(start, cycle_start, seconds):
            break
    host.sample()
    factor = host.factor()
    return {"attempted": i, "failed": failed, "passed": passed,
            "misses": [], "host_factor": factor,
            "ops_per_s": (i - failed) * factor / sum(latencies),
            "op_p50": median_over_sizes(latencies, work.cycle) / factor,
            "latencies": latencies, "walls": walls}


def median_over_sizes(latencies: list[float], cycle: int) -> float:
    """Median op latency of a run of whole cycles: the median over the
    cycle's input sizes of each size's median latency.

    The plain median of a mix of sizes falls in the gap between two sizes,
    where it is the slowest op of one size or the fastest of the next, and
    swings with them; a median per size first does not.  With one size per
    cycle it is the plain median.
    """
    return statistics.median(statistics.median(latencies[p::cycle])
                             for p in range(cycle))


def measure_traced(work, seconds: float) -> dict:
    """Pairs of an untraced and a traced pass over the first cycle of ops,
    for about ``seconds`` and at least one pair."""
    null, tracer = NullTracer(), Tracer()
    pass_time = {False: [], True: []}
    layer_passes, uncovered = [], []
    attempted = failed = 0
    passed: set[int] = set()
    host = HostSpeed()
    host.sample()
    start = time.perf_counter()
    traced = False
    while True:
        tr = tracer if traced else null
        first = len(tracer.spans)
        if not traced:
            pair_start = time.perf_counter()
        op_time = 0.0
        for i in range(work.cycle):
            ok, elapsed, _ = _run_op(work, i, tr)
            host.sample_if_due()
            op_time += elapsed
            attempted += 1
            if ok:
                passed.add(i)
            else:
                failed += 1
        pass_time[traced].append(op_time)
        if traced:
            layers, op_time, op_self = layer_totals(tracer.spans[first:],
                                                    "op")
            layer_passes.append(layers)
            uncovered.append(op_self / op_time)
        if traced and _at_last_edge(start, pair_start, seconds):
            break
        traced = not traced
    host.sample()
    factor = host.factor()
    untraced_rate = work.cycle * factor / statistics.median(pass_time[False])
    traced_rate = work.cycle * factor / statistics.median(pass_time[True])
    layers, differing = median_layers(layer_passes)
    for rec in layers.values():
        rec["self_s"] /= factor
    return {"attempted": attempted, "failed": failed, "host_factor": factor,
            "passed": sorted(passed), "tracer": tracer, "layers": layers,
            "misses": [f"work counts of {name} differ between passes over "
                       "the same inputs" for name in differing],
            "uncovered_share": statistics.median(uncovered),
            "untraced_ops_per_s": untraced_rate,
            "traced_ops_per_s": traced_rate}


def end_to_end_metrics(run: dict, setup_s: float) -> dict:
    """Metric name -> (value, unit)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"ops_per_s": (run["ops_per_s"], "1/s"),
            "op_p50_ms": (run["op_p50"] * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s")}


def per_layer_metrics(run: dict) -> dict:
    """Metric name -> (value, unit); a layer the workload never calls
    reads 0.  Times are scaled by the run's host factor."""
    out = {}
    for name, counts in LAYER_COUNTS.items():
        rec = run["layers"].get(name, {"calls": 0, "self_s": 0.0,
                                       "counts": {}})
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
        for key, unit in counts.items():
            out[f"{name}.{key}"] = (rec["counts"].get(key, 0), unit)
        rate_key = LAYER_RATES.get(name)
        if rate_key is not None:
            work = rec["counts"].get(rate_key, 0)
            rate = work / rec["self_s"] if rec["self_s"] > 0 else 0.0
            out[f"{name}.{rate_key}_per_s"] = (rate, "1/s")
    out["bench.op.uncovered_share"] = (run["uncovered_share"], "ratio")
    out["bench.trace.traced_ops_per_s"] = (run["traced_ops_per_s"], "1/s")
    out["bench.trace.untraced_ops_per_s"] = (run["untraced_ops_per_s"],
                                             "1/s")
    out["bench.trace.speed_ratio"] = (
        run["traced_ops_per_s"] / run["untraced_ops_per_s"], "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")

    print("host " + json.dumps(host_facts(), sort_keys=True))
    work, setup_s, setup_factor, misses = setup(WORKLOADS[args.workload],
                                                args.seed, NullTracer())
    if args.trace:
        run = measure_traced(work, args.seconds)
        metrics = per_layer_metrics(run)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        run["tracer"].dump(
            out_dir / f"spans-{args.workload}-{args.seed}.json")
    else:
        run = measure(work, args.seconds, NullTracer())
        metrics = end_to_end_metrics(run, setup_s / setup_factor)
    misses += run["misses"] + work.run_checks(run["passed"])
    for m in misses:
        print(f"run check failed: {m}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if not args.trace and len(run["latencies"]) >= P90_MIN_OPS:
        p90 = statistics.quantiles(run["latencies"], n=10)[8]
        print(f"op_p90_ms {p90 / run['host_factor'] * 1e3} ms")
    print(f"host_factor {run['host_factor']} ratio")
    if not args.trace:
        cpu_p50 = median_over_sizes(run["latencies"], work.cycle) * 1e3
        wall_p50 = median_over_sizes(run["walls"], work.cycle) * 1e3
        print(f"op_cpu_p50_ms {cpu_p50} ms\nop_wall_p50_ms {wall_p50} ms\n"
              f"setup_cpu_s {setup_s} s\n"
              f"setup_host_factor {setup_factor} ratio")
    print(json.dumps({
        "correct": run["failed"] == 0 and not misses,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating perfbench pairs of two checkouts, and their summary.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                [--workload W2 ...] [--pairs N]
                                [--seconds S] [--seed K]

The workloads run one after the other, N pairs each.  Pair i of workload
W runs ``perfbench/run.py --trace 0 --workload W --seed K+i --seconds S``
once in each checkout, from the checkout's root, so each imports its own
``src``; the parent runs first in even pairs and the change in odd ones.
Each checkout's ``src`` is byte-compiled first (see README, "Comparing
two checkouts").  Each pair is printed as one JSON line, {"workload",
"seed", "first", "parent", "change"}, each side with its metrics and its
run's correct, attempted and failed, as the BENCH_*.json files record
them.

After a workload's pairs, a line "workload W:" heads its summary: for
every end-to-end metric of BENCHMARK.json (next to this script's
directory), each side's median and quartiles over the pairs, the pairs
the change won in the metric's better direction (a tie counts for
neither side), and whether the medians differ by more than the parent's
interquartile spread; on the next line, whether the change's median is
worse than the parent's by more than the metric's ``bound``, a fraction
of the parent's median.  One last line gives the gain rule's verdict for
each metric: the change wins at least 9 in 10 of the pairs, and its
median is better than the parent's by more than the parent's
interquartile spread.  A run whose result line is not correct is named.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics() -> list[dict]:
    """BENCHMARK.json's end-to-end metrics: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def parse_result(output: str) -> dict:
    """Metric name -> value, and the run's correct, attempted and failed,
    from the last line of run.py's output, a JSON object."""
    result = json.loads(output.strip().splitlines()[-1])
    return {**{name: rec["value"] for name, rec in result["metrics"].items()},
            **{key: result[key] for key in ("correct", "attempted",
                                            "failed")}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]
              ) -> list[dict]:
    """Per metric, from (parent, change) metric dicts of each pair: both
    sides' quartiles, the change's wins, whether the medians differ by
    more than the parent's interquartile spread, and, for a metric with a
    ``bound``, whether the change's median is worse than the parent's by
    more than bound times the parent's median (None without a bound).
    ``gain`` is the gain rule: wins in at least 9 of 10 pairs, and a
    median better than the parent's by more than the spread."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gained = sign * (cq[1] - pq[1])
        bound = m.get("bound")
        rows.append({
            "name": name, "unit": m["unit"], "parent": pq, "change": cq,
            "wins": wins, "pairs": len(pairs),
            "beyond_spread": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "bound": bound,
            "beyond_bound": (None if bound is None
                             else -gained > bound * abs(pq[1])),
            "gain": 10 * wins >= 9 * len(pairs) and gained > pq[2] - pq[0]})
    return rows


def format_rows(rows: list[dict]) -> str:
    """One line per metric: medians [quartiles] of both sides, wins; for a
    metric with a bound, a line whether the change is worse beyond it;
    then one line with each metric's gain-rule verdict."""
    def yes(x):
        return "yes" if x else "no"

    lines = []
    for r in rows:
        (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
        lines.append(
            f"{r['name']} ({r['unit']}): parent {p2:.4g} [{p1:.4g}, {p3:.4g}]"
            f"  change {c2:.4g} [{c1:.4g}, {c3:.4g}]  change wins "
            f"{r['wins']}/{r['pairs']}  medians differ by more than the "
            f"parent's spread: {yes(r['beyond_spread'])}")
        if r["bound"] is not None:
            lines.append(f"  change worse than the parent by more than its "
                         f"bound of {r['bound']:.0%}: "
                         f"{yes(r['beyond_bound'])}")
    lines.append("gain rule (the change wins at least 9/10 of the pairs and "
                 "its median is better by more than the parent's spread): "
                 + ", ".join(f"{r['name']} {yes(r['gain'])}" for r in rows))
    return "\n".join(lines)


def run_side(checkout: Path, workload: str, seed: int, seconds: float
             ) -> dict:
    """One end-to-end perfbench run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--trace", "0", "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for checkout in checkouts.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       cwd=checkout, check=True)
    status = 0
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            got = {side: run_side(checkouts[side], workload, seed,
                                  args.seconds) for side in order}
            for side in order:
                if not got[side]["correct"]:
                    print(f"{workload} pair {i} (seed {seed}): the {side} "
                          "run is not correct", file=sys.stderr)
                    status = 1
            pairs.append((got["parent"], got["change"]))
            print(json.dumps({"workload": workload, "seed": seed,
                              "first": order[0], **got}), flush=True)
        print(f"workload {workload}:")
        print(format_rows(summarize(pairs, end_to_end_metrics())),
              flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

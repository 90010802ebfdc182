"""Judge two benchmark results by the bounds in ``BENCHMARK.json``.

``python3 -m benchmarks.perf.compare A B`` — ``A`` is the parent's result,
``B`` the change's.  Each is a result file written by ``python3 -m
benchmarks.perf`` (``--out``), or a ``.jsonl`` of several such results of
one commit (the ``history/runs.jsonl`` format).  One row per (workload,
end-to-end metric) with both medians, both ranges and a verdict:

* ``same`` / ``better`` / ``worse`` — B's median is within the metric's
  bound of A's, or beyond it in the good or the bad direction;
* ``unresolved`` — the spread between runs is wider than the bound, so
  the medians cannot be told apart (unless every run of one side reads
  better than every run of the other);
* simulated metrics (unit ``sim_s``) are deterministic for a seed and must
  be *identical*; any difference is ``worse``.

The spread of a side is the distance between the first and third quartile
of its runs as a share of their median (all of the range with fewer than
four runs); a single run falls back to the same measure over its own
timed repetitions, as the host noise of that run.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf import load_spec

SIMULATED_UNIT = "sim_s"


def load_runs(path: str) -> List[Dict[str, Any]]:
    """One result (``.json``) or several, one a line (``.jsonl``)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def spread(values: Sequence[float], fallback: float) -> float:
    """Run-to-run spread as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return fallback
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    first, __, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def repetition_spread(run: Dict[str, Any], workload: str) -> float:
    """Spread of one run's own timed repetitions: its host noise."""
    samples = run["workloads"][workload]["end_to_end"]["samples"]
    return spread(samples["wall_s"]["values"], 0.0)


def judge(
    metric: Dict[str, Any],
    parent: Sequence[float],
    change: Sequence[float],
    parent_spread: float,
    change_spread: float,
) -> str:
    a, b = statistics.median(parent), statistics.median(change)
    if metric["unit"] == SIMULATED_UNIT:
        return "same" if set(parent) == set(change) else "worse"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worsening = sign * (b - a) / abs(a)
    bound = metric["bound"]
    if max(parent_spread, change_spread) > bound:
        # Too noisy for the medians; only several runs a side that do not
        # overlap at all decide.
        if min(len(parent), len(change)) > 1:
            if max(sign * v for v in change) < min(sign * v for v in parent):
                return "better"
            if min(sign * v for v in change) > max(sign * v for v in parent) and worsening > bound:
                return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def compare(
    parent_runs: List[Dict[str, Any]],
    change_runs: List[Dict[str, Any]],
    spec: Dict[str, Any],
) -> List[Tuple[str, str, str, str]]:
    """Rows of ``(workload, metric, verdict, detail)``."""
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        if not all(workload in run["workloads"] for run in parent_runs + change_runs):
            continue
        for metric in spec["end_to_end"]:
            sides = []
            for runs in (parent_runs, change_runs):
                values = [
                    run["workloads"][workload]["end_to_end"]["metrics"][metric["name"]]["value"]
                    for run in runs
                ]
                timed = metric["unit"] not in (SIMULATED_UNIT, "MiB")
                fallback = repetition_spread(runs[0], workload) if timed else 0.0
                sides.append((values, spread(values, fallback)))
            (a_values, a_spread), (b_values, b_spread) = sides
            verdict = judge(metric, a_values, b_values, a_spread, b_spread)
            detail = (
                f"{statistics.median(a_values):.6g} [{min(a_values):.6g}..{max(a_values):.6g}]"
                f" -> {statistics.median(b_values):.6g} [{min(b_values):.6g}..{max(b_values):.6g}]"
                f" {metric['unit']}, spread {max(a_spread, b_spread):.1%},"
                f" bound {'exact' if metric['unit'] == SIMULATED_UNIT else format(metric['bound'], '.0%')}"
            )
            rows.append((workload, metric["name"], verdict, detail))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf.compare", description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="result .json / .jsonl of the parent commit")
    parser.add_argument("change", help="result .json / .jsonl of the change")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change), load_spec())
    if not rows:
        print("no workload is in both results", file=sys.stderr)
        return 2
    for workload, metric, verdict, detail in rows:
        print(f"{workload:18s} {metric:26s} {verdict:10s} {detail}")
    counts = {verdict: sum(1 for row in rows if row[2] == verdict) for verdict in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())

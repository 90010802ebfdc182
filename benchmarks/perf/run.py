"""Measure one workload in this process (the ``BENCHMARK.json`` command).

``python3 -m benchmarks.perf.run --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Exits 1 when an output is wrong.

Method, the same on every commit: set-up (imports, then the workload's
``build`` — repeated, median reported) -> 1 untimed warm-up repetition ->
timed repetitions until ``--seconds`` of them have run, never fewer than
:data:`MIN_REPETITIONS`, with ``gc.collect()`` between and outside the
timed region; on ``serve-mixed`` a pass of solo queries follows every
repetition.  Tracing is off for all of that, and the process stays on one
CPU.  ``--trace 1`` instead
times one repetition untraced, one traced, one untraced, and reports the
traced one split by layer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf import PERF_DIR, REPO_ROOT, SCHEMA_VERSION, load_spec

MIN_REPETITIONS = 3
#: ``build`` is repeated this often for the ``setup_s`` median, but not
#: once more after it has used up the budget (graph generation of
#: ``oom-pagerank`` alone takes seconds).
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0
GOLDEN_JSON = os.path.join(PERF_DIR, "golden.json")


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "values": list(samples),
    }


class Run:
    """One workload's measurement: inputs, checks and collected numbers."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        from benchmarks.perf.workloads import WORKLOADS

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.inputs: Any = None
        #: facts and outcome of the first repetition, the reference.
        self.facts: Any = None
        self.outcome: Any = None
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def set_up(self, repeats: int) -> List[float]:
        """Build the inputs ``repeats`` times; returns each build's seconds."""
        builds: List[float] = []
        while len(builds) < repeats and (
            not builds or sum(builds) < SETUP_BUDGET_S
        ):
            self.inputs = None  # one input set alive at a time (peak RSS)
            gc.collect()
            started = time.perf_counter()
            self.inputs = self.workload.build(self.seed, self.smoke)
            builds.append(time.perf_counter() - started)
        return builds

    def repetition(self) -> float:
        """One timed repetition; its facts must repeat the first one's."""
        gc.collect()
        started = time.perf_counter()
        outcome = self.workload.run(self.inputs)
        wall = time.perf_counter() - started
        self.check(outcome)
        return wall

    def check(self, outcome: Any) -> Any:
        """Check one repetition's facts; returns them."""
        facts = self.workload.facts(self.inputs, outcome)
        if self.facts is None:
            self.facts = facts
            self.outcome = outcome
            self.failed += facts.failed
            self.problems += facts.problems
        elif facts.values != self.facts.values:
            changed = sorted(
                key
                for key in facts.values
                if facts.values[key] != self.facts.values.get(key)
            )
            self.failed += 1
            self.problems.append(f"repetitions disagree on {changed}")
        return facts

    def check_golden(self) -> str:
        """Compare the facts with ``golden.json`` when it pins this seed."""
        with open(GOLDEN_JSON, encoding="utf-8") as handle:
            golden = json.load(handle)
        if self.smoke or self.seed != golden["seed"]:
            return (
                f"skipped (golden.json pins seed {golden['seed']} at full "
                "size; invariants only)"
            )
        expected = golden["workloads"][self.workload.name]
        for key in sorted(set(expected) | set(self.facts.values)):
            if expected.get(key) != self.facts.values.get(key):
                self.failed += 1
                self.problems.append(
                    f"golden mismatch on {key}: expected "
                    f"{expected.get(key)!r}, got {self.facts.values.get(key)!r}"
                )
        return "checked"

    # ------------------------------------------------------------------
    def end_to_end(self, seconds: float, import_s: float) -> Dict[str, float]:
        from repro.serve import nearest_rank

        builds = self.set_up(SETUP_REPEATS)
        self.check(self.workload.run(self.inputs))  # warm-up, untimed
        walls: List[float] = []
        passes: List[List[float]] = []
        solo_s = 0.0
        # A solo pass follows every repetition, so both series sample the
        # whole measuring time and a slow spell of the machine hits both.
        while len(walls) < MIN_REPETITIONS or sum(walls) + solo_s < seconds:
            walls.append(self.repetition())
            if self.workload.solo is not None:
                started = time.perf_counter()
                passes.append(self.solo_pass())
                solo_s += time.perf_counter() - started
        wall_s = statistics.median(walls)
        values = self.facts.values
        self.samples = {"build_s": summarize(builds), "wall_s": summarize(walls)}
        metrics = {
            "wall_s": wall_s,
            "steps_per_wall_s": values["total_steps"] / wall_s,
            "setup_s": import_s + statistics.median(builds),
            "sim_makespan_s": values["sim_makespan_s"],
        }
        if passes:
            per_query = [statistics.median(column) for column in zip(*passes)]
            self.samples["solo_query_wall_ms"] = summarize(per_query)
            metrics.update(
                {
                    "queries_per_wall_s": values["ops"] / wall_s,
                    "solo_query_wall_ms_p50": nearest_rank(per_query, 50),
                    "solo_query_wall_ms_p90": nearest_rank(per_query, 90),
                    "sim_query_latency_p50_s": values["sim_query_latency_p50_s"],
                    "sim_query_latency_p90_s": values["sim_query_latency_p90_s"],
                }
            )
        else:
            # A batch run is one job from one client: the query metrics
            # are that job's, so every workload reports every metric.
            metrics.update(
                {
                    "queries_per_wall_s": 1.0 / wall_s,
                    "solo_query_wall_ms_p50": wall_s * 1e3,
                    "solo_query_wall_ms_p90": wall_s * 1e3,
                    "sim_query_latency_p50_s": values["sim_makespan_s"],
                    "sim_query_latency_p90_s": values["sim_makespan_s"],
                }
            )
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        return metrics

    def solo_pass(self) -> List[float]:
        """Every served query once, alone; returns the latencies in ms."""
        gc.collect()
        latencies_ms, mismatched = self.workload.solo(self.inputs, self.outcome)
        if mismatched:
            self.failed += mismatched
            self.problems.append(
                f"parity gate: {mismatched} served results differ from "
                "their standalone run"
            )
        return latencies_ms

    # ------------------------------------------------------------------
    def per_layer(self, trace_out: Optional[str]) -> Dict[str, float]:
        from benchmarks.perf.tracing import layer_metrics, traced_calls

        self.set_up(1)
        untraced = [self.repetition()]
        gc.collect()
        with traced_calls() as tracer:
            outcome = self.workload.run(self.inputs)
        # Same steps, iterations and simulated seconds as the untraced
        # repetitions: the proof that wrapping changed nothing.
        layer_counts = self.check(outcome).layer_counts
        untraced.append(self.repetition())
        untraced_wall_s = statistics.mean(untraced)
        self.samples = {"untraced_wall_s": summarize(untraced)}
        if trace_out is not None:
            os.makedirs(trace_out, exist_ok=True)
            tracer.dump_chrome_trace(
                os.path.join(trace_out, f"{self.workload.name}.trace.json")
            )
        return layer_metrics(tracer, layer_counts, untraced_wall_s)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    trace_out: Optional[str] = None,
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """Measure one workload; returns the full result (see ``--out``)."""
    started = time.perf_counter()
    spec = load_spec()
    run = Run(name, seed, smoke)
    if trace:
        listed, measured = spec["per_layer"], run.per_layer(trace_out)
    else:
        listed, measured = spec["end_to_end"], run.end_to_end(seconds, import_s)
    golden = run.check_golden()
    return {
        "schema": SCHEMA_VERSION,
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": int(trace),
        "correct": run.failed == 0,
        "attempted": run.facts.values["ops"],
        "failed": run.failed,
        "problems": run.problems,
        "golden": golden,
        "facts": run.facts.values,
        "metrics": {
            metric["name"]: {
                "value": measured[metric["name"]],
                "unit": metric["unit"],
            }
            for metric in listed
        },
        "samples": run.samples,
        "elapsed_s": time.perf_counter() - started,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.perf.run", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(load_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument("--trace-out", help="dump the spans as Chrome trace JSON into this directory")
    args = parser.parse_args(argv)

    source = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    if source not in sys.path:
        sys.path.insert(0, source)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run: migrations between cores were the
        # largest single source of outlier repetitions on the 2-core VM.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from benchmarks.perf.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        smoke=args.smoke,
        trace_out=args.trace_out,
        import_s=time.perf_counter() - started,
    )
    for problem in result["problems"]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

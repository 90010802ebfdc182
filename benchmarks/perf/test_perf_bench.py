"""Self-test of the benchmark at ``--smoke`` size.

Run as ``PYTHONPATH=src python -m pytest benchmarks/perf -q``; not part of
the tier-1 collection (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import BENCHMARK_JSON, PERF_DIR, load_spec
from benchmarks.perf.compare import compare
from benchmarks.perf.run import run_workload
from benchmarks.perf.tracing import TRACED, resolve_targets, span_names

SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
UNSANITIZED = [name for name in WORKLOADS if name != "cluster-sanitized"]


@pytest.fixture(scope="module")
def results():
    """Every workload at smoke size: end-to-end and traced."""
    return {
        (name, trace): run_workload(name, 7, 0.0, bool(trace), smoke=True)
        for name in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("section,trace", [("end_to_end", 0), ("per_layer", 1)])
def test_every_listed_metric_is_emitted_with_its_unit(results, section, trace):
    listed = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for name in WORKLOADS:
        result = results[name, trace]
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        emitted = {key: entry["unit"] for key, entry in result["metrics"].items()}
        assert emitted == listed
        assert all(
            isinstance(entry["value"], float) for entry in result["metrics"].values()
        )
    if section == "end_to_end":
        for name in WORKLOADS:
            values = [entry["value"] for entry in results[name, 0]["metrics"].values()]
            assert all(value > 0 for value in values)


def test_self_times_sum_to_the_traced_wall(results):
    for name in WORKLOADS:
        metrics = {
            key: entry["value"] for key, entry in results[name, 1]["metrics"].items()
        }
        total = metrics["bench.harness.self_s"]
        for layer in TRACED:
            if f"{layer}.self_s" in metrics:
                total += metrics[f"{layer}.self_s"]
            else:  # the layer is listed span by span
                total += sum(
                    metrics[f"{span}.self_s"]
                    for span in span_names()
                    if span.startswith(layer + ".")
                )
        assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_sanitizer_only_runs_where_it_is_switched_on(results):
    for name in UNSANITIZED:
        metrics = results[name, 1]["metrics"]
        assert metrics["analysis.sanitizer.calls"]["value"] == 0
        assert metrics["analysis.sanitizer.self_s"]["value"] == 0
    sanitized = results["cluster-sanitized", 1]["metrics"]
    assert sanitized["analysis.sanitizer.calls"]["value"] > 0
    assert sanitized["analysis.sanitizer.checks"]["value"] > 0
    assert sanitized["analysis.sanitizer.violations"]["value"] == 0


def test_traced_repetition_reproduces_the_untraced_facts(results):
    for name in WORKLOADS:
        assert results[name, 1]["facts"] == results[name, 0]["facts"]


def test_every_wrapped_callable_is_restored(results):
    # ``results`` has traced every workload by now; resolving the table
    # again must find the very functions the modules defined.
    for owner, attribute, original, __ in resolve_targets():
        assert vars(owner)[attribute] is original
        assert not hasattr(original, "__wrapped__")


def _suite_result(results):
    """The smoke results as one suite result, its repetitions made steady."""
    suite = {
        "workloads": {
            name: {"end_to_end": copy.deepcopy(results[name, 0])} for name in WORKLOADS
        }
    }
    for runs in suite["workloads"].values():
        runs["end_to_end"]["samples"]["wall_s"]["values"] = [1.0, 1.0, 1.0]
    return suite


def _verdicts(parent, change):
    return {
        (workload, metric): verdict
        for workload, metric, verdict, __ in compare([parent], [change], SPEC)
    }


def test_compare_flags_a_slowdown_and_a_changed_simulated_time(results):
    parent = _suite_result(results)
    assert set(_verdicts(parent, copy.deepcopy(parent)).values()) == {"same"}

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    slower = copy.deepcopy(parent)
    for runs in slower["workloads"].values():
        runs["end_to_end"]["metrics"]["wall_s"]["value"] *= 1 + 1.2 * bound
    verdicts = _verdicts(parent, slower)
    assert all(verdicts[name, "wall_s"] == "worse" for name in WORKLOADS)
    assert all(verdicts[name, "peak_rss_mb"] == "same" for name in WORKLOADS)

    noisy = copy.deepcopy(slower)
    for runs in noisy["workloads"].values():
        runs["end_to_end"]["samples"]["wall_s"]["values"] = [0.5, 1.0, 1.5]
    assert _verdicts(parent, noisy)["serve-mixed", "wall_s"] == "unresolved"

    off_by_one = copy.deepcopy(parent)
    entry = off_by_one["workloads"]["kernel-bound"]["end_to_end"]["metrics"]
    entry["sim_makespan_s"]["value"] += 1e-12
    verdicts = _verdicts(parent, off_by_one)
    assert verdicts["kernel-bound", "sim_makespan_s"] == "worse"
    assert verdicts["oom-pagerank", "sim_makespan_s"] == "same"


def test_golden_pins_every_workload():
    with open(os.path.join(PERF_DIR, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(golden["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero."""
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF_DIR,
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    environment = {
        key: value for key, value in os.environ.items() if key != "PYTHONPATH"
    }
    child = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=environment,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""

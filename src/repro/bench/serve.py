"""Sustained-load serving benchmark (``repro bench serve``).

The walk-serving front-end (:mod:`repro.serve`) makes two claims this
benchmark holds to account on a fixed RMAT workload:

* **latency under load** — a mixed query stream served closed-loop
  (each of ``workers`` clients submits its next query at completion)
  and open-loop (a seeded Poisson arrival process pushed past the
  closed-loop service rate) reports p50/p90/p99 queue/service/total
  latency and simulated throughput, for at least two client-worker
  counts each;
* **coalescing is free** — the *parity gate*: every coalescible request
  of the gate run is re-executed standalone with its derived seed and
  must match the served result bit-for-bit (final vertices and step
  counts), so batching never changes what a client receives.

Both loops run under the runtime sanitizer: the session bus audits
request conservation (``request-conservation``) while every per-batch
engine run keeps its own full substrate sanitizer.  Results are written
as ``BENCH_serve.json`` so CI archives the latency envelope per commit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import bench_engine_config, bench_rmat_graph
from repro.core.config import EngineConfig
from repro.graph.csr import CSRGraph
from repro.serve import (
    ARRIVAL_CLOSED,
    ARRIVAL_OPEN,
    QUERY_KINDS,
    ServeReport,
    ServeSession,
    default_workload,
    make_vertex_types,
    run_standalone,
)

#: Client-worker counts every arrival mode is measured at.
WORKER_COUNTS = (2, 8)

#: Open-loop overload factor: the Poisson arrival rate is this multiple
#: of the same worker count's measured closed-loop completion rate, so
#: the open-loop run queues by construction.
OPEN_OVERLOAD = 1.5


def _run_entry(
    report: ServeReport,
    workers: int,
    arrival: str,
    arrival_rate: Optional[float],
) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "workers": workers,
        "arrival": arrival,
        "arrival_rate": arrival_rate,
    }
    entry.update(report.summary_dict())
    return entry


def _latency_monotonic(entry: Dict[str, object]) -> bool:
    latency: Dict[str, Dict[str, float]] = entry["latency"]  # type: ignore[assignment]
    for series in latency.values():
        if not (series["p50"] <= series["p90"] <= series["p99"]):
            return False
    return True


def _parity_gate(
    report: ServeReport,
    graph: CSRGraph,
    config: EngineConfig,
    vertex_types: np.ndarray,
) -> Dict[str, object]:
    """Re-run every coalescible request standalone; require bit-parity."""
    checked = 0
    mismatched: List[int] = []
    for result in report.results:
        if not result.query.coalescible:
            continue
        checked += 1
        solo = run_standalone(
            graph,
            result.query,
            result.seed,
            config,
            vertex_types=vertex_types,
        )
        if not (
            np.array_equal(result.final_vertices, solo.final_vertices)
            and np.array_equal(result.steps_taken, solo.steps_taken)
        ):
            mismatched.append(result.request_id)
    return {
        "requests_checked": checked,
        "mismatched_requests": mismatched,
        "ok": checked > 0 and not mismatched,
    }


def run_bench(
    scale: int = 10,
    edge_factor: int = 8,
    queries: Optional[int] = None,
    seed: int = 7,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the serving benchmark; returns the results payload."""
    graph, described = bench_rmat_graph(
        scale, edge_factor, seed, quick, quick_scale=8
    )
    if queries is None:
        queries = 12 if quick else 32
    # One engine config for every per-batch engine run.
    config = bench_engine_config(seed, quick)
    vertex_types = make_vertex_types(graph, seed)
    workload = default_workload(
        graph, kinds=QUERY_KINDS, queries=queries, seed=seed
    )

    runs: Dict[str, Dict[str, object]] = {}
    gate_report: Optional[ServeReport] = None
    for workers in WORKER_COUNTS:
        closed = ServeSession(
            graph,
            config,
            workers=workers,
            arrival=ARRIVAL_CLOSED,
            vertex_types=vertex_types,
        ).run(workload)
        if gate_report is None:
            gate_report = closed
        runs[f"closed-w{workers}"] = _run_entry(
            closed, workers, ARRIVAL_CLOSED, None
        )
        closed_rate = closed.throughput()["queries_per_second"]
        rate = max(closed_rate * OPEN_OVERLOAD, 1.0)
        open_loop = ServeSession(
            graph,
            config,
            workers=workers,
            arrival=ARRIVAL_OPEN,
            arrival_rate=rate,
            vertex_types=vertex_types,
        ).run(workload)
        runs[f"open-w{workers}"] = _run_entry(
            open_loop, workers, ARRIVAL_OPEN, rate
        )

    assert gate_report is not None
    parity = _parity_gate(gate_report, graph, config, vertex_types)

    conservation_ok = all(
        entry["sanitizer_clean"]
        and entry["queries_admitted"] == len(workload)
        and entry["queries_completed"] == len(workload)
        for entry in runs.values()
    )
    engines_ok = all(
        entry["engine_sanitizers_clean"] for entry in runs.values()
    )
    latency_ok = all(_latency_monotonic(entry) for entry in runs.values())
    coalesced_ok = any(
        bool(entry["coalesced_queries"]) for entry in runs.values()
    )

    results: Dict[str, object] = {
        "config": {
            **described,
            "queries": len(workload),
            "kinds": list(QUERY_KINDS),
            "worker_counts": list(WORKER_COUNTS),
            "open_overload": OPEN_OVERLOAD,
            "max_batch_walks": 512,
        },
        "runs": runs,
        "parity": parity,
        "checks": {
            "parity_ok": parity["ok"],
            "conservation_ok": conservation_ok,
            "engines_ok": engines_ok,
            "latency_monotonic": latency_ok,
            "coalescing_exercised": coalesced_ok,
            # the latency numbers themselves are workload-relative;
            # only the structural gates are enforced, at every scale.
            "perf_enforced": not quick,
            "all_ok": (
                parity["ok"]
                and conservation_ok
                and engines_ok
                and latency_ok
                and coalesced_ok
            ),
        },
    }
    return results


def format_summary(results: Dict[str, object]) -> str:
    """Human-readable digest of one benchmark run."""
    config = results["config"]
    checks = results["checks"]
    parity = results["parity"]
    runs: Dict[str, Dict[str, object]] = results["runs"]  # type: ignore[assignment]
    lines = [
        "walk-serving benchmark "
        f"(rmat scale {config['scale']}, {config['vertices']} vertices, "
        f"{config['edges']} edges, {config['queries']} queries, "
        f"workers {config['worker_counts']})"
    ]
    for name in sorted(runs):
        run = runs[name]
        latency: Dict[str, Dict[str, float]] = run["latency"]  # type: ignore[assignment]
        throughput: Dict[str, float] = run["throughput"]  # type: ignore[assignment]
        total = latency["total_seconds"]
        lines.append(
            f"  {name:10s}: p50={total['p50'] * 1e3:7.3f} ms "
            f"p90={total['p90'] * 1e3:7.3f} ms "
            f"p99={total['p99'] * 1e3:7.3f} ms "
            f"qps={throughput['queries_per_second']:9.1f} "
            f"batches={run['batches']:3d} "
            f"coalesced={run['coalesced_queries']:3d} "
            f"sanitizer={'clean' if run['sanitizer_clean'] else 'DIRTY'}"
        )
    mismatched: List[int] = parity["mismatched_requests"]  # type: ignore[index]
    lines.append(
        f"  parity gate: {parity['requests_checked']} requests re-run "
        f"standalone, mismatched={len(mismatched)} "
        f"ok={parity['ok']}"
    )
    lines.append(
        f"  checks: parity_ok={checks['parity_ok']} "
        f"conservation_ok={checks['conservation_ok']} "
        f"latency_monotonic={checks['latency_monotonic']} "
        f"coalescing_exercised={checks['coalescing_exercised']} "
        f"all_ok={checks['all_ok']}"
    )
    return "\n".join(lines)

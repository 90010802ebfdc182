"""The five workloads: inputs from a seed, one repetition, its checked facts.

A workload is three functions the runner drives the same way on every
commit:

* ``build(seed, smoke)`` — set-up: graph generation, partitioning, config
  and query construction.  The seed feeds ``rmat(seed=...)``,
  ``EngineConfig.seed`` and the serve workload / vertex-type seeds; the
  program under test receives only these generated inputs.
* ``run(inputs)`` — one repetition, the timed region: a **fresh** algorithm
  and engine (or serve session) run to completion, so work moved into
  constructors still shows.
* ``facts(inputs, outcome)`` — untimed: the deterministic numbers of that
  repetition (shape, steps, iterations, simulated seconds, result digest)
  plus the invariant checks.  Facts must repeat exactly across repetitions
  and, for the golden seed, equal ``golden.json``.

``serve-mixed`` adds ``solo``: every served query once more through
``run_standalone``, one at a time (closed loop, 1 client), which yields the
solo latencies and the serve parity gate.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.serve.batch as serve_batch
from repro.algorithms import PageRank, UniformSampling
from repro.algorithms.base import RandomWalkAlgorithm
from repro.bench.harness import bench_engine_config
from repro.bench.workloads import standard_config
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.core.stats import RunStats
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.partition import PartitionedGraph, partition_by_range
from repro.serve import (
    ARRIVAL_CLOSED,
    QUERY_KINDS,
    ServeReport,
    ServeSession,
    WalkQuery,
    default_workload,
    make_vertex_types,
    nearest_rank,
)

#: ``serve-mixed`` phase A: closed loop, this many simulated clients.
SERVE_CLIENTS = 8
SERVE_MAX_BATCH_WALKS = 512


@dataclass
class Facts:
    """What one repetition produced, as checked and compared."""

    #: deterministic for a seed: shape, counts, simulated seconds, digest;
    #: ``ops`` is the operations attempted (walks; queries on serve).
    values: Dict[str, Any]
    #: operations that failed an invariant of this repetition.
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: per-layer counts only the outcome knows (sanitizer, serve session).
    layer_counts: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, failed: int, problem: str) -> None:
        if not ok:
            self.failed += max(1, failed)
            self.problems.append(problem)


def digest(arrays: Sequence[np.ndarray]) -> str:
    """SHA-256 over the arrays' int64 little-endian bytes, in order."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return sha.hexdigest()


# ----------------------------------------------------------------------
# Engine workloads: LightTrafficEngine(...).run(walks)
# ----------------------------------------------------------------------
@dataclass
class EngineInputs:
    graph: CSRGraph
    partitioned: PartitionedGraph
    config: EngineConfig
    make_algorithm: Callable[[], RandomWalkAlgorithm]
    walks: int
    length: int


EngineOutcome = Tuple[RunStats, RandomWalkAlgorithm]


def _engine_inputs(
    graph: CSRGraph,
    config: EngineConfig,
    make_algorithm: Callable[[], RandomWalkAlgorithm],
    walks_per_vertex: int,
    length: int,
) -> EngineInputs:
    return EngineInputs(
        graph=graph,
        partitioned=partition_by_range(graph, config.partition_bytes),
        config=config,
        make_algorithm=make_algorithm,
        walks=walks_per_vertex * graph.num_vertices,
        length=length,
    )


def run_engine(inputs: EngineInputs) -> EngineOutcome:
    algorithm = inputs.make_algorithm()
    stats = LightTrafficEngine(
        inputs.graph, algorithm, inputs.config, partitioned=inputs.partitioned
    ).run(inputs.walks)
    return stats, algorithm


def engine_facts(inputs: EngineInputs, outcome: EngineOutcome) -> Facts:
    stats, algorithm = outcome
    config = inputs.config
    values: Dict[str, Any] = {
        "vertices": inputs.graph.num_vertices,
        "edges": inputs.graph.num_edges,
        "partitions": inputs.partitioned.num_partitions,
        "batch_walks": config.resolved_batch_walks(),
        "graph_pool_partitions": config.graph_pool_partitions,
        "walk_pool_walks": config.walk_pool_walks,
        "ops": inputs.walks,
        "total_steps": stats.total_steps,
        "iterations": stats.iterations,
        "sim_makespan_s": stats.total_time,
        "walks_migrated": stats.walks_migrated,
    }
    visit_counts = getattr(algorithm, "visit_counts", None)
    if visit_counts is not None:
        values["visit_counts_sha256"] = digest([visit_counts])
    facts = Facts(values)
    # The engine itself raises when a walk is lost, so reaching this point
    # means every walk finished; fixed-length walks then pin the step count.
    expected = inputs.walks * inputs.length
    facts.check(
        stats.total_steps == expected,
        abs(expected - stats.total_steps) // inputs.length,
        f"total_steps {stats.total_steps} != walks x length {expected}",
    )
    sanitizer: Dict[str, Any] = stats.sanitizer or {}
    violations = int(sanitizer.get("violation_count", 0))
    facts.layer_counts = {
        "analysis.sanitizer.checks": float(sanitizer.get("checks", 0)),
        "analysis.sanitizer.violations": float(violations),
    }
    if config.sanitize:
        facts.check(
            bool(sanitizer.get("clean", False)),
            violations,
            f"sanitizer reported {violations} violation(s)",
        )
    return facts


def build_evict_pressure(seed: int, smoke: bool) -> EngineInputs:
    scale, length, partition, batch, pool = (
        (9, 8, 1024, 256, 512) if smoke else (13, 32, 4096, 4096, 8192)
    )
    config = EngineConfig(
        partition_bytes=partition,
        batch_walks=batch,
        graph_pool_partitions=4,
        walk_pool_walks=pool,
        rng_mode="counter",
        backend="simulated",
        sanitize=False,
        seed=seed,
    )
    graph = rmat(scale, 8, seed=seed)
    return _engine_inputs(
        graph, config, lambda: UniformSampling(length=length), 2, length
    )


def build_oom_pagerank(seed: int, smoke: bool) -> EngineInputs:
    scale, length = (10, 8) if smoke else (15, 32)
    skew = 0.59  # the uk-sim recipe of repro.bench.workloads.DATASETS
    graph = rmat(
        scale, 35.0, a=skew, b=(1 - skew) / 3, c=(1 - skew) / 3, seed=seed
    )
    config = standard_config(graph, seed=seed)
    return _engine_inputs(
        graph,
        config,
        lambda: PageRank(length=length, restart_prob=0.15),
        2,
        length,
    )


def build_kernel_bound(seed: int, smoke: bool) -> EngineInputs:
    scale, length, walks_per_vertex = (10, 16, 4) if smoke else (15, 80, 16)
    config = EngineConfig(
        partition_bytes=1 << 20,
        batch_walks=8192,
        graph_pool_partitions=4,
        walk_pool_walks=None,
        rng_mode="counter",
        sanitize=False,
        seed=seed,
    )
    graph = rmat(scale, 16, seed=seed)
    return _engine_inputs(
        graph,
        config,
        lambda: UniformSampling(length=length),
        walks_per_vertex,
        length,
    )


def build_cluster_sanitized(seed: int, smoke: bool) -> EngineInputs:
    scale, length = (9, 8) if smoke else (12, 16)
    graph = rmat(scale, 8, seed=seed)
    config = bench_engine_config(seed, smoke, devices=4)
    return _engine_inputs(
        graph, config, lambda: PageRank(length=length), 2, length
    )


# ----------------------------------------------------------------------
# serve-mixed: ServeSession(...).run(queries) + solo queries
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    graph: CSRGraph
    config: EngineConfig
    vertex_types: np.ndarray
    queries: List[WalkQuery]


def build_serve_mixed(seed: int, smoke: bool) -> ServeInputs:
    scale, queries = (9, 16) if smoke else (12, 128)
    graph = rmat(scale, 8, seed=seed)
    return ServeInputs(
        graph=graph,
        config=bench_engine_config(seed, False, sanitize=False),
        vertex_types=make_vertex_types(graph, seed),
        queries=default_workload(
            graph, QUERY_KINDS, queries=queries, seed=seed
        ),
    )


def run_serve(inputs: ServeInputs) -> ServeReport:
    return ServeSession(
        inputs.graph,
        inputs.config,
        workers=SERVE_CLIENTS,
        arrival=ARRIVAL_CLOSED,
        max_batch_walks=SERVE_MAX_BATCH_WALKS,
        vertex_types=inputs.vertex_types,
    ).run(inputs.queries)


def serve_facts(inputs: ServeInputs, report: ServeReport) -> Facts:
    ordered = sorted(report.results, key=lambda result: result.request_id)
    latencies = [result.total_seconds for result in ordered]
    queries = len(inputs.queries)
    values: Dict[str, Any] = {
        "vertices": inputs.graph.num_vertices,
        "edges": inputs.graph.num_edges,
        "batch_walks": inputs.config.resolved_batch_walks(),
        "graph_pool_partitions": inputs.config.graph_pool_partitions,
        "walk_pool_walks": inputs.config.walk_pool_walks,
        "ops": queries,
        "total_steps": report.engine_steps,
        "iterations": report.engine_iterations,
        "sim_makespan_s": report.makespan,
        "sim_query_latency_p50_s": nearest_rank(latencies, 50),
        "sim_query_latency_p90_s": nearest_rank(latencies, 90),
        "batches": report.batches,
        "coalesced_queries": report.coalesced_queries,
        "results_sha256": digest(
            [
                array
                for result in ordered
                for array in (result.final_vertices, result.steps_taken)
            ]
        ),
    }
    facts = Facts(values)
    completed = report.stats.queries_completed
    facts.check(
        completed == queries and len(ordered) == queries,
        queries - min(completed, len(ordered)),
        f"queries_completed {completed} of {queries}",
    )
    short = sum(
        1
        for result in ordered
        if result.walks != result.query.walks
        or bool(np.any(result.final_vertices < 0))
    )
    facts.check(short == 0, short, f"{short} queries with unfinished walks")
    facts.layer_counts = {
        "serve.session.batches": float(report.batches),
        "serve.session.coalesced_queries": float(report.coalesced_queries),
    }
    return facts


def solo_serve(
    inputs: ServeInputs, report: ServeReport
) -> Tuple[List[float], int]:
    """One pass of every served query run alone, in request order.

    Returns each query's host latency in milliseconds and how many
    coalescible requests differ from their served result (the parity
    gate: batching must never change what a client receives).
    """
    latencies_ms: List[float] = []
    mismatched = 0
    for result in sorted(report.results, key=lambda r: r.request_id):
        started = time.perf_counter()
        solo = serve_batch.run_standalone(
            inputs.graph,
            result.query,
            result.seed,
            inputs.config,
            vertex_types=inputs.vertex_types,
        )
        latencies_ms.append((time.perf_counter() - started) * 1e3)
        if result.query.coalescible and not (
            np.array_equal(result.final_vertices, solo.final_vertices)
            and np.array_equal(result.steps_taken, solo.steps_taken)
        ):
            mismatched += 1
    return latencies_ms, mismatched


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], Any]
    run: Callable[[Any], Any]
    facts: Callable[[Any, Any], Facts]
    #: optional solo phase: ``(inputs, outcome) -> (latencies_ms, mismatched)``.
    solo: Optional[Callable[[Any, Any], Tuple[List[float], int]]] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("evict-pressure", build_evict_pressure, run_engine, engine_facts),
        Workload("oom-pagerank", build_oom_pagerank, run_engine, engine_facts),
        Workload("kernel-bound", build_kernel_bound, run_engine, engine_facts),
        Workload("cluster-sanitized", build_cluster_sanitized, run_engine, engine_facts),
        Workload("serve-mixed", build_serve_mixed, run_serve, serve_facts, solo_serve),
    )
}

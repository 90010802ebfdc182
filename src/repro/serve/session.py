"""The serving front-end: admission, coalescing, completion routing.

A :class:`ServeSession` simulates concurrent clients submitting typed
walk queries against one resident graph.  The loop runs on the *engine's
simulated clock* (no wall time anywhere, so sessions replay
bit-identically):

1. **Arrival** — ``workers`` simulated clients submit queries either
   *closed-loop* (each client submits its next query the moment its
   previous one completes — the classic saturating load harness) or
   *open-loop* (queries arrive on a seeded Poisson process at
   ``arrival_rate`` per simulated second, independent of completions —
   the latency-under-overload view).
2. **Admission** — arrivals are admitted in order, assigned a request
   id and a per-query derived seed, and announced via ``QueryAdmitted``.
3. **Coalescing** — the head-of-line query plus every pending
   compatible query (same :meth:`~repro.serve.queries.WalkQuery.batch_key`,
   coalescible, within the ``max_batch_walks`` budget) form one
   :class:`~repro.serve.batch.CoalescedBatch` and ride one engine run;
   non-coalescible queries (node2vec) run solo through
   :func:`~repro.serve.batch.run_standalone`.
4. **Completion routing** — the batch's per-walk records are sliced back
   per request; each query's ``QueryCompleted`` carries queue/service/
   total latency with ``queue + service == total`` exactly.

The session's recorder (stats + metrics) and the sanitizer ride the
session's own :class:`~repro.core.events.EventBus` (the per-batch engine
runs keep their private buses); the sanitizer's ``request-conservation``
rule audits that every admitted query completes exactly once with exactly
its requested walks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine, range_partition
from repro.core.events import EventBus, QueryAdmitted, QueryCompleted, RunCompleted
from repro.core.metrics import MetricsCollector
from repro.core.prng import derive_seed, seeded_rng
from repro.core.stats import RunStats
from repro.graph.csr import CSRGraph
from repro.serve.batch import CoalescedBatch, run_standalone
from repro.serve.queries import (
    KIND_METAPATH,
    KIND_PPR,
    KIND_UNIFORM,
    QUERY_KINDS,
    EmbeddingQuery,
    MetapathQuery,
    PPRQuery,
    UniformQuery,
    WalkQuery,
)

ARRIVAL_CLOSED = "closed"
ARRIVAL_OPEN = "open"

ARRIVAL_MODES = (ARRIVAL_CLOSED, ARRIVAL_OPEN)

#: Percentiles every latency summary reports.
LATENCY_PERCENTILES = (50, 90, 99)


def nearest_rank(values: Sequence[float], percentile: int) -> float:
    """The classic nearest-rank percentile (monotone in ``percentile``)."""
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class RequestResult:
    """Everything routed back to one client query."""

    request_id: int
    query: WalkQuery
    kind: str
    walks: int
    seed: int
    batch: int
    arrival: float
    queue_seconds: float
    service_seconds: float
    total_seconds: float
    final_vertices: np.ndarray
    steps_taken: np.ndarray


@dataclass
class ServeReport:
    """Outcome of one :meth:`ServeSession.run` call."""

    results: List[RequestResult]
    stats: RunStats
    makespan: float
    batches: int
    coalesced_queries: int
    engine_steps: int
    engine_iterations: int
    engine_sanitizers_clean: bool
    sanitizer: Optional[Dict[str, object]] = None
    metrics: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    def latency_percentiles(self) -> Dict[str, Dict[str, float]]:
        """p50/p90/p99 of queue, service and total latency (seconds)."""
        series = {
            "queue_seconds": [r.queue_seconds for r in self.results],
            "service_seconds": [r.service_seconds for r in self.results],
            "total_seconds": [r.total_seconds for r in self.results],
        }
        return {
            name: {
                f"p{percentile}": nearest_rank(values, percentile)
                for percentile in LATENCY_PERCENTILES
            }
            for name, values in series.items()
        }

    @property
    def walks_served(self) -> int:
        return int(sum(r.walks for r in self.results))

    def throughput(self) -> Dict[str, float]:
        """Simulated service rates over the session makespan."""
        if self.makespan <= 0:
            return {
                "queries_per_second": 0.0,
                "walks_per_second": 0.0,
                "steps_per_second": 0.0,
            }
        return {
            "queries_per_second": len(self.results) / self.makespan,
            "walks_per_second": self.walks_served / self.makespan,
            "steps_per_second": self.engine_steps / self.makespan,
        }

    def summary_dict(self) -> Dict[str, object]:
        """JSON-serializable session summary (CLI / bench payloads)."""
        sanitizer = self.sanitizer or {}
        return {
            "queries": len(self.results),
            "walks_served": self.walks_served,
            "batches": self.batches,
            "coalesced_queries": self.coalesced_queries,
            "makespan": self.makespan,
            "engine_steps": self.engine_steps,
            "engine_iterations": self.engine_iterations,
            "latency": self.latency_percentiles(),
            "throughput": self.throughput(),
            "engine_sanitizers_clean": self.engine_sanitizers_clean,
            "sanitizer_clean": bool(sanitizer.get("clean", True)),
            "queries_admitted": self.stats.queries_admitted,
            "queries_completed": self.stats.queries_completed,
        }


@dataclass
class _Admitted:
    """One admitted query waiting in the shared pending frontier."""

    request_id: int
    query: WalkQuery
    seed: int
    arrival: float
    worker: int


@dataclass
class _Submission:
    """One not-yet-admitted submission, ordered by (arrival, order)."""

    arrival: float
    order: int
    query: WalkQuery
    worker: int

    def sort_key(self) -> Tuple[float, int]:
        return (self.arrival, self.order)


class ServeSession:
    """Closed/open-loop walk-serving session over one resident graph."""

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[EngineConfig] = None,
        *,
        workers: int = 4,
        arrival: str = ARRIVAL_CLOSED,
        arrival_rate: Optional[float] = None,
        max_batch_walks: int = 512,
        vertex_types: Optional[np.ndarray] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if arrival not in ARRIVAL_MODES:
            raise ValueError(
                f"arrival must be one of {', '.join(ARRIVAL_MODES)}"
            )
        if arrival == ARRIVAL_OPEN:
            if arrival_rate is None or arrival_rate <= 0:
                raise ValueError(
                    "open-loop arrival needs arrival_rate > 0 "
                    "(queries per simulated second)"
                )
        self.graph = graph
        self.config = config if config is not None else EngineConfig()
        self.workers = workers
        self.arrival = arrival
        self.arrival_rate = arrival_rate
        if max_batch_walks < 1:
            raise ValueError("max_batch_walks must be >= 1")
        self.max_batch_walks = max_batch_walks
        self.vertex_types = vertex_types
        #: the graph's cached partitioning; every engine run of the session
        #: and every solo run on the graph share it (batches only change
        #: the seed and the RNG mode).
        self.partitioned = range_partition(graph, self.config.partition_bytes)

    # ------------------------------------------------------------------
    def _submissions(
        self, queries: Sequence[WalkQuery]
    ) -> Tuple[List[_Submission], Dict[int, List[WalkQuery]]]:
        """Initial submissions + each worker's remaining closed-loop queue."""
        per_worker: Dict[int, List[WalkQuery]] = {
            worker: [] for worker in range(self.workers)
        }
        for index, query in enumerate(queries):
            per_worker[index % self.workers].append(query)
        initial: List[_Submission] = []
        if self.arrival == ARRIVAL_OPEN:
            rate = float(self.arrival_rate or 1.0)
            rng = seeded_rng(self.config.seed, "serve-arrivals")
            clock = 0.0
            order = 0
            for index, query in enumerate(queries):
                # Poisson process: exponential interarrivals.
                gap = -math.log1p(-float(rng.random())) / rate
                clock += gap
                initial.append(
                    _Submission(clock, order, query, index % self.workers)
                )
                order += 1
            return initial, {worker: [] for worker in per_worker}
        order = 0
        remaining: Dict[int, List[WalkQuery]] = {}
        for worker in sorted(per_worker):
            queue = per_worker[worker]
            if queue:
                initial.append(_Submission(0.0, order, queue[0], worker))
                order += 1
                remaining[worker] = queue[1:]
            else:
                remaining[worker] = []
        return initial, remaining

    def _coalesce(
        self, head: _Admitted, pending: List[_Admitted]
    ) -> List[_Admitted]:
        """Pick the head's batch: itself + compatible pending queries."""
        batch = [head]
        if not head.query.coalescible:
            return batch
        budget = self.max_batch_walks - head.query.walks
        key = head.query.batch_key()
        for candidate in list(pending):
            if budget <= 0:
                break
            if not candidate.query.coalescible:
                continue
            if candidate.query.batch_key() != key:
                continue
            if candidate.query.walks > budget:
                continue
            pending.remove(candidate)
            batch.append(candidate)
            budget -= candidate.query.walks
        return batch

    def _execute(
        self, batch: List[_Admitted], batch_index: int
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], RunStats]:
        """Run one batch; returns per-member (final_vertices, steps)."""
        head = batch[0]
        if head.query.coalescible:
            coalesced = CoalescedBatch(
                self.graph,
                [(member.query, member.seed) for member in batch],
                vertex_types=self.vertex_types,
            )
            cfg = self.config.with_options(
                seed=derive_seed(
                    self.config.seed, f"serve-batch-{batch_index}"
                ),
                rng_mode="counter",
            )
            stats = LightTrafficEngine(
                self.graph, coalesced, cfg, partitioned=self.partitioned
            ).run(coalesced.total_walks)
            slices = [
                (
                    coalesced.final_vertices[coalesced.lane_slice(i)],
                    coalesced.steps_taken[coalesced.lane_slice(i)],
                )
                for i in range(len(batch))
            ]
            return slices, stats
        outcome = run_standalone(
            self.graph,
            head.query,
            head.seed,
            self.config,
            vertex_types=self.vertex_types,
            partitioned=self.partitioned,
        )
        return [
            (outcome.final_vertices, outcome.steps_taken)
        ], outcome.stats

    # ------------------------------------------------------------------
    def run(self, queries: Sequence[WalkQuery]) -> ServeReport:
        """Serve every query; returns the demultiplexed session report."""
        if not queries:
            raise ValueError("a serve session needs at least one query")
        for query in queries:
            # Admission gate: an oversized query would drive the
            # coalescing budget negative and could never be scheduled.
            if query.walks > self.max_batch_walks:
                raise ValueError(
                    f"query requests {query.walks} walks but "
                    f"max_batch_walks={self.max_batch_walks}; split the "
                    "query or raise --max-batch-walks"
                )
        bus = EventBus()
        stats = RunStats(
            system="serve",
            algorithm="+".join(
                sorted({query.kind for query in queries})
            ),
            graph=self.graph.name or "graph",
            num_walks=int(sum(query.walks for query in queries)),
        )
        recorder = MetricsCollector()
        observers = [bus.attach(recorder)]
        sanitizer = None
        if self.config.sanitize:
            from repro.analysis import Sanitizer

            sanitizer = Sanitizer()
            observers.append(bus.attach(sanitizer))

        initial, closed_queues = self._submissions(queries)
        upcoming: List[Tuple[float, int, _Submission]] = [
            (sub.arrival, sub.order, sub) for sub in initial
        ]
        heapq.heapify(upcoming)
        order = len(initial)
        pending: List[_Admitted] = []
        results: List[RequestResult] = []
        next_request_id = 0
        clock = 0.0
        batches = 0
        coalesced_queries = 0
        engine_steps = 0
        engine_iterations = 0
        engines_clean = True

        def admit(upto: float) -> None:
            nonlocal next_request_id
            while upcoming and upcoming[0][0] <= upto:
                _, _, sub = heapq.heappop(upcoming)
                rid = next_request_id
                next_request_id += 1
                seed = derive_seed(self.config.seed, f"serve-query-{rid}")
                pending.append(
                    _Admitted(rid, sub.query, seed, sub.arrival, sub.worker)
                )
                bus.emit(
                    QueryAdmitted(
                        request_id=rid,
                        kind=sub.query.kind,
                        walks=sub.query.walks,
                        arrival=sub.arrival,
                    )
                )

        try:
            while pending or upcoming:
                if not pending:
                    clock = max(clock, upcoming[0][0])
                admit(clock)
                head = pending.pop(0)
                batch = self._coalesce(head, pending)
                if len(batch) > 1:
                    coalesced_queries += len(batch)
                batch_start = clock
                outcomes, run_stats = self._execute(batch, batches)
                engine_steps += run_stats.total_steps
                engine_iterations += run_stats.iterations
                if run_stats.sanitizer is not None:
                    engines_clean = engines_clean and bool(
                        run_stats.sanitizer.get("clean", False)
                    )
                service = run_stats.total_time
                clock = batch_start + service
                for member, (finals, steps) in zip(batch, outcomes):
                    queue_seconds = batch_start - member.arrival
                    total_seconds = queue_seconds + service
                    routed = int(np.count_nonzero(finals >= 0))
                    bus.emit(
                        QueryCompleted(
                            request_id=member.request_id,
                            kind=member.query.kind,
                            walks=routed,
                            batch=batches,
                            queue_seconds=queue_seconds,
                            service_seconds=service,
                            total_seconds=total_seconds,
                        )
                    )
                    results.append(
                        RequestResult(
                            request_id=member.request_id,
                            query=member.query,
                            kind=member.query.kind,
                            walks=routed,
                            seed=member.seed,
                            batch=batches,
                            arrival=member.arrival,
                            queue_seconds=queue_seconds,
                            service_seconds=service,
                            total_seconds=total_seconds,
                            final_vertices=finals,
                            steps_taken=steps,
                        )
                    )
                    queue = closed_queues.get(member.worker)
                    if queue:
                        nxt = queue.pop(0)
                        heapq.heappush(
                            upcoming,
                            (
                                clock,
                                order,
                                _Submission(clock, order, nxt, member.worker),
                            ),
                        )
                        order += 1
                batches += 1
            bus.emit(
                RunCompleted(
                    total_time=clock,
                    finished_walks=int(sum(r.walks for r in results)),
                )
            )
        finally:
            for observer in observers:
                bus.detach(observer)
        recorder.fill_stats(stats)
        return ServeReport(
            results=results,
            stats=stats,
            makespan=clock,
            batches=batches,
            coalesced_queries=coalesced_queries,
            engine_steps=engine_steps,
            engine_iterations=engine_iterations,
            engine_sanitizers_clean=engines_clean,
            sanitizer=sanitizer.summary() if sanitizer is not None else None,
            metrics=stats.metrics,
        )


# ----------------------------------------------------------------------
# Workload generation (CLI / bench)
# ----------------------------------------------------------------------
def make_vertex_types(
    graph: CSRGraph, seed: Optional[int], num_types: int = 3
) -> np.ndarray:
    """The session's heterogeneous-type table (metapath queries)."""
    from repro.algorithms import random_vertex_types

    return random_vertex_types(
        graph.num_vertices, num_types, derive_seed(seed, "serve-types")
    )


def default_workload(
    graph: CSRGraph,
    kinds: Sequence[str] = QUERY_KINDS,
    queries: int = 16,
    seed: Optional[int] = None,
) -> List[WalkQuery]:
    """A deterministic mixed workload cycling through ``kinds``.

    Walk counts and PPR seed sets vary per query through a derived
    stream, so the workload exercises unequal lane counts while staying
    a pure function of ``(kinds, queries, seed)``.
    """
    if queries < 1:
        raise ValueError("queries must be >= 1")
    if not kinds:
        raise ValueError("kinds must not be empty")
    for kind in kinds:
        if kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {kind!r}; choose from "
                f"{', '.join(QUERY_KINDS)}"
            )
    rng = seeded_rng(seed, "serve-workload")
    num_vertices = graph.num_vertices
    out: List[WalkQuery] = []
    for index in range(queries):
        kind = kinds[index % len(kinds)]
        walks = int(rng.integers(4, 17))
        if kind == KIND_PPR:
            sources = tuple(
                int(v) for v in rng.integers(0, num_vertices, size=3)
            )
            out.append(
                PPRQuery(walks=walks, sources=sources, max_length=24)
            )
        elif kind == KIND_UNIFORM:
            out.append(UniformQuery(walks=walks, length=12))
        elif kind == KIND_METAPATH:
            out.append(
                MetapathQuery(walks=walks, metapath=(0, 1), length=12)
            )
        else:
            out.append(EmbeddingQuery(walks=walks, length=10))
    return out

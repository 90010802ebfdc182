"""Multi-round baseline: split walks into GPU-memory-sized sets (§II-B, Fig 16).

The intuitive alternative to an out-of-memory walk index: divide all walks
into ``rounds`` sets, each small enough to keep entirely in GPU memory, and
run the sets sequentially with the partition-based engine.  Every round
re-streams the graph partitions, so total graph traffic grows roughly
linearly with the number of rounds — the effect Fig 16 measures (up to
~3.5x slowdown at 25 cached partitions).

Aggregation rides the event bus: every round's engine emits onto one
shared :class:`~repro.core.events.EventBus`, and a single
:class:`~repro.core.metrics.MetricsCollector` recorder accumulates the
cross-round totals (each round contributes one ``RunCompleted``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.algorithms.base import RandomWalkAlgorithm
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.core.events import EventBus
from repro.core.metrics import MetricsCollector
from repro.core.stats import RunStats
from repro.graph.csr import CSRGraph
from repro.graph.partition import PartitionedGraph


class MultiRoundEngine:
    """Sequential rounds of the partition-based engine, one walk set each."""

    system = "multiround"

    def __init__(
        self,
        graph: CSRGraph,
        algorithm_factory: Callable[[], RandomWalkAlgorithm],
        config: EngineConfig = EngineConfig(),
        rounds: int = 2,
        partitioned: Optional[PartitionedGraph] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.graph = graph
        self.algorithm_factory = algorithm_factory
        self.rounds = rounds
        # Within a round all walks fit in GPU memory: no walk-pool cap.
        self.config = config.with_options(walk_pool_walks=None)
        self.partitioned = partitioned
        self.bus = bus

    # ------------------------------------------------------------------
    def run(self, num_walks: int) -> RunStats:
        if num_walks < self.rounds:
            raise ValueError("need at least one walk per round")
        per_round = math.ceil(num_walks / self.rounds)
        remaining = num_walks
        aggregate = RunStats(
            system=self.system,
            algorithm=self.algorithm_factory().name,
            graph=self.graph.name or "graph",
            num_walks=num_walks,
        )
        bus = self.bus if self.bus is not None else EventBus()
        recorder = bus.attach(MetricsCollector())
        round_summaries = []
        try:
            for round_index in range(self.rounds):
                walks_this_round = min(per_round, remaining)
                remaining -= walks_this_round
                engine = LightTrafficEngine(
                    self.graph,
                    self.algorithm_factory(),
                    self.config.with_options(
                        seed=(self.config.seed or 0) + round_index
                    ),
                    partitioned=self.partitioned,
                    bus=bus,
                )
                round_stats = engine.run(walks_this_round)
                aggregate.num_partitions = round_stats.num_partitions
                if round_stats.sanitizer is not None:
                    round_summaries.append(round_stats.sanitizer)
        finally:
            bus.detach(recorder)
        recorder.fill_stats(aggregate)
        if round_summaries:
            # Each round ran its own sanitized engine; the aggregate rolls
            # the per-round findings up so --sanitize gates on all rounds.
            aggregate.sanitizer = {
                "checks": sum(s["checks"] for s in round_summaries),
                "violation_count": sum(
                    s["violation_count"] for s in round_summaries
                ),
                "violations": [
                    v for s in round_summaries for v in s["violations"]
                ],
                "by_rule": {
                    rule: sum(
                        s["by_rule"].get(rule, 0) for s in round_summaries
                    )
                    for s in round_summaries
                    for rule in s["by_rule"]
                },
                "clean": all(s["clean"] for s in round_summaries),
                "rounds": len(round_summaries),
            }
        aggregate.notes = f"rounds={self.rounds}"
        return aggregate

"""Run statistics and time accounting.

:class:`RunStats` is the structured result every engine/baseline run
returns; the benchmark harness turns these into the paper's tables and
figure series.  Times are *simulated* seconds on the modeled hardware.

Engines never mutate a :class:`RunStats` inline: they emit typed events on
an :class:`~repro.core.events.EventBus`, the run's one recorder
(:class:`~repro.core.metrics.MetricsCollector`) accumulates them, and its
``fill_stats`` view populates the counters when the run is over, so the
same observation layer covers the LightTraffic engine and every baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.metrics import MetricsCollector

#: breakdown categories used across engines (Fig 15 / Fig 17 / Table I).
CAT_GRAPH_LOAD = "graph_load"
CAT_WALK_LOAD = "walk_load"
CAT_ZERO_COPY = "zero_copy"
CAT_WALK_EVICT = "walk_evict"
CAT_WALK_UPDATE = "walk_update"
CAT_RESHUFFLE = "walk_reshuffle"
CAT_WALK_MIGRATE = "walk_migrate"
CAT_KERNEL_OTHER = "kernel_other"
CAT_PATH_SHIP = "path_ship"
CAT_SUBGRAPH = "subgraph_creation"
CAT_CPU_COMPUTE = "cpu_compute"


@dataclass
class RunStats:
    """Outcome of one end-to-end random walk run."""

    system: str
    algorithm: str
    graph: str
    num_walks: int
    total_steps: int = 0
    iterations: int = 0
    explicit_copies: int = 0
    zero_copy_iterations: int = 0
    graph_pool_hits: int = 0
    graph_pool_misses: int = 0
    walk_batches_loaded: int = 0
    walk_batches_evicted: int = 0
    #: walks whose bounded rejection sampler saturated and accepted an
    #: unvetted candidate (biased-walk quality signal; 0 = clean run).
    sampler_fallbacks: int = 0
    num_partitions: int = 0
    #: device shards the run executed on (1 = the classic single-GPU path).
    num_devices: int = 1
    #: walks that crossed a shard boundary over a peer channel.
    walks_migrated: int = 0
    #: devices that failed mid-run (injected via ``FailureSchedule``).
    device_failures: int = 0
    #: pending walks recovered onto survivors after device failures.
    walks_recovered: int = 0
    #: elastic rebalance operations triggered by the cluster controller.
    rebalances: int = 0
    #: pending walks handed off between shards during rebalances.
    walks_rebalanced: int = 0
    #: serve-session queries admitted by the front-end (0 = batch run).
    queries_admitted: int = 0
    #: serve-session queries whose walks were routed back to the client.
    queries_completed: int = 0
    total_time: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    notes: str = ""
    #: per-device simulated makespans (stream max per shard), populated by
    #: the multi-device engine; ``None`` on single-device runs.
    device_times: Optional[Dict[str, float]] = None
    #: per-partition / per-device observation histograms — the recorder's
    #: :meth:`~repro.core.metrics.MetricsCollector.snapshot`, taken after
    #: ``RunCompleted``; ``None`` on baselines that bypass the event bus.
    metrics: Optional[Dict[str, object]] = None
    #: sanitizer findings (:meth:`repro.analysis.Sanitizer.summary`),
    #: populated when the run is sanitized (``EngineConfig.sanitize`` /
    #: ``repro run --sanitize``); ``None`` = sanitizer not attached.
    sanitizer: Optional[Dict[str, object]] = None
    #: execution backend that ran the kernel inner loops.
    backend: str = "simulated"
    #: measured (real wall-clock) backend timings
    #: (:meth:`repro.backends.MeasuredTimings.as_dict`) — the counterpart
    #: of the *simulated* ``breakdown``; ``None`` on baseline runs that
    #: bypass the backend layer.
    measured: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Processed steps per (simulated) second — the paper's metric."""
        if self.total_time <= 0:
            return 0.0
        return self.total_steps / self.total_time

    @property
    def graph_pool_hit_rate(self) -> float:
        """Graph-pool cache hit rate (Table III)."""
        probes = self.graph_pool_hits + self.graph_pool_misses
        return self.graph_pool_hits / probes if probes else 0.0

    def time(self, category: str) -> float:
        """Accumulated simulated time of one breakdown category."""
        return self.breakdown.get(category, 0.0)

    @property
    def compute_time(self) -> float:
        """Kernel-side time (update + reshuffle + launch overheads)."""
        return (
            self.time(CAT_WALK_UPDATE)
            + self.time(CAT_RESHUFFLE)
            + self.time(CAT_KERNEL_OTHER)
            + self.time(CAT_CPU_COMPUTE)
        )

    @property
    def transmission_time(self) -> float:
        """All CPU-GPU traffic time (loads + zero copy + evictions)."""
        return (
            self.time(CAT_GRAPH_LOAD)
            + self.time(CAT_WALK_LOAD)
            + self.time(CAT_ZERO_COPY)
            + self.time(CAT_WALK_EVICT)
            + self.time(CAT_WALK_MIGRATE)
            + self.time(CAT_PATH_SHIP)
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.system}/{self.algorithm} on {self.graph}: "
            f"{self.num_walks} walks, {self.total_steps} steps, "
            f"{self.iterations} iters, {self.total_time * 1e3:.2f} ms sim, "
            f"{self.throughput / 1e6:.1f} Msteps/s"
        )


#: Alias of the recorder, kept only because the frozen ``benchmarks/perf``
#: tracing table resolves ``repro.core.stats.StatsCollector`` by name.
StatsCollector = MetricsCollector

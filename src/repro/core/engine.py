"""The LightTraffic engine: Algorithm 2 over the simulated substrate.

Semantics (which vertex every walk visits) are executed exactly with NumPy;
the simulated timeline answers how long each phase would take on the modeled
GPU and how phases overlap across the compute / load / evict streams.

:meth:`LightTrafficEngine.run` is the one scheduling loop of the repo.  It
shards the range-partitioned graph over ``config.devices`` simulated devices
(:class:`~repro.gpu.cluster.DeviceCluster`), gives every shard the full
substrate — its own timeline, graph pool, host/device walk pools, scheduler
and the pipeline stages of :mod:`repro.core.stages` — and sweeps the shards
round-robin.  One shard turn is one iteration of Algorithm 2:

1. the shard's scheduler selects a partition ``i`` (selective: most walks);
2. :class:`~repro.core.stages.GraphServer` serves partition ``i``'s graph
   data — cache hit, explicit copy on the load stream (evicting a victim
   if the graph pool is full), or zero copy under the adaptive rule
   ``alpha * w < S_p``;
3. :class:`~repro.core.stages.PreemptiveDispatcher` computes ready batches
   of *other* cached partitions while the load stream is busy;
4. :class:`~repro.core.stages.WalkLoader` streams partition ``i``'s host
   batches, then :class:`~repro.core.stages.ComputeDispatcher` runs the
   merged kernel and the device-cached batches (including the frontier);
5. survivors are reshuffled into the device frontiers of their new
   partitions; if the walk pool exceeds ``m_w``, batches are evicted to
   the host over the full-duplex evict stream.

The paper's single-GPU engine is the ``devices == 1`` case of that loop:
one shard that owns every partition (its scheduler's owned mask is
all-``True``), so there is no migration router, no controller and no
failure schedule, and every number is bit-identical to the pre-sharding
engine (pinned by ``tests/test_engine_parity.py``).  What only exists at
``devices > 1`` —
peer-to-peer walk migration, elastic rebalancing, device-failure recovery —
lives in :mod:`repro.core.cluster` as collaborators this loop calls.

Every observable fact of a run — iterations, serve modes, loads, kernels,
reshuffles, evictions, finishes — is emitted as a typed event on an
:class:`~repro.core.events.EventBus`.  The run attaches one recorder
(:class:`~repro.core.metrics.MetricsCollector`); the returned
:class:`~repro.core.stats.RunStats`, its ``metrics`` snapshot and the
optional per-iteration ``trace`` are views of what that recorder saw.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Any, List, Optional

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm
from repro.core.adaptive import AdaptivePolicy
from repro.core.config import DeviceFailure, EngineConfig
from repro.core.events import (
    EventBus,
    IterationStarted,
    RunCompleted,
    WalksSeeded,
)
from repro.core.metrics import MetricsCollector
from repro.core.prng import seeded_rng
from repro.core.scheduler import Scheduler
from repro.core.stages import (
    ComputeDispatcher,
    GraphServer,
    PreemptiveDispatcher,
    StageContext,
    WalkLoader,
)
from repro.core.stats import RunStats
from repro.core.trace import TraceRecorder
from repro.gpu.cluster import (
    DeviceCluster,
    PeerLinkSpec,
    homogeneous_specs,
    peer_link_by_name,
    topology_by_name,
)
from repro.gpu.kernels import DIRECT_WRITE, KernelModel
from repro.gpu.memory import BlockPool
from repro.gpu.pcie import resolve_interconnect
from repro.gpu.timeline import TimeBreakdown, Timeline
from repro.graph.csr import CSRGraph
from repro.graph.partition import PartitionedGraph, partition_by_range
from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.reshuffle import (
    DirectWriteReshuffler,
    TwoLevelReshuffler,
    group_by_partition,
)
from repro.walks.state import WalkArrays


def range_partition(
    graph: CSRGraph, partition_bytes: int
) -> PartitionedGraph:
    """The graph's range partitioning into ``partition_bytes`` blocks,
    built once per (graph, block size) and cached on the graph: every
    engine built without ``partitioned`` and every serve session share it."""
    return graph.derived(
        "range_partition",
        partition_bytes,
        lambda: partition_by_range(graph, partition_bytes),
    )


class Shard:
    """One device's context plus its pipeline stage instances."""

    __slots__ = (
        "ctx",
        "graph_server",
        "loader",
        "compute",
        "preemptive",
        "alive",
        "rate",
        "credits",
    )

    def __init__(self, ctx: StageContext, rate: float) -> None:
        self.ctx = ctx
        self.graph_server = GraphServer(ctx)
        self.loader = WalkLoader(ctx)
        self.compute = ComputeDispatcher(ctx)
        self.preemptive = PreemptiveDispatcher(ctx, self.compute)
        self.alive = True
        #: iterations per sweep relative to a uniform device; the fraction
        #: a non-uniform shard has not spent yet carries over in ``credits``.
        self.rate = rate
        self.credits = 0.0


class LightTrafficEngine:
    """Out-of-GPU-memory random walk engine (the paper's contribution)."""

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: RandomWalkAlgorithm,
        config: Optional[EngineConfig] = None,
        partitioned: Optional[PartitionedGraph] = None,
        trace: Optional[TraceRecorder] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        config = config if config is not None else EngineConfig()
        self.graph = graph
        self.algorithm = algorithm
        self.config = config
        if config.sampler is not None:
            algorithm.set_transition_sampler(config.sampler)
        self.trace = trace
        self.bus = bus
        self.partitioned = partitioned or range_partition(
            graph, config.partition_bytes
        )
        self.kernel_model = KernelModel(config.device, config.calibration)
        self.pcie = resolve_interconnect(config.interconnect)
        self.adaptive = AdaptivePolicy(config.copy_mode, config.calibration)
        self.ship_link = resolve_interconnect(config.ship_interconnect)

    # ------------------------------------------------------------------
    def _make_rng(self, num_walks: int) -> Any:
        """The run's RNG (sequential stream or counter-based Philox).

        A counter RNG keys walk ids ``0 .. num_walks - 1``: by the run's
        seed, or by the table an algorithm brings in ``lane_table`` (a
        coalesced serve batch keys each lane as its query's standalone
        run does).
        """
        cfg = self.config
        if cfg.rng_mode == "counter":
            from repro.core.prng import CounterRNG, lane_key_table

            if getattr(self.algorithm, "uses_subset_draws", False):
                raise ValueError(
                    "rng_mode='counter' does not support algorithms with "
                    "subset redraws (node2vec, rejection-sampled weights)"
                )
            keys = getattr(self.algorithm, "lane_table", None)
            if keys is None:
                keys = lane_key_table(cfg.seed, num_walks)
            return CounterRNG(cfg.seed, keys)
        return seeded_rng(cfg.seed)

    def _make_backend(self) -> Any:
        """Create and bind the run's execution backend.

        Always constructed — the default ``simulated`` backend runs the
        historical NumPy path bit-identically while measuring its real
        wall-clock per kernel (``RunStats.measured``).
        """
        from repro.backends import make_backend

        backend = make_backend(self.config.backend)
        backend.bind(
            self.graph, self.partitioned, self.algorithm, self.config
        )
        return backend

    def _build_cluster(self) -> DeviceCluster:
        """The shard map (and, past one device, the peer mesh) of one run."""
        cfg = self.config
        peer = cfg.peer_interconnect
        specs = (
            tuple(cfg.device_specs)
            if cfg.device_specs is not None
            else homogeneous_specs(cfg.devices)
        )
        weights = None
        if cfg.heterogeneous_assignment and any(
            spec.assignment_weight != 1.0 for spec in specs
        ):
            weights = np.array(
                [spec.assignment_weight for spec in specs],
                dtype=np.float64,
            )
        return DeviceCluster(
            np.asarray(self.partitioned.partition_sizes(), dtype=np.int64),
            cfg.devices,
            link=(
                peer
                if isinstance(peer, PeerLinkSpec)
                else peer_link_by_name(str(peer))
            ),
            record_ops=cfg.record_ops,
            specs=specs,
            topology=(
                topology_by_name(cfg.topology, cfg.devices)
                if cfg.devices > 1
                else None
            ),
            assignment_weights=weights,
        )

    def _build_shard(
        self,
        device_id: int,
        cluster: DeviceCluster,
        rng: Any,
        num_walks: int,
        bus: EventBus,
        backend: Any,
    ) -> Shard:
        """One device's substrate: pools, timeline, scheduler and stages."""
        cfg = self.config
        num_partitions = self.partitioned.num_partitions
        batch_cap = cfg.resolved_batch_walks()
        capacity = cfg.walk_pool_walks
        if capacity is None:
            capacity = max(num_walks, batch_cap)
        reshuffler_cls = (
            DirectWriteReshuffler
            if cfg.reshuffle_mode == DIRECT_WRITE
            else TwoLevelReshuffler
        )
        # Heterogeneity: scale this shard's cost model and memory budgets
        # by its capability spec.  The == 1.0 guards keep the homogeneous
        # path on the exact shared objects/ints (bit-identity).
        spec = cluster.spec(device_id)
        kernel_model = self.kernel_model
        if spec.compute_scale != 1.0:
            device = dataclass_replace(
                cfg.device,
                name=f"{cfg.device.name}-{spec.name}",
                clock_hz=cfg.device.clock_hz * spec.compute_scale,
                mem_bandwidth=cfg.device.mem_bandwidth * spec.compute_scale,
            )
            kernel_model = KernelModel(device, cfg.calibration)
        pool_partitions = cfg.graph_pool_partitions
        if spec.memory_scale != 1.0:
            capacity = max(batch_cap, int(capacity * spec.memory_scale))
            pool_partitions = max(
                1, int(pool_partitions * spec.memory_scale)
            )
        # link_scale covers the device's whole I/O complex: the host
        # interconnect carrying graph/walk DMA as well as the peer links
        # (which DeviceCluster.channel scales on its own).
        pcie = self.pcie
        ship_link = self.ship_link
        if spec.link_scale != 1.0:
            pcie = dataclass_replace(
                self.pcie,
                name=f"{self.pcie.name}x{spec.link_scale:g}",
                bandwidth=self.pcie.bandwidth * spec.link_scale,
                latency_seconds=self.pcie.latency_seconds / spec.link_scale,
            )
            ship_link = dataclass_replace(
                self.ship_link,
                name=f"{self.ship_link.name}x{spec.link_scale:g}",
                bandwidth=self.ship_link.bandwidth * spec.link_scale,
                latency_seconds=(
                    self.ship_link.latency_seconds / spec.link_scale
                ),
            )
        ctx = StageContext(
            config=cfg,
            graph=self.graph,
            algorithm=self.algorithm,
            pgraph=self.partitioned,
            rng=rng,
            scheduler=Scheduler(
                num_partitions,
                cfg.selective,
                cfg.preemptive,
                eviction_policy=cfg.eviction_policy,
                owned=cluster.owned_mask(device_id),
            ),
            host=HostWalkPool(num_partitions, batch_cap),
            device=DeviceWalkPool(num_partitions, batch_cap, capacity),
            graph_pool=BlockPool(
                pool_partitions,
                name=f"graph-pool-d{device_id}",
                track_recency=(cfg.eviction_policy == "lru"),
                num_keys=num_partitions,
            ),
            timeline=Timeline(record_ops=cfg.record_ops),
            bus=bus,
            reshuffler=reshuffler_cls(
                kernel_model, num_partitions, backend=backend
            ),
            kernel_model=kernel_model,
            pcie=pcie,
            ship_link=ship_link,
            bytes_per_walk=self.algorithm.bytes_per_walk,
            adaptive=self.adaptive,
            device_id=device_id,
            backend=backend,
        )
        return Shard(ctx, spec.compute_scale)

    def _seed_shards(
        self, shards: List[Shard], cluster: DeviceCluster, num_walks: int
    ) -> None:
        """Seed every walk into the host pool of its start partition's owner."""
        shared = shards[0].ctx  # rng, backend and bus belong to the run
        starts = self.algorithm.start_vertices(
            self.graph, num_walks, shared.rng
        )
        walks = WalkArrays.fresh(starts)
        self.algorithm.on_start(walks, self.graph)
        # All shards share one backend; real backends precompute from
        # the full seeded state (trajectory tables, worker forks) before
        # the walks are split across devices.
        shared.backend.on_walks_seeded(walks)
        start_parts = self.partitioned.find_partitions(walks.vertices)
        groups = group_by_partition(walks, start_parts)
        for part, group in groups.items():
            shards[cluster.owner(part)].ctx.host.append_walks(part, group)
        shared.bus.emit(WalksSeeded(walks=num_walks, partitions=len(groups)))

    # ------------------------------------------------------------------
    def run(self, num_walks: int) -> RunStats:
        """Run ``num_walks`` walks to completion; returns the statistics."""
        if num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        cfg = self.config
        multi = cfg.devices > 1
        cluster = self._build_cluster()
        bus = self.bus if self.bus is not None else EventBus()
        rng = self._make_rng(num_walks)
        # One backend shared by every shard: the kernels are partition-
        # local, so a single bound instance (and a single trajectory
        # precompute) serves all devices.
        backend = self._make_backend()
        shards = [
            self._build_shard(dev, cluster, rng, num_walks, bus, backend)
            for dev in range(cfg.devices)
        ]
        stats = RunStats(
            system="lighttraffic",
            algorithm=self.algorithm.name,
            graph=self.graph.name or "graph",
            num_walks=num_walks,
            num_partitions=self.partitioned.num_partitions,
            num_devices=cfg.devices,
        )
        recorder = MetricsCollector(self.trace)
        observers = [bus.attach(recorder)]
        sanitizer = None
        if cfg.sanitize:
            from repro.analysis import Sanitizer

            sanitizer = Sanitizer()
            for shard in shards:
                sanitizer.bind_shard(
                    shard.ctx.device_id,
                    timeline=shard.ctx.timeline,
                    graph_pool=shard.ctx.graph_pool,
                    host=shard.ctx.host,
                    device=shard.ctx.device,
                    expected_walks=num_walks,
                )
            if multi:
                sanitizer.bind_cluster(cluster)
            observers.append(bus.attach(sanitizer))
        # Cluster-only collaborators.  One shard owns every partition, so
        # it has nowhere to migrate walks to, nothing to rebalance against
        # and (EngineConfig rejects it) no device it could lose.
        controller = None
        failures: List[DeviceFailure] = []
        if multi:
            # Imported here: repro.core.cluster imports this module.
            from repro.core.cluster import (
                ClusterController,
                WalkMigrator,
                fail_device,
            )

            migrator = WalkMigrator(cluster, shards)
            for shard in shards:
                shard.ctx.router = migrator
            if cfg.rebalance_threshold is not None:
                controller = ClusterController(
                    cluster,
                    shards,
                    threshold=cfg.rebalance_threshold,
                    cooldown=cfg.rebalance_cooldown,
                    heterogeneous=cfg.heterogeneous_assignment,
                    expected_walks=num_walks,
                )
                observers.append(bus.attach(controller))
            if cfg.failure_schedule is not None:
                failures = sorted(
                    cfg.failure_schedule.failures,
                    key=lambda f: (f.at_iteration, f.device),
                )

        iteration = 0
        try:
            self._seed_shards(shards, cluster, num_walks)
            # The run ends when the ``finished`` counters say so and an idle
            # shard is one whose partition selection comes back empty, so a
            # uniform shard's turn never sums its pools' walk counts.
            while sum(shard.ctx.finished for shard in shards) < num_walks:
                # Sweep boundary: fire any device failure whose iteration
                # has come due before running further kernels.
                while failures and failures[0].at_iteration <= iteration + 1:
                    fail_device(
                        shards,
                        cluster,
                        failures.pop(0).device,
                        iteration,
                        bus,
                        num_walks,
                    )
                # One round-robin sweep: each shard with pending walks runs
                # pipeline iterations in proportion to its compute rate —
                # a 2x shard dispatches two partitions per sweep, a 0.5x
                # shard one every other sweep (whole credits are spent,
                # fractions carry over); a uniform shard runs exactly one.
                # Migration may hand walks to a shard later in the sweep
                # (processed the same sweep) or earlier (picked up next
                # sweep); the outer loop drains until every walk finished.
                swept_from = iteration
                for shard in shards:
                    if not shard.alive:
                        continue
                    ctx = shard.ctx
                    rounds = 1
                    if shard.rate != 1.0:
                        # Credits accrue only in sweeps the shard has work.
                        if ctx.pending_walks == 0:
                            continue
                        shard.credits += shard.rate
                        rounds = int(shard.credits)
                        shard.credits -= rounds
                    for __ in range(rounds):
                        selected = ctx.scheduler.select_partition(
                            ctx.host, ctx.device
                        )
                        if selected is None:
                            break  # this shard holds no walks right now
                        iteration += 1
                        if (
                            cfg.max_iterations is not None
                            and iteration > cfg.max_iterations
                        ):
                            left = sum(s.ctx.pending_walks for s in shards)
                            raise RuntimeError(
                                f"exceeded max_iterations="
                                f"{cfg.max_iterations} with {left} walks "
                                "left"
                            )
                        ctx.iteration = iteration
                        bus.emit(
                            IterationStarted(
                                iteration,
                                selected,
                                ctx.partition_walks(selected),
                                device=ctx.device_id,
                            )
                        )
                        served = shard.graph_server.serve(selected)
                        shard.preemptive.fill(exclude=selected)
                        contents, batch_t = shard.loader.stream(selected)
                        # Walks migrated in may not be consumed before
                        # their payload lands (never set on one device).
                        frontier_t = ctx.frontier_ready.get(selected, 0.0)
                        if contents is not None:
                            shard.compute.dispatch(
                                selected,
                                contents,
                                earliest=max(
                                    served.ready_time, batch_t, frontier_t
                                ),
                                zero_copy=served.zero_copy,
                            )
                        shard.compute.dispatch(
                            selected,
                            ctx.device.pop_all(selected),
                            earliest=max(served.ready_time, frontier_t),
                            zero_copy=served.zero_copy,
                        )
                        # Everything delivered so far has been consumed;
                        # later deliveries re-arm the bound.
                        ctx.frontier_ready.pop(selected, None)
                if iteration == swept_from and not any(
                    shard.ctx.pending_walks for shard in shards
                ):
                    break  # walks were lost; reported just below
                if controller is not None:
                    controller.maybe_rebalance(iteration, bus)

            finished = sum(shard.ctx.finished for shard in shards)
            if finished != num_walks:
                raise RuntimeError(
                    f"walk conservation violated: finished {finished} "
                    f"of {num_walks}"
                )
            breakdown = TimeBreakdown()
            total_time = 0.0
            for shard in shards:
                breakdown.merge(shard.ctx.timeline.breakdown)
                total_time = max(
                    total_time, shard.ctx.timeline.total_time()
                )
            for stream in cluster.all_streams():
                total_time = max(total_time, stream.busy_until)
            bus.emit(
                RunCompleted(
                    total_time=total_time,
                    breakdown=breakdown.as_dict(),
                    graph_pool_hits=sum(
                        s.ctx.graph_pool.hits for s in shards
                    ),
                    graph_pool_misses=sum(
                        s.ctx.graph_pool.misses for s in shards
                    ),
                    finished_walks=finished,
                )
            )
        finally:
            for observer in observers:
                bus.detach(observer)
            if sanitizer is not None:
                sanitizer.unbind()
                stats.sanitizer = sanitizer.summary()
            backend.close()
        recorder.fill_stats(stats)
        stats.backend = cfg.backend
        stats.measured = backend.timings().as_dict()
        if multi:
            stats.device_times = {
                str(shard.ctx.device_id): shard.ctx.timeline.total_time()
                for shard in shards
            }
        if cfg.record_ops:
            for shard in shards:
                shard.ctx.timeline.validate()
        self._timeline = shards[0].ctx.timeline
        self._timelines = [shard.ctx.timeline for shard in shards]
        self._cluster = cluster
        self._shards = shards
        return stats


def run_walks(
    graph: CSRGraph,
    algorithm: RandomWalkAlgorithm,
    num_walks: int,
    config: Optional[EngineConfig] = None,
) -> RunStats:
    """One-call convenience: build an engine and run it."""
    return LightTrafficEngine(graph, algorithm, config).run(num_walks)

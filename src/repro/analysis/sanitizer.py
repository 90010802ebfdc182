"""Runtime simulation sanitizer (EventBus subscriber + substrate hooks).

GPU random walk engines validate their schedulers with runtime assertion
layers on real hardware (races, lost walks, use-after-free of evicted
partitions); this simulated engine needs the same backstop, because its
claims — pipeline overlap, selective eviction, adaptive zero copy — are
statements about *who waits for what* and silently break when a refactor
reorders the timeline or drops a walk.

The :class:`Sanitizer` observes a run through two channels and never
mutates anything:

* **bus events** — it is a plain ``on_<event>`` subscriber on the run's
  :class:`~repro.core.events.EventBus`;
* **substrate hooks** — optional observer slots on
  :class:`~repro.gpu.timeline.Stream` (every scheduled op),
  :class:`~repro.gpu.memory.BlockPool` (graph-pool inserts/evicts) and
  both :mod:`repro.walks.pool` pools (walk appends/takes, with their ids).

Multi-device runs bind one substrate *shard* per device
(:meth:`Sanitizer.bind_shard`); every per-shard invariant is then checked
per device (stream frontiers are keyed by stream identity, because each
shard's timeline reuses the compute/load/evict names), and two
cross-device invariants join the list.

Checked invariants (rule ids in :mod:`repro.analysis.violations`):

==========================  ============================================
``stream-monotonic``        per-stream op starts never precede the
                            stream's completion frontier or the op's
                            declared ``earliest`` release time; durations
                            are non-negative.
``stream-affinity``         ops ride the stream their category belongs
                            to (loads on *load*, evictions and migration
                            sends on *evict*, kernels on *compute*) — the
                            full-duplex PCIe invariant of §III-D.
``partition-residency``     every non-zero-copy ``KernelDispatched``
                            targets a partition resident in its device's
                            graph pool.
``evict-in-flight-load``    no graph-pool evict of a partition whose
                            explicit load has not been consumed by a
                            dependent kernel yet.
``walk-capacity``           every device walk pool respects ``m_w`` at
                            iteration boundaries; batches never carry
                            more walks than their capacity.
``double-consume``          device buffer takes never exceed what the
                            buffer holds (a double-consumed frontier).
``walk-conservation``       pending + finished walks (summed over every
                            shard) equal the seeded count at every
                            reshuffle, iteration boundary and run
                            completion.
``cross-device-residency``  no walk id is ever resident in two shards'
                            pools: asserted in O(batch) at every pool
                            write against one ``walk id -> device`` table,
                            so it is reported at the append that caused it.
``migration-conservation``  per peer channel, walks delivered never
                            exceed walks sent, and a completed run has
                            sent == delivered; extended over the failure
                            and rebalance paths — walks recovered from a
                            failed device must equal its drained pending
                            count, and rebalance handoffs ride the same
                            per-channel send/deliver accounting.
``stale-owner-mask``        every iteration targets a partition its
                            device owns per the cluster's live owner
                            map, and the device is alive — a scheduler
                            running on a stale mask after a rebalance
                            or failure is caught at the very next
                            iteration.
``request-conservation``    every admitted serve query completes exactly
                            once with exactly its requested walks: no
                            orphan completions, no double completions,
                            no wrong walk counts, and a completed run
                            leaves no admitted query unfinished.
==========================  ============================================

Violations are collected (never raised) with a provenance trail of the
most recent events/ops; :meth:`Sanitizer.summary` is what lands in
``RunStats.sanitizer``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, cast

import numpy as np

from repro.analysis.violations import (
    RULE_CROSS_DEVICE,
    RULE_DOUBLE_CONSUME,
    RULE_EVICT_IN_FLIGHT,
    RULE_MIGRATION,
    RULE_REQUEST_CONSERVATION,
    RULE_RESIDENCY,
    RULE_STALE_OWNER,
    RULE_STREAM_AFFINITY,
    RULE_STREAM_MONOTONIC,
    RULE_WALK_CAPACITY,
    RULE_WALK_CONSERVATION,
    Violation,
)
from repro.core.events import (
    SERVED_EXPLICIT,
    BatchEvicted,
    BatchLoaded,
    DeviceFailed,
    DeviceRecoveredWalks,
    GraphServed,
    IterationStarted,
    KernelDispatched,
    QueryAdmitted,
    QueryCompleted,
    Reshuffled,
    RunCompleted,
    ShardRebalanced,
    WalkFinished,
    WalksDelivered,
    WalksMigrated,
    WalksSeeded,
)
from repro.core.stats import (
    CAT_CPU_COMPUTE,
    CAT_GRAPH_LOAD,
    CAT_KERNEL_OTHER,
    CAT_PATH_SHIP,
    CAT_RESHUFFLE,
    CAT_SUBGRAPH,
    CAT_WALK_EVICT,
    CAT_WALK_LOAD,
    CAT_WALK_MIGRATE,
    CAT_WALK_UPDATE,
    CAT_ZERO_COPY,
)
from repro.gpu.memory import BlockPool
from repro.gpu.timeline import TIME_EPS, Stream, Timeline
from repro.walks.pool import DeviceWalkPool, HostWalkPool

#: Which stream each breakdown category must ride (the §III-D pipeline
#: contract).  Categories not listed (e.g. the P2P channel occupancy,
#: which rides dedicated channel streams) are unchecked.
STREAM_AFFINITY: Dict[str, str] = {
    CAT_GRAPH_LOAD: Timeline.LOAD,
    CAT_WALK_LOAD: Timeline.LOAD,
    CAT_ZERO_COPY: Timeline.LOAD,
    CAT_WALK_EVICT: Timeline.EVICT,
    CAT_WALK_MIGRATE: Timeline.EVICT,
    CAT_PATH_SHIP: Timeline.EVICT,
    CAT_WALK_UPDATE: Timeline.COMPUTE,
    CAT_RESHUFFLE: Timeline.COMPUTE,
    CAT_KERNEL_OTHER: Timeline.COMPUTE,
    CAT_CPU_COMPUTE: Timeline.COMPUTE,
    CAT_SUBGRAPH: Timeline.COMPUTE,
}


@dataclass
class _ShardState:
    """Substrate bound for one device shard."""

    device_id: int
    timeline: Optional[Timeline] = None
    graph_pool: Optional[BlockPool] = None
    host: Optional[HostWalkPool] = None
    device: Optional[DeviceWalkPool] = None
    batch_capacity: Optional[int] = None


class Sanitizer:
    """Collects invariant violations from one engine (or baseline) run.

    Event-only mode (no :meth:`bind` call) checks what events alone can
    prove — batch sizes, migration conservation, finished-walk counts.
    :meth:`bind` wires the full substrate hooks for the single-device
    engine; the multi-device engine calls :meth:`bind_shard` once per
    device shard instead.
    """

    def __init__(
        self, max_violations: int = 64, provenance_depth: int = 12
    ) -> None:
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.checks = 0
        self.dropped = 0
        #: raw (seq, iteration, entry) provenance, see _record().
        self._trail: Deque[tuple] = deque(maxlen=provenance_depth)
        self._seq = 0
        self._iteration = 0
        self._finished = 0
        #: bound substrate shards, keyed by device id (see bind_shard()).
        self._shards: Dict[int, _ShardState] = {}
        self._expected_walks: Optional[int] = None
        # derived state.  Stream frontiers are keyed by stream *identity*:
        # every shard's timeline names its streams compute/load/evict, so
        # name keys would blend devices and raise false monotonicity
        # violations.
        self._stream_frontier: Dict[int, float] = {}
        self._stream_device: Dict[int, int] = {}
        self._pool_device: Dict[int, int] = {}
        self._wpool_device: Dict[int, int] = {}
        #: walk id -> device whose pools hold it, -1 while in flight or
        #: finished; ``None`` until a second shard binds a walk pool.
        self._where: Optional[np.ndarray] = None
        #: walk id -> copies pooled, kept from the first walk pooled twice
        #: on one device (a duplicate); until then each id has one copy.
        self._copies: Optional[np.ndarray] = None
        #: explicit loads not yet consumed, keyed (device, partition).
        self._loads_in_flight: Set[Tuple[int, int]] = set()
        #: migration counters per directed (src, dst) channel.
        self._migrated_sent: Dict[Tuple[int, int], int] = {}
        self._migrated_recv: Dict[Tuple[int, int], int] = {}
        #: cluster owner map / liveness, wired by bind_cluster().
        self._cluster: Optional[object] = None
        #: pending walks drained per failed device (DeviceFailed).
        self._failed_pending: Dict[int, int] = {}
        #: walks recovered per failed source (DeviceRecoveredWalks).
        self._recovered: Dict[int, int] = {}
        #: requested walk count per admitted serve query (QueryAdmitted).
        self._admitted_queries: Dict[int, int] = {}
        #: request ids that have completed (QueryCompleted).
        self._completed_queries: Set[int] = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(
        self,
        timeline: Optional[Timeline] = None,
        graph_pool: Optional[BlockPool] = None,
        host: Optional[HostWalkPool] = None,
        device: Optional[DeviceWalkPool] = None,
        expected_walks: Optional[int] = None,
    ) -> "Sanitizer":
        """Install substrate hooks for a single-device run (shard 0)."""
        return self.bind_shard(
            0,
            timeline=timeline,
            graph_pool=graph_pool,
            host=host,
            device=device,
            expected_walks=expected_walks,
        )

    def bind_shard(
        self,
        device_id: int,
        timeline: Optional[Timeline] = None,
        graph_pool: Optional[BlockPool] = None,
        host: Optional[HostWalkPool] = None,
        device: Optional[DeviceWalkPool] = None,
        expected_walks: Optional[int] = None,
    ) -> "Sanitizer":
        """Install substrate hooks for one device shard.

        ``expected_walks`` is the run-global seeded walk count (identical
        across shards); call :meth:`unbind` when the run ends.
        """
        shard = self._shards.get(device_id)
        if shard is None:
            shard = self._shards[device_id] = _ShardState(device_id)
        if expected_walks is not None:
            self._expected_walks = expected_walks
        if timeline is not None:
            shard.timeline = timeline
            timeline.install_observer(self.stream_op)
            for stream in timeline.streams:
                self._stream_device[id(stream)] = device_id
        if graph_pool is not None:
            shard.graph_pool = graph_pool
            graph_pool.observer = self
            self._pool_device[id(graph_pool)] = device_id
        if host is not None:
            shard.host = host
            host.observer = self
            self._wpool_device[id(host)] = device_id
        if device is not None:
            shard.device = device
            device.observer = self
            shard.batch_capacity = device.batch_capacity
            self._wpool_device[id(device)] = device_id
        # One shard cannot break cross-device-residency and keeps no table;
        # the second to bind a walk pool starts it from every bound pool, a
        # later bind enters the pools it brings (each pool is read once).
        if self._where is not None:
            self._snapshot(_ShardState(device_id, host=host, device=device))
        elif len(set(self._wpool_device.values())) > 1:
            self._where = np.full(self._expected_walks or 0, -1, np.int16)
            for bound in self._shards.values():
                self._snapshot(bound)
        return self

    def _snapshot(self, shard: _ShardState) -> None:
        """Bind time: walks already in ``shard``'s pools are resident there."""
        if shard.host is not None:
            for walks in shard.host.iter_walks():
                self._place(shard.device_id, walks.ids)
        if shard.device is not None:
            for walks in shard.device.iter_walks():
                self._place(shard.device_id, walks.ids)

    def bind_cluster(self, cluster: object) -> "Sanitizer":
        """Wire the cluster's owner map for stale-owner-mask auditing.

        ``cluster`` is a :class:`~repro.gpu.cluster.DeviceCluster` (typed
        as ``object`` to keep the analysis layer import-light); its live
        ``device_of`` array and ``alive`` mask let the sanitizer verify
        each iteration against current — not construction-time —
        ownership.
        """
        self._cluster = cluster
        return self

    def unbind(self) -> None:
        """Remove every hook installed by :meth:`bind` / :meth:`bind_shard`."""
        for shard in self._shards.values():
            if shard.timeline is not None:
                shard.timeline.remove_observer()
            if (
                shard.graph_pool is not None
                and shard.graph_pool.observer is self
            ):
                shard.graph_pool.observer = None
            if shard.host is not None and shard.host.observer is self:
                shard.host.observer = None
            if shard.device is not None and shard.device.observer is self:
                shard.device.observer = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def _multi(self) -> bool:
        return len(self._shards) > 1

    def _stream_label(self, stream: Stream) -> str:
        device = self._stream_device.get(id(stream))
        if device is not None and self._multi:
            return f"d{device}:{stream.name}"
        return stream.name

    def _record(self, entry: object) -> None:
        # Raw: a (frozen) bus event or a hook's ``(template, *args)``; it
        # is rendered only if a violation ever reads the trail.
        self._seq += 1
        self._trail.append((self._seq, self._iteration, entry))

    def _render(self, seq: int, iteration: int, entry: object) -> str:
        if isinstance(entry, tuple):
            entry = entry[0].format(
                *(self._stream_label(a) if isinstance(a, Stream) else a
                  for a in entry[1:])
            )
        return f"#{seq} it={iteration} {entry}"

    def _violate(self, rule: str, message: str) -> None:
        if len(self.violations) >= self.max_violations:
            self.dropped += 1
            return
        self.violations.append(
            Violation(
                rule=rule,
                message=message,
                iteration=self._iteration,
                provenance=tuple(self._render(*raw) for raw in self._trail),
            )
        )

    # ------------------------------------------------------------------
    # Stream hook (gpu/timeline.py)
    # ------------------------------------------------------------------
    def stream_op(
        self,
        stream: Stream,
        category: str,
        start: float,
        end: float,
        earliest: float,
    ) -> None:
        self._record(
            ("op {}/{} start={:.6e} end={:.6e} earliest={:.6e}",
             stream, category, start, end, earliest)
        )
        self.checks += 1
        key = id(stream)
        frontier = self._stream_frontier.get(key, 0.0)
        if start < frontier - TIME_EPS:
            self._violate(
                RULE_STREAM_MONOTONIC,
                f"op {category!r} starts at {start:.6e} before stream "
                f"{self._stream_label(stream)!r}'s completion frontier "
                f"{frontier:.6e} (the simulated clock rewound)",
            )
        if start < earliest - TIME_EPS:
            self._violate(
                RULE_STREAM_MONOTONIC,
                f"op {category!r} starts at {start:.6e} before its "
                f"declared release time {earliest:.6e}",
            )
        if end < start:
            self._violate(
                RULE_STREAM_MONOTONIC,
                f"op {category!r} has negative duration "
                f"(start={start:.6e}, end={end:.6e})",
            )
        self._stream_frontier[key] = max(frontier, end)
        expected_stream = STREAM_AFFINITY.get(category)
        if expected_stream is not None and stream.name != expected_stream:
            self._violate(
                RULE_STREAM_AFFINITY,
                f"category {category!r} scheduled on stream "
                f"{self._stream_label(stream)!r}, must ride "
                f"{expected_stream!r} "
                f"(full-duplex PCIe contract)",
            )

    # ------------------------------------------------------------------
    # Pool hooks (gpu/memory.py)
    # ------------------------------------------------------------------
    def pool_inserted(self, pool: BlockPool, key: object) -> None:
        self._record(("pool {} insert {!r}", pool.name, key))

    def pool_evicted(self, pool: BlockPool, key: object) -> None:
        self._record(("pool {} evict {!r}", pool.name, key))
        self.checks += 1
        device = self._pool_device.get(id(pool), 0)
        if (device, key) in self._loads_in_flight:
            self._violate(
                RULE_EVICT_IN_FLIGHT,
                f"partition {key!r} evicted from {pool.name!r} while its "
                f"explicit load was still in flight (no dependent kernel "
                f"had consumed it)",
            )

    # ------------------------------------------------------------------
    # Walk pool hooks (walks/pool.py)
    # ------------------------------------------------------------------
    def device_appended(
        self, pool: DeviceWalkPool, parts: Sequence[int], ids: np.ndarray
    ) -> None:
        part = parts[0] if len(parts) == 1 else list(parts)
        self._record(("device append part={} walks={}", part, ids.size))
        self._place(self._wpool_device[id(pool)], ids)

    def device_taken(
        self, pool: DeviceWalkPool, partition: int, count: int,
        available: int, ids: np.ndarray,
    ) -> None:
        self._record(
            ("device take part={} walks={} buffered={}",
             partition, count, available)
        )
        self._place(-1, ids)
        self.checks += 1
        if count > available:
            self._violate(
                RULE_DOUBLE_CONSUME,
                f"took {count} walks of partition {partition} with only "
                f"{available} buffered (double-consumed frontier batch)",
            )

    def pool_host_appended(
        self, pool: HostWalkPool, partition: int, ids: np.ndarray
    ) -> None:
        self._record(("host append part={} walks={}", partition, ids.size))
        self._place(self._wpool_device[id(pool)], ids)

    def pool_host_taken(
        self, pool: HostWalkPool, partition: int, ids: np.ndarray
    ) -> None:
        self._record(("host take part={} walks={}", partition, ids.size))
        self._place(-1, ids)

    def _place(self, device: int, ids: np.ndarray) -> None:
        """``ids`` entered one of ``device``'s pools or (-1) left theirs:
        the cross-device-residency assertion, O(batch), at its cause.

        Once a walk is pooled twice on one device, copies are counted, so
        taking one copy of a duplicate leaves the id resident."""
        where = self._where
        if where is None or not ids.size:
            return
        top = int(ids.max())
        if top >= where.size:
            size = max(top + 1, 2 * where.size)
            self._where = np.full(size, -1, np.int16)
            self._where[: where.size] = where
            if self._copies is not None:
                self._copies = np.resize(self._copies, size)
                self._copies[where.size :] = 0
            where = self._where
        copies = self._copies
        if device >= 0:
            prev = where[ids]
            clash = (prev >= 0) & (prev != device)
            if clash.any():
                self._violate(
                    RULE_CROSS_DEVICE,
                    f"walk id(s) {ids[clash][:4].tolist()} entered device "
                    f"{device}'s pools while still resident on device(s) "
                    f"{np.unique(prev[clash]).tolist()} "
                    f"({int(clash.sum())} shared)",
                )
            if copies is None and (prev == device).any():
                copies = self._copies = (where >= 0).astype(np.int32)
            if copies is not None:
                np.add.at(copies, ids, 1)
        elif copies is not None:
            np.subtract.at(copies, ids, 1)
            ids = ids[copies[ids] <= 0]
        where[ids] = device

    # ------------------------------------------------------------------
    # Bus event handlers (bound by EventBus.attach)
    # ------------------------------------------------------------------
    def on_walks_seeded(self, event: WalksSeeded) -> None:
        self._record(event)
        if self._expected_walks is None:
            # Arms the conservation checks even when bind() was not told
            # the walk count — the seeding event is the ground truth.
            self._expected_walks = event.walks
        elif event.walks != self._expected_walks:
            self._violate(
                RULE_WALK_CONSERVATION,
                f"seeded {event.walks} walks but the run expects "
                f"{self._expected_walks}",
            )

    def on_iteration_started(self, event: IterationStarted) -> None:
        self._iteration = event.iteration
        self._record(event)
        self._check_stale_owner(event)
        self._check_walk_capacity()
        self._check_conservation("iteration start")
        self._check_cross_device()

    def on_graph_served(self, event: GraphServed) -> None:
        self._record(event)
        if event.mode == SERVED_EXPLICIT:
            self._loads_in_flight.add((event.device, event.partition))

    def on_batch_loaded(self, event: BatchLoaded) -> None:
        self._record(event)
        self._check_batch_size(event.walks, "loaded", event.device)

    def on_kernel_dispatched(self, event: KernelDispatched) -> None:
        self._record(event)
        self._loads_in_flight.discard((event.device, event.partition))
        shard = self._shards.get(event.device)
        graph_pool = shard.graph_pool if shard is not None else None
        if graph_pool is not None and not event.zero_copy:
            self.checks += 1
            if event.partition not in graph_pool:
                where = (
                    f" of device {event.device}" if self._multi else ""
                )
                self._violate(
                    RULE_RESIDENCY,
                    f"kernel dispatched for partition {event.partition} "
                    f"which is not resident in the graph pool{where} "
                    f"(evicted or never loaded)",
                )

    def on_reshuffled(self, event: Reshuffled) -> None:
        self._record(event)
        self._check_conservation("reshuffle")

    def on_batch_evicted(self, event: BatchEvicted) -> None:
        self._record(event)
        self._check_batch_size(event.walks, "evicted", event.device)

    def on_walk_finished(self, event: WalkFinished) -> None:
        self._record(event)
        self._finished += event.count

    def on_walks_migrated(self, event: WalksMigrated) -> None:
        self._record(event)
        key = (event.src_device, event.dst_device)
        self._migrated_sent[key] = (
            self._migrated_sent.get(key, 0) + event.walks
        )

    def on_walks_delivered(self, event: WalksDelivered) -> None:
        self._record(event)
        key = (event.src_device, event.dst_device)
        recv = self._migrated_recv.get(key, 0) + event.walks
        self._migrated_recv[key] = recv
        self.checks += 1
        sent = self._migrated_sent.get(key, 0)
        if recv > sent:
            self._violate(
                RULE_MIGRATION,
                f"channel {key[0]}->{key[1]} delivered {recv} walks but "
                f"only {sent} were sent (phantom delivery)",
            )

    def on_device_failed(self, event: DeviceFailed) -> None:
        self._record(event)
        self._failed_pending[event.device] = event.pending_walks
        # The engine emits DeviceFailed only after recovery re-appended
        # the drained walks, so the population must already balance.
        self._check_conservation("device failure")

    def on_device_recovered_walks(self, event: DeviceRecoveredWalks) -> None:
        self._record(event)
        src = event.src_device
        recovered = self._recovered.get(src, 0) + event.walks
        self._recovered[src] = recovered
        self.checks += 1
        drained = self._failed_pending.get(src, 0)
        if recovered > drained:
            self._violate(
                RULE_MIGRATION,
                f"recovered {recovered} walks from failed device {src} "
                f"which only drained {drained} (recovery duplicated "
                f"walks)",
            )

    def on_shard_rebalanced(self, event: ShardRebalanced) -> None:
        self._record(event)
        # A handoff must leave the population intact and no walk resident
        # on both the old and new owner.
        self._check_conservation("shard rebalance")
        self._check_cross_device()

    def on_query_admitted(self, event: QueryAdmitted) -> None:
        self._record(event)
        self.checks += 1
        if event.request_id in self._admitted_queries:
            self._violate(
                RULE_REQUEST_CONSERVATION,
                f"request {event.request_id} admitted twice (the "
                f"admission controller re-issued a live request id)",
            )
            return
        self._admitted_queries[event.request_id] = event.walks

    def on_query_completed(self, event: QueryCompleted) -> None:
        self._record(event)
        self.checks += 1
        rid = event.request_id
        if rid not in self._admitted_queries:
            self._violate(
                RULE_REQUEST_CONSERVATION,
                f"request {rid} completed with {event.walks} walks but "
                f"was never admitted (orphan walks routed to a phantom "
                f"request)",
            )
            return
        if rid in self._completed_queries:
            self._violate(
                RULE_REQUEST_CONSERVATION,
                f"request {rid} completed twice (the completion router "
                f"demultiplexed the same request again)",
            )
            return
        self._completed_queries.add(rid)
        expected = self._admitted_queries[rid]
        if event.walks != expected:
            self._violate(
                RULE_REQUEST_CONSERVATION,
                f"request {rid} completed with {event.walks} walks, "
                f"admitted with {expected} (walks "
                f"{'lost' if event.walks < expected else 'duplicated'} "
                f"in the coalesced batch)",
            )

    def on_run_completed(self, event: RunCompleted) -> None:
        self._record(event)
        self._check_conservation("run completion")
        self._check_migration_closed()
        self._check_recovery_closed()
        self._check_requests_closed()
        if self._expected_walks is not None:
            self.checks += 1
            if event.finished_walks != self._expected_walks:
                self._violate(
                    RULE_WALK_CONSERVATION,
                    f"run completed with {event.finished_walks} finished "
                    f"walks, expected {self._expected_walks}",
                )

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _check_batch_size(self, walks: int, verb: str, device: int) -> None:
        shard = self._shards.get(device)
        capacity = shard.batch_capacity if shard is not None else None
        if capacity is None:
            return
        self.checks += 1
        if walks > capacity:
            self._violate(
                RULE_WALK_CAPACITY,
                f"batch {verb} with {walks} walks exceeds the fixed "
                f"batch capacity {capacity} (overfilled batch)",
            )

    def _check_walk_capacity(self) -> None:
        for shard in self._shards.values():
            device = shard.device
            if device is None:
                continue
            self.checks += 1
            if device.overflow > 0:
                where = (
                    f"device {shard.device_id} walk pool"
                    if self._multi
                    else "device walk pool"
                )
                self._violate(
                    RULE_WALK_CAPACITY,
                    f"{where} holds {device.cached_walks} walks, "
                    f"{device.overflow} over m_w={device.capacity_walks} "
                    f"at an iteration boundary (eviction was not enforced)",
                )

    def _check_conservation(self, when: str) -> None:
        if self._expected_walks is None:
            return
        shards = [
            s
            for s in self._shards.values()
            if s.host is not None and s.device is not None
        ]
        if not shards:
            return
        self.checks += 1
        pending = 0
        for shard in shards:
            assert shard.host is not None and shard.device is not None
            pending += shard.host.total_walks + shard.device.cached_walks
        total = pending + self._finished
        if total != self._expected_walks:
            self._violate(
                RULE_WALK_CONSERVATION,
                f"at {when}: {pending} pending + {self._finished} finished "
                f"= {total} walks, expected {self._expected_walks} "
                f"(a walk was {'lost' if total < self._expected_walks else 'duplicated'})",
            )

    def _check_cross_device(self) -> None:
        """Boundary tick only: :meth:`_place` asserted it at every write."""
        if self._where is not None:
            self.checks += 1

    def _check_stale_owner(self, event: IterationStarted) -> None:
        """Each iteration's partition must be owned by its alive device."""
        cluster = self._cluster
        if cluster is None:
            return
        self.checks += 1
        device_of = getattr(cluster, "device_of")
        alive = getattr(cluster, "alive")
        owner = int(device_of[event.partition])
        if not bool(alive[event.device]):
            self._violate(
                RULE_STALE_OWNER,
                f"iteration ran on device {event.device}, which has "
                f"failed (the sweep loop did not observe the failure)",
            )
        elif owner != event.device:
            self._violate(
                RULE_STALE_OWNER,
                f"device {event.device} iterated over partition "
                f"{event.partition}, owned by device {owner} — its "
                f"scheduler is deciding on a stale owned mask",
            )

    def _check_recovery_closed(self) -> None:
        """Every failed device's drained walks must have been recovered.

        The failure-path extension of migration conservation: walks
        drained out of a dead shard are 'in flight' until a
        ``DeviceRecoveredWalks`` lands them on a survivor, and a
        completed run may not leave any behind (over-recovery is caught
        live in :meth:`on_device_recovered_walks`).
        """
        for device in sorted(self._failed_pending):
            self.checks += 1
            drained = self._failed_pending[device]
            recovered = self._recovered.get(device, 0)
            if recovered < drained:
                self._violate(
                    RULE_MIGRATION,
                    f"device {device} failed with {drained} pending walks "
                    f"but only {recovered} were recovered onto survivors "
                    f"({drained - recovered} lost to the failure)",
                )

    def _check_migration_closed(self) -> None:
        """At run completion every channel must have sent == delivered."""
        channels = sorted(
            set(self._migrated_sent) | set(self._migrated_recv)
        )
        for key in channels:
            self.checks += 1
            sent = self._migrated_sent.get(key, 0)
            recv = self._migrated_recv.get(key, 0)
            if sent != recv:
                verb = "lost" if sent > recv else "duplicated"
                self._violate(
                    RULE_MIGRATION,
                    f"channel {key[0]}->{key[1]} completed the run with "
                    f"{sent} walks sent but {recv} delivered "
                    f"({abs(sent - recv)} {verb} in flight)",
                )

    def _check_requests_closed(self) -> None:
        """A completed run may leave no admitted query unfinished."""
        for rid in sorted(self._admitted_queries):
            self.checks += 1
            if rid not in self._completed_queries:
                self._violate(
                    RULE_REQUEST_CONSERVATION,
                    f"request {rid} was admitted with "
                    f"{self._admitted_queries[rid]} walks but never "
                    f"completed (dropped completion)",
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations and not self.dropped

    def summary(self) -> Dict[str, object]:
        """The ``RunStats.sanitizer`` payload."""
        by_rule: Dict[str, int] = {}
        for violation in self.violations:
            by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
        return {
            "checks": self.checks,
            "violation_count": len(self.violations) + self.dropped,
            "violations": [v.as_dict() for v in self.violations],
            "by_rule": by_rule,
            "clean": self.clean,
        }

    def format_report(self) -> str:
        """Human-readable multi-line report (CLI output)."""
        return format_summary(self.summary())


def format_summary(summary: Dict[str, object]) -> str:
    """Render a :meth:`Sanitizer.summary` dict (``RunStats.sanitizer``)."""
    checks = summary["checks"]
    count = cast(int, summary["violation_count"])
    violations = cast(List[Dict[str, object]], summary["violations"])
    if summary["clean"]:
        return f"sanitizer: clean ({checks} checks)"
    lines = [f"sanitizer: {count} violation(s) in {checks} checks"]
    for violation in violations:
        lines.append(
            f"  [{violation['rule']}] iteration "
            f"{violation['iteration']}: {violation['message']}"
        )
        for entry in cast(List[str], violation["provenance"]):
            lines.append(f"    {entry}")
    dropped = count - len(violations)
    if dropped > 0:
        lines.append(f"  ... and {dropped} more (truncated)")
    return "\n".join(lines)

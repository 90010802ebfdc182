"""What only a multi-device run has: walk migration, elasticity, failure.

The scheduling loop itself is :meth:`repro.core.engine.LightTrafficEngine.run`
— it shards the range-partitioned graph contiguously across
``config.devices`` simulated devices
(:func:`repro.gpu.cluster.assign_partitions`), gives every shard the full
single-device substrate (one :class:`~repro.core.stages.StageContext` per
shard) and sweeps the shards.  This module holds the collaborators that
loop brings in when ``devices > 1``; at one device none of them is
constructed and the module is not even imported.

What changes versus ``N`` independent engines is the walk frontier: a walk
stepping into another shard's partition range cannot be reshuffled locally.
The :class:`WalkMigrator` intercepts those walks after each kernel
(:meth:`ComputeDispatcher.dispatch` hands them over via ``ctx.router``) and
moves them over a :class:`~repro.gpu.cluster.PeerChannel`:

* the *send* occupies the source device's evict stream
  (``CAT_WALK_MIGRATE`` in the breakdown) starting no earlier than the
  kernel that produced the walks;
* the *link* is occupied for the transfer duration on the channel's own
  stream, which serializes concurrent migrations over the same directed
  device pair (different pairs overlap — the NVSwitch assumption);
* the *delivery* scatters the walks into the destination shard's device
  pool (reshuffle cost on the destination compute stream, starting no
  earlier than the payload's arrival) and records the arrival in
  ``frontier_ready`` so destination kernels never consume walks that are
  still in flight.

Elastic, heterogeneous, failable
--------------------------------
The cluster is not assumed homogeneous, reliable or statically assigned:

* **Heterogeneity** — per-device :class:`~repro.gpu.cluster.ClusterDeviceSpec`
  scales each shard's kernel model, pool budgets and link bandwidth (in
  the engine's shard builder); the initial assignment weights partition
  bytes by each device's bottleneck capability
  (``ClusterDeviceSpec.assignment_weight``, gated by
  ``EngineConfig.heterogeneous_assignment``).
* **Topology** — migrations are routed by the cluster's
  :class:`~repro.gpu.cluster.Topology` (all-pairs, ring or switch); a
  route may relay over multiple channel hops, each serializing on its
  own stream.
* **Failure** — a :class:`~repro.core.config.FailureSchedule` kills
  devices at sweep boundaries (:func:`fail_device`); the dead shard's
  pending walks are drained and re-seeded onto survivors
  (``DeviceFailed`` / ``DeviceRecoveredWalks``), ownership is reassigned
  through the same byte-balanced
  :func:`~repro.gpu.cluster.assign_partitions`, and walk conservation is
  re-asserted immediately.
* **Elasticity** — a :class:`ClusterController` rides the metrics bus,
  detects compute-normalized pending-walk skew and hands partitions off
  between shards mid-run (``ShardRebalanced``), re-migrating their
  pending walks over the ordinary peer channels so the sanitizer's
  migration-conservation rule covers the rebalance path unchanged.

Homogeneous no-failure multi-device runs are pinned bit-identical against
``tests/data/cluster_golden.json``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.engine import LightTrafficEngine, Shard
from repro.core.events import (
    DeviceFailed,
    DeviceRecoveredWalks,
    EventBus,
    IterationStarted,
    KernelDispatched,
    ShardRebalanced,
    WalksDelivered,
    WalksMigrated,
)
from repro.core.stages import StageContext
from repro.core.stats import CAT_RESHUFFLE, CAT_WALK_MIGRATE
from repro.gpu.cluster import DeviceCluster, PeerChannel, assign_partitions
from repro.walks.state import WalkArrays

#: The engine under its multi-device name: ``config.devices`` alone decides
#: how many shards the one loop sweeps.
MultiDeviceEngine = LightTrafficEngine


def _transit(
    hops: Tuple[PeerChannel, ...],
    nbytes: int,
    walks: int,
    send_start: float,
) -> float:
    """Carry one payload across the route's channel hops; returns arrival.

    Each hop's link is occupied in sequence (a relay cannot forward
    before it has received).  Conservation counters: every hop counts
    the payload as sent; relay hops also count it as delivered the
    moment it leaves them, so only the final hop's ``delivered_walks``
    waits for the actual pool delivery — per-channel ``sent ==
    delivered`` stays an invariant at run end under every topology.
    """
    arrival = send_start
    last = hops[-1]
    for hop in hops:
        __, arrival = hop.transfer(nbytes, earliest=arrival)
        hop.sent_walks += walks
        if hop is not last:
            hop.delivered_walks += walks
    return arrival


class WalkMigrator:
    """Routes post-kernel walks that left their shard over P2P channels.

    Installed as ``ctx.router`` on every shard context when ``devices > 1``;
    :meth:`ComputeDispatcher.dispatch` calls :meth:`route` with the
    surviving walks and their new partition ids before reshuffling.
    Routes come from the cluster topology and may span several channel
    hops (ring relays, an explicit switch); the send cost on the source
    evict stream is charged once, modeled on the first hop's link.
    """

    def __init__(self, cluster: DeviceCluster, shards: List[Shard]) -> None:
        self.cluster = cluster
        self.shards = shards

    def route(
        self,
        ctx: StageContext,
        part_idx: int,
        active: WalkArrays,
        new_parts: np.ndarray,
        kernel_end: float,
    ) -> Tuple[WalkArrays, np.ndarray]:
        """Split ``active`` into (kept-local, migrated); returns the local part."""
        src = ctx.device_id
        dest = self.cluster.device_of[new_parts]
        local_mask = dest == src
        if bool(local_mask.all()):
            return active, new_parts
        cal = ctx.config.calibration
        # Ascending destination order keeps the send sequence — and with it
        # every downstream timestamp — deterministic.
        for dst in np.unique(dest[~local_mask]):
            dst = int(dst)
            sel = dest == dst
            payload = active.select(sel)
            parts = new_parts[sel]
            nbytes = len(payload) * ctx.bytes_per_walk
            hops = self.cluster.route(src, dst)
            send_t = (
                hops[0].spec.transfer_time(nbytes)
                + cal.scaled_memcpy_call_seconds
            )
            earliest = kernel_end
            if not ctx.config.pipeline:
                earliest = max(earliest, ctx.timeline.now)
            send_start, __ = ctx.timeline.evict.schedule(
                send_t, CAT_WALK_MIGRATE, earliest=earliest
            )
            # The first link is held while the source copy engine pushes
            # the payload; relay hops forward it as soon as it lands.
            arrival = _transit(hops, nbytes, len(payload), send_start)
            ctx.bus.emit(
                WalksMigrated(
                    src_device=src,
                    dst_device=dst,
                    walks=len(payload),
                    nbytes=nbytes,
                    seconds=send_t,
                )
            )
            self._deliver(src, dst, hops[-1], payload, parts, arrival)
        return active.select(local_mask), new_parts[local_mask]

    def _deliver(
        self,
        src: int,
        dst: int,
        chan: PeerChannel,
        payload: WalkArrays,
        parts: np.ndarray,
        arrival: float,
    ) -> None:
        """Scatter a migrated payload into the destination shard's pool.

        ``src``/``dst`` are the route's true endpoints — under multi-hop
        topologies the final hop's source is a relay, not the origin.
        """
        shard = self.shards[dst]
        dctx = shard.ctx
        cost, __ = dctx.reshuffler.reshuffle(dctx.device, payload, parts)
        ready = dctx.sched(dctx.timeline.compute, cost, CAT_RESHUFFLE, arrival)
        for p in np.unique(parts):
            p = int(p)
            prev = dctx.frontier_ready.get(p, 0.0)
            if ready > prev:
                dctx.frontier_ready[p] = ready
        chan.delivered_walks += len(payload)
        dctx.bus.emit(
            WalksDelivered(
                src_device=src,
                dst_device=dst,
                walks=len(payload),
                arrival=arrival,
            )
        )
        shard.compute.enforce_walk_capacity(protect=None)


class ClusterController:
    """Elastic load controller: watches the metrics bus, hands off shards.

    The controller subscribes to the engine's event bus (the PR-1
    metrics backbone): ``IterationStarted`` samples each shard's pending
    walks, ``KernelDispatched`` accumulates a per-device activity
    window.  At every sweep boundary the engine calls
    :meth:`maybe_rebalance`; when the most loaded alive shard's
    compute-normalized pending walks exceed ``rebalance_threshold``
    times the alive mean (and the cooldown has elapsed), ownership is
    recomputed from per-partition pending load through the shared
    byte-balanced :func:`~repro.gpu.cluster.assign_partitions`, and the
    changed partitions are handed off: pending walks drained from the
    old owner, re-migrated over the ordinary peer channels (so the
    sanitizer's migration-conservation rule audits the rebalance path
    unchanged) and appended to the new owner's host pool.
    """

    def __init__(
        self,
        cluster: DeviceCluster,
        shards: List[Shard],
        threshold: float,
        cooldown: int,
        heterogeneous: bool,
        expected_walks: int,
    ) -> None:
        self.cluster = cluster
        self.shards = shards
        self.threshold = threshold
        self.cooldown = cooldown
        self.heterogeneous = heterogeneous
        self.expected_walks = expected_walks
        #: bus-sampled pending walks per device (IterationStarted).
        self._pending: Dict[int, int] = {}
        #: walks computed per device since the last rebalance.
        self._window: Dict[int, int] = {}
        self._last_rebalance = 0
        self.rebalances = 0

    # -- event handlers (bound by EventBus.attach) ----------------------
    def on_iteration_started(self, event: IterationStarted) -> None:
        self._pending[event.device] = event.pending_walks

    def on_kernel_dispatched(self, event: KernelDispatched) -> None:
        device = event.device
        self._window[device] = self._window.get(device, 0) + event.walks

    # ------------------------------------------------------------------
    def _normalized_loads(self) -> Dict[int, float]:
        """Compute-normalized pending load per alive device.

        The signal is the bus-sampled pending count; a shard that went
        idle stops emitting ``IterationStarted``, so its (stale) sample
        is clamped by the live pool count at the sweep boundary.
        """
        loads: Dict[int, float] = {}
        for shard in self.shards:
            if not shard.alive:
                continue
            device = shard.ctx.device_id
            sample = min(
                self._pending.get(device, 0), shard.ctx.pending_walks
            )
            loads[device] = (
                sample / self.cluster.spec(device).assignment_weight
            )
        return loads

    def maybe_rebalance(self, iteration: int, bus: EventBus) -> bool:
        """Rebalance if skew warrants it; returns whether it happened."""
        if iteration - self._last_rebalance < self.cooldown:
            return False
        loads = self._normalized_loads()
        if len(loads) < 2:
            return False
        mean = sum(loads.values()) / len(loads)
        if mean <= 0.0 or max(loads.values()) <= self.threshold * mean:
            return False
        cluster = self.cluster
        shards = self.shards
        alive_ids = cluster.alive_devices()
        # Recompute ownership from *pending load* (+1 keeps drained
        # partitions spreadable), weighted by bottleneck capability.
        num_partitions = cluster.device_of.size
        counts = np.empty(num_partitions, dtype=np.int64)
        for p in range(num_partitions):
            counts[p] = (
                shards[cluster.owner(p)].ctx.partition_walks(p) + 1
            )
        weights = None
        if self.heterogeneous:
            weights = np.array(
                [cluster.spec(int(d)).assignment_weight for d in alive_ids],
                dtype=np.float64,
            )
        sub = assign_partitions(counts, len(alive_ids), weights=weights)
        new_owner = alive_ids[sub]
        moved = np.nonzero(new_owner != cluster.device_of)[0]
        self._last_rebalance = iteration
        self._window.clear()
        if moved.size == 0:
            return False
        walks_moved = 0
        for p in (int(x) for x in moved):
            src = cluster.owner(p)
            dst = int(new_owner[p])
            src_ctx = shards[src].ctx
            groups = src_ctx.release_partition(p)
            walks = sum(len(group) for group in groups)
            if walks == 0:
                continue
            walks_moved += walks
            nbytes = walks * src_ctx.bytes_per_walk
            hops = cluster.route(src, dst)
            send_t = (
                hops[0].spec.transfer_time(nbytes)
                + src_ctx.config.calibration.scaled_memcpy_call_seconds
            )
            # The handoff starts once the old owner's pipeline quiesces.
            send_start, __ = src_ctx.timeline.evict.schedule(
                send_t, CAT_WALK_MIGRATE, earliest=src_ctx.timeline.now
            )
            arrival = _transit(hops, nbytes, walks, send_start)
            bus.emit(
                WalksMigrated(
                    src_device=src,
                    dst_device=dst,
                    walks=walks,
                    nbytes=nbytes,
                    seconds=send_t,
                )
            )
            dctx = shards[dst].ctx
            for group in groups:
                dctx.host.append_walks(p, group)
            hops[-1].delivered_walks += walks
            prev = dctx.frontier_ready.get(p, 0.0)
            if arrival > prev:
                dctx.frontier_ready[p] = arrival
            bus.emit(
                WalksDelivered(
                    src_device=src,
                    dst_device=dst,
                    walks=walks,
                    arrival=arrival,
                )
            )
        cluster.set_owners(moved, new_owner[moved])
        for shard in shards:
            if shard.alive:
                shard.ctx.scheduler.set_owned(
                    cluster.owned_mask(shard.ctx.device_id)
                )
        bus.emit(
            ShardRebalanced(
                iteration=iteration,
                moved_partitions=int(moved.size),
                walks_moved=walks_moved,
            )
        )
        self.rebalances += 1
        assert_cluster_conservation(shards, self.expected_walks)
        return True


def assert_cluster_conservation(shards: List[Shard], expected: int) -> None:
    """Re-assert walk conservation after a cluster mutation.

    Failure recovery and elastic rebalance both move walks between
    pools outside the audited kernel/migration flow; every such
    mutation ends with this check so a lost or duplicated walk
    surfaces at the mutation that caused it, not at run end.
    """
    pending = sum(shard.ctx.pending_walks for shard in shards)
    finished = sum(shard.ctx.finished for shard in shards)
    if pending + finished != expected:
        raise RuntimeError(
            f"walk conservation violated after cluster mutation: "
            f"{pending} pending + {finished} finished != {expected}"
        )


def fail_device(
    shards: List[Shard],
    cluster: DeviceCluster,
    device: int,
    iteration: int,
    bus: EventBus,
    num_walks: int,
) -> None:
    """Kill one device shard and recover its walks onto survivors.

    The dead shard's pending walks are drained (there are no walks
    in flight between iterations — migration delivery is synchronous
    within a dispatch), its partitions reassigned over the alive
    devices through the shared byte-balanced assignment, survivors'
    owned masks refreshed, and the walks appended to the new owners'
    host pools.  ``DeviceFailed`` is emitted only after the cluster
    is consistent again, so auditing subscribers always observe a
    conserved population.
    """
    shard = shards[device]
    if not shard.alive:
        return
    cluster.fail_device(device)
    shard.alive = False
    moved = cluster.owned_partitions(device)
    drained = {int(p): shard.ctx.release_partition(int(p)) for p in moved}
    pending = sum(
        len(group) for groups in drained.values() for group in groups
    )
    alive_ids = cluster.alive_devices()
    sizes = np.asarray(shard.ctx.pgraph.partition_sizes(), dtype=np.int64)
    # The dead device may own fewer partitions than there are
    # survivors; spread over the least-loaded ones in that case
    # (deterministic: load then device id).
    if moved.size < alive_ids.size:
        ranked = sorted(
            (
                shards[int(d)].ctx.pending_walks
                / cluster.spec(int(d)).assignment_weight,
                int(d),
            )
            for d in alive_ids
        )
        chosen = sorted(dev for __, dev in ranked[: moved.size])
        alive_ids = np.asarray(chosen, dtype=np.int64)
    weights = None
    if shard.ctx.config.heterogeneous_assignment and any(
        cluster.spec(int(d)).assignment_weight != 1.0 for d in alive_ids
    ):
        weights = np.array(
            [cluster.spec(int(d)).assignment_weight for d in alive_ids],
            dtype=np.float64,
        )
    sub = assign_partitions(sizes[moved], len(alive_ids), weights=weights)
    new_owners = alive_ids[sub]
    cluster.set_owners(moved, new_owners)
    for survivor in shards:
        if survivor.alive:
            survivor.ctx.scheduler.set_owned(
                cluster.owned_mask(survivor.ctx.device_id)
            )
    recovered: Dict[int, List[int]] = {}
    for idx, p in enumerate(int(x) for x in moved):
        dst = int(new_owners[idx])
        walks = sum(len(group) for group in drained[p])
        for group in drained[p]:
            shards[dst].ctx.host.append_walks(p, group)
        entry = recovered.setdefault(dst, [0, 0])
        entry[0] += walks
        entry[1] += 1
    bus.emit(
        DeviceFailed(
            device=device,
            iteration=iteration,
            pending_walks=pending,
            partitions=int(moved.size),
        )
    )
    for dst in sorted(recovered):
        walks, partitions = recovered[dst]
        bus.emit(
            DeviceRecoveredWalks(
                src_device=device,
                dst_device=dst,
                walks=walks,
                partitions=partitions,
            )
        )
    assert_cluster_conservation(shards, num_walks)

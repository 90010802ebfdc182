"""Compute stage: walk-update kernels, reshuffle, capacity enforcement.

The :class:`ComputeDispatcher` advances a group of walks inside one graph
partition (real NumPy semantics), schedules the corresponding kernel on the
compute stream (overlapped with zero-copy PCIe occupancy when the partition
is served that way), reshuffles survivors into their new partitions'
frontiers, and evicts walk batches to the host whenever the device walk
pool exceeds ``m_w`` — emitting one typed event per observable fact.

Eviction runs by plan: the scheduler's drain order fixes every victim at
once, so one gather copies their walks out and one stream run schedules
their transfers, while the host still gets one ≤ B-walk batch and the bus
one ``BatchEvicted`` per transfer, in the order a batch-at-a-time greedy
loop would produce them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.events import (
    BatchEvicted,
    KernelDispatched,
    Reshuffled,
    WalkFinished,
)
from repro.core.stages.context import StageContext
from repro.core.stats import (
    CAT_KERNEL_OTHER,
    CAT_PATH_SHIP,
    CAT_RESHUFFLE,
    CAT_WALK_EVICT,
    CAT_WALK_UPDATE,
    CAT_ZERO_COPY,
)
from repro.walks.state import WalkArrays


def drain_counts(held: np.ndarray, overflow: int, batch: int) -> np.ndarray:
    """Walks each eviction victim gives, in drain order.

    ``held[k]`` is victim ``k``'s device-cached walks.  Victims give all of
    them until ``overflow`` is covered, and the last one only whole batches
    up to that point — what a loop evicting one batch of the first
    non-empty victim until the pool fits would take.  Shorter than ``held``
    when fewer victims suffice; short of ``overflow`` when all do not.
    """
    drained = held.cumsum()
    last = int(drained.searchsorted(overflow))
    if last == held.size:
        return held
    take = held[: last + 1].copy()
    short = overflow - int(drained[last] - held[last])
    take[last] = min(int(held[last]), -(-short // batch) * batch)
    return take


class ComputeDispatcher:
    """Runs walk-update kernels and the post-kernel bookkeeping."""

    def __init__(self, ctx: StageContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    def enforce_walk_capacity(self, protect: Optional[int]) -> None:
        """Evict walk batches until the device pool fits ``m_w`` again."""
        ctx = self.ctx
        device = ctx.device
        overflow = device.overflow
        if overflow == 0:
            return
        order = ctx.scheduler.walk_evict_partition(
            ctx.graph_pool, device, protect=protect
        )
        cap = device.batch_capacity
        take = drain_counts(device.counts[order], overflow, cap)
        order = order[: take.size]
        walks = device.evict_batch(order, take)
        parts: List[int] = []  # per batch: full ones first, then the rest
        sizes: List[int] = []
        for part, left in zip(order.tolist(), take.tolist()):
            while left > cap:
                parts.append(part)
                sizes.append(cap)
                left -= cap
            parts.append(part)
            sizes.append(left)
        seconds = ctx.batch_seconds(sizes)
        ctx.sched_run(ctx.timeline.evict, seconds, CAT_WALK_EVICT, 0.0)
        host = ctx.host
        emit = ctx.bus.emit
        batches = walks.split(sizes)
        for part, batch, size, copy_t in zip(parts, batches, sizes, seconds):
            host.push_batch(part, batch)
            emit(
                BatchEvicted(
                    partition=part,
                    walks=size,
                    seconds=copy_t,
                    device=ctx.device_id,
                )
            )
        if len(walks) < overflow:
            raise KeyError("walk pool has nothing to evict")

    # ------------------------------------------------------------------
    def dispatch(
        self,
        part_idx: int,
        contents: WalkArrays,
        earliest: float,
        zero_copy: bool,
        preemptive: bool = False,
    ) -> None:
        """Advance ``contents`` inside partition ``part_idx`` once."""
        ctx = self.ctx
        if not len(contents):
            return
        cfg = ctx.config
        partition = ctx.pgraph.partitions[part_idx]
        # Execution is delegated (and wall-clock measured) by the backend;
        # the returned BatchRunResult still feeds the simulated cost model
        # below, unchanged.
        result = ctx.backend.advance(
            partition, contents, ctx.rng, ctx.graph
        )
        fallbacks = ctx.algorithm.consume_sampler_fallbacks()

        update_t = ctx.update_time(
            part_idx, result.total_steps, result.longest_run
        )
        if zero_copy:
            zc_bytes = (
                result.total_steps * 2 * cfg.calibration.cacheline_bytes
            )
            zc_time = ctx.pcie.zero_copy_time(zc_bytes, cfg.calibration)
            kernel_dur = max(update_t, zc_time)
        else:
            zc_time = 0.0
            kernel_dur = update_t
        k_end = ctx.sched(
            ctx.timeline.compute, kernel_dur, CAT_WALK_UPDATE, earliest
        )
        if zero_copy and zc_time > 0:
            ctx.sched(
                ctx.timeline.load,
                zc_time,
                CAT_ZERO_COPY,
                max(0.0, k_end - kernel_dur),
            )
        ctx.bus.emit(
            KernelDispatched(
                partition=part_idx,
                walks=len(contents),
                steps=result.total_steps,
                preemptive=preemptive,
                zero_copy=zero_copy,
                seconds=kernel_dur,
                sampler_fallbacks=fallbacks,
                device=ctx.device_id,
            )
        )

        if cfg.ship_paths and ctx.algorithm.carries_walk_id:
            # Each executed step emits one (walk_id, vertex) pair to the
            # consumer GPU over the ship link (paper §IV-A assumption).
            ship_t = ctx.ship_link.explicit_copy_time(
                result.total_steps * 16
            )
            ctx.sched(ctx.timeline.evict, ship_t, CAT_PATH_SHIP, 0.0)

        # ``contents`` are views of the arena segment ``part_idx`` was
        # popped from.  When every lane survives they go on uncopied: a
        # survivor has left ``part_idx``, so the reshuffle below never
        # inserts into that segment, and a make-room move or rebuild never
        # writes an emptied segment it does not own.
        survivors = result.active.nonzero()[0]
        if survivors.size == len(contents):
            active = contents
        else:
            active = contents.select(survivors)
        finished_now = len(contents) - len(active)
        ctx.finished += finished_now
        if finished_now:
            ctx.bus.emit(
                WalkFinished(
                    partition=part_idx,
                    count=finished_now,
                    device=ctx.device_id,
                )
            )
        if len(active):
            new_parts = ctx.pgraph.find_partitions(active.vertices)
            if ctx.router is not None:
                # Multi-device: walks that stepped into another shard's
                # partition range migrate over a peer channel instead of
                # reshuffling locally.
                active, new_parts = ctx.router.route(
                    ctx, part_idx, active, new_parts, k_end
                )
        if len(active):
            reshuffle_t, __ = ctx.reshuffler.reshuffle(
                ctx.device, active, new_parts
            )
            ctx.sched(ctx.timeline.compute, reshuffle_t, CAT_RESHUFFLE, 0.0)
            ctx.bus.emit(
                Reshuffled(
                    partition=part_idx,
                    walks=len(active),
                    seconds=reshuffle_t,
                    device=ctx.device_id,
                )
            )
        ctx.sched(
            ctx.timeline.compute,
            cfg.calibration.scaled_kernel_launch_seconds,
            CAT_KERNEL_OTHER,
            0.0,
        )
        self.enforce_walk_capacity(protect=part_idx)

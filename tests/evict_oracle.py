"""The batch-at-a-time eviction and load loops the planned stages replaced.

Kept verbatim as the reference for ``tests/test_evict_plan.py``: one
Python round trip per batch — pick the victim, copy one batch out of the
device arena, schedule one transfer, push it at the host head, emit one
event — until the pool fits.  The victim rule is the single-batch
``Scheduler.walk_evict_partition`` of that loop, which read the graph
pool's keys instead of its residency mask.  Patch these in for the
shipped methods to replay a run the old way:

    monkeypatch.setattr(ComputeDispatcher, "enforce_walk_capacity",
                        evict_oracle.enforce_walk_capacity)
    monkeypatch.setattr(WalkLoader, "stream", evict_oracle.stream)
"""

from typing import Optional, Tuple

import numpy as np

from repro.core.events import BatchEvicted, BatchLoaded
from repro.core.stats import CAT_WALK_EVICT, CAT_WALK_LOAD
from repro.walks.state import WalkArrays


def walk_evict_partition(sched, graph_pool, device, protect=None) -> int:
    """Partition from which to evict one walk batch to the host."""
    mask = (device.counts > 0) & sched.owned
    if protect is not None:
        mask[protect] = False
    candidates = np.flatnonzero(mask)
    if candidates.size == 0:
        if protect is not None and device.has_walks(protect):
            return protect
        raise KeyError("walk pool has nothing to evict")
    if not sched.selective:
        return int(candidates[0])
    mask[graph_pool.keys()] = False
    if mask.any():
        candidates = np.flatnonzero(mask)
    return int(candidates[np.argmin(device.counts[candidates])])


def enforce_walk_capacity(self, protect: Optional[int]) -> None:
    """Evict walk batches until the device pool fits ``m_w`` again."""
    ctx = self.ctx
    while ctx.device.overflow > 0:
        victim_part = walk_evict_partition(
            ctx.scheduler, ctx.graph_pool, ctx.device, protect=protect
        )
        batch = ctx.device.evict_batch(victim_part)
        copy_t = (
            ctx.pcie.explicit_copy_time(len(batch) * ctx.bytes_per_walk)
            + ctx.config.calibration.scaled_memcpy_call_seconds
        )
        ctx.sched(ctx.timeline.evict, copy_t, CAT_WALK_EVICT, 0.0)
        ctx.host.push_batch(victim_part, batch)
        ctx.bus.emit(
            BatchEvicted(
                partition=victim_part,
                walks=len(batch),
                seconds=copy_t,
                device=ctx.device_id,
            )
        )


def stream(self, part_idx: int) -> Tuple[Optional[WalkArrays], float]:
    """Load every host batch of ``part_idx``."""
    ctx = self.ctx
    batch_t = 0.0
    chunks = []
    while ctx.host.has_walks(part_idx):
        batch = ctx.host.pop_batch(part_idx)
        load_t = (
            ctx.pcie.explicit_copy_time(len(batch) * ctx.bytes_per_walk)
            + ctx.config.calibration.scaled_memcpy_call_seconds
        )
        batch_t = ctx.sched(ctx.timeline.load, load_t, CAT_WALK_LOAD, 0.0)
        ctx.bus.emit(
            BatchLoaded(
                partition=part_idx,
                walks=len(batch),
                seconds=load_t,
                device=ctx.device_id,
            )
        )
        chunks.append(batch)
    if not chunks:
        return None, batch_t
    return WalkArrays.concat(chunks), batch_t

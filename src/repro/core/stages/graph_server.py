"""Graph serving stage: cache lookup, adaptive zero copy, explicit load.

For the selected partition, the :class:`GraphServer` answers *how the GPU
gets the graph data* this iteration (paper §III-D/§III-E):

1. **hit** — the partition is cached in the graph pool; no transfer.
2. **zero_copy** — the adaptive rule ``alpha * w < S_p`` holds (few walks,
   stragglers): the kernel reads host memory over PCIe at cache-line
   granularity instead of paying a whole-partition load.
3. **explicit** — a full partition copy on the load stream, evicting a
   victim chosen by the scheduler when the pool is full.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import (
    SERVED_EXPLICIT,
    SERVED_HIT,
    SERVED_ZERO_COPY,
    GraphServed,
)
from repro.core.stages.context import StageContext
from repro.core.stats import CAT_GRAPH_LOAD


@dataclass(frozen=True)
class ServeResult:
    """Outcome of serving one partition's graph data."""

    partition: int
    mode: str
    ready_time: float

    @property
    def zero_copy(self) -> bool:
        return self.mode == SERVED_ZERO_COPY


class GraphServer:
    """Serves the selected partition's graph data to the GPU."""

    def __init__(self, ctx: StageContext) -> None:
        self.ctx = ctx

    def serve(self, part_idx: int) -> ServeResult:
        ctx = self.ctx
        partition = ctx.pgraph.partitions[part_idx]

        copy_t = 0.0
        if ctx.graph_pool.lookup(part_idx) is not None:
            mode = SERVED_HIT
            graph_t = ctx.graph_ready.get(part_idx, 0.0)
        elif ctx.adaptive.should_zero_copy(
            partition.nbytes, ctx.partition_walks(part_idx)
        ):
            mode = SERVED_ZERO_COPY
            graph_t = 0.0
        else:
            mode = SERVED_EXPLICIT
            if ctx.graph_pool.is_full:
                victim = ctx.scheduler.graph_victim(
                    ctx.graph_pool, ctx.host, ctx.device, protect=part_idx
                )
                ctx.graph_pool.evict(victim)
                ctx.graph_ready.pop(victim, None)
            copy_t = (
                ctx.pcie.explicit_copy_time(partition.nbytes)
                + ctx.config.calibration.scaled_memcpy_call_seconds
            )
            graph_t = ctx.sched(
                ctx.timeline.load, copy_t, CAT_GRAPH_LOAD, 0.0
            )
            ctx.graph_pool.insert(part_idx, partition)
            ctx.graph_ready[part_idx] = graph_t
        ctx.bus.emit(
            GraphServed(
                iteration=ctx.iteration,
                partition=part_idx,
                mode=mode,
                copy_seconds=copy_t,
                ready_time=graph_t,
                device=ctx.device_id,
            )
        )
        return ServeResult(part_idx, mode, graph_t)

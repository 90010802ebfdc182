"""Walk loading stage: stream the selected partition's host batches.

Each host batch is one transfer on the load stream (paper §III-B); their
computation is modeled downstream as one merged kernel dependent on the
last transfer, so the loader returns the concatenated walk contents plus
the completion time of the final batch transfer.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.events import BatchLoaded
from repro.core.stages.context import StageContext
from repro.core.stats import CAT_WALK_LOAD
from repro.walks.state import WalkArrays


class WalkLoader:
    """Streams host-resident walk batches of one partition to the device."""

    def __init__(self, ctx: StageContext) -> None:
        self.ctx = ctx

    def stream(self, part_idx: int) -> Tuple[Optional[WalkArrays], float]:
        """Load every host batch of ``part_idx``.

        Returns ``(contents, ready_time)`` where ``contents`` is the merged
        walk payload (``None`` when the host pool held nothing) and
        ``ready_time`` is when the last transfer completes.
        """
        ctx = self.ctx
        batch_t = 0.0
        chunks = []
        while ctx.host.has_walks(part_idx):
            batch = ctx.host.pop_batch(part_idx)
            load_t = (
                ctx.pcie.explicit_copy_time(len(batch) * ctx.bytes_per_walk)
                + ctx.config.calibration.scaled_memcpy_call_seconds
            )
            batch_t = ctx.sched(
                ctx.timeline.load, load_t, CAT_WALK_LOAD, 0.0
            )
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

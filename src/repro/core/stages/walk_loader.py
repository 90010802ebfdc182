"""Walk loading stage: stream the selected partition's host batches.

Each host batch is one transfer on the load stream (paper §III-B); their
computation is modeled downstream as one merged kernel dependent on the
last transfer, so the loader returns the concatenated walk contents plus
the completion time of the final batch transfer.  The partition's batches
leave the host pool in one call and their transfers go on the stream as
one run, with one ``BatchLoaded`` per batch.
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
        batches = ctx.host.pop_batches(part_idx)
        if not batches:
            return None, 0.0
        sizes = [len(batch) for batch in batches]
        seconds = ctx.batch_seconds(sizes)
        ready = ctx.sched_run(ctx.timeline.load, seconds, CAT_WALK_LOAD, 0.0)
        emit = ctx.bus.emit
        for walks, load_t in zip(sizes, seconds):
            emit(
                BatchLoaded(
                    partition=part_idx,
                    walks=walks,
                    seconds=load_t,
                    device=ctx.device_id,
                )
            )
        return WalkArrays.concat(batches), ready

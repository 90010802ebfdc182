"""Walk reshuffling (paper §III-C, Algorithm 1 lines 6-14, Figure 7).

After a batch is updated, its surviving walks may belong to different
partitions and must be inserted into the corresponding write frontiers.
Two implementations are modeled:

* **Two-level caching** (LightTraffic): each SM builds a *local index* in
  shared memory — an atomic counter per partition plus an inverted map sorted
  with counting sort — so global-memory synchronization happens once per
  partition, and writes to the same frontier are coalesced.
* **Direct write** (Fig 12 baseline): every thread performs an atomic on the
  global frontier counter and an uncoalesced scatter store.

Both produce identical walk placements; they differ only in the modeled
kernel time (see :meth:`repro.gpu.kernels.KernelModel.reshuffle_time`).
Host-side, the grouping is the same counting sort (:func:`group_order`),
and one :meth:`DeviceWalkPool.scatter_sorted` takes the stable order and
the sorted partition ids and writes every frontier: it finds each
partition's run with one ``searchsorted`` against ``0 .. P-1`` and
updates the frontiers P-wide, so its cost does not follow the number of
partitions touched.  A payload of one walk, or of walks that all target
one partition, has nothing to group: it goes to
:meth:`DeviceWalkPool.append_walks` as is (a one-walk payload without the
sort), which places it where the scatter would.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.units import Seconds
from repro.gpu.kernels import DIRECT_WRITE, TWO_LEVEL, KernelModel
from repro.walks.pool import DeviceWalkPool, run_bounds
from repro.walks.state import WalkArrays


def group_order(partition_ids: np.ndarray) -> np.ndarray:
    """The stable order grouping walks by partition, by counting.

    Equals ``np.argsort(partition_ids, kind="stable")``, which NumPy runs as
    a radix (counting) sort on keys of at most 16 bits.  Callers pass the
    keys of ``find_partitions`` in its LUT dtype, which is that narrow up to
    P = 32 768; wider keys are comparison-sorted.
    """
    return np.argsort(partition_ids, kind="stable")


def group_by_partition(
    walks: WalkArrays, partition_ids: np.ndarray
) -> Dict[int, WalkArrays]:
    """Split walks into per-target-partition groups (vectorized).

    ``partition_ids[i]`` is the partition that ``walks[i]`` now belongs to
    (``findPartition`` of Algorithm 1).  Uses the stable counting sort
    :func:`group_order`, matching what the two-level local index produces
    after merge, and the device pool's run bounds; the groups are views of
    one sorted copy.
    """
    if partition_ids.shape != (len(walks),):
        raise ValueError("partition_ids must align with walks")
    if not len(walks):
        return {}
    order = group_order(partition_ids)
    sorted_parts = partition_ids[order]
    low = int(sorted_parts[0])
    keys = np.arange(low, int(sorted_parts[-1]) + 1, dtype=sorted_parts.dtype)
    bounds = run_bounds(sorted_parts, keys).tolist()
    ordered = walks.select(order)
    return {
        low + k: WalkArrays(
            ordered.vertices[lo:hi], ordered.steps[lo:hi], ordered.ids[lo:hi]
        )
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        if lo < hi
    }


class _BaseReshuffler:
    """Shared semantics; subclasses pick the cost mode."""

    mode: str = TWO_LEVEL

    def __init__(
        self,
        kernel_model: KernelModel,
        num_partitions: int,
        backend: Optional[object] = None,
    ) -> None:
        self.kernel_model = kernel_model
        self.num_partitions = num_partitions
        #: execution backend supplying (and wall-clock measuring) the
        #: grouping order; ``None`` = :func:`group_order` inline.
        self._backend = backend
        # Per-walk cost is constant for a fixed P and mode; precompute the
        # serial (1-lane) per-walk duration so the hot path is one multiply.
        # The formula itself lives in KernelModel (single source of truth).
        self._serial_per_walk = kernel_model.reshuffle_serial_seconds(
            num_partitions, self.mode
        )
        self._lanes = kernel_model.calibration.reshuffle_parallel_lanes

    def seconds_for(self, num_walks: int) -> Seconds:
        """Modeled reshuffle duration (``KernelModel.reshuffle_time``)."""
        if num_walks <= 0:
            return Seconds(0.0)
        return Seconds(
            num_walks * self._serial_per_walk / min(num_walks, self._lanes)
        )

    def reshuffle(
        self,
        pool: DeviceWalkPool,
        walks: WalkArrays,
        partition_ids: np.ndarray,
    ) -> Tuple[float, int]:
        """Insert updated walks into device frontiers.

        Returns ``(modeled_seconds, partitions_touched)``.  The grouping is
        a stable counting sort by partition — semantically what the
        two-level local index produces after merging (Algorithm 1).  A
        payload with one target (one walk needs no sort to know it) is one
        append; the modeled seconds are the same either way.
        """
        n = len(walks)
        if n == 0:
            return 0.0, 0
        if n == 1:
            low = high = partition_ids[0]
        else:
            if self._backend is not None:
                order = self._backend.group_order(partition_ids)
            else:
                order = group_order(partition_ids)
            sorted_parts = partition_ids[order]
            low, high = sorted_parts[0], sorted_parts[-1]
        # Guard against corrupted lookups: a negative id would silently wrap
        # into the last partition's counters.
        if low < 0 or high >= self.num_partitions:
            raise ValueError(
                f"partition ids out of range [0, {self.num_partitions}): "
                f"min={low}, max={high}"
            )
        if low == high:
            # One target: the stable order is the payload's own.
            pool.append_walks(int(low), walks)
            return self.seconds_for(n), 1
        # Unsorted payload: the pool writes each walk to its slot via order.
        return self.seconds_for(n), pool.scatter_sorted(
            walks, order, sorted_parts
        )


class TwoLevelReshuffler(_BaseReshuffler):
    """LightTraffic's shared-memory two-level reshuffling (§III-C)."""

    mode = TWO_LEVEL


class DirectWriteReshuffler(_BaseReshuffler):
    """Baseline: direct global-memory atomics and scatter writes (Fig 12)."""

    mode = DIRECT_WRITE

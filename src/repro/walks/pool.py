"""Host and device walk pools (paper §III-B, Figures 4 & 6).

A walk batch is a :class:`WalkArrays` of 1..B walks of one partition; what
makes it a batch is its size bound and its boundary — one host↔device
transfer, one ``BatchLoaded`` / ``BatchEvicted`` event — not a
preallocated object.

The *host* pool stores the entire walk index grouped by partition, with no
capacity limit (CPU memory holds everything, as in the paper): a deque of
batches per partition whose tail is the write frontier.  The boundaries
are kept because each batch is one transfer; host memory follows the walks
held, not batches × B.

The *device* pool caches at most ``m_w`` walks in one contiguous append
buffer per partition (inserts are slice assignments at the tail, pops are
slice views from the head).  Its batch accounting is derived from walk
counts — ``full = count // B`` completed batches, ``count % B`` walks in
the write frontier.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, Optional, Protocol, Sequence

import numpy as np

from repro.core.units import Bytes
from repro.walks.state import WalkArrays


class DeviceObserver(Protocol):
    """Device-pool mutation hooks (see :class:`repro.analysis.Sanitizer`).

    Pure observation: implementations must not raise, mutate the pool or
    keep ``ids`` (a view of pool storage).  Each hook fires once per
    ``append_walks`` / ``scatter_sorted`` / take with the ids that moved
    (``parts``: the partitions written, ``ids``: their whole payload).
    ``available`` is the buffer-truth live count *before* the take, so
    over-consumes are visible even if ``counts`` has been corrupted;
    ``ids`` is the *live* slice only — past the tail is uninitialised.
    """

    def device_appended(
        self, pool: "DeviceWalkPool", parts: Sequence[int], ids: np.ndarray
    ) -> None: ...

    def device_taken(
        self, pool: "DeviceWalkPool", partition: int, count: int,
        available: int, ids: np.ndarray,
    ) -> None: ...


class HostObserver(Protocol):
    """Host-pool twin of :class:`DeviceObserver`: one call per
    ``append_walks`` / ``push_batch`` (appended) and ``pop_batch`` (taken)."""

    def pool_host_appended(
        self, pool: "HostWalkPool", partition: int, ids: np.ndarray
    ) -> None: ...

    def pool_host_taken(
        self, pool: "HostWalkPool", partition: int, ids: np.ndarray
    ) -> None: ...


class HostWalkPool:
    """CPU-memory walk index: a deque of ≤ B-walk batches per partition.

    The head batch is the next to load, the tail the write frontier.  No
    empty batch is ever stored, and the pool owns every array it holds:
    appends copy, and :meth:`push_batch` takes over the (exact-size) batch
    :meth:`DeviceWalkPool.evict_batch` returns.
    """

    def __init__(self, num_partitions: int, batch_capacity: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if batch_capacity < 1:
            raise ValueError("batch_capacity must be >= 1")
        self.num_partitions = num_partitions
        self.batch_capacity = batch_capacity
        #: optional sanitizer hook (see :class:`HostObserver`).
        self.observer: Optional[HostObserver] = None
        self._queues: Dict[int, Deque[WalkArrays]] = {}
        self.counts = np.zeros(num_partitions, dtype=np.int64)

    def _queue(self, partition: int) -> Deque[WalkArrays]:
        if not 0 <= partition < self.num_partitions:
            raise IndexError(f"partition {partition} out of range")
        queue = self._queues.get(partition)
        if queue is None:
            queue = self._queues[partition] = deque()
        return queue

    # ------------------------------------------------------------------
    def append_walks(self, partition: int, walks: WalkArrays) -> None:
        """Fill the tail batch up to B (an evicted partial batch too), then
        roll over to new batches."""
        n = len(walks)
        if not n:
            return
        queue = self._queue(partition)
        cap = self.batch_capacity
        start = 0
        if queue and len(queue[-1]) < cap:
            tail = queue[-1]
            start = min(cap - len(tail), n)
            queue[-1] = WalkArrays.concat([tail, walks.slice(0, start)])
        for lo in range(start, n, cap):
            queue.append(walks.slice(lo, lo + cap))
        self.counts[partition] += n
        if self.observer is not None:
            self.observer.pool_host_appended(self, partition, walks.ids)

    def push_batch(self, partition: int, walks: WalkArrays) -> None:
        """Re-insert a batch evicted from the device pool at the head."""
        if not len(walks):
            return
        self._queue(partition).appendleft(walks)
        self.counts[partition] += len(walks)
        if self.observer is not None:
            self.observer.pool_host_appended(self, partition, walks.ids)

    def pop_batch(self, partition: int) -> WalkArrays:
        """Remove and return the head batch (one load transfer)."""
        queue = self._queue(partition)
        if not queue:
            raise IndexError(f"partition {partition} has no walks queued")
        batch = queue.popleft()
        self.counts[partition] -= len(batch)
        if self.observer is not None:
            self.observer.pool_host_taken(self, partition, batch.ids)
        return batch

    def has_walks(self, partition: int) -> bool:
        return bool(self.counts[partition] > 0)

    def num_batches(self, partition: int) -> int:
        queue = self._queues.get(partition)
        return len(queue) if queue is not None else 0

    @property
    def total_walks(self) -> int:
        return int(self.counts.sum())

    def iter_walks(self) -> Iterator[WalkArrays]:
        """Every held batch, head to tail (read-only; for conservation
        checks)."""
        for queue in self._queues.values():
            yield from queue


class DeviceWalkPool:
    """GPU-memory walk cache: one append buffer per partition, m_w cap.

    ``capacity_walks`` bounds the number of walk states cached; the
    ``(2P + 1)B`` bound of the paper's frontier and free-batch reservation
    (§III-B memory usage analysis) is reported by :meth:`reserved_bytes`.
    """

    def __init__(
        self, num_partitions: int, batch_capacity: int, capacity_walks: int
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if batch_capacity < 1:
            raise ValueError("batch_capacity must be >= 1")
        if capacity_walks < batch_capacity:
            raise ValueError("capacity_walks must hold at least one batch")
        self.num_partitions = num_partitions
        self.batch_capacity = batch_capacity
        self.capacity_walks = capacity_walks
        #: optional sanitizer hook (see :class:`DeviceObserver`).
        self.observer: Optional[DeviceObserver] = None
        # Per-partition contiguous append buffers (vertices, steps, ids,
        # head, tail): inserts are slice assignments at the tail, pops are
        # slice views from the head — both O(1) per call.  counts[p] always
        # equals tail - head.
        self._buffers: Dict[int, list] = {}
        self.counts = np.zeros(num_partitions, dtype=np.int64)

    def _buffer(self, partition: int, extra: int) -> list:
        """The partition's buffer with >= ``extra`` free tail slots."""
        buffer = self._buffers.get(partition)
        if buffer is None:
            cap = max(4 * self.batch_capacity, extra)
            buffer = [
                np.empty(cap, dtype=np.int64),
                np.empty(cap, dtype=np.int32),
                np.empty(cap, dtype=np.int64),
                0,  # head
                0,  # tail
            ]
            self._buffers[partition] = buffer
            return buffer
        head, tail = buffer[3], buffer[4]
        cap = buffer[0].size
        if tail + extra <= cap:
            return buffer
        live = tail - head
        if live + extra <= cap and head >= cap // 2:
            # Compact: shift the live region to the front.
            for k in range(3):
                buffer[k][:live] = buffer[k][head:tail]
            buffer[3], buffer[4] = 0, live
            return buffer
        new_cap = max(cap * 2, live + extra)
        for k in range(3):
            grown = np.empty(new_cap, dtype=buffer[k].dtype)
            grown[:live] = buffer[k][head:tail]
            buffer[k] = grown
        buffer[3], buffer[4] = 0, live
        return buffer

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def cached_walks(self) -> int:
        return int(self.counts.sum())

    @property
    def overflow(self) -> int:
        """How many walks exceed ``m_w`` (must be evicted before loading)."""
        return max(0, self.cached_walks - self.capacity_walks)

    def reserved_bytes(self, bytes_per_walk: int) -> Bytes:
        """The §III-B bound: (2P + 1) batches of frontier/free reservation."""
        return Bytes(
            (2 * self.num_partitions + 1)
            * self.batch_capacity
            * bytes_per_walk
        )

    def has_walks(self, partition: int) -> bool:
        return bool(self.counts[partition] > 0)

    def full_batches(self, partition: int) -> int:
        """Completed (non-frontier) batches: ``count // B``."""
        return int(self.counts[partition]) // self.batch_capacity

    # ------------------------------------------------------------------
    # Frontier writes (first-level walk-index cache, §III-C)
    # ------------------------------------------------------------------
    def append_walks(self, partition: int, walks: WalkArrays) -> None:
        """Append updated walks to the partition's frontier (rollover-safe).

        The caller must not mutate ``walks`` afterwards (reshuffled groups
        are freshly sorted copies, so this holds throughout the engine).
        """
        n = len(walks)
        if not n:
            return
        if not 0 <= partition < self.num_partitions:
            raise IndexError(f"partition {partition} out of range")
        buffer = self._buffer(partition, n)
        tail = buffer[4]
        buffer[0][tail : tail + n] = walks.vertices
        buffer[1][tail : tail + n] = walks.steps
        buffer[2][tail : tail + n] = walks.ids
        buffer[4] = tail + n
        self.counts[partition] += n
        if self.observer is not None:
            self.observer.device_appended(self, (partition,), walks.ids)

    def scatter_sorted(
        self,
        parts: list,
        sizes: np.ndarray,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
    ) -> None:
        """Bulk frontier insert of partition-sorted walks (reshuffle hot path).

        ``parts[k]`` receives the slice ``[starts[k], stops[k])`` of the
        sorted payload arrays, and the slices tile the payload in order.
        Semantically identical to calling :meth:`append_walks` per group;
        one vectorized count update, one observer call.
        """
        for k, part in enumerate(parts):
            lo = starts[k]
            hi = stops[k]
            n = hi - lo
            buffer = self._buffer(part, n)
            tail = buffer[4]
            buffer[0][tail : tail + n] = vertices[lo:hi]
            buffer[1][tail : tail + n] = steps[lo:hi]
            buffer[2][tail : tail + n] = ids[lo:hi]
            buffer[4] = tail + n
        np.add.at(self.counts, parts, sizes)
        if self.observer is not None:
            self.observer.device_appended(self, parts, ids)

    # ------------------------------------------------------------------
    # Batch load / fetch / evict
    # ------------------------------------------------------------------
    def load_batch(self, partition: int, walks: WalkArrays) -> None:
        """Cache a batch transferred from the host pool."""
        self.append_walks(partition, walks)

    def _take(self, partition: int, count: int) -> WalkArrays:
        """Remove the oldest ``count`` walks of a partition (FIFO).

        Returns zero-copy views of the buffer region.  The region is not
        reused until a later insert compacts or grows the buffer, so the
        caller may mutate the views while it processes them (the engine
        finishes each popped group synchronously before further pool ops on
        the partition).
        """
        buffer = self._buffers[partition]
        head, tail = buffer[3], buffer[4]
        if self.observer is not None:
            # Fired before ``count`` is validated: live ids only.
            self.observer.device_taken(
                self, partition, count, tail - head,
                buffer[2][head : min(head + count, tail)],
            )
        stop = head + count
        out = WalkArrays(
            buffer[0][head:stop], buffer[1][head:stop], buffer[2][head:stop]
        )
        buffer[3] = stop
        self.counts[partition] -= count
        return out

    def pop_all(self, partition: int) -> WalkArrays:
        """Fetch every cached walk of this partition (frontier included).

        Used when the partition is selected: all its batches are computed,
        and its walk count drops to zero (§II-B observation).
        """
        count = int(self.counts[partition])
        if count == 0:
            return WalkArrays.empty()
        return self._take(partition, count)

    def pop_preemptible(self, partition: int) -> WalkArrays:
        """Fetch the preemptible walks: the completed batches if any exist
        (the write frontier stays to receive reshuffled walks), otherwise
        the detached write frontier itself (§III-C)."""
        full = self.full_batches(partition)
        if full:
            return self._take(partition, full * self.batch_capacity)
        return self.pop_all(partition)

    def evict_batch(self, partition: int) -> WalkArrays:
        """Remove up to one batch of walks for transfer back to the host.

        Returns an exact-size copy: the host keeps it, and the buffer
        region it came from may be reused by a later compaction.
        """
        count = int(self.counts[partition])
        if count == 0:
            raise IndexError(f"partition {partition} has no walks to evict")
        return self._take(partition, min(count, self.batch_capacity)).copy()

    def iter_walks(self) -> Iterator[WalkArrays]:
        """All walk contents (testing helper for conservation checks)."""
        for buffer in self._buffers.values():
            head, tail = buffer[3], buffer[4]
            if tail > head:
                yield WalkArrays(
                    buffer[0][head:tail],
                    buffer[1][head:tail],
                    buffer[2][head:tail],
                )

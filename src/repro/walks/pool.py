"""Host and device walk pools (paper §III-B, Figures 4 & 6).

A walk batch is a :class:`WalkArrays` of 1..B walks of one partition; what
makes it a batch is its size bound and its boundary — one host↔device
transfer, one ``BatchLoaded`` / ``BatchEvicted`` event — not a
preallocated object.

The *host* pool stores the entire walk index grouped by partition, with no
capacity limit (CPU memory holds everything, as in the paper): a deque of
batches per partition whose tail is the write frontier.  The boundaries
are kept because each batch is one transfer; host memory follows the walks
held, not batches × B.  Loading a partition takes its whole deque in one
call (:meth:`HostWalkPool.pop_batches`); an eviction pushes its batches at
the heads one by one, and they may be views of one shared copy-out.

The *device* pool caches at most ``m_w`` walks in one struct-of-arrays
arena (``vertices`` / ``steps`` / ``ids``) with a segment per partition:
``[base, base + cap)`` holds live walks ``[head, tail)``, and the tail is
the write frontier.  A reshuffle fills every frontier with one scatter per
array: one ``searchsorted`` of the partition ids finds every run of the
grouped payload, and ``tail`` / ``counts`` move as P-wide arrays, so the
call's fixed cost does not grow with the partitions it writes.  Only a
segment about to overflow takes the Python make-room path.
An eviction copies every victim's oldest walks out with one gather
(:meth:`DeviceWalkPool.evict_batch`).  Batch accounting is derived from
walk counts — ``full = count // B`` completed batches, ``count % B`` in
the frontier.  A pop returns views of the arena, valid until the next
insert into the *same* partition: other partitions' inserts never write
there, and a rebuild allocates new arrays.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Protocol, Sequence, Union

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
    ``append_walks`` / ``push_batch`` (appended) and per batch
    ``pop_batch`` / ``pop_batches`` removes (taken)."""

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
    appends copy, and :meth:`push_batch` takes over an evicted batch (an
    exact-size slice of what :meth:`DeviceWalkPool.evict_batch` returns).
    Held batches are never written in place.
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
        n = len(walks)
        if not n:
            return
        self._queue(partition).appendleft(walks)
        self.counts[partition] += n
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

    def pop_batches(self, partition: int) -> List[WalkArrays]:
        """Remove and return every queued batch, head first: the same
        batches, in the same order, as :meth:`pop_batch` until empty."""
        queue = self._queue(partition)
        if not queue:
            return []
        batches = list(queue)
        queue.clear()
        self.counts[partition] -= sum(len(batch) for batch in batches)
        if self.observer is not None:
            for batch in batches:
                self.observer.pool_host_taken(self, partition, batch.ids)
        return batches

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


def run_bounds(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Where each run of ``sorted_keys`` starts, plus the end.

    ``keys`` are consecutive ids covering every value of ``sorted_keys``;
    key ``keys[k]``'s run is ``[bounds[k], bounds[k + 1])``, empty when it
    does not occur.  One ``searchsorted``: O(len(keys) log n), no pass over
    the payload, provided ``keys`` does not widen its dtype.
    """
    bounds = np.empty(keys.size + 1, dtype=np.intp)
    bounds[:-1] = sorted_keys.searchsorted(keys)
    bounds[-1] = sorted_keys.size
    return bounds


#: Smallest segment a move or rebuild hands a partition, in walks.
_MIN_SEGMENT = 128


class DeviceWalkPool:
    """GPU-memory walk cache: one SoA arena, a segment per partition, m_w cap.

    ``capacity_walks`` bounds the number of walk states cached; the
    ``(2P + 1)B`` bound of the paper's frontier and free-batch reservation
    (§III-B memory usage analysis) is reported by :meth:`reserved_bytes`.
    ``counts[p]`` always equals ``tail[p] - head[p]``.
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
        self.counts = np.zeros(num_partitions, dtype=np.int64)
        # Partition ids in the dtype of ``PartitionedGraph.lut``, so the
        # run search never widens a payload of its keys.
        self._part_ids = np.arange(
            num_partitions, dtype=np.min_scalar_type(-num_partitions)
        )
        self.head = self.tail = np.zeros(num_partitions, dtype=np.int64)
        self._rebuild(np.zeros_like(self.counts))  # segments at the floor

    def _rebuild(self, extra: np.ndarray) -> None:
        """New arrays with room for ``extra[p]`` more walks in every
        partition ``p`` at once, each segment at 1.5x what it needs."""
        live = self.tail - self.head
        need = live + extra
        cap = np.maximum(need + need // 2, _MIN_SEGMENT)
        base = np.cumsum(cap) - cap
        self._end = int(cap.sum())
        # A quarter of slack past the segments absorbs moves until the next
        # rebuild; slots never written cost no resident memory.
        size = self._end + self._end // 4
        arena = [np.empty(size, dtype=t) for t in (np.int64, np.int32, np.int64)]
        for p in np.flatnonzero(live).tolist():
            lo, hi, to = self.head[p], self.tail[p], base[p]
            for new, old in zip(arena, (self.vertices, self.steps, self.ids)):
                new[to : to + hi - lo] = old[lo:hi]
        self.vertices, self.steps, self.ids = arena
        self.base, self.cap = base, cap
        self.head, self.tail = base.copy(), base + live

    def _make_room(self, extra: np.ndarray) -> None:
        """Give every segment ``p`` ``extra[p]`` free tail slots (P-wide).

        A short segment is compacted in place when that copies no more
        walks than it frees, else moved to the arena end (the last segment
        grows where it is) at twice what it needs.  When the end is
        reached, one rebuild reserves every partition's extra: it moves
        segments this loop already made room in.
        """
        short = (self.tail + extra > self.base + self.cap).nonzero()[0]
        for p in short.tolist():
            need = int(extra[p])
            head, tail, to, cap = (
                int(a[p]) for a in (self.head, self.tail, self.base, self.cap)
            )
            live = tail - head
            if live + need > cap or head - to < live:
                if to + cap != self._end:
                    to = self._end
                cap = max(2 * (live + need), _MIN_SEGMENT)
                if to + cap > self.ids.size:
                    self._rebuild(extra)
                    return
                self._end = to + cap
                self.base[p], self.cap[p] = to, cap
            if to != head:  # overlap (a segment growing in place) is safe
                for array in (self.vertices, self.steps, self.ids):
                    array[to : to + live] = array[head:tail]
            self.head[p], self.tail[p] = to, to + live

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
    def _append(
        self, p: int, vertices: np.ndarray, steps: np.ndarray, ids: np.ndarray
    ) -> None:
        n = ids.size
        if self.tail[p] + n > self.base[p] + self.cap[p]:
            extra = np.zeros_like(self.counts)
            extra[p] = n
            self._make_room(extra)
        tail = int(self.tail[p])
        self.vertices[tail : tail + n] = vertices
        self.steps[tail : tail + n] = steps
        self.ids[tail : tail + n] = ids
        self.tail[p] = tail + n
        self.counts[p] += n

    def append_walks(self, partition: int, walks: WalkArrays) -> None:
        """Append walks to the partition's frontier (copies them in)."""
        if not len(walks):
            return
        if not 0 <= partition < self.num_partitions:
            raise IndexError(f"partition {partition} out of range")
        self._append(partition, walks.vertices, walks.steps, walks.ids)
        if self.observer is not None:
            self.observer.device_appended(self, (partition,), walks.ids)

    def scatter_sorted(
        self, walks: WalkArrays, order: np.ndarray, sorted_parts: np.ndarray
    ) -> int:
        """Bulk frontier insert of a partition-grouped payload (reshuffle
        hot path); returns how many partitions it wrote.

        ``order`` is a stable grouping of the unsorted payload ``walks``:
        sorted position ``j`` is walk ``order[j]``, bound for partition
        ``sorted_parts[j]`` (ascending, every id in ``[0, P)``).  Same
        result as :meth:`append_walks` per partition in ascending order,
        after one :meth:`_make_room` for all of them, but with one write
        per payload array and one observer call; the run bounds and the
        frontier updates are P-wide (see the module docstring).  The
        reshuffle sends a payload with one target to :meth:`append_walks`
        instead."""
        bounds = run_bounds(sorted_parts, self._part_ids)
        starts = bounds[:-1]
        sizes = bounds[1:] - starts
        stop = self.tail + sizes
        if (stop > self.base + self.cap).any():
            self._make_room(sizes)
            stop = self.tail + sizes
        # Sorted position j of partition p goes to tail[p] + j - starts[p];
        # walk order[j] is the one at sorted position j.
        by_rank = (self.tail - starts).repeat(sizes)
        by_rank += np.arange(by_rank.size)
        dest = np.empty_like(by_rank)
        dest[order] = by_rank
        self.vertices[dest] = walks.vertices
        self.steps[dest] = walks.steps
        self.ids[dest] = walks.ids
        self.tail = stop
        self.counts += sizes
        if self.observer is not None:
            parts = sizes.nonzero()[0].tolist()
            self.observer.device_appended(self, parts, walks.ids)
        return int(np.count_nonzero(sizes))

    # ------------------------------------------------------------------
    # Batch load / fetch / evict
    # ------------------------------------------------------------------
    def load_batch(self, partition: int, walks: WalkArrays) -> None:
        """Cache a batch transferred from the host pool."""
        self.append_walks(partition, walks)

    def _take(self, partition: int, count: int) -> WalkArrays:
        """Remove the oldest ``count`` walks of a partition (FIFO) as views
        of the arena, which the caller may mutate until its next insert into
        this partition (the engine finishes each popped group first)."""
        head, tail = int(self.head[partition]), int(self.tail[partition])
        if self.observer is not None:
            # Fired before ``count`` is validated: live ids only.
            self.observer.device_taken(
                self, partition, count, tail - head,
                self.ids[head : min(head + count, tail)],
            )
        stop = head + count
        out = self._view(head, stop)
        if stop == tail:  # emptied: the next insert starts at the base
            self.head[partition] = self.tail[partition] = self.base[partition]
        else:
            self.head[partition] = stop
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

    def evict_batch(
        self,
        parts: Union[int, np.ndarray],
        counts: Optional[np.ndarray] = None,
    ) -> WalkArrays:
        """Remove walks for transfer back to the host, as one exact-size copy.

        Takes the oldest ``counts[k]`` walks of each ``parts[k]`` (distinct
        partitions), in ``parts`` order, with one gather per array; without
        ``counts``, up to one batch of each.  The arena slots they came from
        are reused by later inserts.
        """
        parts = np.atleast_1d(parts)
        live = self.counts[parts]
        if counts is None:
            counts = np.minimum(live, self.batch_capacity)
        bad = (counts <= 0) | (counts > live)
        if bad.any():
            k = int(bad.argmax())
            raise IndexError(
                f"cannot evict {int(counts[k])} walks of partition "
                f"{int(parts[k])}, which holds {int(live[k])}"
            )
        head = self.head[parts]
        if self.observer is not None:
            for p, lo, n in zip(parts.tolist(), head.tolist(), counts.tolist()):
                tail = int(self.tail[p])
                self.observer.device_taken(
                    self, p, n, tail - lo, self.ids[lo : min(lo + n, tail)]
                )
        # Walk j of victim k sits at head[k] + j: one index, three gathers.
        index = np.repeat(head - (counts.cumsum() - counts), counts)
        index += np.arange(index.size)
        out = WalkArrays(self.vertices[index], self.steps[index], self.ids[index])
        stop = head + counts
        emptied = stop == self.tail[parts]  # the next insert starts at the base
        self.head[parts] = np.where(emptied, self.base[parts], stop)
        self.tail[parts[emptied]] = self.base[parts[emptied]]
        self.counts[parts] -= counts
        return out

    def iter_walks(self) -> Iterator[WalkArrays]:
        """All walk contents (testing helper for conservation checks)."""
        for p in np.flatnonzero(self.tail > self.head).tolist():
            yield self._view(self.head[p], self.tail[p])

    def _view(self, lo: int, hi: int) -> WalkArrays:
        return WalkArrays._wrap(
            self.vertices[lo:hi], self.steps[lo:hi], self.ids[lo:hi]
        )

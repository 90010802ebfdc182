"""Partition / batch / eviction scheduling policies (paper §III-D).

The scheduler answers four questions each iteration, each with one masked
arg-min / arg-max over the per-partition walk counts.  Every mask includes
``owned`` (this device's partitions; all of them on a one-shard run): a
foreign partition's device-local zero counts would win every fewest-walks
rule, and evicting its batch would route it through the wrong host pool.

1. *Which partition to load next?*  Baseline: round robin over partitions
   that still have walks.  Selective: the partition with the most walks, so
   the loaded bytes serve the most computation.
2. *Which cached graph partition to overwrite when the pool is full?*  Never
   ``protect``, the one being loaded.  Baseline: FIFO (LRU when the pool
   tracks recency).  Selective default, ``min_walks``: the cached partition
   with the fewest walks (lowest reuse chance).
3. *Which batch to compute preemptively while loads are in flight?*  Of the
   cached partitions other than ``exclude``: one holding a full batch,
   preferring the fewest walks in total (finish it off before its graph gets
   evicted); otherwise one holding at least half a batch (emptier frontiers
   burn kernel launches for no progress), preferring the most device-cached
   walks (amortize launch cost).  Baseline: the first such.
4. *Which batches to evict when the walk pool overflows?*  A drain order
   over the partitions holding device-cached walks, ``protect`` last.
   Baseline: lowest partition first.  Selective: partitions whose graph is
   *not* cached first, then fewest device-cached walks (least likely to be
   computed before their graph cycles out).  Batch by batch this is the
   greedy rule "evict one batch of the first partition in this order": a
   victim's count only drops and ties go to the lower index, so it stays
   first until it is empty.  The caller stops once the overflow is covered.

Tie-breaks are contract (``tests/test_scheduler.py`` has a brute-force oracle
per rule): lowest partition index in (1), (2) ``min_walks`` and (4); pool
insertion order in (2) FIFO / LRU and all of (3), its baseline included.
``np.argmin`` / ``np.argmax`` return the first extreme in candidate order.
The graph pool answers "is it cached, and in which order" with its
``resident`` mask and its ``key_order()`` array (a :class:`BlockPool` keyed
by partition).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.memory import BlockPool
from repro.walks.pool import DeviceWalkPool, HostWalkPool


class Scheduler:
    """Stateful policy bundle for one engine run."""

    #: graph-pool eviction policies.
    EVICT_FIFO = "fifo"
    EVICT_LRU = "lru"
    EVICT_MIN_WALKS = "min_walks"

    def __init__(
        self,
        num_partitions: int,
        selective: bool,
        preemptive: bool,
        eviction_policy: Optional[str] = None,
        owned: Optional[np.ndarray] = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.selective = selective
        self.preemptive = preemptive
        self.set_owned(owned)
        if eviction_policy is None:
            eviction_policy = (
                self.EVICT_MIN_WALKS if selective else self.EVICT_FIFO
            )
        if eviction_policy not in (
            self.EVICT_FIFO,
            self.EVICT_LRU,
            self.EVICT_MIN_WALKS,
        ):
            raise ValueError(f"unknown eviction policy {eviction_policy!r}")
        self.eviction_policy = eviction_policy
        self._cursor = -1

    def set_owned(self, owned: Optional[np.ndarray]) -> None:
        """Replace the owned-partition mask; ``None`` means every partition.

        A rebalance or a peer failure reassigns partitions mid-run, and every
        surviving shard's scheduler must immediately decide over its new range.
        The round-robin cursor is kept (a partition index fits any mask).
        """
        if owned is None:
            owned = np.ones(self.num_partitions, dtype=bool)
        owned = np.asarray(owned, dtype=bool)
        if owned.shape != (self.num_partitions,):
            raise ValueError("owned mask must cover every partition")
        if not owned.any():
            raise ValueError("owned mask selects no partition")
        self.owned: np.ndarray = owned
        #: ``(pool order, skip, cached)`` of the last :meth:`_cached` call.
        self._last_cached: Optional[tuple] = None

    def _resident(self, pool: BlockPool) -> np.ndarray:
        if pool.resident.size != self.num_partitions:
            raise TypeError(f"{pool.name} is not keyed by partition")
        return pool.resident

    def _cached(self, pool: BlockPool, skip: Optional[int]) -> np.ndarray:
        """Owned cached partitions except ``skip``, in pool insertion order.

        Read-only, and reused while the pool's :meth:`BlockPool.key_order`
        array (a new one after every change of the order), ``skip`` and
        the owned mask stay: the preemptive stage asks again after each
        kernel it fills in, usually over an unchanged pool.
        """
        self._resident(pool)
        order = pool.key_order()
        last = self._last_cached
        if last is not None and last[0] is order and last[1] == skip:
            return last[2]
        keep = self.owned[order]
        if skip is not None:
            keep &= order != skip
        cached = order[keep]
        cached.flags.writeable = False
        self._last_cached = (order, skip, cached)
        return cached

    def select_partition(
        self, host: HostWalkPool, device: DeviceWalkPool
    ) -> Optional[int]:
        """Next partition to process, or ``None`` if no walks remain."""
        totals = (host.counts + device.counts) * self.owned
        if self.selective:
            best = int(totals.argmax())
            return best if totals[best] > 0 else None
        live = np.flatnonzero(totals > 0)
        if live.size == 0:
            return None
        # First live partition after the cursor, wrapping to the lowest.
        after = int(np.searchsorted(live, self._cursor, side="right"))
        self._cursor = int(live[after % live.size])
        return self._cursor

    def graph_victim(
        self,
        graph_pool: BlockPool,
        host: HostWalkPool,
        device: DeviceWalkPool,
        protect: Optional[int] = None,
    ) -> int:
        """Cached partition to overwrite; never the one being loaded."""
        cached = self._cached(graph_pool, protect)
        if cached.size == 0:
            raise KeyError("no evictable graph partition")
        if self.eviction_policy in (self.EVICT_FIFO, self.EVICT_LRU):
            return int(cached[0])
        # Ties go to the lowest index, not the oldest key.
        cached = np.sort(cached)
        totals = host.counts[cached] + device.counts[cached]
        return int(cached[np.argmin(totals)])

    def pick_preemptive_partition(
        self,
        graph_pool: BlockPool,
        host: HostWalkPool,
        device: DeviceWalkPool,
        exclude: Optional[int] = None,
    ) -> Optional[int]:
        """Partition whose cached batches to compute preemptively, if any."""
        cached = self._cached(graph_pool, exclude)
        dcounts = device.counts[cached]
        cap = device.batch_capacity
        ready = (dcounts >= cap).nonzero()[0]
        if ready.size:  # full: fewest total walks
            rank = host.counts[cached[ready]] + dcounts[ready]
        else:  # half full: most device-cached walks
            ready = (dcounts * 2 >= cap).nonzero()[0]
            if not ready.size:
                return None
            rank = -dcounts[ready]
        if not self.selective:
            return int(cached[ready[0]])  # the first ready one
        return int(cached[ready[rank.argmin()]])

    def walk_evict_partition(
        self,
        graph_pool: BlockPool,
        device: DeviceWalkPool,
        protect: Optional[int] = None,
    ) -> np.ndarray:
        """Partitions to evict walk batches from, in drain order (rule 4)."""
        counts = device.counts
        mask = (counts > 0) & self.owned
        if protect is not None:
            mask[protect] = False
        order = mask.nonzero()[0]
        if self.selective and order.size > 1:
            cached = self._resident(graph_pool)[order]
            order = order[np.lexsort((counts[order], cached))]
        if protect is not None and counts[protect] > 0:
            order = np.append(order, protect)
        if order.size == 0:
            raise KeyError("walk pool has nothing to evict")
        return order

"""Block-based device memory pools (paper §III-B, "Memory pool reservation").

CUDA kernels cannot ``realloc`` during execution, so LightTraffic reserves
two pools up front with ``cudaMalloc`` and manages them as caches of
fixed-size blocks: the *graph pool* (block = partition size) and the *walk
pool* (block = batch size).  :class:`BlockPool` models that contract:

* a fixed block budget, fully reserved at construction;
* ``insert`` fails with :class:`PoolFullError` instead of growing —
  eviction is the *caller's* decision (the scheduler picks victims);
* O(1) membership, plus iteration order = insertion order so a FIFO victim
  policy (the paper's baseline) is natural;
* for integer keys ``0..num_keys-1`` (the graph pool: one key per
  partition), a ``resident`` mask says which keys are cached and
  :meth:`BlockPool.key_order` holds that order as one array, rebuilt only
  after the order changed, so a policy decides with a mask over it
  instead of a pass over the keys.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, List, Optional, Protocol, TypeVar, cast

import numpy as np

K = TypeVar("K")
V = TypeVar("V")


class PoolObserver(Protocol):
    """Post-mutation hook contract (see :class:`repro.analysis.Sanitizer`).

    Pure observation: implementations must not touch the pool.
    """

    def pool_inserted(self, pool: "BlockPool", key: object) -> None: ...

    def pool_evicted(self, pool: "BlockPool", key: object) -> None: ...


class PoolFullError(RuntimeError):
    """Raised when inserting into a pool with no free block."""


class BlockPool(Generic[K, V]):
    """A fixed-capacity cache of equal-sized blocks keyed by ``K``.

    ``capacity`` counts blocks.  Values are whatever payload the caller
    associates with a cached block (a partition's arrays, a batch, ...).
    With ``num_keys``, keys are ints in ``[0, num_keys)``: ``resident[k]``
    says whether ``k`` is cached (without it the mask is empty), and
    :meth:`key_order` is :meth:`keys` as an array (insertion order, or
    recency under ``track_recency``).
    """

    def __init__(
        self,
        capacity: int,
        name: str = "pool",
        track_recency: bool = False,
        num_keys: Optional[int] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.name = name
        self.track_recency = track_recency
        self._blocks: "OrderedDict[K, V]" = OrderedDict()
        self.resident = np.zeros(num_keys or 0, dtype=bool)
        #: :meth:`keys` as an array; ``None`` once the order has changed.
        self._order: Optional[np.ndarray] = None
        self.hits = 0
        self.misses = 0
        #: optional sanitizer hook, called after each mutation.
        self.observer: Optional[PoolObserver] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: K) -> bool:
        return key in self._blocks

    def __iter__(self) -> Iterator[K]:
        return iter(self._blocks)

    @property
    def free_blocks(self) -> int:
        return self.capacity - len(self._blocks)

    @property
    def is_full(self) -> bool:
        return len(self._blocks) >= self.capacity

    def keys(self) -> List[K]:
        """Cached keys in insertion (FIFO) order."""
        return list(self._blocks.keys())

    def key_order(self) -> np.ndarray:
        """:meth:`keys` of an int-keyed pool as a read-only ``intp`` array.

        Built once per change of that order (an insert, an evict, a hit
        under ``track_recency``), not per call.
        """
        order = self._order
        if order is None:
            order = np.fromiter(
                self._blocks, dtype=np.intp, count=len(self._blocks)
            )
            order.flags.writeable = False
            self._order = order
        return order

    # ------------------------------------------------------------------
    def lookup(self, key: K) -> Optional[V]:
        """Hit-counting membership probe; returns payload or ``None``."""
        value = self._blocks.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            if self.track_recency:
                self._blocks.move_to_end(key)
                self._order = None
        return value

    def peek(self, key: K) -> Optional[V]:
        """Membership probe *without* touching hit/miss counters."""
        return self._blocks.get(key)

    def insert(self, key: K, value: V) -> None:
        """Cache a block; raises :class:`PoolFullError` when no block is free."""
        if key in self._blocks:
            raise KeyError(f"{key!r} already cached in {self.name}")
        if self.is_full:
            raise PoolFullError(
                f"{self.name} is full ({self.capacity} blocks); evict first"
            )
        if self.resident.size:
            slot = cast(int, key)
            if not 0 <= slot < self.resident.size:
                raise KeyError(f"{key!r} outside {self.name}'s key range")
            self.resident[slot] = True
        self._blocks[key] = value
        self._order = None
        if self.observer is not None:
            self.observer.pool_inserted(self, key)

    def evict(self, key: K) -> V:
        """Remove and return a cached block's payload."""
        try:
            value = self._blocks.pop(key)
        except KeyError:
            raise KeyError(f"{key!r} not cached in {self.name}") from None
        self._order = None
        if self.resident.size:
            self.resident[cast(int, key)] = False
        if self.observer is not None:
            self.observer.pool_evicted(self, key)
        return value

    def fifo_victim(self) -> K:
        """The oldest cached key (the paper's baseline eviction policy).

        With ``track_recency`` enabled, hits refresh a key's position, so
        this degrades gracefully into an LRU victim.
        """
        if not self._blocks:
            raise KeyError(f"{self.name} is empty")
        return next(iter(self._blocks))

    # LRU is FIFO order over a recency-tracked pool.
    lru_victim = fifo_victim

    @property
    def hit_rate(self) -> float:
        """Fraction of ``lookup`` calls that hit (Table III metric)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BlockPool {self.name} {len(self._blocks)}/{self.capacity} "
            f"hit_rate={self.hit_rate:.1%}>"
        )

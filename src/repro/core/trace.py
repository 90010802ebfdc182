"""Optional per-iteration engine tracing.

A :class:`TraceRecorder` passed to :class:`~repro.core.engine.LightTrafficEngine`
(``trace=``) is the per-iteration view of the run's bus recorder
(:class:`~repro.core.metrics.MetricsCollector`), which feeds it one record
per iteration of Algorithm 2 — which partition was selected, how its graph
was served (cache hit / explicit copy / zero copy), how many walks were
computed, and how many of them came from preemptive dispatches.  Traces
power the per-iteration figures (Fig 3-style series for LightTraffic
itself) and make scheduler behaviour assertable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.core.events import SERVED_EXPLICIT, SERVED_HIT, SERVED_ZERO_COPY

if TYPE_CHECKING:
    import numpy as np


@dataclass
class IterationTrace:
    """One iteration of the engine's main loop."""

    iteration: int
    partition: int
    served: str
    walks_selected: int = 0
    walks_preempted: int = 0
    preempted_partitions: List[int] = field(default_factory=list)
    steps: int = 0
    evicted_batches: int = 0

    @property
    def walks_total(self) -> int:
        return self.walks_selected + self.walks_preempted


class TraceRecorder:
    """Collects :class:`IterationTrace` records during one engine run."""

    def __init__(self) -> None:
        self.iterations: List[IterationTrace] = []
        self._current: Optional[IterationTrace] = None

    # ------------------------------------------------------------------
    # Hooks called by the bus recorder
    # ------------------------------------------------------------------
    def begin_iteration(
        self, iteration: int, partition: int, served: str
    ) -> None:
        if served not in (SERVED_HIT, SERVED_EXPLICIT, SERVED_ZERO_COPY):
            raise ValueError(f"unknown served mode {served!r}")
        self._current = IterationTrace(iteration, partition, served)
        self.iterations.append(self._current)

    def record_compute(
        self, partition: int, walks: int, steps: int, preemptive: bool
    ) -> None:
        if self._current is None:
            raise RuntimeError("record_compute outside an iteration")
        self._current.steps += steps
        if preemptive:
            self._current.walks_preempted += walks
            self._current.preempted_partitions.append(partition)
        else:
            self._current.walks_selected += walks

    def record_eviction(self, batches: int = 1) -> None:
        if self._current is None:
            raise RuntimeError("record_eviction outside an iteration")
        self._current.evicted_batches += batches

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def served_counts(self) -> dict:
        """How many iterations were served by each transfer mode."""
        counts = {SERVED_HIT: 0, SERVED_EXPLICIT: 0, SERVED_ZERO_COPY: 0}
        for it in self.iterations:
            counts[it.served] += 1
        return counts

    def preemption_fraction(self) -> float:
        """Fraction of computed walks dispatched preemptively."""
        total = sum(it.walks_total for it in self.iterations)
        if total == 0:
            return 0.0
        return sum(it.walks_preempted for it in self.iterations) / total

    def partition_visit_counts(self, num_partitions: int) -> "np.ndarray":
        """Per-partition selection frequency (hot-partition analysis)."""
        import numpy as np

        counts = np.zeros(num_partitions, dtype=np.int64)
        for it in self.iterations:
            counts[it.partition] += 1
        return counts

    def __len__(self) -> int:
        return len(self.iterations)

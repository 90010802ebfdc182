"""The execution-backend protocol: *running* a kernel vs *costing* it.

Historically the compute stage had one call site doing both: the
vectorized NumPy step loop executed the walk semantics **and** its
:class:`~repro.algorithms.base.BatchRunResult` fed the analytic
:class:`~repro.gpu.kernels.KernelModel`.  An :class:`ExecutionBackend`
severs that assumption: the engine asks the backend to advance a batch
(and to group walks for reshuffle), while the simulated cost model keeps
charging simulated seconds from the returned step counts exactly as
before.  Backends additionally accumulate *measured* wall-clock per
kernel (:class:`MeasuredTimings`), so a run reports simulated seconds
and real seconds side by side and ``repro experiment backends``
cross-validates the two.

House rule ``no-simulated-time-in-backends``: modules in this package
must never import :mod:`repro.gpu.timeline` or :mod:`repro.gpu.device`
— the measured path may not consume simulated clocks.

Real backends (numba, multiprocess) replay the engine bit-identically
because the counter RNG (:class:`~repro.core.prng.CounterRNG`) derives
every draw from ``(seed, walk_id, step, draw_index)`` alone: any
execution order — scalar per-lane loops, interleaved blocks, or
whole-trajectory precompute — produces the same trajectories.  They
therefore require ``rng_mode="counter"`` and a lock-step algorithm
(:func:`require_lockstep_algorithm`).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import BatchRunResult, RandomWalkAlgorithm
from repro.core.config import EngineConfig
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition, PartitionedGraph
from repro.walks.reshuffle import group_order
from repro.walks.state import WalkArrays


class BackendUnavailable(RuntimeError):
    """A registered backend cannot run here (missing optional dependency)."""


@dataclass(frozen=True)
class KernelRecord:
    """Measured wall-clock of one walk-updating kernel invocation.

    Mirrors the inputs of :meth:`repro.gpu.kernels.KernelModel.update_time`
    so a bench can compute the analytic prediction for exactly this
    invocation and compare it with ``seconds``.
    """

    partition: int
    lanes: int
    total_steps: int
    longest_run: int
    partition_nbytes: int
    sampler: str
    seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "partition": self.partition,
            "lanes": self.lanes,
            "total_steps": self.total_steps,
            "longest_run": self.longest_run,
            "partition_nbytes": self.partition_nbytes,
            "sampler": self.sampler,
            "seconds": self.seconds,
        }


@dataclass
class MeasuredTimings:
    """Accumulated real wall-clock of one backend over one run.

    ``setup_seconds`` is one-off preparation (worker forks, trajectory
    precompute, JIT warm-up); ``walk_update_seconds`` sums the per-kernel
    records; ``group_seconds`` is reshuffle grouping.  All values are
    measured with ``time.perf_counter`` — never simulated time.
    """

    setup_seconds: float = 0.0
    walk_update_seconds: float = 0.0
    group_seconds: float = 0.0
    kernels: List[KernelRecord] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "setup_seconds": self.setup_seconds,
            "walk_update_seconds": self.walk_update_seconds,
            "group_seconds": self.group_seconds,
            "num_kernels": len(self.kernels),
            "kernels": [record.as_dict() for record in self.kernels],
        }


def require_lockstep_algorithm(
    name: str, algorithm: RandomWalkAlgorithm, config: EngineConfig
) -> None:
    """Gate real backends to replayable workloads.

    A backend may re-order execution freely only when (a) randomness is
    schedule-independent (counter RNG) and (b) the algorithm is the stock
    lock-step :class:`~repro.algorithms.uniform.UniformSampling` step with
    no per-step observers or path recording — anything else must run on
    the ``simulated`` backend.
    """
    from repro.algorithms.uniform import UniformSampling

    reasons: List[str] = []
    if config.rng_mode != "counter":
        reasons.append("rng_mode must be 'counter' (schedule-independent draws)")
    if type(algorithm).step_once is not UniformSampling.step_once:
        reasons.append(
            f"algorithm {algorithm.name!r} overrides step_once; only the "
            "stock uniform-sampling step is replayable"
        )
    if type(algorithm).observe is not RandomWalkAlgorithm.observe:
        reasons.append("algorithm defines a per-step observe() hook")
    if getattr(algorithm, "record_paths", False) or getattr(
        algorithm, "paths", None
    ) is not None:
        reasons.append("path recording is not supported off the simulated path")
    if getattr(algorithm, "uses_subset_draws", False):
        reasons.append("sampler redraws data-dependent lane subsets")
    if reasons:
        detail = "; ".join(reasons)
        raise ValueError(
            f"backend {name!r} cannot execute this workload: {detail}"
        )


class ExecutionBackend(abc.ABC):
    """Executes the two kernel inner loops the engine used to inline.

    Lifecycle: ``bind`` (once, before the run) -> ``on_walks_seeded``
    (once, with the freshly seeded walk arrays) -> many ``advance`` /
    ``group_order`` calls from the stages -> ``close``.  ``close`` is
    terminal and idempotent: a closed backend may still report
    ``timings()``, but re-``bind``-ing it raises
    (``tests/test_backends.py::TestLifecycleAndLeaks``).  Implementations
    must mutate ``walks`` in place exactly like
    :meth:`~repro.algorithms.base.RandomWalkAlgorithm.advance_in_partition`
    and return an identical :class:`BatchRunResult` — the simulated cost
    model consumes those numbers unchanged, which is what keeps
    simulated timings bit-identical across backends.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.measured = MeasuredTimings()
        self.graph: Optional[CSRGraph] = None
        self.pgraph: Optional[PartitionedGraph] = None
        self.algorithm: Optional[RandomWalkAlgorithm] = None
        self.config: Optional[EngineConfig] = None
        self.closed = False
        self._sampler_key = "uniform"

    # ------------------------------------------------------------------
    def bind(
        self,
        graph: CSRGraph,
        pgraph: PartitionedGraph,
        algorithm: RandomWalkAlgorithm,
        config: EngineConfig,
    ) -> None:
        """Attach the run's graph/algorithm/config (before any kernel)."""
        if self.closed:
            raise RuntimeError(
                f"backend {self.name!r} was closed; construct a fresh one"
            )
        self.graph = graph
        self.pgraph = pgraph
        self.algorithm = algorithm
        self.config = config
        self._sampler_key = getattr(algorithm, "transition_sampler", "uniform")

    def on_walks_seeded(self, walks: WalkArrays) -> None:
        """Hook called once with the full freshly seeded walk arrays."""

    @abc.abstractmethod
    def advance(
        self,
        partition: GraphPartition,
        walks: WalkArrays,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> BatchRunResult:
        """Run one batch against one partition (the walk-updating kernel)."""

    def group_order(self, partition_ids: np.ndarray) -> np.ndarray:
        """Stable order grouping walks by partition (the reshuffle kernel):
        the counting sort :func:`repro.walks.reshuffle.group_order`, which
        equals ``np.argsort(partition_ids, kind="stable")``."""
        started = time.perf_counter()
        order = group_order(partition_ids)
        self.measured.group_seconds += time.perf_counter() - started
        return order

    def timings(self) -> MeasuredTimings:
        return self.measured

    def close(self) -> None:
        """Release backend resources (workers, shared memory); idempotent."""
        self.closed = True

    # ------------------------------------------------------------------
    def _record_kernel(
        self,
        partition: GraphPartition,
        lanes: int,
        result: BatchRunResult,
        elapsed: float,
    ) -> None:
        self.measured.walk_update_seconds += elapsed
        self.measured.kernels.append(
            KernelRecord(
                partition=partition.index,
                lanes=lanes,
                total_steps=result.total_steps,
                longest_run=result.longest_run,
                partition_nbytes=partition.nbytes,
                sampler=self._sampler_key,
                seconds=elapsed,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"

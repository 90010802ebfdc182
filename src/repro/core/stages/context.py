"""Shared run state threaded through the pipeline stages.

A :class:`StageContext` bundles everything one engine run owns — the
partitioned graph, scheduler, host/device pools, graph pool, simulated
timeline, RNG and event bus — so stages stay stateless policy objects.
The context also centralizes the cross-stage helpers the monolithic
engine used as closures: pipeline-aware op scheduling (:meth:`sched`, and
:meth:`sched_run` for a run of back-to-back transfers), the cached
per-partition kernel-time model (:meth:`update_time`) and the cached
per-batch transfer time (:meth:`batch_seconds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import RandomWalkAlgorithm
from repro.core.adaptive import AdaptivePolicy
from repro.core.config import EngineConfig
from repro.core.events import EventBus
from repro.core.scheduler import Scheduler
from repro.gpu.kernels import KernelModel, update_coefficients
from repro.gpu.memory import BlockPool
from repro.gpu.pcie import PCIeSpec
from repro.gpu.timeline import Stream, Timeline
from repro.graph.csr import CSRGraph
from repro.graph.partition import PartitionedGraph
from repro.walks.pool import DeviceWalkPool, HostWalkPool

if TYPE_CHECKING:
    from repro.backends.base import ExecutionBackend


@dataclass
class StageContext:
    """Everything one engine run shares across its pipeline stages."""

    config: EngineConfig
    graph: CSRGraph
    algorithm: RandomWalkAlgorithm
    pgraph: PartitionedGraph
    rng: object
    scheduler: Scheduler
    host: HostWalkPool
    device: DeviceWalkPool
    graph_pool: BlockPool
    timeline: Timeline
    bus: EventBus
    reshuffler: object
    kernel_model: KernelModel
    pcie: PCIeSpec
    ship_link: PCIeSpec
    bytes_per_walk: int
    adaptive: AdaptivePolicy
    #: execution backend running the walk-update kernels; one per run,
    #: shared by every shard (``LightTrafficEngine._make_backend``).
    backend: "ExecutionBackend"
    #: completion time of each cached partition's last explicit load.
    graph_ready: Dict[int, float] = field(default_factory=dict)
    #: which device shard this context belongs to.
    device_id: int = 0
    #: migration router (:class:`repro.core.cluster.WalkMigrator`) the
    #: compute stage hands cross-shard walks to; ``None`` = single device.
    router: Optional[object] = None
    #: arrival time of the latest P2P delivery into each partition —
    #: kernels over migrated walks may not start before their payload
    #: lands (the multi-device analog of :attr:`graph_ready`).
    frontier_ready: Dict[int, float] = field(default_factory=dict)
    iteration: int = 0
    finished: int = 0
    _kernel_coeff: Dict[int, Tuple[float, float]] = field(
        default_factory=dict
    )
    _batch_seconds: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def sched(
        self, stream: Stream, duration: float, category: str, earliest: float
    ) -> float:
        """Schedule one op, serializing everything when pipelining is off."""
        if not self.config.pipeline:
            earliest = max(earliest, self.timeline.now)
        __, end = stream.schedule(duration, category, earliest=earliest)
        return end

    def sched_run(
        self,
        stream: Stream,
        durations: Sequence[float],
        category: str,
        earliest: float,
    ) -> float:
        """:meth:`sched` once per duration, in order; returns the last end.

        With pipelining on this is one :meth:`Stream.schedule_run`.  With
        it off, every op's release time is the makespan so far, so the ops
        go one :meth:`sched` at a time.
        """
        if self.config.pipeline:
            return stream.schedule_run(durations, category, earliest)
        end = stream.busy_until
        for duration in durations:
            end = self.sched(stream, duration, category, earliest)
        return end

    def batch_seconds(self, sizes: Sequence[int]) -> List[float]:
        """Host<->device transfer time of one walk batch per size.

        Cached by size: a batch transfer's cost depends only on its walks.
        """
        cache = self._batch_seconds
        out: List[float] = []
        for walks in sizes:
            seconds = cache.get(walks)
            if seconds is None:
                seconds = cache[walks] = (
                    self.pcie.explicit_copy_time(walks * self.bytes_per_walk)
                    + self.config.calibration.scaled_memcpy_call_seconds
                )
            out.append(seconds)
        return out

    def update_time(self, part_idx: int, steps: int, rounds: int) -> float:
        """Walk-update kernel duration for ``steps`` over ``rounds`` passes.

        Per-partition coefficients (latency per round, 1/steprate) are
        cached per run because partition sizes — and the algorithm's
        transition sampler, whose per-step cycles the model charges — are
        static for the whole run; :func:`update_coefficients` keeps them
        across runs.
        """
        if steps == 0:
            return 0.0
        coeff = self._kernel_coeff.get(part_idx)
        if coeff is None:
            self._kernel_coeff[part_idx] = coeff = update_coefficients(
                self.kernel_model.device,
                self.kernel_model.calibration,
                self.pgraph.partitions[part_idx].nbytes,
                getattr(self.algorithm, "transition_sampler", "uniform"),
            )
        return max(rounds * coeff[0], steps * coeff[1])

    # ------------------------------------------------------------------
    @property
    def pending_walks(self) -> int:
        """Walks not yet finished, wherever they currently live."""
        return self.host.total_walks + self.device.cached_walks

    def partition_walks(self, part_idx: int) -> int:
        """Current host + device walk count of one partition."""
        return int(
            self.host.counts[part_idx] + self.device.counts[part_idx]
        )

    def release_partition(self, part_idx: int) -> list:
        """Surrender one partition's walks and per-partition bookkeeping.

        Used when ownership leaves this shard — elastic rebalance hands
        the partition to a peer, or the shard failed and survivors take
        over.  Drains every pending walk of the partition out of the
        host and device pools (returned as a list of
        :class:`~repro.walks.state.WalkArrays` groups, ready to append
        into the new owner's pools) and drops the partition's readiness
        gates and any cached graph block, so no stale state survives the
        handoff.
        """
        groups = self.host.pop_batches(part_idx)
        if self.device.has_walks(part_idx):
            walks = self.device.pop_all(part_idx)
            if len(walks):
                groups.append(walks)
        self.graph_ready.pop(part_idx, None)
        self.frontier_ready.pop(part_idx, None)
        if part_idx in self.graph_pool:
            self.graph_pool.evict(part_idx)
        return groups

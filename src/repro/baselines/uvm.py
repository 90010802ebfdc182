"""Unified-virtual-memory (UVM) baseline (related work, §V).

Several systems the paper discusses (Grus; Gera et al.) process
out-of-GPU-memory graphs by ``cudaMallocManaged``-ing the CSR and letting
the driver page it in on demand.  That removes all partitioning logic, but
every cold access pays a page fault: the driver stalls the faulting warps,
migrates a whole page over PCIe, and evicts another page when device
memory is full.  For random walks — whose accesses are sparse and
non-repeating — fault-driven migration moves far more bytes than the walks
consume and the fault latency cannot be hidden, which is why
partition-based engines (and LightTraffic's batched explicit transfers)
win.

The model executes real walk semantics one step per iteration (all walks
in GPU memory, as these systems assume) while tracking the *actual* set of
pages each step touches (the offsets page and the edges page of every
visited vertex) through an LRU-ish FIFO page cache of the device's
capacity.  Faults charge migration time on the load stream and stall the
kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm
from repro.baselines.inmemory_cpu import whole_graph_partition
from repro.core.events import (
    SERVED_EXPLICIT,
    EventBus,
    GraphServed,
    IterationStarted,
    KernelDispatched,
    RunCompleted,
    WalkFinished,
)
from repro.core.metrics import MetricsCollector
from repro.core.prng import seeded_rng
from repro.core.stats import (
    CAT_GRAPH_LOAD,
    CAT_WALK_UPDATE,
    RunStats,
)
from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.device import DeviceSpec, RTX3090
from repro.gpu.kernels import KernelModel
from repro.gpu.pcie import PCIeSpec, resolve_interconnect
from repro.graph.csr import CSRGraph, VERTEX_ENTRY_BYTES
from repro.walks.state import WalkArrays


@dataclass(frozen=True)
class UVMConfig:
    """Knobs of the UVM baseline."""

    device: DeviceSpec = RTX3090
    interconnect: Union[str, PCIeSpec] = "pcie3"
    calibration: Calibration = DEFAULT_CALIBRATION
    #: driver page size (UVM migrates 64 KiB "page groups" by default).
    page_bytes: int = 64 * 1024
    #: driver-side latency per fault (fault handling + TLB shootdown).
    fault_latency_seconds: float = 20e-6
    #: device bytes available as the managed-memory page cache.
    gpu_memory_bytes: Optional[int] = None
    seed: Optional[int] = 42
    max_iterations: int = 100_000


class UVMEngine:
    """Fault-driven managed-memory random walk baseline."""

    system = "uvm"

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: RandomWalkAlgorithm,
        config: UVMConfig = UVMConfig(),
        bus: Optional[EventBus] = None,
    ) -> None:
        if config.page_bytes < 1:
            raise ValueError("page_bytes must be positive")
        self.graph = graph
        self.algorithm = algorithm
        self.config = config
        self.bus = bus
        self.kernel_model = KernelModel(config.device, config.calibration)
        self.pcie = resolve_interconnect(config.interconnect)
        self.faults = 0
        self.page_hits = 0

    # ------------------------------------------------------------------
    def _touched_pages(self, vertices: np.ndarray) -> np.ndarray:
        """Unique page ids read when stepping from these vertices."""
        page = self.config.page_bytes
        offset_bytes = vertices * VERTEX_ENTRY_BYTES
        offset_pages = offset_bytes // page
        vertex_region = VERTEX_ENTRY_BYTES * (self.graph.num_vertices + 1)
        edge_bytes = vertex_region + self.graph.offsets[vertices] * 8
        edge_pages = edge_bytes // page
        return np.unique(np.concatenate([offset_pages, edge_pages]))

    # ------------------------------------------------------------------
    def run(self, num_walks: int) -> RunStats:
        if num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        cfg = self.config
        cal = cfg.calibration
        rng = seeded_rng(cfg.seed)
        graph = self.graph
        partition = whole_graph_partition(graph)
        capacity_bytes = cfg.gpu_memory_bytes or cfg.device.mem_bytes
        cache_pages = max(1, capacity_bytes // cfg.page_bytes)
        resident: "OrderedDict[int, None]" = OrderedDict()

        starts = self.algorithm.start_vertices(graph, num_walks, rng)
        walks = WalkArrays.fresh(starts)
        self.algorithm.on_start(walks, graph)
        alive = np.ones(num_walks, dtype=bool)

        stats = RunStats(
            system=self.system,
            algorithm=self.algorithm.name,
            graph=graph.name or "graph",
            num_walks=num_walks,
        )
        bus = self.bus if self.bus is not None else EventBus()
        recorder = bus.attach(MetricsCollector())
        migration_time = 0.0
        compute_time = 0.0
        steps_rate = self.kernel_model.steps_per_second(graph.csr_bytes)
        page_copy = self.pcie.explicit_copy_time(cfg.page_bytes)
        fault_cost = cfg.fault_latency_seconds * cal.sim_scale + page_copy
        self.faults = 0
        self.page_hits = 0
        iteration = 0

        try:
            while alive.any():
                iteration += 1
                if iteration > cfg.max_iterations:
                    raise RuntimeError("UVM baseline exceeded max_iterations")
                idx = np.nonzero(alive)[0]
                # UVM is unpartitioned — events carry partition 0 (the
                # managed allocation); each page fault is one explicit
                # page-group migration.
                bus.emit(IterationStarted(iteration, 0, int(idx.size)))

                # --- fault accounting for this step's accesses -----------
                pages = self._touched_pages(walks.vertices[idx])
                iteration_faults = 0
                for pid in pages.tolist():
                    if pid in resident:
                        resident.move_to_end(pid)
                        self.page_hits += 1
                    else:
                        iteration_faults += 1
                        if len(resident) >= cache_pages:
                            resident.popitem(last=False)
                        resident[pid] = None
                        bus.emit(
                            GraphServed(
                                iteration=iteration,
                                partition=0,
                                mode=SERVED_EXPLICIT,
                                copy_seconds=fault_cost,
                            )
                        )
                self.faults += iteration_faults
                migration_time += iteration_faults * fault_cost

                # --- one real walk step ----------------------------------
                new_v, terminated = self.algorithm.step_once(
                    walks.vertices[idx],
                    walks.steps[idx],
                    walks.ids[idx],
                    partition,
                    rng,
                    graph,
                )
                walks.vertices[idx] = new_v
                walks.steps[idx] += 1
                self.algorithm.observe(new_v, walks.ids[idx], terminated)
                alive[idx] = ~terminated
                kernel_time = (
                    cal.scaled_kernel_launch_seconds + idx.size / steps_rate
                )
                compute_time += kernel_time
                bus.emit(
                    KernelDispatched(
                        partition=0,
                        walks=int(idx.size),
                        steps=int(idx.size),
                        seconds=kernel_time,
                    )
                )
                finished_now = int(terminated.sum())
                if finished_now:
                    bus.emit(WalkFinished(partition=0, count=finished_now))

            # Faulting warps stall: migrations serialize with compute; the
            # page cache plays the graph pool's role in hit accounting.
            bus.emit(
                RunCompleted(
                    total_time=migration_time + compute_time,
                    breakdown={
                        CAT_GRAPH_LOAD: migration_time,
                        CAT_WALK_UPDATE: compute_time,
                    },
                    graph_pool_hits=self.page_hits,
                    graph_pool_misses=self.faults,
                    finished_walks=num_walks,
                )
            )
        finally:
            bus.detach(recorder)
        recorder.fill_stats(stats)
        stats.notes = f"faults={self.faults} hits={self.page_hits}"
        return stats

    @property
    def fault_rate(self) -> float:
        """Fraction of page touches that faulted."""
        touches = self.faults + self.page_hits
        return self.faults / touches if touches else 0.0

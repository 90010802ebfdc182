"""Subway-like out-of-GPU-memory baseline (§II-B, Fig 3, Table I, Fig 10).

Subway (Sabet et al., EuroSys 2020) keeps the graph in host memory and, in
every iteration, (1) *generates the active subgraph* on the CPU — the CSR
restricted to vertices with at least one resident walk, (2) *transfers* it
to the GPU (in chunks if it exceeds GPU memory), and (3) runs a
*vertex-centric* kernel in which one thread advances all walks co-located
at its vertex by one step.  The paper attributes Subway's poor random walk
performance to exactly these three costs:

* most loaded active edges are never used (a walk consumes one edge/step),
* subgraph generation is expensive when most vertices are active,
* vertex-centric execution is load-imbalanced (hub vertices serialize).

This implementation executes real walk semantics one step per iteration
and records per-iteration activity ratios (Fig 3) plus the three-way time
breakdown (Table I).  ``host_memory_bytes`` models the paper's observation
that Subway runs out of host memory on YH/CW due to subgraph buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

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
    CAT_SUBGRAPH,
    CAT_WALK_UPDATE,
    RunStats,
)
from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.device import DeviceSpec, RTX3090
from repro.gpu.kernels import KernelModel
from repro.gpu.pcie import PCIeSpec, resolve_interconnect
from repro.graph.csr import CSRGraph, EDGE_ENTRY_BYTES, VERTEX_ENTRY_BYTES
from repro.walks.state import WalkArrays


class SubwayOutOfMemory(RuntimeError):
    """Host memory exhausted while generating active subgraphs (§IV-B)."""


@dataclass(frozen=True)
class SubwayConfig:
    """Knobs of the Subway baseline."""

    device: DeviceSpec = RTX3090
    interconnect: Union[str, PCIeSpec] = "pcie3"
    calibration: Calibration = DEFAULT_CALIBRATION
    #: GPU bytes available for the active subgraph (chunked loads beyond it).
    gpu_memory_bytes: Optional[int] = None
    #: host bytes available; ``None`` disables the OOM model.
    host_memory_bytes: Optional[int] = None
    seed: Optional[int] = 42
    max_iterations: int = 100_000


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration activity ratios (the Fig 3 series)."""

    iteration: int
    active_walks: int
    active_vertex_fraction: float
    active_edge_fraction: float
    used_edge_fraction: float


class SubwayEngine:
    """The Subway-style baseline engine."""

    system = "subway"

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: RandomWalkAlgorithm,
        config: SubwayConfig = SubwayConfig(),
        bus: Optional[EventBus] = None,
    ) -> None:
        self.graph = graph
        self.algorithm = algorithm
        self.config = config
        self.bus = bus
        self.kernel_model = KernelModel(config.device, config.calibration)
        self.pcie = resolve_interconnect(config.interconnect)
        self.records: List[IterationRecord] = []

    # ------------------------------------------------------------------
    def host_memory_estimate(self) -> int:
        """Peak host bytes: graph + subgraph buffers + activity bitmaps.

        Subway double-buffers the compacted subgraph next to the original
        CSR; in the worst iteration nearly every vertex is active, so the
        subgraph is almost as large as the graph itself.
        """
        graph_bytes = self.graph.csr_bytes
        bitmap_bytes = 2 * 8 * self.graph.num_vertices
        return 2 * graph_bytes + bitmap_bytes

    def _check_host_memory(self) -> None:
        budget = self.config.host_memory_bytes
        if budget is not None and self.host_memory_estimate() > budget:
            raise SubwayOutOfMemory(
                f"active-subgraph buffers need ~{self.host_memory_estimate()}"
                f" bytes, budget is {budget}"
            )

    # ------------------------------------------------------------------
    def run(self, num_walks: int) -> RunStats:
        if num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        self._check_host_memory()
        cfg = self.config
        rng = seeded_rng(cfg.seed)
        graph = self.graph
        degrees = graph.degrees()
        partition = whole_graph_partition(graph)
        gpu_budget = cfg.gpu_memory_bytes or cfg.device.mem_bytes

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
        breakdown = {CAT_SUBGRAPH: 0.0, CAT_GRAPH_LOAD: 0.0, CAT_WALK_UPDATE: 0.0}
        self.records = []
        cal = cfg.calibration
        iteration = 0

        try:
            while alive.any():
                iteration += 1
                if iteration > cfg.max_iterations:
                    raise RuntimeError(
                        "Subway baseline exceeded max_iterations"
                    )
                idx = np.nonzero(alive)[0]
                vertices = walks.vertices[idx]
                # Subway is unpartitioned — events carry partition 0 (the
                # whole-graph active subgraph).
                bus.emit(IterationStarted(iteration, 0, int(idx.size)))

                # --- (1) active subgraph generation on the CPU ----------
                active_vertices, per_vertex = np.unique(
                    vertices, return_counts=True
                )
                active_edges = int(degrees[active_vertices].sum())
                scan_cost = (
                    (active_vertices.size + active_edges)
                    * cal.subway_subgraph_cycles_per_edge
                    / cal.cpu_clock_hz
                )
                breakdown[CAT_SUBGRAPH] += scan_cost

                # --- (2) transfer (chunked when exceeding GPU memory) ---
                subgraph_bytes = (
                    VERTEX_ENTRY_BYTES * (active_vertices.size + 1)
                    + EDGE_ENTRY_BYTES * active_edges
                )
                chunks = max(1, math.ceil(subgraph_bytes / gpu_budget))
                for c in range(chunks):
                    chunk_bytes = subgraph_bytes // chunks
                    copy_t = (
                        self.pcie.explicit_copy_time(chunk_bytes)
                        + cal.scaled_memcpy_call_seconds
                    )
                    breakdown[CAT_GRAPH_LOAD] += copy_t
                    bus.emit(
                        GraphServed(
                            iteration=iteration,
                            partition=0,
                            mode=SERVED_EXPLICIT,
                            copy_seconds=copy_t,
                        )
                    )

                # --- (3) vertex-centric kernel: one step per walk -------
                new_v, terminated = self.algorithm.step_once(
                    vertices, walks.steps[idx], walks.ids[idx], partition,
                    rng, graph,
                )
                walks.vertices[idx] = new_v
                walks.steps[idx] += 1
                self.algorithm.observe(new_v, walks.ids[idx], terminated)
                alive[idx] = ~terminated
                steps_this_iter = int(idx.size)
                max_group = int(per_vertex.max())
                kernel_time = self.kernel_model.vertex_centric_time(
                    steps_this_iter, max_group
                )
                kernel_time += cal.scaled_kernel_launch_seconds * chunks
                breakdown[CAT_WALK_UPDATE] += kernel_time
                bus.emit(
                    KernelDispatched(
                        partition=0,
                        walks=steps_this_iter,
                        steps=steps_this_iter,
                        seconds=kernel_time,
                    )
                )
                finished_now = int(terminated.sum())
                if finished_now:
                    bus.emit(WalkFinished(partition=0, count=finished_now))

                self.records.append(
                    IterationRecord(
                        iteration=iteration,
                        active_walks=steps_this_iter,
                        active_vertex_fraction=(
                            active_vertices.size / graph.num_vertices
                        ),
                        active_edge_fraction=(
                            active_edges / graph.num_edges
                            if graph.num_edges else 0.0
                        ),
                        used_edge_fraction=(
                            steps_this_iter / active_edges
                            if active_edges else 0.0
                        ),
                    )
                )

            # Subway's phases are effectively serial (Table I ~100%).
            bus.emit(
                RunCompleted(
                    total_time=sum(breakdown.values()),
                    breakdown=breakdown,
                    finished_walks=num_walks,
                )
            )
        finally:
            bus.detach(recorder)
        recorder.fill_stats(stats)
        return stats

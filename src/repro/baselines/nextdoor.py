"""NextDoor-like in-GPU-memory baseline (Fig 11).

NextDoor (Jangda et al., EuroSys 2021) accelerates graph sampling on GPUs
with transit-parallel scheduling and caching, but assumes the graph *and*
all sampler state fit in GPU memory.  The model here: one up-front transfer
of the whole graph, then one kernel per walk step over all active walks,
with a per-step scheduling/caching overhead factor relative to
LightTraffic's multi-step batch kernel.  The paper finds LightTraffic
slightly faster even in-memory, thanks to the pipelined initial load and
two-level reshuffling (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm
from repro.baselines.inmemory_cpu import whole_graph_partition
from repro.core.prng import seeded_rng
from repro.core.stats import CAT_GRAPH_LOAD, CAT_WALK_UPDATE, RunStats
from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.device import DeviceSpec, RTX3090
from repro.gpu.kernels import KernelModel
from repro.gpu.pcie import PCIeSpec, resolve_interconnect
from repro.graph.csr import CSRGraph
from repro.walks.state import WalkArrays


@dataclass(frozen=True)
class NextDoorConfig:
    """Knobs of the NextDoor baseline."""

    device: DeviceSpec = RTX3090
    interconnect: Union[str, PCIeSpec] = "pcie3"
    calibration: Calibration = DEFAULT_CALIBRATION
    seed: Optional[int] = 42
    max_iterations: int = 100_000


class NextDoorEngine:
    """In-GPU-memory per-step sampler baseline."""

    system = "nextdoor"

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: RandomWalkAlgorithm,
        config: NextDoorConfig = NextDoorConfig(),
    ) -> None:
        if graph.csr_bytes > config.device.mem_bytes:
            raise ValueError(
                "NextDoor requires the graph to fit in GPU memory "
                f"({graph.csr_bytes} > {config.device.mem_bytes} bytes)"
            )
        self.graph = graph
        self.algorithm = algorithm
        self.config = config
        self.kernel_model = KernelModel(config.device, config.calibration)
        self.pcie = resolve_interconnect(config.interconnect)

    # ------------------------------------------------------------------
    def run(self, num_walks: int) -> RunStats:
        if num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        cfg = self.config
        cal = cfg.calibration
        rng = seeded_rng(cfg.seed)
        graph = self.graph
        partition = whole_graph_partition(graph)

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
        load_time = (
            self.pcie.explicit_copy_time(graph.csr_bytes)
            + cal.scaled_memcpy_call_seconds
        )
        stats.explicit_copies = 1
        compute_time = 0.0
        steps_rate = self.kernel_model.steps_per_second(
            graph.csr_bytes,
            getattr(self.algorithm, "transition_sampler", "uniform"),
        )

        while alive.any():
            stats.iterations += 1
            if stats.iterations > cfg.max_iterations:
                raise RuntimeError("NextDoor baseline exceeded max_iterations")
            idx = np.nonzero(alive)[0]
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
            stats.total_steps += int(idx.size)
            compute_time += (
                cal.scaled_kernel_launch_seconds
                + cal.nextdoor_overhead_factor * idx.size / steps_rate
            )

        stats.breakdown = {
            CAT_GRAPH_LOAD: load_time,
            CAT_WALK_UPDATE: compute_time,
        }
        stats.total_time = load_time + compute_time
        return stats

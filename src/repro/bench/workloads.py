"""Scaled datasets, scaled hardware, and standard workloads.

**Dataset scaling.**  The paper's graphs (Table II) are up to 15.6 B edges;
this reproduction uses synthetic R-MAT twins at roughly **1/4096 of paper
scale**, preserving each graph's average degree and skew.  Everything the
experiments measure is a ratio (compute:transfer, hit rates, iteration
counts, walk density), and those ratios are preserved when datasets *and*
the size-like hardware parameters (GPU memory, caches, fixed latencies)
are scaled together — which :class:`SimPlatform` does.

Byte accounting note: this codebase uses 8-byte CSR entries where the
paper's sizes imply 4-byte entries, so size-like parameters are scaled by
``2 * SIM_SCALE`` to keep graph-bytes : memory-bytes ratios faithful.

Set the environment variable ``REPRO_SCALE`` (e.g. ``0.5`` or ``0.25``) to
shrink the datasets further for quick runs; all benches honor it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

import numpy as np

from repro.baselines.cpumodel import CPUSpec, XEON_GOLD_5218R
from repro.core.config import EngineConfig
from repro.gpu.calibration import Calibration
from repro.gpu.device import DeviceSpec, RTX3090
from repro.gpu.pcie import NVLINK2, PCIE3, PCIE4, PCIeSpec
from repro.graph import generators
from repro.graph.builders import from_edges, preprocess_edges
from repro.graph.csr import CSRGraph

#: One global simulation scale (fraction of paper size).
SIM_SCALE = 1.0 / 4096.0
#: 8-byte entries here vs the paper's 4-byte entries (see module docstring).
BYTE_WIDTH_FACTOR = 2.0
#: Caches (GPU L2, CPU LLC) scale with an extra 3x on top of the byte-width
#: factor: the smallest synthetic twins are ~3x oversized relative to
#: 1/4096 (they would otherwise be degenerate), so cache : working-set
#: ratios stay faithful with this factor.
CACHE_SCALE_FACTOR = 3.0 * BYTE_WIDTH_FACTOR

#: The paper's standard workload (§IV-A).
WALK_LENGTH = 80
RESTART_PROB = 0.15
WALKS_PER_VERTEX = 2


def user_scale() -> float:
    """Extra user-requested shrink factor from ``REPRO_SCALE``."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a float, got {raw!r}") from None
    if not 0 < value <= 1:
        raise ValueError("REPRO_SCALE must be in (0, 1]")
    return value


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetSpec:
    """A synthetic twin of one paper dataset.

    ``paper_vertices`` / ``paper_edges`` / ``paper_csr_gb`` record the real
    dataset's Table II statistics for side-by-side reporting.
    """

    name: str
    rmat_scale: int
    edge_factor: float
    skew_a: float
    seed: int
    paper_name: str
    paper_vertices: float
    paper_edges: float
    paper_csr_gb: float
    fits_gpu_memory: bool
    #: add one hub adjacent to every vertex (YH's d_max = |V| quirk).
    global_hub: bool = False


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("lj-sim", 12, 9.0, 0.57, 101, "LiveJournal", 4.85e6, 85.7e6, 0.364, True),
        DatasetSpec("or-sim", 12, 30.0, 0.57, 102, "Orkut", 3.07e6, 234.4e6, 0.917, True),
        DatasetSpec("tw-sim", 13, 18.0, 0.60, 103, "Twitter", 41.7e6, 1.468e9, 5.78, True),
        DatasetSpec("fs-sim", 14, 25.0, 0.57, 104, "FriendSter", 68.35e6, 3.62e9, 14.0, True),
        DatasetSpec("uk-sim", 15, 35.0, 0.59, 105, "UK-Union", 131.57e6, 9.33e9, 35.7, False),
        DatasetSpec("yh-sim", 16, 16.0, 0.57, 106, "Yahoo", 653.91e6, 12.95e9, 53.1, False, True),
        DatasetSpec("cw-sim", 17, 12.0, 0.59, 107, "ClueWeb09", 1.68e9, 15.62e9, 70.8, False),
    )
}

_CACHE: Dict[str, CSRGraph] = {}


def _disk_cache_path(name: str, rmat_scale: int) -> str:
    root = os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-lighttraffic"),
    )
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, f"{name}-s{rmat_scale}.npz")


def load_dataset(name: str) -> CSRGraph:
    """Build (and memoize, in process and on disk) one synthetic dataset."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    spec = DATASETS[name]
    shrink = user_scale()
    # REPRO_SCALE halves the vertex count per factor-of-2 shrink.
    scale = max(8, spec.rmat_scale + int(round(math.log2(shrink))))
    path = _disk_cache_path(name, scale)
    graph: Optional[CSRGraph] = None
    if os.path.exists(path):
        from repro.graph.io import load_csr

        try:
            graph = load_csr(path)
        except ValueError:
            pass  # an unreadable cache file is a miss: rebuild and overwrite it
    if graph is None:
        graph = generators.rmat(
            scale=scale,
            edge_factor=spec.edge_factor,
            a=spec.skew_a,
            b=(1.0 - spec.skew_a) / 3,
            c=(1.0 - spec.skew_a) / 3,
            seed=spec.seed,
            name=spec.name,
        )
        if spec.global_hub:
            graph = _add_global_hub(graph, spec.name)
        from repro.graph.io import save_csr

        save_csr(graph, path)
    _CACHE[name] = graph
    return graph


def _add_global_hub(graph: CSRGraph, name: str) -> CSRGraph:
    """Attach vertex 0 to every other vertex (YH's |V|-degree hub)."""
    others = np.arange(1, graph.num_vertices, dtype=np.int64)
    degrees = np.diff(graph.offsets)
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), degrees)
    edges = np.concatenate(
        [
            np.stack([sources, graph.targets], axis=1),
            np.stack([np.zeros_like(others), others], axis=1),
        ]
    )
    cleaned, n, __ = preprocess_edges(edges, undirected=True)
    return from_edges(cleaned, num_vertices=n, name=name)


def standard_walks(graph: CSRGraph) -> int:
    """The paper's standard walk count: 2|V|."""
    return WALKS_PER_VERTEX * graph.num_vertices


# ----------------------------------------------------------------------
# Hardware at simulation scale
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimPlatform:
    """One coherent scaled platform: GPU, CPU, interconnects, calibration."""

    device: DeviceSpec
    cpu: CPUSpec
    pcie3: PCIeSpec
    pcie4: PCIeSpec
    nvlink2: PCIeSpec
    calibration: Calibration
    #: scaled GPU memory budget available to the two pools.
    gpu_memory_bytes: int
    #: scaled graph-partition size (the paper's 128 MB default).
    partition_bytes: int

    def interconnect(self, name: str) -> PCIeSpec:
        try:
            return {"pcie3": self.pcie3, "pcie4": self.pcie4, "nvlink2": self.nvlink2}[name]
        except KeyError:
            raise KeyError(f"unknown interconnect {name!r}") from None


def default_platform(
    device: DeviceSpec = RTX3090, sim_scale: float = SIM_SCALE
) -> SimPlatform:
    """The scaled platform used by all benchmarks."""
    size_scale = sim_scale * BYTE_WIDTH_FACTOR
    # GPU memory uses a slightly smaller factor than the caches: the paper's
    # 24 GB sits between FS (fits) and UK (does not); with 8-byte entries the
    # same boundary falls at ~24 GB * sim_scale * 1.1 for the scaled twins.
    scaled_device = replace(
        device,
        mem_bytes=max(1 << 16, int(device.mem_bytes * sim_scale * 1.1)),
        l2_bytes=max(1 << 10, int(device.l2_bytes * sim_scale * CACHE_SCALE_FACTOR)),
        shared_mem_per_sm=device.shared_mem_per_sm,
    )
    calibration = Calibration(sim_scale=sim_scale)
    scale_latency = lambda spec: replace(  # noqa: E731 - tiny local helper
        spec, latency_seconds=spec.latency_seconds * sim_scale
    )
    return SimPlatform(
        device=scaled_device,
        cpu=XEON_GOLD_5218R.scaled(sim_scale * CACHE_SCALE_FACTOR),
        pcie3=scale_latency(PCIE3),
        pcie4=scale_latency(PCIE4),
        nvlink2=scale_latency(NVLINK2),
        calibration=calibration,
        gpu_memory_bytes=scaled_device.mem_bytes,
        partition_bytes=max(4096, int(128 * (1 << 20) * size_scale)),
    )


# ----------------------------------------------------------------------
# Standard engine configuration
# ----------------------------------------------------------------------
def standard_config(
    graph: CSRGraph,
    platform: Optional[SimPlatform] = None,
    interconnect: str = "pcie3",
    num_walks: Optional[int] = None,
    graph_pool_fraction: float = 0.6,
    **overrides: Any,
) -> EngineConfig:
    """The default LightTraffic configuration for one dataset.

    The scaled GPU memory is split between the graph pool
    (``graph_pool_fraction``) and the walk pool; the batch size is chosen
    so a typical partition's walks fill a few batches (the paper's 16x-core
    batch would hold more walks than the entire scaled workload).
    """
    platform = platform or default_platform()
    if num_walks is None:
        num_walks = standard_walks(graph)
    partition_bytes = overrides.pop("partition_bytes", platform.partition_bytes)
    num_partitions = max(1, math.ceil(graph.csr_bytes / partition_bytes))
    # Split the scaled GPU memory between the pools: the walk pool gets
    # what the walk index actually needs (capped at 1 - graph_pool_fraction
    # of memory, which forces walk eviction on cw-sim exactly as the paper's
    # CW walk index overflows 24 GB), and the graph pool gets the rest.
    bytes_per_walk_record = 16  # (walk_id, vertex) state per walk
    walk_bytes_wanted = bytes_per_walk_record * num_walks  # S_w upper bound
    walk_bytes = min(
        walk_bytes_wanted,
        int(platform.gpu_memory_bytes * (1.0 - graph_pool_fraction)),
    )
    walk_budget = max(4096, walk_bytes // 8)
    if graph.csr_bytes <= 0.85 * platform.gpu_memory_bytes:
        # The whole graph fits in GPU memory (paper: FS and smaller) — cache
        # every partition so each is loaded exactly once.
        pool_blocks = num_partitions
    else:
        pool_blocks = int(
            (platform.gpu_memory_bytes - walk_bytes) / partition_bytes
        )
    pool_blocks = max(2, min(pool_blocks, max(2, num_partitions)))
    # Batches must be a fraction of a partition's typical walk population or
    # frontiers never complete and preemptive scheduling starves (§III-D);
    # the paper's defaults give batch ~ (walks per partition) / 5.
    batch = int(np.clip(num_walks // max(1, num_partitions) // 2, 64, 8192))
    defaults = dict(
        partition_bytes=partition_bytes,
        batch_walks=batch,
        graph_pool_partitions=pool_blocks,
        walk_pool_walks=max(walk_budget, 4 * batch),
        interconnect=platform.interconnect(interconnect),
        device=platform.device,
        calibration=platform.calibration,
        seed=42,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)

"""Experiment runners — one function per paper table/figure.

Each runner returns a list of structured row dicts; the thin
``benchmarks/bench_*.py`` wrappers time them with pytest-benchmark and print
the paper-style tables.  All runners honor ``REPRO_SCALE``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.algorithms import PageRank, PersonalizedPageRank, UniformSampling
from repro.algorithms.base import RandomWalkAlgorithm
from repro.baselines import (
    FlashMobEngine,
    MultiRoundEngine,
    NextDoorEngine,
    NextDoorConfig,
    SubwayConfig,
    SubwayEngine,
    ThunderRWEngine,
    UVMConfig,
    UVMEngine,
)
from repro.bench.workloads import (
    DATASETS,
    RESTART_PROB,
    WALK_LENGTH,
    SimPlatform,
    default_platform,
    load_dataset,
    standard_config,
    standard_walks,
)
from repro.core.config import (
    COPY_ADAPTIVE,
    COPY_EXPLICIT,
    COPY_ZERO,
    EngineConfig,
)
from repro.core.engine import LightTrafficEngine
from repro.core.stats import (
    CAT_GRAPH_LOAD,
    CAT_KERNEL_OTHER,
    CAT_RESHUFFLE,
    CAT_SUBGRAPH,
    CAT_WALK_EVICT,
    CAT_WALK_LOAD,
    CAT_WALK_UPDATE,
    CAT_ZERO_COPY,
    RunStats,
)
from repro.gpu.kernels import DIRECT_WRITE, TWO_LEVEL
from repro.graph.partition import partition_by_range
from repro.core.theory import transfer_bound_throughput
from repro.walks.state import index_bytes_per_walk

ALGORITHM_FACTORIES: Dict[str, Callable[[], RandomWalkAlgorithm]] = {
    "uniform": lambda: UniformSampling(length=WALK_LENGTH),
    "pagerank": lambda: PageRank(length=WALK_LENGTH, restart_prob=RESTART_PROB),
    "ppr": lambda: PersonalizedPageRank(stop_prob=RESTART_PROB),
}


def make_algorithm(name: str) -> RandomWalkAlgorithm:
    try:
        return ALGORITHM_FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}") from None


def bench_engine_config(
    seed: int, quick: bool, *, devices: int = 1, **overrides: object
) -> EngineConfig:
    """Shared engine config for the ``repro bench`` suites.

    Partitions are kept small relative to the benchmark graphs so every
    shard owns several (migration, failure reassignment and weighted
    splits all need partitions to move) and pools are sized below the
    workload so the eviction and preemptive paths stay exercised.
    Suite-specific knobs (elastic specs, execution backend, ...) come in
    as ``overrides`` and may also replace any of the defaults.
    """
    config: Dict[str, object] = dict(
        partition_bytes=2048 if quick else 4096,
        batch_walks=64 if quick else 256,
        graph_pool_partitions=4,
        walk_pool_walks=512 if quick else 4096,
        seed=seed,
        devices=devices,
        sanitize=True,
    )
    config.update(overrides)
    return EngineConfig(**config)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Table II — dataset statistics
# ----------------------------------------------------------------------
def table2_dataset_stats() -> List[dict]:
    """Synthetic twins side by side with the paper's Table II."""
    rows = []
    for name, spec in DATASETS.items():
        graph = load_dataset(name)
        rows.append(
            {
                "dataset": name,
                "paper": spec.paper_name,
                "V": graph.num_vertices,
                "E": graph.num_edges,
                "csr_mb": graph.csr_bytes / 1e6,
                "d_max": graph.max_degree,
                "paper_V": spec.paper_vertices,
                "paper_E": spec.paper_edges,
                "paper_csr_gb": spec.paper_csr_gb,
                "scale": spec.paper_vertices / graph.num_vertices,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig 3 — active vertex/edge ratios under the Subway baseline
# ----------------------------------------------------------------------
def fig3_active_ratio(
    datasets: Sequence[str] = ("fs-sim", "uk-sim"),
    sample_every: int = 8,
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        engine = SubwayEngine(
            graph,
            make_algorithm("pagerank"),
            SubwayConfig(
                device=platform.device,
                interconnect=platform.pcie3,
                calibration=platform.calibration,
                gpu_memory_bytes=platform.gpu_memory_bytes,
            ),
        )
        engine.run(standard_walks(graph))
        for record in engine.records:
            if record.iteration % sample_every not in (0, 1):
                continue
            rows.append(
                {
                    "dataset": name,
                    "iteration": record.iteration,
                    "active_vertex_pct": 100 * record.active_vertex_fraction,
                    "active_edge_pct": 100 * record.active_edge_fraction,
                    "used_edge_pct": 100 * record.used_edge_fraction,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table I — Subway time breakdown
# ----------------------------------------------------------------------
def table1_subway_breakdown(
    datasets: Sequence[str] = ("uk-sim", "fs-sim"),
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        engine = SubwayEngine(
            graph,
            make_algorithm("pagerank"),
            SubwayConfig(
                device=platform.device,
                interconnect=platform.pcie3,
                calibration=platform.calibration,
                gpu_memory_bytes=platform.gpu_memory_bytes,
            ),
        )
        stats = engine.run(standard_walks(graph))
        total = stats.total_time
        rows.append(
            {
                "dataset": name,
                "computation_pct": 100 * stats.time(CAT_WALK_UPDATE) / total,
                "transmission_pct": 100 * stats.time(CAT_GRAPH_LOAD) / total,
                "subgraph_pct": 100 * stats.time(CAT_SUBGRAPH) / total,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig 9 — comparison with CPU systems (+ LightTraffic on PCIe3/PCIe4)
# ----------------------------------------------------------------------
def fig9_cpu_comparison(
    datasets: Optional[Sequence[str]] = None,
    algorithms: Sequence[str] = ("uniform", "pagerank", "ppr"),
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    datasets = list(datasets or DATASETS)
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            runs: Dict[str, Optional[RunStats]] = {}
            runs["thunderrw"] = ThunderRWEngine(
                graph, make_algorithm(algo_name), cpu=platform.cpu
            ).run(walks)
            if make_algorithm(algo_name).fixed_length:
                runs["flashmob"] = FlashMobEngine(
                    graph, make_algorithm(algo_name), cpu=platform.cpu
                ).run(walks)
            else:
                runs["flashmob"] = None  # FlashMob: fixed-length only (§IV-B)
            for link, label in (("pcie3", "lt-pcie3"), ("pcie4", "lt-pcie4")):
                config = standard_config(graph, platform, interconnect=link)
                runs[label] = LightTrafficEngine(
                    graph, make_algorithm(algo_name), config
                ).run(walks)
            for system, stats in runs.items():
                rows.append(
                    {
                        "dataset": name,
                        "algorithm": algo_name,
                        "system": system,
                        "throughput": stats.throughput if stats else float("nan"),
                        "total_time": stats.total_time if stats else float("nan"),
                        "available": stats is not None,
                    }
                )
    return rows


def fig9_speedups(rows: List[dict]) -> List[dict]:
    """LT(PCIe4) speedup over each CPU system, per dataset x algorithm."""
    by_key: Dict[tuple, Dict[str, dict]] = {}
    for row in rows:
        by_key.setdefault((row["dataset"], row["algorithm"]), {})[
            row["system"]
        ] = row
    out = []
    for (dataset, algo), group in by_key.items():
        lt = group.get("lt-pcie4")
        for cpu_system in ("flashmob", "thunderrw"):
            base = group.get(cpu_system)
            if lt is None or base is None or not base["available"]:
                continue
            out.append(
                {
                    "dataset": dataset,
                    "algorithm": algo,
                    "vs": cpu_system,
                    "speedup": base["total_time"] / lt["total_time"],
                }
            )
    return out


# ----------------------------------------------------------------------
# Fig 10 — comparison with Subway
# ----------------------------------------------------------------------
def fig10_subway_comparison(
    datasets: Sequence[str] = ("fs-sim", "uk-sim"),
    algorithms: Sequence[str] = ("pagerank", "ppr"),
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            subway = SubwayEngine(
                graph,
                make_algorithm(algo_name),
                SubwayConfig(
                    device=platform.device,
                    interconnect=platform.pcie3,
                    calibration=platform.calibration,
                    gpu_memory_bytes=platform.gpu_memory_bytes,
                ),
            ).run(walks)
            lt = LightTrafficEngine(
                graph,
                make_algorithm(algo_name),
                standard_config(graph, platform, interconnect="pcie3"),
            ).run(walks)
            rows.append(
                {
                    "dataset": name,
                    "algorithm": algo_name,
                    "total_speedup": subway.total_time / lt.total_time,
                    "compute_speedup": (
                        subway.compute_time / max(lt.compute_time, 1e-12)
                    ),
                    "transmission_speedup": (
                        subway.transmission_time
                        / max(lt.transmission_time, 1e-12)
                    ),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig 11 — comparison with NextDoor (in-GPU-memory)
# ----------------------------------------------------------------------
def fig11_nextdoor(
    datasets: Sequence[str] = ("lj-sim", "or-sim", "tw-sim"),
    algorithms: Sequence[str] = ("uniform", "pagerank"),
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            nextdoor = NextDoorEngine(
                graph,
                make_algorithm(algo_name),
                NextDoorConfig(
                    device=platform.device,
                    interconnect=platform.pcie3,
                    calibration=platform.calibration,
                ),
            ).run(walks)
            lt = LightTrafficEngine(
                graph,
                make_algorithm(algo_name),
                standard_config(graph, platform, interconnect="pcie3"),
            ).run(walks)
            rows.append(
                {
                    "dataset": name,
                    "algorithm": algo_name,
                    "lt_throughput": lt.throughput,
                    "nextdoor_throughput": nextdoor.throughput,
                    "speedup": nextdoor.total_time / lt.total_time,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig 12 — reshuffle: two-level caching vs direct write
# ----------------------------------------------------------------------
def fig12_reshuffle(
    partition_kib: Sequence[int] = (32, 64, 128, 256),
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for kib in partition_kib:
        per_mode = {}
        for mode in (DIRECT_WRITE, TWO_LEVEL):
            config = standard_config(
                graph,
                platform,
                partition_bytes=kib * 1024,
                reshuffle_mode=mode,
            )
            stats = LightTrafficEngine(
                graph, make_algorithm("pagerank"), config
            ).run(walks)
            per_mode[mode] = stats
        rows.append(
            {
                "partition_kib": kib,
                "direct_reshuffle_time": per_mode[DIRECT_WRITE].time(
                    CAT_RESHUFFLE
                ),
                "two_level_reshuffle_time": per_mode[TWO_LEVEL].time(
                    CAT_RESHUFFLE
                ),
                "reduction_pct": 100
                * (
                    1
                    - per_mode[TWO_LEVEL].time(CAT_RESHUFFLE)
                    / max(per_mode[DIRECT_WRITE].time(CAT_RESHUFFLE), 1e-12)
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig 13 / Table III — pipeline & scheduling ablation
# ----------------------------------------------------------------------
SCHEDULER_VARIANTS = {
    "baseline": dict(preemptive=False, selective=False),
    "ps": dict(preemptive=True, selective=False),
    "ss": dict(preemptive=False, selective=True),
    "ps+ss": dict(preemptive=True, selective=True),
}


def fig13_pipeline(
    pool_partitions: Sequence[int] = (25, 50, 75, 100),
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for m_g in pool_partitions:
        for variant, toggles in SCHEDULER_VARIANTS.items():
            config = standard_config(
                graph,
                platform,
                graph_pool_partitions=m_g,
                copy_mode=COPY_EXPLICIT,
                **toggles,
            )
            stats = LightTrafficEngine(
                graph, make_algorithm("pagerank"), config
            ).run(walks)
            rows.append(
                {
                    "cached_partitions": m_g,
                    "variant": variant,
                    "total_time": stats.total_time,
                    "iterations": stats.iterations,
                    "explicit_copies": stats.explicit_copies,
                    "hit_rate_pct": 100 * stats.graph_pool_hit_rate,
                }
            )
    return rows


def table3_scheduling(
    pool_partitions: int = 100,
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    rows = fig13_pipeline((pool_partitions,), dataset, platform)
    return [
        {
            "variant": row["variant"],
            "iterations": row["iterations"],
            "explicit_copies": row["explicit_copies"],
            "hit_rate_pct": row["hit_rate_pct"],
        }
        for row in rows
    ]


# ----------------------------------------------------------------------
# Fig 14 — adaptive scheduling with zero copy
# ----------------------------------------------------------------------
def fig14_adaptive(
    datasets: Sequence[str] = ("uk-sim", "yh-sim", "cw-sim"),
    algorithms: Sequence[str] = ("pagerank", "ppr"),
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            times = {}
            for mode in (COPY_EXPLICIT, COPY_ZERO, COPY_ADAPTIVE):
                config = standard_config(graph, platform, copy_mode=mode)
                stats = LightTrafficEngine(
                    graph, make_algorithm(algo_name), config
                ).run(walks)
                times[mode] = stats.total_time
            rows.append(
                {
                    "dataset": name,
                    "algorithm": algo_name,
                    "zero_copy_speedup": times[COPY_EXPLICIT] / times[COPY_ZERO],
                    "adaptive_speedup": (
                        times[COPY_EXPLICIT] / times[COPY_ADAPTIVE]
                    ),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig 15 — memory pool size sweep (per-op breakdown)
# ----------------------------------------------------------------------
def fig15_memory_size(
    walk_pool_sizes: Sequence[int] = (24_000, 49_000, 98_000, 195_000),
    pool_partitions: Sequence[int] = (25, 50, 100),
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    graph = load_dataset(dataset)
    # The paper uses 800M total walks and walk length 10 here.
    num_walks = 195_000 if graph.num_vertices * 8 > 195_000 else 4 * graph.num_vertices
    algorithm_factory = lambda: PageRank(length=10)  # noqa: E731
    rows = []
    for m_g in pool_partitions:
        for m_w in walk_pool_sizes:
            config = standard_config(
                graph,
                platform,
                graph_pool_partitions=m_g,
                walk_pool_walks=m_w,
            )
            stats = LightTrafficEngine(graph, algorithm_factory(), config).run(
                num_walks
            )
            rows.append(
                {
                    "cached_partitions": m_g,
                    "cached_walks": m_w,
                    "graph_load": stats.time(CAT_GRAPH_LOAD),
                    "walk_load": stats.time(CAT_WALK_LOAD),
                    "zero_copy": stats.time(CAT_ZERO_COPY),
                    "walk_evict": stats.time(CAT_WALK_EVICT),
                    "computing": stats.compute_time,
                    "total_time": stats.total_time,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig 16 — multi-round baseline slowdown
# ----------------------------------------------------------------------
def fig16_multiround(
    pool_partitions: Sequence[int] = (25, 50, 100),
    rounds_cases: Sequence[int] = (8, 4, 2),
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    graph = load_dataset(dataset)
    num_walks = 195_000  # scaled twin of the paper's 800M walks
    algorithm_factory = lambda: PageRank(length=10)  # noqa: E731
    rows = []
    for m_g in pool_partitions:
        for rounds in rounds_cases:
            m_w = math.ceil(num_walks / rounds)
            lt_config = standard_config(
                graph, platform, graph_pool_partitions=m_g, walk_pool_walks=m_w
            )
            lt = LightTrafficEngine(graph, algorithm_factory(), lt_config).run(
                num_walks
            )
            mr = MultiRoundEngine(
                graph,
                algorithm_factory,
                lt_config,
                rounds=rounds,
            ).run(num_walks)
            rows.append(
                {
                    "cached_partitions": m_g,
                    "rounds": rounds,
                    "walks_per_round": m_w,
                    "multiround_time": mr.total_time,
                    "lighttraffic_time": lt.total_time,
                    "slowdown": mr.total_time / lt.total_time,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig 17 — walk computing time vs partition size
# ----------------------------------------------------------------------
def fig17_partition_size(
    partition_kib: Sequence[int] = (32, 64, 128, 256),
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    platform = platform or default_platform()
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for kib in partition_kib:
        config = standard_config(
            graph, platform, partition_bytes=kib * 1024
        )
        stats = LightTrafficEngine(
            graph, make_algorithm("pagerank"), config
        ).run(walks)
        rows.append(
            {
                "partition_kib": kib,
                "num_partitions": stats.num_partitions,
                "walk_updating": stats.time(CAT_WALK_UPDATE),
                "walk_reshuffling": stats.time(CAT_RESHUFFLE),
                "others": stats.time(CAT_KERNEL_OTHER),
                "computing_total": stats.compute_time,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig 18 — scalability vs walk density
# ----------------------------------------------------------------------
def fig18_scalability(
    densities: Sequence[float] = (1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0, 4.0),
    datasets: Sequence[str] = ("tw-sim", "cw-sim"),
    walk_length: int = 8,
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    """Throughput vs walk density under a tight memory constraint.

    The paper restricts both pools to 1 GB; scaled here to 1 GB * 2/4096 =
    512 KiB each.  Theory (§IV-D): throughput = (B / S_w) / (1 + 1/D).
    """
    platform = platform or default_platform()
    pool_bytes = max(4 * platform.partition_bytes, int(512 * 1024))
    s_w = index_bytes_per_walk(False)
    bandwidth = platform.pcie3.bandwidth
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        partitioned = partition_by_range(graph, platform.partition_bytes)
        num_partitions = partitioned.num_partitions
        for density in densities:
            walks_per_partition = density * platform.partition_bytes / s_w
            num_walks = int(walks_per_partition * num_partitions)
            num_walks = max(num_walks, 1024)
            if num_walks > 6_000_000:
                continue  # keep the sweep tractable at full scale
            config = standard_config(
                graph,
                platform,
                graph_pool_partitions=max(2, pool_bytes // platform.partition_bytes),
                walk_pool_walks=max(2048, pool_bytes // s_w),
            )
            stats = LightTrafficEngine(
                graph, PageRank(length=walk_length), config
            ).run(num_walks)
            theory = transfer_bound_throughput(bandwidth, s_w, density)
            rows.append(
                {
                    "dataset": name,
                    "density": density,
                    "num_walks": num_walks,
                    "throughput": stats.throughput,
                    "theory_throughput": theory,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Metrics observatory — every system observed through one event bus
# ----------------------------------------------------------------------
def metrics_observatory(
    dataset: str = "lj-sim",
    algorithm: str = "pagerank",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    """Run each bus system and tabulate its ``RunStats.metrics`` snapshot.

    One observation layer covers every engine: the partition-based
    LightTraffic engine, the Subway and UVM baselines, and the multi-round
    variant all publish the same event vocabulary, so the one recorder
    yields comparable serve-mode/preemption/eviction columns per system.
    """
    platform = platform or default_platform()
    graph = load_dataset(dataset)
    walks = standard_walks(graph)

    def build(system: str) -> Any:
        if system == "lighttraffic":
            return LightTrafficEngine(
                graph,
                make_algorithm(algorithm),
                standard_config(graph, platform),
            )
        if system == "subway":
            return SubwayEngine(
                graph,
                make_algorithm(algorithm),
                SubwayConfig(
                    device=platform.device,
                    interconnect=platform.pcie3,
                    calibration=platform.calibration,
                    gpu_memory_bytes=platform.gpu_memory_bytes,
                ),
            )
        if system == "uvm":
            return UVMEngine(
                graph,
                make_algorithm(algorithm),
                UVMConfig(
                    device=platform.device,
                    interconnect=platform.pcie3,
                    calibration=platform.calibration,
                    gpu_memory_bytes=platform.gpu_memory_bytes,
                ),
            )
        return MultiRoundEngine(
            graph,
            ALGORITHM_FACTORIES[algorithm],
            standard_config(graph, platform),
            rounds=2,
        )

    rows = []
    for system in ("lighttraffic", "subway", "uvm", "multiround"):
        stats = build(system).run(walks)
        metrics: Any = stats.metrics
        modes = metrics["serve_mode_totals"]
        rows.append(
            {
                "dataset": dataset,
                "algorithm": algorithm,
                "system": system,
                "total_time": stats.total_time,
                "throughput": stats.throughput,
                "iterations": metrics["iterations"],
                "served_hit": modes["hit"],
                "served_explicit": modes["explicit"],
                "served_zero_copy": modes["zero_copy"],
                "preemption_pct": 100 * metrics["preemption_fraction"],
                "batches_evicted": stats.walk_batches_evicted,
            }
        )
    return rows

"""Experiment runners — one function per paper table/figure.

Each runner returns a list of structured row dicts; the thin
``benchmarks/bench_*.py`` wrappers time them with pytest-benchmark and print
the paper-style tables.  All runners honor ``REPRO_SCALE``.

The module also holds the front-end tables everything else is a view of:
:data:`SYSTEMS` (name -> how to build that engine on a
:class:`~repro.bench.workloads.SimPlatform`, and what it supports),
:data:`EXPERIMENTS` (name -> runner + description, at the end of the
module) and the helpers the ``repro bench`` suites share.
"""

from __future__ import annotations

import json
import math
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

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
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.partition import partition_by_range
from repro.core.theory import transfer_bound_throughput
from repro.walks.state import index_bytes_per_walk

AlgorithmFactory = Callable[[], RandomWalkAlgorithm]

ALGORITHM_FACTORIES: Dict[str, AlgorithmFactory] = {
    "uniform": lambda: UniformSampling(length=WALK_LENGTH),
    "pagerank": lambda: PageRank(length=WALK_LENGTH, restart_prob=RESTART_PROB),
    "ppr": lambda: PersonalizedPageRank(stop_prob=RESTART_PROB),
}


def _algorithm_factory(
    algorithm: Union[str, AlgorithmFactory]
) -> AlgorithmFactory:
    """A registered algorithm name, or a zero-argument factory as is."""
    if not isinstance(algorithm, str):
        return algorithm
    try:
        return ALGORITHM_FACTORIES[algorithm]
    except KeyError:
        raise KeyError(f"unknown algorithm {algorithm!r}") from None


def make_algorithm(name: str) -> RandomWalkAlgorithm:
    return _algorithm_factory(name)()


# ----------------------------------------------------------------------
# Systems — the one place a SimPlatform becomes a configured engine
# ----------------------------------------------------------------------
def _configured(
    factory: AlgorithmFactory, sampler: Optional[str]
) -> RandomWalkAlgorithm:
    """A fresh algorithm with the sampler override applied directly (the
    baselines have no ``EngineConfig.sampler`` to route it through)."""
    algorithm = factory()
    if sampler is not None:
        algorithm.set_transition_sampler(sampler)
    return algorithm


def _build_lighttraffic(
    graph: CSRGraph, factory: AlgorithmFactory, platform: SimPlatform,
    **config: Any,
) -> Any:
    return LightTrafficEngine(
        graph, factory(), standard_config(graph, platform, **config)
    )


def _build_multiround(
    graph: CSRGraph, factory: AlgorithmFactory, platform: SimPlatform,
    rounds: int = 2, **config: Any,
) -> Any:
    # Each round builds its engine inside run(); reject an algorithm that
    # cannot take the sampler override here, at build time.
    _configured(factory, config["sampler"])
    return MultiRoundEngine(
        graph, factory, standard_config(graph, platform, **config),
        rounds=rounds,
    )


def _cpu_system(engine_cls: Callable[..., Any]) -> Callable[..., Any]:
    def build(
        graph: CSRGraph, factory: AlgorithmFactory, platform: SimPlatform,
        *, interconnect: str, seed: Optional[int], sampler: Optional[str],
        sanitize: bool,
    ) -> Any:
        # In-memory CPU engines: no interconnect, no bus to sanitize.
        algorithm = _configured(factory, sampler)
        return engine_cls(graph, algorithm, cpu=platform.cpu, seed=seed)

    return build


def _gpu_baseline(
    engine_cls: Callable[..., Any], config_cls: Callable[..., Any]
) -> Callable[..., Any]:
    def build(
        graph: CSRGraph, factory: AlgorithmFactory, platform: SimPlatform,
        *, interconnect: str, sampler: Optional[str], sanitize: bool,
        **config: Any,
    ) -> Any:
        # ``sanitize`` is honoured by run_system: these engines expose
        # nothing but their bus for the sanitizer to hook.
        if hasattr(config_cls, "gpu_memory_bytes"):  # a budget field
            config.setdefault("gpu_memory_bytes", platform.gpu_memory_bytes)
        return engine_cls(
            graph,
            _configured(factory, sampler),
            config_cls(
                device=platform.device,
                interconnect=platform.interconnect(interconnect),
                calibration=platform.calibration,
                **config,
            ),
        )

    return build


class _System(NamedTuple):
    #: ``build(graph, algorithm_factory, platform, *, interconnect, seed,
    #: sampler, sanitize, **engine_overrides)`` -> an engine with
    #: ``run(num_walks) -> RunStats``; a ``ValueError`` means the system
    #: cannot run that workload.
    build: Callable[..., Any]
    #: optional capabilities: ``"bus"`` — publishes on the event bus, so
    #: metrics export and the sanitizer work; ``"devices"`` — shards over
    #: simulated devices (and takes the elastic-cluster knobs);
    #: ``"backend"`` — pluggable execution backend.
    supports: FrozenSet[str] = frozenset()


#: Every runnable system, in ``--system`` order.  Adding a comparator is
#: one row: the CLI choices, its flag checks and ``BUS_SYSTEMS`` derive
#: from this table.
SYSTEMS: Dict[str, _System] = {
    "lighttraffic": _System(
        _build_lighttraffic, frozenset({"bus", "devices", "backend"})
    ),
    "thunderrw": _System(_cpu_system(ThunderRWEngine)),
    "flashmob": _System(_cpu_system(FlashMobEngine)),
    "subway": _System(
        _gpu_baseline(SubwayEngine, SubwayConfig), frozenset({"bus"})
    ),
    "nextdoor": _System(_gpu_baseline(NextDoorEngine, NextDoorConfig)),
    "uvm": _System(_gpu_baseline(UVMEngine, UVMConfig), frozenset({"bus"})),
    "multiround": _System(_build_multiround, frozenset({"bus"})),
}


def build_system(
    name: str,
    graph: CSRGraph,
    algorithm: Union[str, AlgorithmFactory],
    platform: Optional[SimPlatform] = None,
    *,
    interconnect: str = "pcie3",
    seed: Optional[int] = 42,
    sampler: Optional[str] = None,
    sanitize: bool = False,
    **engine_overrides: Any,
) -> Any:
    """Build system ``name`` for one workload on the scaled platform.

    ``algorithm`` is a name from :data:`ALGORITHM_FACTORIES` or a
    zero-argument factory.  ``engine_overrides`` go to the system's own
    config: ``EngineConfig`` fields (through :func:`standard_config`) for
    ``lighttraffic`` and ``multiround`` — which also takes ``rounds`` —
    and ``SubwayConfig``/``UVMConfig``/``NextDoorConfig`` fields for the
    GPU baselines.  A ``ValueError`` is a client error raised before
    anything runs: the system cannot run this workload (FlashMob on
    variable-length walks, NextDoor on a graph beyond device memory, a
    sampler the algorithm does not take).
    """
    return SYSTEMS[name].build(
        graph,
        _algorithm_factory(algorithm),
        platform or default_platform(),
        interconnect=interconnect,
        seed=seed,
        sampler=sampler,
        sanitize=sanitize,
        **engine_overrides,
    )


def run_system(engine: Any, walks: int, *, sanitize: bool = False) -> RunStats:
    """Run a built system, under the sanitizer if asked.

    An engine built with ``sanitize=True`` on its :class:`EngineConfig`
    checks itself.  The bus baselines (Subway/UVM) have no partition
    pools or simulated streams to hook, so the sanitizer rides their
    event bus alone: batch lifecycle and the finished-walk count are
    still checked.
    """
    if not sanitize or getattr(engine.config, "sanitize", False):
        return engine.run(walks)
    from repro.analysis import Sanitizer
    from repro.core.events import EventBus

    bus = engine.bus if engine.bus is not None else EventBus()
    engine.bus = bus
    sanitizer = Sanitizer().bind(expected_walks=walks)
    observer = bus.attach(sanitizer)
    try:
        stats = engine.run(walks)
    finally:
        bus.detach(observer)
        sanitizer.unbind()
    stats.sanitizer = sanitizer.summary()
    return stats


# ----------------------------------------------------------------------
# Shared pieces of the ``repro bench`` suites
# ----------------------------------------------------------------------
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


def bench_rmat_graph(
    scale: int, edge_factor: int, seed: int, quick: bool, quick_scale: int = 10
) -> Tuple[CSRGraph, Dict[str, object]]:
    """The suites' rmat graph, capped at ``quick_scale`` under ``--quick``.

    Returned with the part of a payload's ``config`` block every suite
    records about it.
    """
    if quick:
        scale = min(scale, quick_scale)
    graph = rmat(scale=scale, edge_factor=edge_factor, seed=seed)
    described: Dict[str, object] = {
        "scale": scale,
        "edge_factor": edge_factor,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "seed": seed,
        "quick": quick,
    }
    return graph, described


def bench_walks(
    graph: CSRGraph, walks: Optional[int], quick: bool, full_length: int = 16
) -> Tuple[int, int]:
    """``(walk count, walk length)``: 2|V| x ``full_length`` unless the
    caller fixed the count; CI-smoke sized under ``--quick``."""
    if walks is None:
        walks = 600 if quick else 2 * graph.num_vertices
    return walks, 8 if quick else full_length


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, ``inf`` when the denominator is 0."""
    return numerator / denominator if denominator > 0 else float("inf")


def sanitizer_verdict(stats: RunStats) -> Tuple[bool, int]:
    """``(clean, checks)`` of a run's sanitizer summary (dirty if absent)."""
    summary = stats.sanitizer or {}
    return bool(summary.get("clean", False)), summary.get("checks", 0)


def write_results(results: Dict[str, object], path: str) -> None:
    """Write one suite's payload as a ``BENCH_*.json`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


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
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        engine = build_system("subway", graph, "pagerank", platform)
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
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        stats = build_system("subway", graph, "pagerank", platform).run(
            standard_walks(graph)
        )
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
    datasets = list(datasets or DATASETS)
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            runs: Dict[str, Optional[RunStats]] = {}
            runs["thunderrw"] = build_system(
                "thunderrw", graph, algo_name, platform
            ).run(walks)
            if make_algorithm(algo_name).fixed_length:
                runs["flashmob"] = build_system(
                    "flashmob", graph, algo_name, platform
                ).run(walks)
            else:
                runs["flashmob"] = None  # FlashMob: fixed-length only (§IV-B)
            for link in ("pcie3", "pcie4"):
                runs[f"lt-{link}"] = build_system(
                    "lighttraffic", graph, algo_name, platform,
                    interconnect=link,
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
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            subway, lt = (
                build_system(system, graph, algo_name, platform).run(walks)
                for system in ("subway", "lighttraffic")
            )
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
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            nextdoor, lt = (
                build_system(system, graph, algo_name, platform).run(walks)
                for system in ("nextdoor", "lighttraffic")
            )
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
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for kib in partition_kib:
        direct, two_level = (
            build_system(
                "lighttraffic", graph, "pagerank", platform,
                partition_bytes=kib * 1024, reshuffle_mode=mode,
            ).run(walks).time(CAT_RESHUFFLE)
            for mode in (DIRECT_WRITE, TWO_LEVEL)
        )
        rows.append(
            {
                "partition_kib": kib,
                "direct_reshuffle_time": direct,
                "two_level_reshuffle_time": two_level,
                "reduction_pct": 100 * (1 - two_level / max(direct, 1e-12)),
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
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for m_g in pool_partitions:
        for variant, toggles in SCHEDULER_VARIANTS.items():
            stats = build_system(
                "lighttraffic", graph, "pagerank", platform,
                graph_pool_partitions=m_g, copy_mode=COPY_EXPLICIT,
                **toggles,
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
    rows = []
    for name in datasets:
        graph = load_dataset(name)
        walks = standard_walks(graph)
        for algo_name in algorithms:
            explicit, zero, adaptive = (
                build_system(
                    "lighttraffic", graph, algo_name, platform,
                    copy_mode=mode,
                ).run(walks).total_time
                for mode in (COPY_EXPLICIT, COPY_ZERO, COPY_ADAPTIVE)
            )
            rows.append(
                {
                    "dataset": name,
                    "algorithm": algo_name,
                    "zero_copy_speedup": explicit / zero,
                    "adaptive_speedup": explicit / adaptive,
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
    graph = load_dataset(dataset)
    # The paper uses 800M total walks and walk length 10 here.
    num_walks = 195_000 if graph.num_vertices * 8 > 195_000 else 4 * graph.num_vertices
    algorithm_factory = lambda: PageRank(length=10)  # noqa: E731
    rows = []
    for m_g in pool_partitions:
        for m_w in walk_pool_sizes:
            stats = build_system(
                "lighttraffic", graph, algorithm_factory, platform,
                graph_pool_partitions=m_g, walk_pool_walks=m_w,
            ).run(num_walks)
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
    graph = load_dataset(dataset)
    num_walks = 195_000  # scaled twin of the paper's 800M walks
    algorithm_factory = lambda: PageRank(length=10)  # noqa: E731
    rows = []
    for m_g in pool_partitions:
        for rounds in rounds_cases:
            m_w = math.ceil(num_walks / rounds)
            pools = dict(graph_pool_partitions=m_g, walk_pool_walks=m_w)
            lt = build_system(
                "lighttraffic", graph, algorithm_factory, platform, **pools
            ).run(num_walks)
            mr = build_system(
                "multiround", graph, algorithm_factory, platform,
                rounds=rounds, **pools,
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
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for kib in partition_kib:
        stats = build_system(
            "lighttraffic", graph, "pagerank", platform,
            partition_bytes=kib * 1024,
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
            stats = build_system(
                "lighttraffic", graph,
                lambda: PageRank(length=walk_length), platform,
                graph_pool_partitions=max(2, pool_bytes // platform.partition_bytes),
                walk_pool_walks=max(2048, pool_bytes // s_w),
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
    graph = load_dataset(dataset)
    walks = standard_walks(graph)

    rows = []
    for system, spec in SYSTEMS.items():
        if "bus" not in spec.supports:
            continue
        stats = build_system(system, graph, algorithm, platform).run(walks)
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


# ----------------------------------------------------------------------
# Experiments — the one registry behind `repro experiment` / `repro report`
# ----------------------------------------------------------------------
#: name -> (runner, short description), in report order.  Adding an
#: experiment is one row here: ``cli.EXPERIMENTS`` and
#: :func:`repro.bench.report.experiment_registry` are views of it.
EXPERIMENTS: Dict[str, Tuple[Callable[..., List[dict]], str]] = {
    "table2": (table2_dataset_stats, "dataset statistics"),
    "fig3": (fig3_active_ratio, "Subway active ratios"),
    "table1": (table1_subway_breakdown, "Subway breakdown"),
    "fig9": (fig9_cpu_comparison, "vs CPU systems"),
    "fig10": (fig10_subway_comparison, "vs Subway"),
    "fig11": (fig11_nextdoor, "vs NextDoor"),
    "fig12": (fig12_reshuffle, "reshuffle two-level vs direct"),
    "fig13": (fig13_pipeline, "pipeline/scheduling ablation"),
    "table3": (table3_scheduling, "scheduling impact"),
    "fig14": (fig14_adaptive, "adaptive zero copy"),
    "fig15": (fig15_memory_size, "memory pool sizes"),
    "fig16": (fig16_multiround, "multi-round baseline"),
    "fig17": (fig17_partition_size, "partition size"),
    "fig18": (fig18_scalability, "walk-density scalability"),
    "metrics": (metrics_observatory, "per-system event-bus metrics"),
}

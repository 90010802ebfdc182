"""Experiment runners — one function per paper table/figure, ablation or
subsystem (samplers, devices, elastic, backends, serve).

Each runner returns a list of flat row dicts, and :data:`CLAIMS` checks
the paper's shape (or, for a subsystem, its DESIGN.md claim) on them.
The paper's claims hold at full scale: the datasets shrink under
``REPRO_SCALE`` < 1 and runs get faster, but 9-10 of those 18 claims then
fail, so ``repro report`` exits 1.  The subsystem runners build their own
rmat / Erdos-Renyi workloads and ignore ``REPRO_SCALE``.

The module also holds the front-end tables everything else is a view of:
:data:`SYSTEMS` (name -> how to build that engine on a
:class:`~repro.bench.workloads.SimPlatform`, and what it supports),
:data:`EXPERIMENTS` (name -> runner + description) and :data:`CLAIMS`
(name -> section + check), both at the end of the module.
"""

from __future__ import annotations

import math
import time
from typing import (
    Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from repro.algorithms import PageRank, PersonalizedPageRank, UniformSampling
from repro.algorithms.base import RandomWalkAlgorithm
from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.sampling import PartitionAliasSampler
from repro.algorithms.transitions import (
    SAMPLER_ALIAS,
    SAMPLER_INVERSE,
    SAMPLER_REJECTION,
    SAMPLER_UNIFORM,
    build_alias_tables,
    make_sampler,
)
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
from repro.baselines.inmemory_cpu import whole_graph_partition
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
    FailureSchedule,
)
from repro.core.engine import LightTrafficEngine
from repro.core.prng import seeded_rng
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
from repro.gpu.cluster import ClusterDeviceSpec
from repro.gpu.kernels import (
    DIRECT_WRITE,
    TWO_LEVEL,
    KernelModel,
    fit_time_scale,
    relative_errors,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.partition import partition_by_range
from repro.core.theory import transfer_bound_throughput
from repro.serve import (
    ARRIVAL_CLOSED,
    ARRIVAL_OPEN,
    QUERY_KINDS,
    ServeSession,
    default_workload,
    make_vertex_types,
)
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
# Engine config of the subsystem experiments (and ``repro serve``)
# ----------------------------------------------------------------------
def bench_engine_config(
    seed: int, quick: bool, *, devices: int = 1, **overrides: object
) -> EngineConfig:
    """Shared engine config of the ``devices``, ``elastic``, ``backends``
    and ``serve`` experiments, ``repro serve`` and the perf workloads.

    Partitions are kept small relative to the benchmark graphs so every
    shard owns several (migration, failure reassignment and weighted
    splits all need partitions to move) and pools are sized below the
    workload so the eviction and preemptive paths stay exercised.
    Experiment-specific knobs (elastic specs, execution backend, ...) come
    in as ``overrides`` and may also replace any of the defaults.
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
# Ablations beyond the paper's figures
# ----------------------------------------------------------------------
def ablation_batch_size(
    batch_sizes: Sequence[int] = (32, 64, 128, 512, 2048),
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    """Walk-batch size around the standard setting (§III-B: 16x cores).

    The batch is the transfer/compute granularity of the walk index.  Too
    small and fixed per-batch costs dominate; too large and frontiers
    never complete, which starves preemptive scheduling (no ready batches
    while loads are in flight).
    """
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for batch in batch_sizes:
        stats = build_system(
            "lighttraffic", graph, "pagerank", platform, batch_walks=batch
        ).run(walks)
        rows.append(
            {
                "batch_walks": batch,
                "total_time": stats.total_time,
                "iterations": stats.iterations,
                "explicit_copies": stats.explicit_copies,
                "hit_rate": stats.graph_pool_hit_rate,
            }
        )
    return rows


def ablation_interconnect(
    links: Sequence[str] = ("pcie3", "pcie4", "nvlink2"),
    datasets: Sequence[str] = ("fs-sim", "uk-sim"),
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    """Interconnect generations up to NVLink 2.0 (§IV-B outlook).

    LightTraffic is transfer-bound on graphs beyond GPU memory, so
    throughput climbs with link bandwidth there, sublinearly (scheduling
    already hides part of the traffic); a graph that fits barely notices.
    """
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        walks = standard_walks(graph)
        for link in links:
            stats = build_system(
                "lighttraffic", graph, "pagerank", platform,
                interconnect=link,
            ).run(walks)
            rows.append(
                {
                    "dataset": dataset,
                    "link": link,
                    "throughput": stats.throughput,
                    "total_time": stats.total_time,
                }
            )
    return rows


def ablation_eviction(
    policies: Sequence[str] = ("fifo", "lru", "min_walks"),
    pool_partitions: int = 100,
    dataset: str = "uk-sim",
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    """Graph-pool eviction policy: the paper's fewest-walks victim
    (§III-D) against FIFO and LRU, under all-explicit copies."""
    graph = load_dataset(dataset)
    walks = standard_walks(graph)
    rows = []
    for policy in policies:
        stats = build_system(
            "lighttraffic", graph, "pagerank", platform,
            graph_pool_partitions=pool_partitions, copy_mode=COPY_EXPLICIT,
            eviction_policy=policy,
        ).run(walks)
        rows.append(
            {
                "policy": policy,
                "total_time": stats.total_time,
                "explicit_copies": stats.explicit_copies,
                "hit_rate": stats.graph_pool_hit_rate,
            }
        )
    return rows


def ablation_uvm(
    datasets: Sequence[str] = ("fs-sim", "uk-sim"),
    platform: Optional[SimPlatform] = None,
) -> List[dict]:
    """Unified virtual memory (§V related work) vs explicit transfers.

    Fault-driven page migration cannot be hidden and moves whole pages
    for sparse accesses: UVM should lose clearly when the graph exceeds
    device memory (the page cache thrashes) and be close when it fits.
    """
    platform = platform or default_platform()
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset)
        walks = standard_walks(graph)
        lt = build_system("lighttraffic", graph, "pagerank", platform).run(
            walks
        )
        uvm_engine = build_system(
            "uvm", graph, "pagerank", platform, page_bytes=4096
        )
        uvm = uvm_engine.run(walks)
        rows.append(
            {
                "dataset": dataset,
                "fits_gpu": graph.csr_bytes <= platform.gpu_memory_bytes,
                "uvm_time": uvm.total_time,
                "lt_time": lt.total_time,
                "uvm_fault_rate": uvm_engine.fault_rate,
                "lt_speedup": uvm.total_time / lt.total_time,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Subsystems beyond the paper: samplers, devices, elastic, backends, serve
#
# Each runner takes its workload size as keyword arguments; ``quick``
# shrinks it for tier-1.  ``repro experiment`` / ``repro report`` run the
# defaults.  Cells ending in ``wall_s`` are host wall-clock (best of the
# repeats); every other time is simulated.
# ----------------------------------------------------------------------
def _rmat_workload(
    scale: int, edge_factor: int, walks: Optional[int], seed: int,
    quick: bool, full_length: int = 16,
) -> Tuple[CSRGraph, int, int]:
    """``(graph, walk count, walk length)``: rmat capped at scale 10 and
    600 walks x 8 under ``quick``, else 2|V| walks x ``full_length``
    unless the count is given."""
    graph = rmat(
        scale=min(scale, 10) if quick else scale, edge_factor=edge_factor,
        seed=seed,
    )
    if walks is None:
        walks = 600 if quick else 2 * graph.num_vertices
    return graph, walks, 8 if quick else full_length


def _sanitizer_cells(stats: RunStats) -> Dict[str, object]:
    summary = stats.sanitizer or {}
    return {
        "sanitizer_clean": bool(summary.get("clean", False)),
        "sanitizer_checks": summary.get("checks", 0),
    }


def _device_time_cells(stats: RunStats) -> Dict[str, Optional[float]]:
    """Per-device makespans of a run on up to 4 devices (``None``: no
    such device; a one-device run reports none)."""
    times = stats.device_times or {}
    return {f"d{device}_time": times.get(str(device)) for device in range(4)}


def _best_wall_s(fn: Callable[[], object], repeats: int) -> float:
    """Wall-clock seconds of ``fn``, best of ``repeats`` (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _weighted_er_graph(vertices: int, edge_factor: int, seed: int) -> CSRGraph:
    """Erdos-Renyi with integer-valued weights in [1, 32), so per-vertex
    weight sums are exact in the loop and the vectorized alias build."""
    graph = erdos_renyi(vertices, edge_factor * vertices, seed=seed)
    weights = seeded_rng(seed + 1).integers(1, 32, size=graph.num_edges)
    return CSRGraph(
        graph.offsets, graph.targets, weights.astype(np.float64),
        name=f"bench-er-{vertices}",
    )


def sampler_kernels(
    vertices: int = 10_000,
    edge_factor: int = 8,
    seed: int = 7,
    quick: bool = False,
) -> List[dict]:
    """Vectorized transition sampling against its loop references.

    On a weighted Erdos-Renyi graph: the per-vertex Vose alias build and
    node2vec's ``has_edge`` acceptance loop are timed against their
    vectorized replacements (``alias_build``, ``node2vec_step``); each
    sampler's steps per wall second is measured per batch size
    (``sample:NAME``); and each weighted sampler's next-hop distribution
    at the highest-degree vertex is compared with the true weights
    (``parity:NAME``, total-variation distance against ``tv_bound``).
    """
    if quick:
        repeats, step_batch, batch_sizes = 2, 2_000, (1_000, 8_000)
        draws, tv_bound = 20_000, 0.08
    else:
        repeats, step_batch, batch_sizes = 5, 16_000, (1_000, 8_000, 64_000)
        draws, tv_bound = 200_000, 0.03
    graph = _weighted_er_graph(vertices, edge_factor, seed)
    samplers = (
        SAMPLER_UNIFORM, SAMPLER_ALIAS, SAMPLER_INVERSE, SAMPLER_REJECTION
    )
    blank = dict.fromkeys((
        "batch", "loop_wall_s", "vector_wall_s", "speedup",
        "steps_per_wall_s", "vertex", "degree", "draws", "dead_ends",
        "tv_distance", "tv_bound",
    ))

    def row(case: str, **cells: object) -> dict:
        return {"case": case, **blank, **cells, "quick": quick}

    offsets, weights = graph.offsets, graph.weights
    loop_s = _best_wall_s(
        lambda: PartitionAliasSampler(offsets, weights), repeats
    )
    vector_s = _best_wall_s(
        lambda: build_alias_tables(offsets, weights), repeats
    )
    rows = [row(
        "alias_build", loop_wall_s=loop_s, vector_wall_s=vector_s,
        speedup=loop_s / vector_s,
    )]

    # One node2vec batch step, mid-walk (a populated prev table exercises
    # the full acceptance test, not the unbiased first hop); both variants
    # face the same prev table and so the same rejection work.
    partition = whole_graph_partition(graph)
    lanes = seeded_rng(11).integers(0, graph.num_vertices, size=step_batch)
    steps = np.ones(step_batch, dtype=np.int64)
    ids = np.arange(step_batch, dtype=np.int64)

    def node2vec_step(use_loop: bool) -> Callable[[], object]:
        algo = Node2Vec(length=80, return_param=2.0, inout_param=0.5)
        algo.start_vertices(graph, step_batch, seeded_rng(0))
        if use_loop:
            setattr(algo, "_acceptance", algo._acceptance_loop)
        algo._prev[:] = seeded_rng(13).integers(
            0, graph.num_vertices, size=step_batch
        )
        return lambda: algo.step_once(
            lanes, steps, ids, partition, seeded_rng(5), graph
        )

    loop_s = _best_wall_s(node2vec_step(use_loop=True), repeats)
    vector_s = _best_wall_s(node2vec_step(use_loop=False), repeats)
    rows.append(row(
        "node2vec_step", batch=step_batch, loop_wall_s=loop_s,
        vector_wall_s=vector_s, speedup=loop_s / vector_s,
    ))

    partition = whole_graph_partition(graph)
    for name in samplers:
        sampler = make_sampler(name)
        sampler.prepare(partition)
        for batch in batch_sizes:
            rng = seeded_rng(17)
            lanes = rng.integers(0, graph.num_vertices, size=batch)
            seconds = _best_wall_s(
                lambda: sampler.sample(partition, lanes, rng), repeats
            )
            rows.append(row(
                f"sample:{name}", batch=batch, vector_wall_s=seconds,
                steps_per_wall_s=batch / seconds if seconds > 0 else 0.0,
            ))

    # Next-hop frequencies at the highest-degree vertex.  Multi-edges to
    # one neighbour are indistinguishable in the picked vertex, so the
    # comparison is per distinct neighbour.
    partition = whole_graph_partition(graph)
    v = int(np.argmax(np.diff(offsets)))
    lo, hi = int(offsets[v]), int(offsets[v + 1])
    uniq, inverse = np.unique(graph.targets[lo:hi], return_inverse=True)
    expected = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(expected, inverse, weights[lo:hi] / weights[lo:hi].sum())
    for name in samplers:
        if name == SAMPLER_UNIFORM:
            continue  # uniform ignores weights by design
        sampler = make_sampler(name)
        sampler.prepare(partition)
        picks, dead = sampler.sample(
            partition, np.full(draws, v, dtype=np.int64), seeded_rng(23)
        )
        counts = np.bincount(np.searchsorted(uniq, picks), minlength=uniq.size)
        total = counts.sum()
        tv = (
            float(0.5 * np.abs(counts / total - expected).sum())
            if total else 1.0
        )
        rows.append(row(
            f"parity:{name}", vertex=v, degree=hi - lo, draws=draws,
            dead_ends=int(dead.sum()), tv_distance=tv, tv_bound=tv_bound,
        ))
    return rows


def device_scaling(
    scale: int = 12,
    edge_factor: int = 8,
    walks: Optional[int] = None,
    seed: int = 7,
    quick: bool = False,
) -> List[dict]:
    """One seeded sanitized PageRank run sharded over 1, 2 and 4 devices
    with P2P walk migration; ``speedup`` is over one device."""
    graph, walks, length = _rmat_workload(
        scale, edge_factor, walks, seed, quick
    )
    rows: List[dict] = []
    for devices in (1, 2, 4):
        config = bench_engine_config(seed, quick, devices=devices)
        stats = LightTrafficEngine(
            graph, PageRank(length=length), config
        ).run(walks)
        base = rows[0]["total_time"] if rows else stats.total_time
        rows.append({
            "devices": devices,
            "total_time": stats.total_time,
            "speedup": base / stats.total_time,
            "iterations": stats.iterations,
            "walks_migrated": stats.walks_migrated,
            **_device_time_cells(stats),
            **_sanitizer_cells(stats),
        })
    return rows


def elastic_cluster(
    scale: int = 12,
    edge_factor: int = 8,
    walks: Optional[int] = None,
    seed: int = 7,
    quick: bool = False,
) -> List[dict]:
    """A 4-device cluster under skew and under a device failure.

    ``hetero_aware`` / ``hetero_uniform``: per-device compute and link
    capability 2x/1x/1x/0.5x, with the byte-balanced partition assignment
    weighted by capability or not (``hetero_speedup`` = uniform / aware
    makespan).  ``baseline`` / ``failure``: homogeneous, then device 1
    failing a third of the way through the baseline's iterations
    (``failure_slowdown`` = failure / baseline makespan).  Walks are
    fixed-length, so ``total_steps == expected_steps`` iff no walk was
    lost or duplicated.
    """
    graph, walks, length = _rmat_workload(
        scale, edge_factor, walks, seed, quick
    )
    skewed = tuple(
        ClusterDeviceSpec(
            name=f"gpu{idx}", compute_scale=rate, link_scale=rate
        )
        for idx, rate in enumerate((2.0, 1.0, 1.0, 0.5))
    )

    def run(**elastic_knobs: object) -> RunStats:
        config = bench_engine_config(seed, quick, devices=4, **elastic_knobs)
        return LightTrafficEngine(
            graph, UniformSampling(length=length), config
        ).run(walks)

    aware = run(device_specs=skewed, heterogeneous_assignment=True)
    uniform = run(device_specs=skewed, heterogeneous_assignment=False)
    baseline = run()
    failure = run(failure_schedule=FailureSchedule.single(
        1, max(2, baseline.iterations // 3)
    ))
    rows: List[dict] = []
    for name, stats in (
        ("hetero_aware", aware), ("hetero_uniform", uniform),
        ("baseline", baseline), ("failure", failure),
    ):
        rows.append({
            "run": name,
            "total_time": stats.total_time,
            "iterations": stats.iterations,
            "total_steps": stats.total_steps,
            "expected_steps": walks * length,
            "walks_migrated": stats.walks_migrated,
            "device_failures": stats.device_failures,
            "walks_recovered": stats.walks_recovered,
            "rebalances": stats.rebalances,
            "walks_rebalanced": stats.walks_rebalanced,
            **_device_time_cells(stats),
            **_sanitizer_cells(stats),
            "hetero_speedup": None,
            "failure_slowdown": None,
        })
    rows[0]["hetero_speedup"] = uniform.total_time / aware.total_time
    rows[3]["failure_slowdown"] = failure.total_time / baseline.total_time
    return rows


def _kernel_model_fit(
    stats: RunStats, model: KernelModel
) -> Dict[str, Optional[float]]:
    """One least-squares scale fitting the analytic per-kernel times to
    the measured ones, and the residual relative errors."""
    kernels = (stats.measured or {}).get("kernels") or []
    predicted = [
        float(model.update_time(
            int(record["total_steps"]), int(record["longest_run"]),
            int(record["partition_nbytes"]), str(record["sampler"]),
        ))
        for record in kernels
    ]
    observed = [float(record["seconds"]) for record in kernels]
    scale = fit_time_scale(predicted, observed)
    errors = relative_errors(predicted, observed, scale)
    return {
        "fit_kernels": len(kernels),
        "time_scale": scale,
        "mean_relative_error": sum(errors) / len(errors) if errors else None,
        "max_relative_error": max(errors) if errors else None,
    }


def _wall_total(stats: RunStats) -> float:
    measured: Any = stats.measured
    return measured["walk_update_seconds"] + measured["setup_seconds"]


def execution_backends(
    scale: int = 13,
    edge_factor: int = 8,
    walks: Optional[int] = None,
    seed: int = 7,
    quick: bool = False,
) -> List[dict]:
    """Each execution backend on one seeded workload, counter RNG.

    A real backend must reproduce the ``simulated`` run's facts exactly.
    ``overall_speedup`` is the simulated interpreter's walk-update wall
    time over the backend's walk-update plus setup (worker forks,
    trajectory precompute, JIT warm-up) wall time; ``kernel_speedup``
    leaves setup out.  Each backend's run is the fastest of 3 (1 under
    ``quick``).  The analytic kernel model is fitted to the measured
    per-kernel times with one scale; its residual errors judge shape.
    """
    # Imported here: the probe for the optional numba package stays off
    # the import of this module, which every CLI command and perf
    # workload loads.
    from repro.backends.numba_kernels import NUMBA_AVAILABLE

    graph, walks, length = _rmat_workload(
        scale, edge_factor, walks, seed, quick, full_length=32
    )
    rows: List[dict] = []
    for name in ("simulated", "multiprocess", "numba"):
        row: dict = {"backend": name, "available": False}
        if name == "numba" and not NUMBA_AVAILABLE:
            rows.append(row)
            continue
        # Larger batches than the other experiments at full size: this one
        # compares kernel throughput, not per-call dispatch; the walk pool
        # stays below the workload so eviction is still exercised.
        config = bench_engine_config(
            seed, quick, backend=name, rng_mode="counter",
            batch_walks=64 if quick else 4096,
            walk_pool_walks=512 if quick else 8192,
        )
        # Run facts repeat exactly; only the wall-clock varies.
        best = min(
            (
                LightTrafficEngine(
                    graph, UniformSampling(length=length), config
                ).run(walks)
                for _ in range(1 if quick else 3)
            ),
            key=_wall_total,
        )
        measured: Any = best.measured
        model = KernelModel(config.device, config.calibration)
        row.update(
            available=True,
            total_steps=best.total_steps,
            iterations=best.iterations,
            total_time=best.total_time,
            walks_migrated=best.walks_migrated,
            sanitizer_clean=_sanitizer_cells(best)["sanitizer_clean"],
            num_kernels=measured["num_kernels"],
            setup_wall_s=measured["setup_seconds"],
            walk_update_wall_s=measured["walk_update_seconds"],
            group_wall_s=measured["group_seconds"],
            **_kernel_model_fit(best, model),
        )
        rows.append(row)
    base_update = rows[0]["walk_update_wall_s"]
    for row in rows:
        available = row["available"] and row["backend"] != "simulated"
        row["kernel_speedup"] = (
            base_update / row["walk_update_wall_s"] if available else None
        )
        row["overall_speedup"] = (
            base_update / (row["walk_update_wall_s"] + row["setup_wall_s"])
            if available else None
        )
        row["quick"] = quick
    return rows


def serve_latency(
    scale: int = 10,
    edge_factor: int = 8,
    queries: Optional[int] = None,
    seed: int = 7,
    quick: bool = False,
) -> List[dict]:
    """The mixed query workload served closed-loop and open-loop.

    Closed loop: each of ``workers`` clients submits its next query when
    the last completes.  Open loop: seeded Poisson arrivals at 1.5x the
    same worker count's closed-loop completion rate, so the queue builds
    by construction.  Both at 2 and 8 workers, under the
    ``request-conservation`` sanitizer, every per-batch engine run
    sanitized too.  Latencies and rates are simulated.
    """
    graph = rmat(
        scale=min(scale, 8) if quick else scale, edge_factor=edge_factor,
        seed=seed,
    )
    config = bench_engine_config(seed, quick)
    vertex_types = make_vertex_types(graph, seed)
    if queries is None:
        queries = 12 if quick else 32
    workload = default_workload(
        graph, kinds=QUERY_KINDS, queries=queries, seed=seed
    )
    rows: List[dict] = []
    for workers in (2, 8):
        rate: Optional[float] = None
        for arrival in (ARRIVAL_CLOSED, ARRIVAL_OPEN):
            report = ServeSession(
                graph, config, workers=workers, arrival=arrival,
                arrival_rate=rate, vertex_types=vertex_types,
            ).run(workload)
            summary: Any = report.summary_dict()
            rows.append({
                "run": f"{arrival}-w{workers}",
                "workers": workers,
                "arrival": arrival,
                "arrival_rate": rate,
                "queries": len(workload),
                "queries_admitted": summary["queries_admitted"],
                "queries_completed": summary["queries_completed"],
                "walks_served": summary["walks_served"],
                "batches": summary["batches"],
                "coalesced_queries": summary["coalesced_queries"],
                "engine_iterations": summary["engine_iterations"],
                "engine_steps": summary["engine_steps"],
                "makespan": summary["makespan"],
                **{
                    f"{series.split('_')[0]}_{p}": value
                    for series, by_p in summary["latency"].items()
                    for p, value in by_p.items()
                },
                **summary["throughput"],
                "sanitizer_clean": summary["sanitizer_clean"],
                "engine_sanitizers_clean": summary["engine_sanitizers_clean"],
            })
            rate = max(summary["throughput"]["queries_per_second"] * 1.5, 1.0)
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
#: experiment is one row here: ``repro experiment`` reads it, and
#: :func:`repro.bench.report.experiment_registry` is a view of it.
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
    "ablation_batch_size": (ablation_batch_size, "walk-batch size"),
    "ablation_interconnect": (ablation_interconnect, "interconnect bandwidth"),
    "ablation_eviction": (ablation_eviction, "graph-pool eviction policy"),
    "ablation_uvm": (ablation_uvm, "UVM page faulting vs explicit transfers"),
    "samplers": (sampler_kernels, "vectorized vs loop transition sampling"),
    "devices": (device_scaling, "multi-device scaling"),
    "elastic": (elastic_cluster, "skewed and failing devices"),
    "backends": (execution_backends, "execution backends, wall-clock"),
    "serve": (serve_latency, "closed/open-loop walk serving"),
    "metrics": (metrics_observatory, "per-system event-bus metrics"),
}


# ----------------------------------------------------------------------
# Claims — the paper's shape, checked on an experiment's rows
# ----------------------------------------------------------------------
def _failed(*claims: Tuple[bool, str]) -> List[str]:
    """The message of every ``(holds, claim)`` pair that does not hold.

    A message names the claim and the cell; the values are in the rows
    printed above the verdict, so only derived ones are repeated.
    """
    return [claim for holds, claim in claims if not holds]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _check_table2(rows: List[dict]) -> List[str]:
    if len(rows) != 7:
        return ["7 datasets"]
    by_name = {r["dataset"]: r for r in rows}
    # Size ordering mirrors the paper: CW has the most vertices, LJ is the
    # smallest graph; YH carries the paper's |V|-degree hub.
    return _failed(
        (by_name["cw-sim"]["V"] == max(r["V"] for r in rows),
         "cw-sim has the most vertices"),
        (by_name["lj-sim"]["csr_mb"] == min(r["csr_mb"] for r in rows),
         "lj-sim has the smallest CSR"),
        (by_name["yh-sim"]["d_max"] == by_name["yh-sim"]["V"] - 1,
         "yh-sim hub degree == |V| - 1"),
    )


def _check_fig3(rows: List[dict]) -> List[str]:
    uk_mid = [
        r for r in rows
        if r["dataset"] == "uk-sim" and 10 <= r["iteration"] <= 60
    ]
    if not uk_mid:
        return ["expected mid-run iterations for uk-sim"]
    # Most of the loaded active graph is useless for updating walks.
    active = _mean([r["active_edge_pct"] for r in uk_mid])
    used = _mean([r["used_edge_pct"] for r in uk_mid])
    return _failed(
        (active > 40.0, f"uk-sim mean active edges {active:.1f}% > 40%"),
        (used < 15.0, f"uk-sim mean used edges {used:.2f}% < 15%"),
        (used < active / 4, "uk-sim used edges < active edges / 4"),
    )


def _check_table1(rows: List[dict]) -> List[str]:
    # Subgraph creation dominates, transmission second, compute smallest.
    return [
        f"{r['dataset']}: {claim}"
        for r in rows
        for claim in _failed(
            (r["subgraph_pct"] > r["transmission_pct"] > r["computation_pct"],
             "subgraph > transmission > computation"),
            (r["subgraph_pct"] > 40.0, "subgraph > 40%"),
            (r["computation_pct"] < 20.0, "computation < 20%"),
        )
    ]


def _check_fig9(rows: List[dict]) -> List[str]:
    speedups = fig9_speedups(rows)
    ppr_fm = [
        r for r in rows
        if r["algorithm"] == "ppr" and r["system"] == "flashmob"
    ]
    fixed = [s for s in speedups if s["algorithm"] in ("uniform", "pagerank")]
    fm = [s["speedup"] for s in fixed if s["vs"] == "flashmob"]
    trw = [s["speedup"] for s in fixed if s["vs"] == "thunderrw"]
    ppr = [s["speedup"] for s in speedups if s["algorithm"] == "ppr"]
    if not (fm and trw and ppr):
        return ["fixed-length speedups over both CPU systems, and PPR ones"]
    lt = {
        (r["dataset"], r["algorithm"], r["system"]): r["throughput"]
        for r in rows if r["system"].startswith("lt-")
    }
    return _failed(
        # FlashMob has no PPR numbers (fixed-length only, as in the paper).
        (bool(ppr_fm) and all(not r["available"] for r in ppr_fm),
         "FlashMob has no PPR cells"),
        # LightTraffic (PCIe4) beats both CPU systems on every fixed-length
        # cell, in windows comparable to the paper's 1.7-5.0x / 1.4-12.8x.
        (all(s > 1.0 for s in fm + trw),
         f"LT wins every fixed-length cell (min {min(fm + trw):.2f}x)"),
        (1.2 < min(fm) and max(fm) < 10.0,
         f"vs FlashMob {min(fm):.2f}-{max(fm):.2f}x within (1.2, 10)x"),
        (1.2 < min(trw) and max(trw) < 16.0,
         f"vs ThunderRW {min(trw):.2f}-{max(trw):.2f}x within (1.2, 16)x"),
        # PPR: the benefit shrinks (variable lengths) but LT still wins on
        # average (paper: ~2.0x average over the CPU systems).
        (_mean(ppr) > 1.0, f"PPR mean speedup {_mean(ppr):.2f}x > 1x"),
        (min(ppr) > 0.5, f"PPR min speedup {min(ppr):.2f}x > 0.5x"),
        # PCIe4 never loses to PCIe3 (higher bandwidth).
        *(
            (lt[(name, algo, "lt-pcie4")]
             >= lt[(name, algo, "lt-pcie3")] * 0.999,
             f"{name} {algo}: PCIe4 no slower than PCIe3")
            for name, algo, system in lt if system == "lt-pcie3"
        ),
    )


def _check_fig10(rows: List[dict]) -> List[str]:
    # LightTraffic wins by a large factor in total time everywhere.
    return [
        f"{r['dataset']} {r['algorithm']}: {claim}"
        for r in rows
        for claim in _failed(
            (r["total_speedup"] > 3.0, "total speedup > 3x"),
            (r["transmission_speedup"] > 1.0, "transmission speedup > 1x"),
        )
    ] + _failed(
        (max(r["total_speedup"] for r in rows) > 10.0,
         "best total speedup > 10x"),
    )


def _check_fig11(rows: List[dict]) -> List[str]:
    # Slightly faster: wins everywhere, but not by an order of magnitude.
    return _failed(*(
        (1.0 < r["speedup"] < 4.0,
         f"{r['dataset']} {r['algorithm']}: speedup within (1, 4)x")
        for r in rows
    ))


def _check_fig12(rows: List[dict]) -> List[str]:
    two_level = [r["two_level_reshuffle_time"] for r in rows]
    return _failed(
        *(
            (r["two_level_reshuffle_time"] < r["direct_reshuffle_time"],
             f"{r['partition_kib']} KiB: two-level faster than direct write")
            for r in rows
        ),
        # Up to ~73% reduction at small partitions (many partitions).
        (max(r["reduction_pct"] for r in rows) > 55.0,
         "best reduction > 55%"),
        (two_level[0] > two_level[-1],
         "two-level reshuffle time decreases with larger partitions"),
    )


def _check_fig13(rows: List[dict]) -> List[str]:
    by = {(r["cached_partitions"], r["variant"]): r["total_time"] for r in rows}
    pools = sorted({r["cached_partitions"] for r in rows})
    failures: List[str] = []
    for m_g in pools:
        base, ps, ss, both = (
            by[(m_g, variant)] for variant in ("baseline", "ps", "ss", "ps+ss")
        )
        failures += [f"m_g={m_g}: {claim}" for claim in _failed(
            (ps < base and ss < base, "PS and SS each faster than baseline"),
            (both <= min(ps, ss) * 1.10,
             "PS+SS within 1.1x of the better of PS and SS"),
        )]
    first, last = pools[0], pools[-1]
    base_times = [by[(m_g, "baseline")] for m_g in pools]
    return failures + _failed(
        # The combined variant benefits from caching more partitions...
        (by[(last, "ps+ss")] < by[(first, "ps+ss")],
         f"PS+SS faster at m_g={last} than at m_g={first}"),
        # ...the basic pipeline barely does (it ignores cached data).
        (max(base_times) / min(base_times) < 1.5,
         "baseline times within 1.5x across m_g"),
    )


def _check_table3(rows: List[dict]) -> List[str]:
    by = {r["variant"]: r for r in rows}
    base, ps, ss = by["baseline"], by["ps"], by["ss"]
    return _failed(
        # Preemptive scheduling reduces iterations (it eliminates some).
        (ps["iterations"] < 0.75 * base["iterations"],
         "PS iterations < 0.75x baseline"),
        # Selective scheduling barely changes iterations but halves copies.
        (ss["iterations"] > 0.9 * base["iterations"],
         "SS iterations > 0.9x baseline"),
        (ss["explicit_copies"] < 0.7 * base["explicit_copies"],
         "SS explicit copies < 0.7x baseline"),
        (ss["hit_rate_pct"] > 25.0, "SS hit rate > 25%"),
        # Combining both is the best on copies.
        (by["ps+ss"]["explicit_copies"]
         == min(r["explicit_copies"] for r in rows),
         "PS+SS makes the fewest explicit copies"),
    )


def _check_fig14(rows: List[dict]) -> List[str]:
    ppr = [r["adaptive_speedup"] for r in rows if r["algorithm"] == "ppr"]
    pr = [r["adaptive_speedup"] for r in rows if r["algorithm"] == "pagerank"]
    # Adaptive never loses to explicit-only, and beats (or matches)
    # zero-copy-only by balancing the trade-off.
    return [
        f"{r['dataset']} {r['algorithm']}: {claim}"
        for r in rows
        for claim in _failed(
            (r["adaptive_speedup"] >= 0.97, "adaptive >= 0.97x explicit"),
            (r["adaptive_speedup"] >= r["zero_copy_speedup"] * 0.97,
             "adaptive >= 0.97x zero copy"),
        )
    ] + _failed(
        # The benefit exists and is larger for PPR than PageRank on average.
        (max(ppr) > 1.1, "best PPR adaptive speedup > 1.1x"),
        (_mean(ppr) >= _mean(pr) * 0.95,
         f"PPR mean speedup {_mean(ppr):.2f}x >= 0.95x PageRank's "
         f"{_mean(pr):.2f}x"),
    )


def _check_fig15(rows: List[dict]) -> List[str]:
    by = {(r["cached_partitions"], r["cached_walks"]): r for r in rows}
    walks = sorted({r["cached_walks"] for r in rows})
    # More cached walks => less (or equal) total time, as in the paper's
    # 12.8s -> 7.1s example at 25 cached partitions.
    failures = _failed(*(
        (by[(m_g, walks[-1])]["total_time"]
         <= by[(m_g, walks[0])]["total_time"] * 1.05,
         f"m_g={m_g}: most cached walks within 1.05x of the fewest")
        for m_g in sorted({r["cached_partitions"] for r in rows})
    ))
    for r in rows:
        loading = (
            r["graph_load"] + r["walk_load"] + r["zero_copy"] + r["walk_evict"]
        )
        # Pipeline effectiveness: total is below the serial sum of stages.
        failures += [
            f"m_g={r['cached_partitions']} m_w={r['cached_walks']}: {claim}"
            for claim in _failed(
                (r["total_time"] <= (loading + r["computing"]) * 1.001,
                 "total within the serial sum of stages"),
                (r["total_time"] >= max(loading, r["computing"]) * 0.50,
                 "total at least half the longer stage"),
            )
        ]
    return failures


def _check_fig16(rows: List[dict]) -> List[str]:
    by = {(r["cached_partitions"], r["rounds"]): r["slowdown"] for r in rows}
    return _failed(
        *(
            (r["slowdown"] > 1.0,
             f"m_g={r['cached_partitions']} {r['rounds']} rounds: "
             "slowdown > 1x")
            for r in rows
        ),
        (max(r["slowdown"] for r in rows) > 1.5, "worst slowdown > 1.5x"),
        # More rounds hurts more (at a fixed pool size).
        *(
            (by[(m_g, 8)] >= by[(m_g, 2)] * 0.95,
             f"m_g={m_g}: 8 rounds >= 0.95x the slowdown of 2")
            for m_g in sorted({r["cached_partitions"] for r in rows})
        ),
    )


def _check_fig17(rows: List[dict]) -> List[str]:
    first, *_, last = sorted(rows, key=lambda r: r["partition_kib"])
    totals = [r["computing_total"] for r in rows]
    return _failed(
        # Updating: worse locality with large partitions.
        (last["walk_updating"] > first["walk_updating"] * 0.95,
         "walk updating grows with partition size"),
        # Reshuffling: cheaper with fewer partitions.
        (last["walk_reshuffling"] < first["walk_reshuffling"],
         "walk reshuffling shrinks with partition size"),
        # Not a very sensitive parameter overall (within ~3x end to end).
        (max(totals) / min(totals) < 3.0,
         "computing total within 3x across sizes"),
    )


def _check_fig18(rows: List[dict]) -> List[str]:
    by_dataset: Dict[str, List[dict]] = {}
    for r in rows:
        by_dataset.setdefault(r["dataset"], []).append(r)
    failures: List[str] = []
    for name, series in by_dataset.items():
        series.sort(key=lambda r: r["density"])
        measured = [r["throughput"] for r in series]
        # Monotone: higher walk density => higher throughput.  Tracks
        # theory within an order of magnitude at every point.
        failures += _failed(
            (all(b >= a * 0.8 for a, b in zip(measured, measured[1:])),
             f"{name}: throughput rises with walk density"),
            *(
                (0.1 < r["throughput"] / r["theory_throughput"] < 10.0,
                 f"{name} D={r['density']:.4g}: measured / theory within "
                 "(0.1, 10)")
                for r in series
            ),
        )
    # Graph-size independence: small and large graphs land within ~3x of
    # each other at equal density.
    names = sorted(by_dataset)
    if len(names) == 2:
        small, large = (by_dataset[name] for name in names)
        common = {r["density"] for r in small} & {r["density"] for r in large}
        for d in common:
            at_small = next(r for r in small if r["density"] == d)
            at_large = next(r for r in large if r["density"] == d)
            failures += _failed(
                (1 / 4 < at_small["throughput"] / at_large["throughput"] < 4,
                 f"D={d:.4g}: {names[0]} / {names[1]} throughput within "
                 "(1/4, 4)"),
            )
    return failures


def _check_ablation_batch_size(rows: List[dict]) -> List[str]:
    by = {r["batch_walks"]: r for r in rows}
    best = min(r["total_time"] for r in rows)
    return _failed(
        # Oversized batches starve preemption: fewer cache hits, more copies.
        (by[2048]["hit_rate"] < by[64]["hit_rate"],
         "B=2048 hit rate below B=64's"),
        (by[2048]["explicit_copies"] > by[64]["explicit_copies"],
         "B=2048 makes more copies than B=64"),
        # A mid-range batch is at least as good as the extremes.
        (min(by[64]["total_time"], by[128]["total_time"]) <= best * 1.25,
         "B=64 or B=128 within 1.25x of the best time"),
    )


def _check_ablation_interconnect(rows: List[dict]) -> List[str]:
    by = {(r["dataset"], r["link"]): r["throughput"] for r in rows}
    return _failed(
        # Out-of-memory graph: faster links help substantially...
        (by[("uk-sim", "pcie4")] > 1.3 * by[("uk-sim", "pcie3")],
         "uk-sim: PCIe4 > 1.3x PCIe3 throughput"),
        (by[("uk-sim", "nvlink2")] > by[("uk-sim", "pcie4")],
         "uk-sim: NVLink2 > PCIe4 throughput"),
        # ...while a GPU-resident graph barely notices the link.
        (by[("fs-sim", "pcie4")] < 1.5 * by[("fs-sim", "pcie3")],
         "fs-sim: PCIe4 < 1.5x PCIe3 throughput"),
    )


def _check_ablation_eviction(rows: List[dict]) -> List[str]:
    by = {r["policy"]: r for r in rows}
    # The paper's min-walks policy transfers the least.
    return _failed(
        (by["min_walks"]["explicit_copies"] <= by["fifo"]["explicit_copies"],
         "min-walks copies no more than FIFO's"),
        (by["min_walks"]["total_time"] <= by["fifo"]["total_time"] * 1.05,
         "min-walks time within 1.05x of FIFO's"),
    )


def _check_ablation_uvm(rows: List[dict]) -> List[str]:
    by = {r["dataset"]: r for r in rows}
    uk, fs = by["uk-sim"], by["fs-sim"]
    return _failed(
        # Out-of-memory graph: the UVM page cache thrashes and LT wins.
        (uk["uvm_fault_rate"] > 0.5, "uk-sim UVM fault rate > 50%"),
        (uk["lt_speedup"] > 1.5, "uk-sim LT speedup > 1.5x"),
        # In-memory graph: pages are faulted once then reused.
        (fs["uvm_fault_rate"] < 0.5, "fs-sim UVM fault rate < 50%"),
        (fs["lt_speedup"] < uk["lt_speedup"],
         "fs-sim LT speedup below uk-sim's"),
    )


def _check_samplers(rows: List[dict]) -> List[str]:
    parity = [r for r in rows if r["case"].startswith("parity:")]
    timed = [r for r in rows if r["case"] in ("alias_build", "node2vec_step")]
    if len(parity) != 3 or len(timed) != 2:
        return ["three sampler parity rows and two loop-vs-vector rows"]
    return [
        f"{r['case']}: {claim}"
        for r in parity
        for claim in _failed(
            (r["tv_distance"] <= r["tv_bound"],
             f"next-hop TV distance within {r['tv_bound']}"),
            (r["dead_ends"] == 0, "no dead ends"),
        )
    ] + _failed(*(
        # Wall-clock ratios: quick sizes are too small to be stable.
        (r["quick"] or r["speedup"] >= 5.0,
         f"{r['case']}: vectorized >= 5x the loop ({r['speedup']:.2f}x)")
        for r in timed
    ))


def _check_devices(rows: List[dict]) -> List[str]:
    top = max(rows, key=lambda r: r["devices"])
    return _failed(
        *(
            (r["sanitizer_clean"],
             f"{r['devices']} device(s): sanitizer clean")
            for r in rows
        ),
        (top["speedup"] >= 1.5,
         f"{top['devices']} devices >= 1.5x one device "
         f"({top['speedup']:.2f}x)"),
    )


def _check_elastic(rows: List[dict]) -> List[str]:
    by = {r["run"]: r for r in rows}
    aware, failure = by["hetero_aware"], by["failure"]
    return [
        f"{r['run']}: {claim}"
        for r in rows
        for claim in _failed(
            (r["sanitizer_clean"], "sanitizer clean"),
            (r["total_steps"] == r["expected_steps"], "no walk lost"),
        )
    ] + _failed(
        (failure["device_failures"] == 1 and failure["walks_recovered"] > 0,
         "the failed device's walks are recovered"),
        (aware["hetero_speedup"] >= 1.05,
         "capability-aware assignment >= 1.05x uniform "
         f"({aware['hetero_speedup']:.2f}x)"),
        (failure["failure_slowdown"] <= 2.5,
         f"failure slowdown <= 2.5x ({failure['failure_slowdown']:.2f}x)"),
    )


def _check_backends(rows: List[dict]) -> List[str]:
    base = rows[0]
    real = [r for r in rows[1:] if r["available"]]
    if base["backend"] != "simulated" or not real:
        return ["the simulated baseline and at least one real backend"]
    identity = (
        "total_steps", "iterations", "total_time", "walks_migrated"
    )
    best = max(r["overall_speedup"] for r in real)
    return _failed(
        *(
            (all(r[key] == base[key] for key in identity),
             f"{r['backend']}: run facts identical to simulated")
            for r in real
        ),
        *(
            (r["sanitizer_clean"], f"{r['backend']}: sanitizer clean")
            for r in [base] + real
        ),
        # Wall-clock ratio: quick sizes are too small to be stable.
        (base["quick"] or best >= 3.0,
         f"best real backend >= 3x simulated walk update ({best:.2f}x)"),
    )


def _check_serve(rows: List[dict]) -> List[str]:
    failures = [
        f"{r['run']}: {claim}"
        for r in rows
        for claim in _failed(
            (r["queries_admitted"] == r["queries_completed"] == r["queries"],
             "every query admitted and completed"),
            (r["sanitizer_clean"], "request-conservation sanitizer clean"),
            (r["engine_sanitizers_clean"], "every engine run sanitizer clean"),
            *(
                (r[f"{series}_p50"] <= r[f"{series}_p90"]
                 <= r[f"{series}_p99"], f"{series} p50 <= p90 <= p99")
                for series in ("queue", "service", "total")
            ),
        )
    ]
    return failures + _failed(
        (any(r["coalesced_queries"] for r in rows),
         "some run coalesces queries"),
    )


#: experiment name -> (section, check).  The section is the paper's, or
#: for a subsystem the DESIGN.md one that states its claim.  A check takes
#: the experiment's rows and returns one message per failed claim, so an
#: empty list means the claim holds.  ``repro experiment`` and
#: ``repro report`` both go through :func:`check_claims` and exit 1 on a
#: failed claim; an experiment without a row here (``metrics``) has no
#: verdict.
CLAIMS: Dict[str, Tuple[str, Callable[[List[dict]], List[str]]]] = {
    "table2": ("§IV-A, Table II", _check_table2),
    "fig3": ("§II-B, Fig 3", _check_fig3),
    "table1": ("§II-B, Table I", _check_table1),
    "fig9": ("§IV-B, Fig 9", _check_fig9),
    "fig10": ("§IV-B, Fig 10", _check_fig10),
    "fig11": ("§IV-B, Fig 11", _check_fig11),
    "fig12": ("§IV-C, Fig 12", _check_fig12),
    "fig13": ("§IV-C, Fig 13", _check_fig13),
    "table3": ("§IV-C, Table III", _check_table3),
    "fig14": ("§IV-C, Fig 14", _check_fig14),
    "fig15": ("§IV-D, Fig 15", _check_fig15),
    "fig16": ("§IV-D, Fig 16", _check_fig16),
    "fig17": ("§IV-D, Fig 17", _check_fig17),
    "fig18": ("§IV-D, Fig 18", _check_fig18),
    "ablation_batch_size": ("§III-B", _check_ablation_batch_size),
    "ablation_interconnect": ("§IV-B", _check_ablation_interconnect),
    "ablation_eviction": ("§III-D", _check_ablation_eviction),
    "ablation_uvm": ("§V", _check_ablation_uvm),
    "samplers": ("DESIGN.md §3c", _check_samplers),
    "devices": ("DESIGN.md §3e", _check_devices),
    "elastic": ("DESIGN.md §3g", _check_elastic),
    "backends": ("DESIGN.md §3h", _check_backends),
    "serve": ("DESIGN.md §3i", _check_serve),
}


def check_claims(name: str, rows: List[dict]) -> Optional[List[str]]:
    """The failed claims of experiment ``name`` on ``rows`` (``[]``: all
    hold), or ``None`` when the experiment has no claim row."""
    claim = CLAIMS.get(name)
    return None if claim is None else claim[1](rows)


def claim_verdict(name: str, failures: List[str]) -> str:
    """One line: the experiment's claim holds, or what failed."""
    head = f"claim {name} ({CLAIMS[name][0]}):"
    if not failures:
        return f"{head} holds"
    return f"{head} FAILS: " + "; ".join(failures)

"""The paper's headline claims, checked in seconds.

The full-scale claims are ``repro.bench.harness.CLAIMS``, checked on
every experiment's rows by ``repro report`` (minutes).  Here the cheap
experiments run live through that table (the subsystem ones at their
quick size), each mechanism claim and every subsystem gate is shown to
fail on a hand-built row set that breaks it, and the headline comparisons
run on the smallest registry dataset.
"""

import pytest

from repro.algorithms import PageRank
from repro.bench import harness
from repro.baselines import SubwayConfig, SubwayEngine, ThunderRWEngine
from repro.bench.workloads import (
    default_platform,
    load_dataset,
    standard_config,
    standard_walks,
)
from repro.core.config import COPY_ADAPTIVE, COPY_EXPLICIT, COPY_ZERO
from repro.core.engine import LightTrafficEngine
from repro.core.stats import CAT_RESHUFFLE
from repro.gpu.kernels import DIRECT_WRITE, TWO_LEVEL


@pytest.fixture(scope="module")
def platform():
    return default_platform()


@pytest.fixture(scope="module")
def graph():
    return load_dataset("lj-sim")


def lt_run(graph, platform, **overrides):
    config = standard_config(graph, platform, **overrides)
    algo = PageRank(length=20)
    return LightTrafficEngine(graph, algo, config).run(
        standard_walks(graph)
    )


class TestHeadlineClaims:
    def test_lighttraffic_beats_cpu_baseline(self, graph, platform):
        lt = lt_run(graph, platform, interconnect="pcie4")
        cpu = ThunderRWEngine(
            graph, PageRank(length=20), cpu=platform.cpu
        ).run(standard_walks(graph))
        assert lt.total_time < cpu.total_time

    def test_lighttraffic_beats_subway(self, graph, platform):
        lt = lt_run(graph, platform)
        subway = SubwayEngine(
            graph,
            PageRank(length=20),
            SubwayConfig(
                device=platform.device,
                interconnect=platform.pcie3,
                calibration=platform.calibration,
                gpu_memory_bytes=platform.gpu_memory_bytes,
            ),
        ).run(standard_walks(graph))
        assert subway.total_time > 2 * lt.total_time

    def test_two_level_reshuffle_cheaper(self, graph, platform):
        # Force multiple partitions so reshuffle scatter matters.
        two = lt_run(
            graph, platform, partition_bytes=16 * 1024,
            reshuffle_mode=TWO_LEVEL,
        )
        direct = lt_run(
            graph, platform, partition_bytes=16 * 1024,
            reshuffle_mode=DIRECT_WRITE,
        )
        assert two.time(CAT_RESHUFFLE) < direct.time(CAT_RESHUFFLE)

    def test_scheduling_reduces_copies(self, graph, platform):
        # Constrain the pool so eviction pressure exists on the tiny graph.
        base = dict(
            partition_bytes=16 * 1024,
            graph_pool_partitions=8,
            copy_mode=COPY_EXPLICIT,
        )
        naive = lt_run(
            graph, platform, preemptive=False, selective=False, **base
        )
        full = lt_run(graph, platform, preemptive=True, selective=True, **base)
        assert full.explicit_copies < naive.explicit_copies
        assert full.total_time < naive.total_time

    def test_adaptive_never_loses_to_pure_policies(self, graph, platform):
        times = {}
        for mode in (COPY_EXPLICIT, COPY_ZERO, COPY_ADAPTIVE):
            times[mode] = lt_run(
                graph, platform, partition_bytes=16 * 1024, copy_mode=mode
            ).total_time
        assert times[COPY_ADAPTIVE] <= times[COPY_EXPLICIT] * 1.02
        assert times[COPY_ADAPTIVE] <= times[COPY_ZERO] * 1.02

    def test_pcie4_helps(self, graph, platform):
        pcie3 = lt_run(graph, platform, interconnect="pcie3")
        pcie4 = lt_run(graph, platform, interconnect="pcie4")
        assert pcie4.total_time <= pcie3.total_time * 1.001


class TestClaimsTable:
    """``harness.CLAIMS``: live where cheap, and able to fail."""

    @pytest.mark.parametrize("name", ["table2", "fig3", "table1", "fig11"])
    def test_claim_holds_at_full_scale(self, name, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        runner, _ = harness.EXPERIMENTS[name]
        assert harness.check_claims(name, runner()) == []

    @pytest.mark.parametrize("name", ["devices", "elastic", "serve"])
    def test_subsystem_claim_holds_at_quick_size(self, name):
        runner, _ = harness.EXPERIMENTS[name]
        assert harness.check_claims(name, runner(quick=True)) == []

    @pytest.mark.parametrize("name, rows", [
        ("samplers", lambda: sampler_rows(alias_speedup=4.9, quick=True)),
        ("backends",
         lambda: backend_rows(multiprocess_speedup=2.9, quick=True)),
    ])
    def test_wall_clock_floors_wait_for_full_size(self, name, rows):
        assert harness.check_claims(name, rows()) == []

    def test_every_claim_is_an_experiment(self):
        assert set(harness.CLAIMS) == set(harness.EXPERIMENTS) - {"metrics"}
        assert harness.check_claims("metrics", [{"x": 1}]) is None


def fig12_rows(direct=(10.0, 8.0, 6.0, 5.0)):
    return [
        {"partition_kib": kib, "direct_reshuffle_time": d,
         "two_level_reshuffle_time": t, "reduction_pct": 100 * (1 - t / d)}
        for kib, d, t in zip((32, 64, 128, 256), direct, (3.0, 2.5, 2.0, 1.8))
    ]


def fig13_rows(ps=7.0):
    times = {"baseline": 10.0, "ps": ps, "ss": 8.0, "ps+ss": 6.0}
    return [
        {"cached_partitions": m_g, "variant": variant,
         "total_time": time - m_g / 100}
        for m_g in (25, 50, 75, 100) for variant, time in times.items()
    ]


def table3_rows(ps_iterations=600):
    return [
        {"variant": variant, "iterations": iterations,
         "explicit_copies": copies, "hit_rate_pct": hit}
        for variant, iterations, copies, hit in (
            ("baseline", 1000, 800, 20.0),
            ("ps", ps_iterations, 500, 35.0),
            ("ss", 950, 400, 60.0),
            ("ps+ss", 580, 250, 62.0),
        )
    ]


def fig14_rows(uk_pagerank_adaptive=1.05):
    return [
        {"dataset": dataset, "algorithm": algorithm,
         "zero_copy_speedup": zero, "adaptive_speedup": adaptive}
        for dataset, algorithm, zero, adaptive in (
            ("uk-sim", "pagerank", 1.0, uk_pagerank_adaptive),
            ("uk-sim", "ppr", 1.2, 1.3),
            ("cw-sim", "pagerank", 0.9, 1.02),
            ("cw-sim", "ppr", 1.1, 1.15),
        )
    ]


def sampler_rows(alias_speedup=12.0, tv_distance=0.01, dead_ends=0,
                 quick=False):
    return [
        {"case": case, "speedup": speedup, "quick": quick}
        for case, speedup in (
            ("alias_build", alias_speedup), ("node2vec_step", 30.0)
        )
    ] + [
        {"case": f"parity:{name}", "tv_distance": tv_distance,
         "tv_bound": 0.03, "dead_ends": dead_ends, "quick": quick}
        for name in ("alias", "inverse", "rejection")
    ]


def device_rows(top_speedup=2.5, two_clean=True):
    return [
        {"devices": devices, "speedup": speedup,
         "sanitizer_clean": two_clean or devices != 2}
        for devices, speedup in ((1, 1.0), (2, 2.8), (4, top_speedup))
    ]


def elastic_rows(hetero=1.15, slowdown=0.97, failure_steps=4800,
                 recovered=156, baseline_clean=True):
    rows = [
        {"run": run, "total_steps": 4800, "expected_steps": 4800,
         "sanitizer_clean": True, "device_failures": 0,
         "walks_recovered": 0, "hetero_speedup": None,
         "failure_slowdown": None}
        for run in ("hetero_aware", "hetero_uniform", "baseline", "failure")
    ]
    rows[0]["hetero_speedup"] = hetero
    rows[2]["sanitizer_clean"] = baseline_clean
    rows[3].update(total_steps=failure_steps, device_failures=1,
                   walks_recovered=recovered, failure_slowdown=slowdown)
    return rows


def backend_rows(multiprocess_steps=4800, multiprocess_speedup=3.4,
                 multiprocess_clean=True, quick=False):
    simulated = {
        "backend": "simulated", "total_steps": 4800,
        "iterations": 295, "total_time": 0.0062, "walks_migrated": 0,
        "sanitizer_clean": True, "overall_speedup": None, "quick": quick,
    }
    return [
        simulated,
        dict(simulated, backend="multiprocess",
             total_steps=multiprocess_steps,
             sanitizer_clean=multiprocess_clean,
             overall_speedup=multiprocess_speedup),
    ]


def serve_rows(completed=12, clean=True, engines_clean=True,
               total_p90=2.0, coalesced=6):
    rows = [
        {"run": run, "queries": 12, "queries_admitted": 12,
         "queries_completed": 12, "sanitizer_clean": True,
         "engine_sanitizers_clean": True, "coalesced_queries": 0,
         **{f"{series}_{p}": value
            for series in ("queue", "service", "total")
            for p, value in (("p50", 1.0), ("p90", 2.0), ("p99", 3.0))}}
        for run in ("closed-w2", "open-w2", "closed-w8", "open-w8")
    ]
    rows[2].update(queries_completed=completed, sanitizer_clean=clean,
                   engine_sanitizers_clean=engines_clean,
                   total_p90=total_p90, coalesced_queries=coalesced)
    return rows


class TestMechanismClaimsCanFail:
    """Each row set holds as built and fails with one claim broken."""

    @pytest.mark.parametrize("name, rows, mutant", [
        # direct write no slower than two-level at 64 KiB
        ("fig12", fig12_rows(), fig12_rows(direct=(10.0, 2.5, 6.0, 5.0))),
        # preemptive scheduling buys nothing
        ("fig13", fig13_rows(), fig13_rows(ps=10.0)),
        # preemptive iterations not below 0.75x baseline
        ("table3", table3_rows(), table3_rows(ps_iterations=750)),
        # adaptive loses more than 3% to all-explicit
        ("fig14", fig14_rows(), fig14_rows(uk_pagerank_adaptive=0.96)),
        # the vectorized alias build under 5x its loop reference
        ("samplers", sampler_rows(), sampler_rows(alias_speedup=4.9)),
        # a weighted sampler's next hops drift past the TV bound
        ("samplers", sampler_rows(), sampler_rows(tv_distance=0.031)),
        # a weighted sampler dead-ends on a vertex with neighbours
        ("samplers", sampler_rows(), sampler_rows(dead_ends=1)),
        # four devices under 1.5x one device
        ("devices", device_rows(), device_rows(top_speedup=1.4)),
        # a sharded run the sanitizer flags
        ("devices", device_rows(), device_rows(two_clean=False)),
        # capability-aware assignment under 1.05x uniform
        ("elastic", elastic_rows(), elastic_rows(hetero=1.04)),
        # losing a device costs more than 2.5x
        ("elastic", elastic_rows(), elastic_rows(slowdown=2.6)),
        # a walk lost in the failure run
        ("elastic", elastic_rows(), elastic_rows(failure_steps=4792)),
        # the failed device's walks not recovered
        ("elastic", elastic_rows(), elastic_rows(recovered=0)),
        # a run the sanitizer flags
        ("elastic", elastic_rows(), elastic_rows(baseline_clean=False)),
        # a real backend's run differs from the simulated one
        ("backends", backend_rows(), backend_rows(multiprocess_steps=4799)),
        # the best real backend under 3x the simulated walk update
        ("backends", backend_rows(), backend_rows(multiprocess_speedup=2.9)),
        # a backend run the sanitizer flags
        ("backends", backend_rows(),
         backend_rows(multiprocess_clean=False)),
        # a served request admitted but never completed
        ("serve", serve_rows(), serve_rows(completed=11)),
        # the request-conservation sanitizer flags a session
        ("serve", serve_rows(), serve_rows(clean=False)),
        # a per-batch engine run the sanitizer flags
        ("serve", serve_rows(), serve_rows(engines_clean=False)),
        # latency percentiles out of order
        ("serve", serve_rows(), serve_rows(total_p90=3.5)),
        # no run coalesces a single query
        ("serve", serve_rows(), serve_rows(coalesced=0)),
    ])
    def test_mutant_fails(self, name, rows, mutant):
        assert harness.check_claims(name, rows) == []
        failures = harness.check_claims(name, mutant)
        assert failures
        assert "FAILS" in harness.claim_verdict(name, failures)

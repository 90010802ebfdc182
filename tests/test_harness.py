"""Schema/consistency tests for the benchmark harness (smallest dataset).

The heavy sweeps run under `benchmarks/`; here we validate the row schemas
and basic invariants on the cheapest dataset so `pytest tests/` stays fast.
"""

import json
from pathlib import Path

import pytest

from repro.bench import harness

#: RunStats of every system's hand-built engine (the seven construction
#: branches of the former ``cli._run_system``), captured at the commit
#: before ``SYSTEMS`` replaced them.
SYSTEM_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "system_parity_golden.json").read_text()
)


class TestAlgorithmFactory:
    def test_known_algorithms(self):
        for name in ("uniform", "pagerank", "ppr"):
            algo = harness.make_algorithm(name)
            assert algo.name == name

    def test_fresh_instances(self):
        assert harness.make_algorithm("pagerank") is not harness.make_algorithm(
            "pagerank"
        )

    def test_unknown(self):
        with pytest.raises(KeyError):
            harness.make_algorithm("metropolis")


class TestSmallDatasetRuns:
    def test_fig3_schema(self):
        rows = harness.fig3_active_ratio(datasets=("lj-sim",), sample_every=4)
        assert rows
        for row in rows:
            assert row["dataset"] == "lj-sim"
            assert 0 <= row["active_vertex_pct"] <= 100
            assert 0 <= row["used_edge_pct"] <= 100

    def test_table1_schema(self):
        rows = harness.table1_subway_breakdown(datasets=("lj-sim",))
        (row,) = rows
        total = (
            row["computation_pct"]
            + row["transmission_pct"]
            + row["subgraph_pct"]
        )
        assert total == pytest.approx(100.0)

    def test_fig9_schema_one_dataset(self):
        rows = harness.fig9_cpu_comparison(
            datasets=("lj-sim",), algorithms=("pagerank",)
        )
        systems = {r["system"] for r in rows}
        assert systems == {"thunderrw", "flashmob", "lt-pcie3", "lt-pcie4"}
        speedups = harness.fig9_speedups(rows)
        assert {s["vs"] for s in speedups} == {"flashmob", "thunderrw"}
        for s in speedups:
            assert s["speedup"] > 0

    def test_fig12_schema(self):
        rows = harness.fig12_reshuffle(
            partition_kib=(16,), dataset="lj-sim"
        )
        (row,) = rows
        assert row["two_level_reshuffle_time"] <= row["direct_reshuffle_time"]

    def test_fig13_and_table3(self):
        rows = harness.fig13_pipeline(
            pool_partitions=(4,), dataset="lj-sim"
        )
        assert {r["variant"] for r in rows} == {
            "baseline",
            "ps",
            "ss",
            "ps+ss",
        }
        t3 = harness.table3_scheduling(pool_partitions=4, dataset="lj-sim")
        assert len(t3) == 4

    def test_fig17_schema(self):
        rows = harness.fig17_partition_size(
            partition_kib=(16, 64), dataset="lj-sim"
        )
        assert rows[0]["num_partitions"] > rows[1]["num_partitions"]


class TestMoreHarnessRunners:
    def test_fig14_schema(self):
        rows = harness.fig14_adaptive(
            datasets=("lj-sim",), algorithms=("ppr",)
        )
        (row,) = rows
        assert row["adaptive_speedup"] > 0
        assert row["zero_copy_speedup"] > 0

    def test_fig11_schema(self):
        rows = harness.fig11_nextdoor(
            datasets=("lj-sim",), algorithms=("pagerank",)
        )
        (row,) = rows
        assert row["lt_throughput"] > 0
        assert row["nextdoor_throughput"] > 0

    def test_fig10_schema(self):
        rows = harness.fig10_subway_comparison(
            datasets=("lj-sim",), algorithms=("pagerank",)
        )
        (row,) = rows
        assert row["total_speedup"] > 0

    def test_fig18_schema(self):
        rows = harness.fig18_scalability(
            densities=(0.25,), datasets=("lj-sim",), walk_length=4
        )
        assert rows
        for row in rows:
            assert row["theory_throughput"] > 0
            assert row["throughput"] > 0


class TestMetricsObservatory:
    def test_all_systems_observed(self):
        rows = harness.metrics_observatory(dataset="lj-sim")
        assert [r["system"] for r in rows] == [
            "lighttraffic", "subway", "uvm", "multiround",
        ]
        for row in rows:
            assert row["total_time"] > 0
            assert row["iterations"] > 0
            served = (
                row["served_hit"]
                + row["served_explicit"]
                + row["served_zero_copy"]
            )
            assert served > 0
            assert 0 <= row["preemption_pct"] <= 100

    def test_unpartitioned_baselines_never_hit_or_zero_copy(self):
        rows = harness.metrics_observatory(dataset="lj-sim")
        by_system = {r["system"]: r for r in rows}
        assert by_system["subway"]["served_explicit"] > 0
        assert by_system["subway"]["served_zero_copy"] == 0
        assert by_system["uvm"]["served_explicit"] > 0


class TestSystemsTable:
    def test_table_covers_the_captured_systems(self):
        captured = {key.rsplit("-", 1)[0] for key in SYSTEM_GOLDEN["runs"]}
        assert set(harness.SYSTEMS) == captured
        assert list(harness.SYSTEMS)[0] == "lighttraffic"  # CLI default

    @pytest.mark.parametrize("algorithm", ["pagerank", "uniform"])
    @pytest.mark.parametrize("system", list(harness.SYSTEMS))
    def test_build_system_matches_hand_built_engine(
        self, system, algorithm, small_graph
    ):
        # small_graph is the capture's rmat(scale=10, edge_factor=6, seed=7).
        golden = SYSTEM_GOLDEN["runs"][f"{system}-{algorithm}"]
        stats = harness.build_system(
            system, small_graph, algorithm, seed=SYSTEM_GOLDEN["seed"]
        ).run(SYSTEM_GOLDEN["walks"])
        assert stats.system == system
        assert stats.total_time == golden["total_time"]
        assert stats.iterations == golden["iterations"]
        assert stats.total_steps == golden["total_steps"]
        assert dict(stats.breakdown) == golden["breakdown"]

    def test_algorithm_may_be_a_factory(self, small_graph):
        from repro.algorithms import PageRank

        stats = harness.build_system(
            "multiround", small_graph, lambda: PageRank(length=4), rounds=3
        ).run(300)
        assert stats.total_steps == 300 * 4
        assert stats.notes == "rounds=3"

    def test_engine_overrides_reach_the_baseline_config(self, small_graph):
        engine = harness.build_system(
            "uvm", small_graph, "uniform", page_bytes=4096, interconnect="pcie4"
        )
        assert engine.config.page_bytes == 4096
        assert engine.pcie.name == "pcie4"

    @pytest.mark.parametrize(
        "system, algorithm, match",
        [
            ("flashmob", "ppr", "fixed-length"),
            ("thunderrw", "pagerank", "sampler"),
            ("multiround", "pagerank", "sampler"),
        ],
    )
    def test_unrunnable_workload_is_a_build_time_value_error(
        self, small_graph, system, algorithm, match
    ):
        sampler = "alias" if match == "sampler" else None
        with pytest.raises(ValueError, match=match):
            harness.build_system(
                system, small_graph, algorithm, sampler=sampler
            )

    @pytest.mark.parametrize("system", ["subway", "uvm"])
    def test_run_system_sanitizes_bus_baselines_event_only(
        self, small_graph, system
    ):
        engine = harness.build_system(
            system, small_graph, "uniform", sanitize=True
        )
        stats = harness.run_system(engine, 200, sanitize=True)
        assert stats.sanitizer["clean"]
        assert stats.sanitizer["checks"] > 0

    def test_experiment_registries_are_views_of_one_table(self):
        from repro import cli
        from repro.bench.report import experiment_registry

        assert experiment_registry() is harness.EXPERIMENTS
        assert set(cli.EXPERIMENTS) == set(harness.EXPERIMENTS)
        assert len(harness.EXPERIMENTS) == 15
        for name, (runner, args) in cli.EXPERIMENTS.items():
            assert runner is harness.EXPERIMENTS[name][0] and args == ()

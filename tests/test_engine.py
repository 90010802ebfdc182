"""End-to-end tests of the LightTraffic engine."""

import numpy as np
import pytest

from repro.algorithms import (
    Node2Vec,
    PageRank,
    PersonalizedPageRank,
    UniformSampling,
)
from repro.core.config import (
    COPY_ADAPTIVE,
    COPY_EXPLICIT,
    COPY_ZERO,
    EngineConfig,
)
from repro.core.engine import LightTrafficEngine, run_walks
from repro.core.events import EventBus
from repro.core.stages import ComputeDispatcher
from repro.core.stats import (
    CAT_GRAPH_LOAD,
    CAT_WALK_EVICT,
    CAT_WALK_UPDATE,
)
from repro.graph import generators


class TestCompletion:
    @pytest.mark.parametrize(
        "algorithm",
        [
            UniformSampling(length=12),
            PageRank(length=12),
            PersonalizedPageRank(stop_prob=0.2),
        ],
        ids=["uniform", "pagerank", "ppr"],
    )
    def test_all_walks_finish(self, small_graph, tiny_config, algorithm):
        stats = run_walks(small_graph, algorithm, 300, tiny_config)
        assert stats.num_walks == 300
        assert stats.total_steps > 0
        assert stats.iterations > 0
        assert stats.total_time > 0

    def test_uniform_step_count_exact(self, small_graph, tiny_config):
        stats = run_walks(small_graph, UniformSampling(length=7), 100, tiny_config)
        assert stats.total_steps == 700

    def test_single_walk(self, small_graph, tiny_config):
        stats = run_walks(small_graph, PageRank(length=3), 1, tiny_config)
        assert stats.total_steps == 3

    def test_invalid_walk_count(self, small_graph, tiny_config):
        with pytest.raises(ValueError):
            run_walks(small_graph, PageRank(length=3), 0, tiny_config)

    def test_node2vec_through_engine(self, small_graph, tiny_config):
        stats = run_walks(small_graph, Node2Vec(length=4), 50, tiny_config)
        assert stats.total_steps == 200

    def test_oversized_hub_partition(self, tiny_config):
        # The star hub's edges exceed partition_bytes: oversized singleton.
        g = generators.star(800)
        stats = run_walks(g, UniformSampling(length=4), 100, tiny_config)
        assert stats.total_steps == 400


class TestDeterminism:
    def test_same_seed_same_everything(self, small_graph, tiny_config):
        a = run_walks(small_graph, PageRank(length=10), 200, tiny_config)
        b = run_walks(small_graph, PageRank(length=10), 200, tiny_config)
        assert a.total_steps == b.total_steps
        assert a.total_time == b.total_time
        assert a.iterations == b.iterations
        assert a.breakdown == b.breakdown

    def test_same_seed_same_visit_counts(self, small_graph, tiny_config):
        algo_a, algo_b = PageRank(length=10), PageRank(length=10)
        run_walks(small_graph, algo_a, 200, tiny_config)
        run_walks(small_graph, algo_b, 200, tiny_config)
        assert np.array_equal(algo_a.visit_counts, algo_b.visit_counts)

    def test_different_seed_differs(self, small_graph, tiny_config):
        a = run_walks(small_graph, PageRank(length=10), 200, tiny_config)
        b = run_walks(
            small_graph,
            PageRank(length=10),
            200,
            tiny_config.with_options(seed=999),
        )
        assert a.total_time != b.total_time or a.iterations != b.iterations


class TestSemanticsMatchInMemory:
    def test_pagerank_distribution(self, medium_graph):
        """The out-of-memory engine estimates the same PageRank vector."""
        from repro.algorithms.pagerank import power_iteration_pagerank

        config = EngineConfig(
            partition_bytes=16 * 1024,
            batch_walks=128,
            graph_pool_partitions=8,
            seed=21,
        )
        algo = PageRank(length=50)
        run_walks(medium_graph, algo, 2 * medium_graph.num_vertices, config)
        estimated = algo.pagerank_scores()
        reference = power_iteration_pagerank(medium_graph)
        tv = 0.5 * np.abs(estimated - reference).sum()
        assert tv < 0.1

    def test_ppr_source_dominates(self, small_graph, tiny_config):
        algo = PersonalizedPageRank(stop_prob=0.15)
        run_walks(small_graph, algo, 2000, tiny_config)
        scores = algo.ppr_scores()
        assert scores[algo.resolve_source(small_graph)] == scores.max()

    def test_uniform_paths_valid_through_engine(self, small_graph, tiny_config):
        algo = UniformSampling(length=5, record_paths=True)
        run_walks(small_graph, algo, 60, tiny_config)
        for row in algo.paths:
            assert np.all(row >= 0)
            for a, b in zip(row, row[1:]):
                assert small_graph.has_edge(int(a), int(b))


class TestSchedulingToggles:
    @pytest.mark.parametrize("preemptive", [False, True])
    @pytest.mark.parametrize("selective", [False, True])
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_every_toggle_combination_completes(
        self, small_graph, tiny_config, preemptive, selective, pipeline
    ):
        config = tiny_config.with_options(
            preemptive=preemptive, selective=selective, pipeline=pipeline
        )
        stats = run_walks(small_graph, PageRank(length=8), 200, config)
        assert stats.total_steps == 1600

    def test_pipeline_off_serializes(self, small_graph, tiny_config):
        config = tiny_config.with_options(
            pipeline=False, copy_mode=COPY_EXPLICIT
        )
        stats = run_walks(small_graph, PageRank(length=8), 200, config)
        # Serial execution: makespan equals the sum of all op durations.
        assert stats.total_time == pytest.approx(
            sum(stats.breakdown.values()), rel=1e-9
        )

    def test_pipeline_on_overlaps(self, small_graph, tiny_config):
        serial = run_walks(
            small_graph,
            PageRank(length=8),
            200,
            tiny_config.with_options(pipeline=False, copy_mode=COPY_EXPLICIT),
        )
        piped = run_walks(
            small_graph,
            PageRank(length=8),
            200,
            tiny_config.with_options(pipeline=True, copy_mode=COPY_EXPLICIT),
        )
        assert piped.total_time < serial.total_time

    def test_record_ops_validates_timeline(self, small_graph, tiny_config):
        config = tiny_config.with_options(record_ops=True)
        stats = run_walks(small_graph, PageRank(length=5), 100, config)
        assert stats.total_steps == 500


class TestCopyModes:
    def test_zero_copy_mode_never_copies_graph(self, small_graph, tiny_config):
        config = tiny_config.with_options(copy_mode=COPY_ZERO)
        stats = run_walks(small_graph, PageRank(length=6), 150, config)
        assert stats.explicit_copies == 0
        assert stats.zero_copy_iterations == stats.iterations
        assert stats.time(CAT_GRAPH_LOAD) == 0.0

    def test_explicit_mode_never_zero_copies(self, small_graph, tiny_config):
        config = tiny_config.with_options(copy_mode=COPY_EXPLICIT)
        stats = run_walks(small_graph, PageRank(length=6), 150, config)
        assert stats.zero_copy_iterations == 0
        assert stats.explicit_copies > 0

    def test_adaptive_uses_zero_copy_for_stragglers(self, small_graph, tiny_config):
        # PPR's geometric tail leaves few walks per partition late in the
        # run — exactly where adaptive switches to zero copy.
        config = tiny_config.with_options(copy_mode=COPY_ADAPTIVE)
        stats = run_walks(
            small_graph, PersonalizedPageRank(stop_prob=0.15), 400, config
        )
        assert stats.zero_copy_iterations > 0

    def test_miss_accounting_consistent(self, small_graph, tiny_config):
        config = tiny_config.with_options(copy_mode=COPY_ADAPTIVE)
        stats = run_walks(small_graph, PageRank(length=6), 150, config)
        # Every miss becomes either an explicit copy or a zero-copy pass.
        assert stats.graph_pool_misses == (
            stats.explicit_copies + stats.zero_copy_iterations
        )


class TestWalkPoolPressure:
    def test_eviction_triggered_and_conserves(self, small_graph):
        config = EngineConfig(
            partition_bytes=2048,
            batch_walks=16,
            graph_pool_partitions=3,
            walk_pool_walks=64,  # far below the walk count
            seed=5,
        )
        algo = UniformSampling(length=10)
        stats = run_walks(small_graph, algo, 600, config)
        assert stats.walk_batches_evicted > 0
        assert stats.time(CAT_WALK_EVICT) > 0
        assert stats.total_steps == 6000  # nothing lost

    def test_unbounded_pool_never_evicts(self, small_graph, tiny_config):
        stats = run_walks(small_graph, UniformSampling(length=10), 600, tiny_config)
        assert stats.walk_batches_evicted == 0


class TestStatsConsistency:
    def test_breakdown_nonnegative_and_total_bounds(
        self, small_graph, tiny_config
    ):
        stats = run_walks(small_graph, PageRank(length=10), 300, tiny_config)
        assert all(v >= 0 for v in stats.breakdown.values())
        # Makespan is at least the busiest single category and at most the
        # serial sum.
        assert stats.total_time <= sum(stats.breakdown.values()) + 1e-12
        assert stats.total_time >= max(stats.breakdown.values()) - 1e-12
        assert stats.throughput > 0
        assert 0 <= stats.graph_pool_hit_rate <= 1
        assert stats.time(CAT_WALK_UPDATE) > 0

    def test_summary_text(self, small_graph, tiny_config):
        stats = run_walks(small_graph, PageRank(length=4), 50, tiny_config)
        text = stats.summary()
        assert "lighttraffic/pagerank" in text
        assert "50 walks" in text


class TestGuards:
    def test_max_iterations_enforced(self, small_graph, tiny_config):
        config = tiny_config.with_options(max_iterations=2)
        with pytest.raises(RuntimeError, match="max_iterations"):
            run_walks(small_graph, PageRank(length=40), 500, config)

    @pytest.mark.parametrize("devices", [1, 2])
    def test_guards_and_cleanup_shared_by_every_device_count(
        self, small_graph, tiny_config, devices, monkeypatch
    ):
        """One loop: the pre-loop and error paths do not depend on devices."""
        config = tiny_config.with_options(max_iterations=2, devices=devices)
        bus = EventBus()
        engine = LightTrafficEngine(
            small_graph, PageRank(length=40), config, bus=bus
        )
        backends = []
        make_backend = engine._make_backend

        def recording_make_backend():
            backends.append(make_backend())
            return backends[-1]

        monkeypatch.setattr(engine, "_make_backend", recording_make_backend)
        with pytest.raises(ValueError, match="num_walks must be >= 1"):
            engine.run(0)
        assert not backends  # rejected before anything was built
        with pytest.raises(
            RuntimeError,
            match=r"^exceeded max_iterations=2 with 500 walks left$",
        ):
            engine.run(500)
        assert bus.active is False  # every observer detached
        (backend,) = backends
        with pytest.raises(RuntimeError, match="was closed"):
            backend.bind(
                small_graph, engine.partitioned, engine.algorithm, config
            )

    @pytest.mark.no_sanitize
    @pytest.mark.parametrize("devices", [1, 2])
    def test_lost_walks_raise_instead_of_spinning(
        self, small_graph, tiny_config, devices, monkeypatch
    ):
        """Fault injection: kernels that drop their walks end the run.

        The loop runs until every walk finished; walks that vanish never
        do, so it must notice that no shard holds any and report it.
        """
        monkeypatch.setattr(
            ComputeDispatcher, "dispatch", lambda self, *args, **kwargs: None
        )
        config = tiny_config.with_options(devices=devices)
        with pytest.raises(
            RuntimeError, match="walk conservation violated: finished 0 of 300"
        ):
            run_walks(small_graph, PageRank(length=10), 300, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(partition_bytes=0)
        with pytest.raises(ValueError):
            EngineConfig(batch_walks=0)
        with pytest.raises(ValueError):
            EngineConfig(graph_pool_partitions=0)
        with pytest.raises(ValueError):
            EngineConfig(copy_mode="maybe")
        with pytest.raises(ValueError):
            EngineConfig(reshuffle_mode="sometimes")

    def test_default_batch_is_16x_cores(self):
        config = EngineConfig()
        assert config.resolved_batch_walks() == 16 * config.device.total_cores

    def test_with_options(self, tiny_config):
        updated = tiny_config.with_options(seed=1)
        assert updated.seed == 1
        assert updated.partition_bytes == tiny_config.partition_bytes

"""Serving-session invariants: latency accounting, conservation, replay.

Property-style checks over :class:`~repro.serve.session.ServeSession`
reports:

* percentile summaries are monotone (p50 <= p90 <= p99) and the latency
  identity ``queue + service == total`` holds *exactly* per request;
* request conservation holds under a mid-run device failure (every
  admitted query completes with every requested walk, sanitizer-clean);
* closed- and open-loop sessions replay bit-identically — the loop runs
  on the engine's simulated clock, never wall time.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig, FailureSchedule
from repro.serve import (
    ARRIVAL_OPEN,
    MAX_QUERY_STEPS,
    EmbeddingQuery,
    MetapathQuery,
    PPRQuery,
    ServeSession,
    UniformQuery,
    default_workload,
    make_vertex_types,
    nearest_rank,
    validated,
)


@pytest.fixture(scope="module")
def serve_graph():
    from repro.graph.generators import rmat

    return rmat(scale=9, edge_factor=6, seed=7, name="serve-props")


@pytest.fixture(scope="module")
def serve_types(serve_graph):
    return make_vertex_types(serve_graph, seed=7)


@pytest.fixture()
def serve_config():
    return EngineConfig(
        partition_bytes=2048,
        batch_walks=32,
        graph_pool_partitions=4,
        walk_pool_walks=256,
        seed=123,
        sanitize=True,
    )


class TestNearestRank:
    def test_known_percentiles(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert nearest_rank(values, 50) == 2.0
        assert nearest_rank(values, 75) == 3.0
        assert nearest_rank(values, 100) == 4.0
        assert nearest_rank([7.5], 99) == 7.5
        assert nearest_rank([], 50) == 0.0

    def test_monotone_in_percentile(self):
        values = [0.3, 0.1, 0.9, 0.5, 0.7]
        ranks = [nearest_rank(values, p) for p in (10, 50, 90, 99)]
        assert ranks == sorted(ranks)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101)


class TestLatencyAccounting:
    @pytest.mark.parametrize("arrival_kwargs", [
        pytest.param({}, id="closed"),
        pytest.param(
            {"arrival": ARRIVAL_OPEN, "arrival_rate": 2000.0}, id="open"
        ),
    ])
    def test_percentiles_monotone_and_identity_exact(
        self, serve_graph, serve_types, serve_config, arrival_kwargs
    ):
        workload = default_workload(serve_graph, queries=10, seed=2)
        report = ServeSession(
            serve_graph,
            serve_config,
            workers=4,
            vertex_types=serve_types,
            **arrival_kwargs,
        ).run(workload)
        latency = report.latency_percentiles()
        for series in latency.values():
            assert series["p50"] <= series["p90"] <= series["p99"]
        for result in report.results:
            # Exact by construction: total is computed as the sum.
            assert result.total_seconds == (
                result.queue_seconds + result.service_seconds
            )
            assert result.queue_seconds >= 0.0
            assert result.service_seconds > 0.0
        assert report.makespan > 0.0
        throughput = report.throughput()
        assert throughput["queries_per_second"] > 0.0

    def test_open_loop_arrivals_follow_schedule(
        self, serve_graph, serve_types, serve_config
    ):
        workload = default_workload(serve_graph, queries=8, seed=4)
        report = ServeSession(
            serve_graph,
            serve_config,
            workers=4,
            arrival=ARRIVAL_OPEN,
            arrival_rate=500.0,
            vertex_types=serve_types,
        ).run(workload)
        arrivals = [r.arrival for r in report.results]
        assert all(a > 0.0 for a in arrivals)
        # Service can never start before arrival.
        for result in report.results:
            start = result.arrival + result.queue_seconds
            assert start >= result.arrival


class TestRequestConservation:
    def test_all_requests_served_under_device_failure(
        self, serve_graph, serve_config
    ):
        config = serve_config.with_options(
            devices=3,
            failure_schedule=FailureSchedule.parse("1@3"),
        )
        queries = [
            PPRQuery(walks=20, sources=(1, 2, 3), max_length=24),
            PPRQuery(walks=20, sources=(9, 10), max_length=24),
        ]
        report = ServeSession(
            serve_graph, config, workers=2, max_batch_walks=64
        ).run(queries)
        assert report.stats.queries_admitted == 2
        assert report.stats.queries_completed == 2
        # Zero lost walks: every requested walk was routed back.
        assert report.walks_served == 40
        for result in report.results:
            assert (result.final_vertices >= 0).all()
        assert report.sanitizer is not None
        assert report.sanitizer["clean"], report.sanitizer
        assert report.engine_sanitizers_clean

    def test_stats_count_admissions_and_completions(
        self, serve_graph, serve_types, serve_config
    ):
        workload = default_workload(serve_graph, queries=9, seed=6)
        report = ServeSession(
            serve_graph, serve_config, workers=3, vertex_types=serve_types
        ).run(workload)
        assert report.stats.queries_admitted == len(workload)
        assert report.stats.queries_completed == len(workload)
        assert report.stats.system == "serve"
        assert {r.request_id for r in report.results} == set(
            range(len(workload))
        )

    def test_metrics_queries_block_agrees_with_stats(
        self, serve_graph, serve_types, serve_config
    ):
        workload = default_workload(serve_graph, queries=9, seed=6)
        report = ServeSession(
            serve_graph, serve_config, workers=3, vertex_types=serve_types
        ).run(workload)
        assert report.metrics is report.stats.metrics
        queries = report.metrics["queries"]
        assert queries["admitted"] == report.stats.queries_admitted
        assert queries["completed"] == report.stats.queries_completed
        by_kind = {}
        for query in workload:
            by_kind[query.kind] = by_kind.get(query.kind, 0) + 1
        assert queries["by_kind"] == by_kind
        assert queries["walks_served"] == report.walks_served
        assert queries["total_seconds"] == pytest.approx(
            sum(r.total_seconds for r in report.results)
        )
        assert report.metrics["runs_completed"] == 1
        assert report.metrics["total_time"] == report.makespan


class TestDeterminism:
    def test_closed_loop_replays_bit_identically(
        self, serve_graph, serve_types, serve_config
    ):
        workload = default_workload(serve_graph, queries=10, seed=8)

        def run_once():
            return ServeSession(
                serve_graph,
                serve_config,
                workers=4,
                vertex_types=serve_types,
            ).run(workload)

        first, second = run_once(), run_once()
        assert first.makespan == second.makespan
        assert first.batches == second.batches
        assert first.coalesced_queries == second.coalesced_queries
        for a, b in zip(first.results, second.results):
            assert a.request_id == b.request_id
            assert a.seed == b.seed
            assert a.total_seconds == b.total_seconds
            np.testing.assert_array_equal(a.final_vertices, b.final_vertices)
            np.testing.assert_array_equal(a.steps_taken, b.steps_taken)

    def test_open_loop_replays_bit_identically(
        self, serve_graph, serve_types, serve_config
    ):
        workload = default_workload(serve_graph, queries=8, seed=8)

        def run_once():
            return ServeSession(
                serve_graph,
                serve_config,
                workers=3,
                arrival=ARRIVAL_OPEN,
                arrival_rate=1500.0,
                vertex_types=serve_types,
            ).run(workload)

        first, second = run_once(), run_once()
        assert first.makespan == second.makespan
        assert [r.arrival for r in first.results] == [
            r.arrival for r in second.results
        ]
        for a, b in zip(first.results, second.results):
            np.testing.assert_array_equal(a.final_vertices, b.final_vertices)


class TestValidation:
    def test_rejects_bad_session_args(self, serve_graph):
        with pytest.raises(ValueError, match="workers"):
            ServeSession(serve_graph, workers=0)
        with pytest.raises(ValueError, match="arrival"):
            ServeSession(serve_graph, arrival="bursty")
        with pytest.raises(ValueError, match="arrival_rate"):
            ServeSession(serve_graph, arrival=ARRIVAL_OPEN)
        with pytest.raises(ValueError, match="max_batch_walks"):
            ServeSession(serve_graph, max_batch_walks=0)

    def test_oversized_query_rejected_at_admission(
        self, serve_graph, serve_config
    ):
        # A query requesting more walks than one coalesced batch can
        # hold could never be scheduled; it must be rejected up front,
        # not spin the coalescer forever.
        session = ServeSession(
            serve_graph, serve_config, workers=2, max_batch_walks=64
        )
        oversized = PPRQuery(walks=65, sources=(1,), max_length=8)
        with pytest.raises(ValueError, match="max_batch_walks"):
            session.run([oversized])

    def test_exactly_full_query_is_admitted(self, serve_graph, serve_config):
        session = ServeSession(
            serve_graph, serve_config, workers=2, max_batch_walks=64
        )
        report = session.run(
            [PPRQuery(walks=64, sources=(1,), max_length=8)]
        )
        assert report.stats.queries_completed == 1
        assert report.walks_served == 64

    def test_step_fields_capped_at_max_query_steps(self):
        beyond = MAX_QUERY_STEPS + 1
        with pytest.raises(ValueError, match="max_length"):
            PPRQuery(walks=4, sources=(1,), max_length=beyond)
        with pytest.raises(ValueError, match="length"):
            UniformQuery(walks=4, length=beyond)
        with pytest.raises(ValueError, match="length"):
            MetapathQuery(walks=4, metapath=(0, 1), length=beyond)
        with pytest.raises(ValueError, match="length"):
            EmbeddingQuery(walks=4, length=beyond)
        # The cap is inclusive: the boundary value itself is accepted.
        assert (
            UniformQuery(walks=4, length=MAX_QUERY_STEPS).length
            == MAX_QUERY_STEPS
        )

    def test_validated_helper_bounds(self):
        assert validated(5, 1, 10) == 5
        with pytest.raises(ValueError, match="steps"):
            validated(11, 1, 10, "steps")
        with pytest.raises(ValueError):
            validated(-1, 0, 10)

    def test_rejects_empty_and_unknown_workloads(self, serve_graph):
        with pytest.raises(ValueError, match="at least one query"):
            ServeSession(serve_graph).run([])
        with pytest.raises(ValueError, match="unknown query kind"):
            default_workload(serve_graph, kinds=("bogus",), queries=2)

    def test_query_validation(self):
        with pytest.raises(ValueError, match="at least one walk"):
            PPRQuery(walks=0, sources=(1,))
        with pytest.raises(ValueError, match="seed set"):
            PPRQuery(walks=4, sources=())

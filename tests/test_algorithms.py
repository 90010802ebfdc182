"""Algorithm semantics tests: uniform sampling, PageRank, PPR, node2vec."""

import numpy as np
import pytest

from repro.algorithms.base import uniform_neighbors
from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.pagerank import PageRank, power_iteration_pagerank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.uniform import UniformSampling
from repro.baselines.inmemory_cpu import (
    execute_in_memory,
    whole_graph_partition,
)
from repro.graph import generators
from repro.graph.builders import from_edges
from repro.walks.state import WalkArrays


class TestUniformNeighbors:
    def test_picks_valid_neighbors(self, small_graph, rng):
        part = whole_graph_partition(small_graph)
        vertices = rng.integers(0, small_graph.num_vertices, size=200)
        nxt, dead = uniform_neighbors(part, vertices, rng.random(200))
        assert not dead.any()  # preprocessed graphs have no dead ends
        for v, n in zip(vertices[:50], nxt[:50]):
            assert small_graph.has_edge(int(v), int(n))

    def test_dead_end_marked(self, rng):
        g = from_edges([(0, 1)], num_vertices=2)  # vertex 1 is a sink
        part = whole_graph_partition(g)
        nxt, dead = uniform_neighbors(part, np.array([1]), rng.random(1))
        assert dead.tolist() == [True]
        assert nxt.tolist() == [1]  # stays put

    def test_roughly_uniform(self, rng):
        g = generators.star(4)
        part = whole_graph_partition(g)
        nxt, __ = uniform_neighbors(
            part, np.zeros(8000, dtype=np.int64), rng.random(8000)
        )
        freq = np.bincount(nxt, minlength=5)[1:] / 8000
        assert np.all(np.abs(freq - 0.25) < 0.03)


class TestUniformSampling:
    def test_exact_length(self, small_graph, rng):
        algo = UniformSampling(length=13)
        steps = execute_in_memory(small_graph, algo, 50, rng)
        assert steps == 50 * 13

    def test_paths_are_real_walks(self, small_graph, rng):
        algo = UniformSampling(length=6, record_paths=True)
        execute_in_memory(small_graph, algo, 20, rng)
        assert algo.paths.shape == (20, 7)
        for row in algo.paths:
            assert np.all(row >= 0)
            for a, b in zip(row, row[1:]):
                assert small_graph.has_edge(int(a), int(b))

    def test_starts_cover_vertices(self, rng):
        g = generators.ring(10)
        algo = UniformSampling(length=2)
        starts = algo.start_vertices(g, 20, rng)
        assert starts.tolist() == [v % 10 for v in range(20)]

    def test_weighted_sampling_biases(self, rng):
        # Vertex 0 has two neighbors with weights 9:1.
        g = from_edges(
            [(0, 1), (0, 2), (1, 0), (2, 0)],
            num_vertices=3,
            weights=[9.0, 1.0, 1.0, 1.0],
        )
        algo = UniformSampling(length=1, weighted=True, record_paths=True)
        execute_in_memory(g, algo, 3000, rng)
        firsts = algo.paths[np.arange(3000) % 3 == 0, 1]
        freq1 = np.mean(firsts == 1)
        assert 0.82 < freq1 < 0.97

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            UniformSampling(length=0)

    def test_bytes_per_walk(self):
        assert UniformSampling().bytes_per_walk == 16  # carries walk_id
        assert UniformSampling().expected_total_steps(10) == 800


class TestPageRank:
    def test_fixed_length(self, small_graph, rng):
        algo = PageRank(length=9, restart_prob=0.2)
        steps = execute_in_memory(small_graph, algo, 40, rng)
        assert steps == 40 * 9

    def test_visit_counts_total(self, small_graph, rng):
        algo = PageRank(length=5)
        execute_in_memory(small_graph, algo, 30, rng)
        # Initial visit + one per step.
        assert algo.visit_counts.sum() == 30 * (5 + 1)

    def test_matches_power_iteration(self, medium_graph):
        rng = np.random.default_rng(5)
        algo = PageRank(length=60, restart_prob=0.15)
        execute_in_memory(medium_graph, algo, 4 * medium_graph.num_vertices, rng)
        estimated = algo.pagerank_scores()
        reference = power_iteration_pagerank(medium_graph, damping=0.85)
        # Total-variation distance small, top vertices agree.
        tv = 0.5 * np.abs(estimated - reference).sum()
        assert tv < 0.08
        top_est = set(np.argsort(estimated)[-20:].tolist())
        top_ref = set(np.argsort(reference)[-20:].tolist())
        assert len(top_est & top_ref) >= 14

    def test_scores_before_run(self):
        with pytest.raises(RuntimeError):
            PageRank().pagerank_scores()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PageRank(length=0)
        with pytest.raises(ValueError):
            PageRank(restart_prob=1.0)

    def test_restart_probability_observable(self, rng):
        # On a ring, restarts are the only way to move non-adjacently.
        g = generators.ring(50)
        algo = PageRank(length=40, restart_prob=0.5)
        algo_paths = UniformSampling(length=40)  # just for comparison setup
        execute_in_memory(g, algo, 100, rng)
        # With restart 0.5, mass spreads across the ring quickly: many
        # distinct vertices visited.
        assert np.count_nonzero(algo.visit_counts) > 40


class TestPowerIterationReference:
    def test_sums_to_one(self, small_graph):
        ranks = power_iteration_pagerank(small_graph)
        assert ranks.sum() == pytest.approx(1.0)
        assert ranks.min() > 0

    def test_ring_is_uniform(self):
        ranks = power_iteration_pagerank(generators.ring(8))
        assert np.allclose(ranks, 1 / 8, atol=1e-9)

    def test_star_hub_dominates(self):
        ranks = power_iteration_pagerank(generators.star(10))
        assert ranks[0] > 3 * ranks[1]

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert power_iteration_pagerank(g).size == 0


class TestPersonalizedPageRank:
    def test_starts_at_source(self, small_graph, rng):
        algo = PersonalizedPageRank(source=3)
        starts = algo.start_vertices(small_graph, 10, rng)
        assert np.all(starts == 3)

    def test_default_source_highest_degree(self, small_graph, rng):
        algo = PersonalizedPageRank()
        expected = int(np.argmax(small_graph.degrees()))
        assert algo.resolve_source(small_graph) == expected

    def test_geometric_mean_length(self, small_graph):
        rng = np.random.default_rng(3)
        algo = PersonalizedPageRank(stop_prob=0.2)
        walks = 4000
        steps = execute_in_memory(small_graph, algo, walks, rng)
        # Processed steps per walk are geometric with mean 1/p = 5.
        assert steps / walks == pytest.approx(5.0, rel=0.1)

    def test_mass_concentrates_near_source(self, medium_graph):
        rng = np.random.default_rng(9)
        algo = PersonalizedPageRank(stop_prob=0.15)
        execute_in_memory(medium_graph, algo, 3000, rng)
        scores = algo.ppr_scores()
        source = algo.resolve_source(medium_graph)
        assert scores[source] == scores.max()
        assert scores.sum() == pytest.approx(1.0)

    def test_max_length_bound(self, small_graph, rng):
        algo = PersonalizedPageRank(stop_prob=0.01, max_length=5)
        steps = execute_in_memory(small_graph, algo, 100, rng)
        assert steps <= 100 * 5

    def test_invalid_params(self, small_graph):
        with pytest.raises(ValueError):
            PersonalizedPageRank(stop_prob=0.0)
        with pytest.raises(ValueError):
            PersonalizedPageRank(max_length=0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            PersonalizedPageRank(source=10**9).start_vertices(
                small_graph, 1, rng
            )

    def test_variable_length_flag(self):
        assert not PersonalizedPageRank().fixed_length
        assert PersonalizedPageRank().expected_total_steps(150) == pytest.approx(
            1000.0
        )


class TestNode2Vec:
    def test_runs_fixed_length(self, small_graph, rng):
        algo = Node2Vec(length=5, return_param=2.0, inout_param=0.5)
        steps = execute_in_memory(small_graph, algo, 30, rng)
        assert steps == 30 * 5

    def test_low_p_returns_often(self, rng):
        # Strong return bias: many steps revisit the previous vertex.
        g = generators.ring(20)
        algo = Node2Vec(length=12, return_param=0.05, inout_param=1.0)
        paths = UniformSampling(length=12)  # placeholder, not used
        from repro.walks.state import WalkArrays

        starts = algo.start_vertices(g, 60, rng)
        walks = WalkArrays.fresh(starts)
        part = whole_graph_partition(g)
        returns = 0
        total = 0
        prev = walks.vertices.copy()
        prev2 = np.full_like(prev, -1)
        for __ in range(12):
            new_v, __t = algo.step_once(
                walks.vertices, walks.steps, walks.ids, part, rng, g
            )
            returns += int(np.sum(new_v == prev2))
            total += new_v.size
            prev2 = prev.copy()
            prev = new_v.copy()
            walks.vertices[:] = new_v
            walks.steps += 1
        assert returns / total > 0.5  # biased toward returning

    def test_requires_graph(self, small_graph, rng):
        algo = Node2Vec(length=3)
        starts = algo.start_vertices(small_graph, 5, rng)
        part = whole_graph_partition(small_graph)
        with pytest.raises(RuntimeError, match="host-graph access"):
            algo.step_once(
                starts, np.zeros(5, dtype=np.int32),
                np.arange(5), part, rng, None
            )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Node2Vec(length=0)
        with pytest.raises(ValueError):
            Node2Vec(return_param=0.0)

    def test_bytes_per_walk(self):
        assert Node2Vec().bytes_per_walk == 24

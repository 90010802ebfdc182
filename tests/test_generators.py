"""Unit tests for synthetic graph generators."""

import time

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.generators import (
    barabasi_albert,
    complete,
    degree_histogram,
    erdos_renyi,
    ring,
    rmat,
    star,
    with_random_weights,
)


class TestRMAT:
    def test_deterministic_with_seed(self):
        a = rmat(scale=8, edge_factor=4, seed=1)
        b = rmat(scale=8, edge_factor=4, seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        a = rmat(scale=8, edge_factor=4, seed=1)
        b = rmat(scale=8, edge_factor=4, seed=2)
        assert a != b

    def test_preprocessed_properties(self):
        g = rmat(scale=9, edge_factor=4, seed=3)
        degrees = g.degrees()
        assert degrees.min() >= 1  # zero-degree vertices removed
        # Undirected: total degree is even and edges are symmetric.
        assert g.num_edges % 2 == 0
        for v in range(0, g.num_vertices, max(1, g.num_vertices // 7)):
            for t in g.neighbors(v)[:3]:
                assert g.has_edge(int(t), v)

    def test_skew_produces_heavy_tail(self):
        g = rmat(scale=11, edge_factor=8, seed=5)
        degrees = g.degrees()
        assert degrees.max() > 8 * degrees.mean()

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            rmat(scale=0, edge_factor=4)

    def test_invalid_quadrants(self):
        with pytest.raises(ValueError, match="quadrant"):
            rmat(scale=4, edge_factor=2, a=0.5, b=0.3, c=0.2)

    def test_directed_mode(self):
        g = rmat(scale=8, edge_factor=4, seed=1, undirected=False)
        assert g.num_edges > 0


class TestErdosRenyi:
    def test_size(self):
        g = erdos_renyi(100, 400, seed=1)
        assert 0 < g.num_vertices <= 100
        assert g.num_edges > 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            erdos_renyi(0, 10)


class TestBarabasiAlbert:
    def test_size_and_connectivity(self):
        g = barabasi_albert(60, attach=3, seed=1)
        assert g.num_vertices == 60
        assert g.degrees().min() >= 1

    def test_hub_emerges(self):
        g = barabasi_albert(120, attach=2, seed=2)
        assert g.max_degree > 4 * g.degrees().mean()

    def test_linear_time(self):
        # The endpoint pool is one preallocated buffer (~0.4 s on a 2-CPU
        # box); rebuilding it from a list per vertex took ~46 s.  The bound
        # is loose on purpose.
        started = time.perf_counter()
        g = barabasi_albert(20_000, attach=4, seed=1)
        assert time.perf_counter() - started < 5.0
        assert g.num_vertices == 20_000

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, attach=0)
        with pytest.raises(ValueError):
            barabasi_albert(3, attach=3)


class TestDeterministicTopologies:
    def test_star(self):
        g = star(5)
        assert g.num_vertices == 6
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_star_invalid(self):
        with pytest.raises(ValueError):
            star(0)

    def test_ring(self):
        g = ring(6)
        assert g.num_vertices == 6
        assert g.degrees().tolist() == [2] * 6
        assert g.has_edge(0, 5) and g.has_edge(0, 1)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring(2)

    def test_complete(self):
        g = complete(4)
        assert g.num_edges == 12
        assert g.degrees().tolist() == [3] * 4

    def test_complete_too_small(self):
        with pytest.raises(ValueError):
            complete(1)


class TestWeightsAndHistogram:
    def test_with_random_weights(self):
        g = with_random_weights(ring(5), seed=3, low=0.5, high=2.0)
        assert g.is_weighted
        assert g.weights.min() >= 0.5
        assert g.weights.max() < 2.0

    def test_with_random_weights_invalid_range(self):
        with pytest.raises(ValueError):
            with_random_weights(ring(5), low=0.0, high=1.0)
        with pytest.raises(ValueError):
            with_random_weights(ring(5), low=2.0, high=1.0)

    def test_degree_histogram(self, small_graph):
        hist, edges = degree_histogram(small_graph)
        assert hist.sum() <= small_graph.num_vertices
        assert len(edges) == len(hist) + 1

    def test_degree_histogram_empty(self):
        g = generators.rmat(scale=4, edge_factor=1, seed=1)
        hist, edges = degree_histogram(g, bins=4)
        assert hist.sum() >= 0

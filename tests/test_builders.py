"""Unit tests for edge-list preprocessing and CSR builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import (
    MAX_KEYED_VERTICES,
    _edge_keys,
    from_adjacency,
    from_edges,
    preprocess_edges,
)


class TestPreprocessEdges:
    def test_undirect_adds_reverse_edges(self):
        edges, n, __ = preprocess_edges([(0, 1)], undirected=True)
        assert n == 2
        assert sorted(map(tuple, edges.tolist())) == [(0, 1), (1, 0)]

    def test_self_loops_removed(self):
        edges, n, __ = preprocess_edges([(0, 0), (0, 1)])
        assert all(a != b for a, b in edges.tolist())

    def test_duplicates_removed(self):
        edges, __, __2 = preprocess_edges([(0, 1), (0, 1), (1, 0)])
        assert len(edges) == 2  # one per direction

    def test_zero_degree_vertices_dropped(self):
        # Vertex 5 never appears; ids are compacted to 0..1.
        edges, n, id_map = preprocess_edges([(3, 7)])
        assert n == 2
        assert id_map.tolist() == [3, 7]
        assert edges.max() == 1

    def test_compact_ids_disabled(self):
        edges, n, id_map = preprocess_edges([(3, 7)], compact_ids=False)
        assert n == 8
        assert id_map.tolist() == list(range(8))

    def test_empty_input(self):
        edges, n, id_map = preprocess_edges([])
        assert n == 0 and edges.shape == (0, 2) and id_map.size == 0

    def test_only_self_loops(self):
        edges, n, __ = preprocess_edges([(1, 1), (2, 2)])
        assert n == 0 and len(edges) == 0

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            preprocess_edges([(-1, 0)])

    def test_directed_mode_keeps_direction(self):
        edges, __, __2 = preprocess_edges([(0, 1)], undirected=False)
        assert list(map(tuple, edges.tolist())) == [(0, 1)]


class TestFromEdges:
    def test_infers_num_vertices(self):
        g = from_edges([(0, 4)])
        assert g.num_vertices == 5

    def test_explicit_num_vertices(self):
        g = from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10
        assert g.degree(9) == 0

    def test_endpoint_beyond_num_vertices(self):
        with pytest.raises(ValueError, match="exceeds num_vertices"):
            from_edges([(0, 5)], num_vertices=3)

    def test_neighbors_sorted_by_default(self):
        g = from_edges([(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0).tolist() == [1, 2, 3]

    def test_weights_follow_reordering(self):
        g = from_edges(
            [(0, 3), (0, 1)], num_vertices=4, weights=[3.0, 1.0]
        )
        assert g.neighbors(0).tolist() == [1, 3]
        assert g.neighbor_weights(0).tolist() == [1.0, 3.0]

    def test_weights_misaligned(self):
        with pytest.raises(ValueError, match="align"):
            from_edges([(0, 1)], weights=[1.0, 2.0])

    def test_malformed_edge_shape(self):
        with pytest.raises(ValueError, match="\\(n, 2\\)"):
            from_edges([(0, 1, 2)])

    def test_empty_edges(self):
        g = from_edges([], num_vertices=3)
        assert g.num_edges == 0
        assert g.num_vertices == 3

    def test_stable_unsorted_mode(self):
        g = from_edges([(1, 5), (0, 9), (1, 2)], num_vertices=10,
                       sort_neighbors=False)
        assert g.neighbors(1).tolist() == [5, 2]


class TestEdgeKeyBound:
    """Edge keys are ``src * n + dst`` in ``int64``: ``n * n < 2**63``."""

    def test_limit_is_the_largest_safe_vertex_count(self):
        assert MAX_KEYED_VERTICES**2 < 2**63 <= (MAX_KEYED_VERTICES + 1) ** 2

    def test_largest_key_at_the_limit_does_not_wrap(self):
        top = np.array([MAX_KEYED_VERTICES - 1], dtype=np.int64)
        keys = _edge_keys(top, top, MAX_KEYED_VERTICES)
        assert int(keys[0]) == MAX_KEYED_VERTICES**2 - 1

    def test_one_past_the_limit_raises(self):
        zero = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match=str(MAX_KEYED_VERTICES)):
            _edge_keys(zero, zero, MAX_KEYED_VERTICES + 1)

    def test_preprocess_uncompacted_ids_past_the_limit(self):
        # max id + 1 == MAX_KEYED_VERTICES + 1 vertices; raised before the
        # identity id map of that size is allocated.
        with pytest.raises(ValueError, match="edge-key limit"):
            preprocess_edges(
                [(0, MAX_KEYED_VERTICES)], undirected=False, compact_ids=False
            )

    def test_from_edges_num_vertices_past_the_limit(self):
        with pytest.raises(ValueError, match="edge-key limit"):
            from_edges([(0, 1)], num_vertices=MAX_KEYED_VERTICES + 1)


class TestFromAdjacency:
    def test_basic(self):
        g = from_adjacency([[1, 2], [0], []])
        assert g.num_vertices == 3
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.degree(2) == 0

    def test_weighted(self):
        g = from_adjacency([[1], [0]], weights=[[2.0], [3.0]])
        assert g.neighbor_weights(1).tolist() == [3.0]

    def test_weights_misaligned_rows(self):
        with pytest.raises(ValueError, match="misaligned"):
            from_adjacency([[1], [0]], weights=[[2.0, 1.0], [3.0]])

    def test_weights_wrong_length(self):
        with pytest.raises(ValueError, match="align"):
            from_adjacency([[1], [0]], weights=[[2.0]])


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        min_size=0,
        max_size=80,
    )
)
@settings(max_examples=60, deadline=None)
def test_preprocess_produces_simple_symmetric_graph(edges):
    """Property: preprocessing yields a loop-free symmetric simple graph."""
    cleaned, n, id_map = preprocess_edges(edges)
    assert id_map.size == n
    pairs = set(map(tuple, cleaned.tolist()))
    assert len(pairs) == len(cleaned)  # no duplicates
    for a, b in pairs:
        assert a != b  # no self loops
        assert (b, a) in pairs  # symmetric
        assert 0 <= a < n and 0 <= b < n  # compact ids

"""Unit and property tests for range-based graph partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.builders import from_edges
from repro.graph.csr import VERTEX_ENTRY_BYTES
from repro.graph.partition import (
    GraphPartition,
    PartitionedGraph,
    partition_by_range,
    partition_into,
)


class TestPartitionByRange:
    def test_tiles_vertex_range(self, small_graph):
        pg = partition_by_range(small_graph, 4096)
        assert pg.partitions[0].start == 0
        assert pg.partitions[-1].stop == small_graph.num_vertices
        for a, b in zip(pg.partitions, pg.partitions[1:]):
            assert a.stop == b.start

    def test_respects_size_bound(self, small_graph):
        block = 4096
        pg = partition_by_range(small_graph, block)
        for part in pg.partitions:
            if part.num_vertices > 1:
                assert part.nbytes <= block

    def test_oversized_singleton_allowed(self):
        g = generators.star(600)  # hub edges alone exceed a small block
        pg = partition_by_range(g, 1024)
        hub = pg.partition_of(0)
        assert hub.num_vertices == 1
        assert hub.nbytes > 1024

    def test_single_partition_when_block_huge(self, small_graph):
        pg = partition_by_range(small_graph, 10 * small_graph.csr_bytes)
        assert pg.num_partitions == 1

    def test_edges_follow_source_vertex(self, small_graph):
        pg = partition_by_range(small_graph, 8192)
        for part in pg.partitions[:5]:
            for v in range(part.start, min(part.stop, part.start + 3)):
                assert np.array_equal(
                    part.local_neighbors(v), small_graph.neighbors(v)
                )

    def test_invalid_block(self, small_graph):
        with pytest.raises(ValueError):
            partition_by_range(small_graph, 0)

    def test_empty_graph_rejected(self):
        g = from_edges([], num_vertices=0) if False else None
        from repro.graph.csr import CSRGraph

        tiny = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            partition_by_range(tiny, 1024)

    def test_weighted_partitions_carry_weights(self):
        g = from_edges([(0, 1), (1, 0)], num_vertices=2, weights=[1.0, 2.0])
        pg = partition_by_range(g, VERTEX_ENTRY_BYTES * 100)
        assert pg.partitions[0].weights is not None


class TestFindPartition:
    def test_binary_search_matches_linear(self, small_graph):
        pg = partition_by_range(small_graph, 4096)
        for v in range(0, small_graph.num_vertices, 97):
            expected = next(
                p.index for p in pg.partitions if p.contains(v)
            )
            assert pg.find_partition(v) == expected

    def test_vectorized_matches_scalar(self, small_graph):
        pg = partition_by_range(small_graph, 4096)
        vertices = np.arange(0, small_graph.num_vertices, 13)
        vec = pg.find_partitions(vertices)
        for v, p in zip(vertices, vec):
            assert pg.find_partition(int(v)) == int(p)

    def test_out_of_range(self, small_graph):
        pg = partition_by_range(small_graph, 4096)
        with pytest.raises(IndexError):
            pg.find_partition(small_graph.num_vertices)
        with pytest.raises(IndexError):
            pg.find_partition(-1)

    def test_vectorized_out_of_range_raises(self, small_graph):
        """A vertex past either end raises with the offending min / max,
        instead of landing in the last partition."""
        pg = partition_by_range(small_graph, 4096)
        v = small_graph.num_vertices
        with pytest.raises(IndexError, match=f"min={v}, max={v + 5}"):
            pg.find_partitions(np.array([v, v + 5]))
        with pytest.raises(IndexError, match="min=-1, max=3"):
            pg.find_partitions(np.array([3, -1]))

    def test_lut_matches_binary_search_on_every_vertex(self, small_graph):
        for block in (1024, 4096, 1 << 20):
            pg = partition_by_range(small_graph, block)
            vertices = np.arange(small_graph.num_vertices)
            starts = np.asarray([p.start for p in pg.partitions])
            expected = np.searchsorted(starts, vertices, side="right") - 1
            found = pg.find_partitions(vertices)
            assert np.array_equal(found, expected)
            # The narrowest signed dtype that holds P.
            assert found.dtype == np.min_scalar_type(-pg.num_partitions)
            assert np.iinfo(found.dtype).min <= -pg.num_partitions

    def test_partition_sizes(self, small_graph):
        pg = partition_by_range(small_graph, 4096)
        sizes = pg.partition_sizes()
        assert sizes.sum() >= small_graph.csr_bytes * 0.9
        assert pg.max_partition_bytes == sizes.max()


class TestGraphPartition:
    def test_contains_and_local_neighbors(self, small_graph):
        pg = partition_by_range(small_graph, 4096)
        part = pg.partitions[1]
        assert part.contains(part.start)
        assert not part.contains(part.stop)
        with pytest.raises(IndexError):
            part.local_neighbors(part.stop)

    def test_validation_rejects_gaps(self, small_graph):
        pg = partition_by_range(small_graph, 4096)
        if pg.num_partitions < 2:
            pytest.skip("need at least 2 partitions")
        with pytest.raises(ValueError, match="tile|cover|order"):
            PartitionedGraph(small_graph, pg.partitions[1:])


class TestPartitionInto:
    def test_close_to_request(self, small_graph):
        for requested in (2, 4, 8):
            pg = partition_into(small_graph, requested)
            assert requested // 2 <= pg.num_partitions <= 2 * requested + 1

    def test_one_partition(self, small_graph):
        pg = partition_into(small_graph, 1)
        assert pg.num_partitions == 1

    def test_invalid(self, small_graph):
        with pytest.raises(ValueError):
            partition_into(small_graph, 0)


@given(
    scale=st.integers(6, 9),
    block_kib=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 5),
)
@settings(max_examples=20, deadline=None)
def test_partition_properties(scale, block_kib, seed):
    """Property: disjoint cover, size bound, binary-search inversion."""
    g = generators.rmat(scale=scale, edge_factor=4, seed=seed)
    pg = partition_by_range(g, block_kib * 1024)
    # Cover & disjoint.
    covered = 0
    for part in pg.partitions:
        assert part.start == covered
        covered = part.stop
        if part.num_vertices > 1:
            assert part.nbytes <= block_kib * 1024
    assert covered == g.num_vertices
    # Lookup inversion on a sample.
    rng = np.random.default_rng(seed)
    sample = rng.integers(0, g.num_vertices, size=32)
    for v in sample:
        part = pg.partitions[pg.find_partition(int(v))]
        assert part.contains(int(v))

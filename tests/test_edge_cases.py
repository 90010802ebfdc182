"""Edge-case tests accumulated across modules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.partition import partition_into
from repro.gpu.memory import BlockPool


class TestLRUPool:
    def test_lookup_refreshes_recency(self):
        pool = BlockPool(3, track_recency=True)
        for key in ("a", "b", "c"):
            pool.insert(key, key)
        pool.lookup("a")  # refresh a: b becomes LRU
        assert pool.lru_victim() == "b"

    def test_without_tracking_stays_fifo(self):
        pool = BlockPool(3, track_recency=False)
        for key in ("a", "b", "c"):
            pool.insert(key, key)
        pool.lookup("a")
        assert pool.fifo_victim() == "a"

    def test_miss_does_not_reorder(self):
        pool = BlockPool(2, track_recency=True)
        pool.insert("a", 1)
        pool.insert("b", 2)
        pool.lookup("zzz")
        assert pool.lru_victim() == "a"


@given(requested=st.integers(1, 24), seed=st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_partition_into_property(requested, seed):
    """partition_into lands near the request and always tiles the graph."""
    graph = generators.rmat(scale=8, edge_factor=4, seed=seed)
    pg = partition_into(graph, requested)
    assert 1 <= pg.num_partitions
    assert pg.partitions[-1].stop == graph.num_vertices
    # Within a generous band of the request (greedy growth quantizes).
    assert pg.num_partitions <= 3 * requested + 1


class TestRejectionRoundCap:
    def test_pathological_weights_still_terminate(self, rng):
        """One dominant weight among thousands: rejection rounds are capped
        and the sampler still returns a valid neighbor."""
        from repro.algorithms.uniform import UniformSampling
        from repro.baselines.inmemory_cpu import (
            execute_in_memory,
            whole_graph_partition,
        )
        from repro.graph.builders import from_adjacency

        neighbors = list(range(1, 201))
        weights = [1e-9] * 199 + [1.0]
        graph = from_adjacency(
            [neighbors] + [[0]] * 200,
            weights=[weights] + [[1.0]] * 200,
        )
        algo = UniformSampling(
            length=2, weighted=True, sampler="rejection", max_reject_rounds=3
        )
        steps = execute_in_memory(graph, algo, 50, rng)
        assert steps == 100


class TestTinyGraphsThroughEngine:
    def test_smallest_possible_workload(self, tiny_config):
        from repro.algorithms import UniformSampling
        from repro.core.engine import run_walks
        from repro.graph.builders import from_edges

        graph = from_edges([(0, 1), (1, 0)], num_vertices=2)
        stats = run_walks(graph, UniformSampling(length=1), 1, tiny_config)
        assert stats.total_steps == 1
        assert stats.iterations == 1

    def test_walk_pool_exactly_one_batch(self):
        from repro.algorithms import PageRank
        from repro.core.config import EngineConfig
        from repro.core.engine import run_walks

        graph = generators.ring(32)
        config = EngineConfig(
            partition_bytes=256,
            batch_walks=8,
            graph_pool_partitions=2,
            walk_pool_walks=8,  # exactly one batch of headroom
            seed=4,
        )
        stats = run_walks(graph, PageRank(length=5), 64, config)
        assert stats.total_steps == 320
        assert stats.walk_batches_evicted > 0

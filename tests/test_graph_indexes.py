"""Per-graph indexes against the per-call code they replaced.

node2vec's edge test, metapath's typed neighbours and the engine's range
partitioning are each built once per graph (``CSRGraph.derived``) and
reused by every kernel and every engine run.  Each must answer exactly
what the code it replaced answered:

* ``CSRGraph.edges_exist`` (one ``searchsorted`` into sorted edge keys)
  against ``CSRGraph.has_edge``, on hand-built rows in any order;
* the typed-adjacency ``MetapathWalk.step_once`` against the ragged
  per-step filter of every lane's whole neighbour list, kept below
  verbatim as the reference, under the sequential and the counter RNG;
* ``partition_by_range`` (one ``searchsorted`` per partition over a byte
  prefix) against the per-vertex binary search, also kept verbatim.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.metapath import MetapathWalk
from repro.baselines.inmemory_cpu import whole_graph_partition
from repro.core import engine as engine_module
from repro.core.config import EngineConfig
from repro.core.prng import CounterRNG, lane_key_table
from repro.gpu import kernels
from repro.graph import generators
from repro.graph.csr import EDGE_ENTRY_BYTES, VERTEX_ENTRY_BYTES, CSRGraph
from repro.graph.partition import GraphPartition, partition_by_range
from repro.serve.batch import run_standalone
from repro.serve.queries import UniformQuery
from repro.serve.session import ServeSession


# ----------------------------------------------------------------------
# Reference implementations (verbatim bodies of the replaced code)
# ----------------------------------------------------------------------
def reference_metapath_step(algo, vertices, steps, partition, rng):
    """The ragged metapath step: ``(new_v, terminated, stuck lanes)``."""
    phase = (steps + 1) % algo.metapath.size
    wanted = algo.metapath[phase]
    local = vertices - partition.start
    starts = partition.offsets[local]
    stops = partition.offsets[local + 1]
    n = vertices.size
    new_v = vertices.copy()
    lengths = stops - starts
    total = int(lengths.sum())
    u = rng.random(n)
    if total == 0:
        stuck = np.ones(n, dtype=bool)
    else:
        walk_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)
        base = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        pos = np.arange(total, dtype=np.int64) - base[walk_idx]
        neighbors = partition.targets[starts[walk_idx] + pos]
        typed = algo.vertex_types[neighbors] == wanted[walk_idx]
        counts = np.bincount(walk_idx, weights=typed, minlength=n).astype(
            np.int64
        )
        stuck = counts == 0
        k = np.minimum(
            (u * counts).astype(np.int64), np.maximum(counts - 1, 0)
        )
        typed_csum = np.cumsum(typed)
        base_count = np.concatenate(([0], typed_csum))[base]
        flat_pick = np.searchsorted(
            typed_csum, base_count + k + 1, side="left"
        )
        moved = ~stuck
        new_v[moved] = neighbors[flat_pick[moved]]
    terminated = stuck | (steps + 1 >= algo.length)
    return new_v, terminated, int(stuck.sum())


def reference_boundaries(graph: CSRGraph, block_bytes: int) -> List[int]:
    """Partition boundaries of the per-vertex binary search."""
    weight_per_edge = EDGE_ENTRY_BYTES * (2 if graph.is_weighted else 1)
    boundaries = [0]
    start = 0
    while start < graph.num_vertices:
        edge_budget_base = graph.offsets[start]

        def fits(stop: int) -> bool:
            nbytes = VERTEX_ENTRY_BYTES * (stop - start + 1)
            nbytes += weight_per_edge * int(graph.offsets[stop] - edge_budget_base)
            return nbytes <= block_bytes

        if not fits(start + 1):
            stop = start + 1
        else:
            lo, hi = start + 1, graph.num_vertices
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if fits(mid):
                    lo = mid
                else:
                    hi = mid - 1
            stop = lo
        boundaries.append(stop)
        start = stop
    return boundaries


# ----------------------------------------------------------------------
# Random hand-built graphs: empty rows, duplicates, rows in any order
# ----------------------------------------------------------------------
@st.composite
def hand_built_graphs(draw, max_vertices=12, max_degree=6, weighted=False):
    n = draw(st.integers(1, max_vertices))
    degrees = draw(st.lists(st.integers(0, max_degree), min_size=n, max_size=n))
    targets = draw(
        st.lists(
            st.integers(0, n - 1), min_size=sum(degrees), max_size=sum(degrees)
        )
    )
    offsets = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if draw(st.booleans()):  # the builders' sorted rows
        for v in range(n):
            targets[offsets[v] : offsets[v + 1]].sort()
    weights = None
    if weighted and draw(st.booleans()):
        weights = np.ones(targets.size)
    return CSRGraph(offsets, targets, weights)


class TestEdgeKeys:
    @settings(max_examples=150, deadline=None)
    @given(graph=hand_built_graphs())
    def test_membership_equals_has_edge(self, graph):
        n = graph.num_vertices
        # Every ordered pair: present and absent ones, empty rows and the
        # last vertex as source and as target.
        sources, targets = np.divmod(np.arange(n * n, dtype=np.int64), n)
        expected = [graph.has_edge(int(s), int(t)) for s, t in zip(sources, targets)]
        assert graph.edges_exist(sources, targets).tolist() == expected

    def test_unsorted_rows_hand_built(self):
        graph = CSRGraph(
            np.array([0, 3, 3, 5]), np.array([2, 0, 1, 2, 0])
        )
        sources = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        targets = np.array([0, 1, 2, 0, 2, 0, 1, 2])
        assert graph.edges_exist(sources, targets).tolist() == [
            True, True, True, False, False, True, False, True,
        ]

    def test_edgeless_graph(self):
        graph = CSRGraph(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert not graph.edges_exist(np.array([0, 3]), np.array([3, 0])).any()

    def test_keys_built_once_per_graph(self):
        graph = generators.rmat(scale=6, edge_factor=4, seed=2)
        graph.edges_exist(np.array([0]), np.array([1]))

        def rebuilt():
            raise AssertionError("edge keys rebuilt")

        keys = graph.derived("edge_keys", None, rebuilt)
        graph.edges_exist(np.array([1]), np.array([0]))
        assert graph.derived("edge_keys", None, rebuilt) is keys


class TestDerivedSlot:
    def test_one_entry_per_kind(self):
        graph = generators.rmat(scale=5, edge_factor=2, seed=1)
        builds = []

        def build(tag):
            builds.append(tag)
            return object()

        first = graph.derived("kind", 1, lambda: build(1))
        assert graph.derived("kind", 1, lambda: build(1)) is first
        second = graph.derived("kind", 2, lambda: build(2))
        assert second is not first
        # Key 1 was replaced, so it is built again rather than served stale.
        graph.derived("kind", 1, lambda: build(1))
        assert builds == [1, 2, 1]


# ----------------------------------------------------------------------
# Typed adjacency vs the ragged step
# ----------------------------------------------------------------------
def make_rng(mode, seed, ids, steps):
    if mode == "sequential":
        return np.random.default_rng(seed)
    rng = CounterRNG(seed, lane_key_table(seed, ids.size))
    rng.set_context(ids, steps)
    return rng


def assert_steps_match(graph, table, metapath, length, lanes, seed):
    partition = whole_graph_partition(graph)
    rng = np.random.default_rng(seed)
    vertices = rng.integers(0, graph.num_vertices, size=lanes)
    steps = rng.integers(0, length, size=lanes)
    ids = np.arange(lanes, dtype=np.int64)
    for mode in ("sequential", "counter"):
        algo = MetapathWalk(table, metapath, length=length)
        want_v, want_t, stuck = reference_metapath_step(
            algo, vertices, steps, partition, make_rng(mode, seed, ids, steps)
        )
        got_v, got_t = algo.step_once(
            vertices, steps, ids, partition,
            make_rng(mode, seed, ids, steps), graph,
        )
        assert np.array_equal(got_v, want_v), mode
        assert np.array_equal(got_t, want_t), mode
        assert algo.early_terminations == stuck, mode


class TestTypedAdjacency:
    @settings(max_examples=100, deadline=None)
    @given(
        graph=hand_built_graphs(),
        num_types=st.integers(1, 4),
        metapath=st.lists(st.integers(0, 6), min_size=2, max_size=4),
        lanes=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_step_equals_ragged_reference(
        self, graph, num_types, metapath, lanes, seed
    ):
        # Types up to 6 against tables of 1-4 types: some wanted types
        # are on no vertex at all.
        table = np.random.default_rng(seed).integers(
            0, num_types, size=graph.num_vertices
        )
        assert_steps_match(graph, table, metapath, 5, lanes, seed)

    def test_unused_type_and_a_second_table_on_one_graph(self):
        graph = generators.rmat(scale=9, edge_factor=6, seed=3)
        rng = np.random.default_rng(5)
        first = rng.integers(0, 3, size=graph.num_vertices)
        second = rng.integers(0, 4, size=graph.num_vertices) * 2
        for table in (first, second, first):
            # 7 is on no vertex of either table.
            assert_steps_match(graph, table, (0, 1, 7, 2), 6, 300, 11)
            assert_steps_match(graph, table, (2, 0), 6, 300, 12)

    def test_table_changed_in_place_is_not_served_stale(self):
        graph = generators.rmat(scale=7, edge_factor=4, seed=9)
        table = np.arange(graph.num_vertices) % 3
        assert_steps_match(graph, table, (0, 1, 2), 4, 100, 1)
        table[::2] = 1  # a new walk over the same array sees the new types
        assert_steps_match(graph, table, (0, 1, 2), 4, 100, 1)

    def test_edgeless_graph_every_lane_stuck(self):
        graph = CSRGraph(np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert_steps_match(graph, np.zeros(5, dtype=np.int64), (0, 0), 3, 4, 2)

    def test_too_short_table_raises(self):
        graph = generators.rmat(scale=6, edge_factor=4, seed=2)
        algo = MetapathWalk(np.zeros(3, dtype=np.int64), (0, 0), length=3)
        vertices = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="vertex_types covers 3 vertices"):
            algo.step_once(
                vertices, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                whole_graph_partition(graph), np.random.default_rng(0), graph,
            )


# ----------------------------------------------------------------------
# Range partitioning
# ----------------------------------------------------------------------
class TestRangePartitioning:
    @settings(max_examples=150, deadline=None)
    @given(
        graph=hand_built_graphs(max_vertices=30, max_degree=12, weighted=True),
        block=st.integers(1, 400),
    )
    def test_boundaries_equal_binary_search(self, graph, block):
        got = partition_by_range(graph, block)
        bounds = [p.start for p in got.partitions] + [graph.num_vertices]
        assert bounds == reference_boundaries(graph, block)

    def test_oversized_singletons_on_a_power_law_graph(self):
        graph = generators.rmat(scale=11, edge_factor=8, seed=4)
        for block in (64, 1_000, 10_000, 100_000, graph.csr_bytes):
            got = partition_by_range(graph, block)
            bounds = [p.start for p in got.partitions] + [graph.num_vertices]
            assert bounds == reference_boundaries(graph, block), block

    def test_nbytes_computed_once_at_construction(self):
        part = GraphPartition(
            index=0, start=2, stop=5,
            offsets=np.array([0, 1, 1, 3]), targets=np.array([4, 0, 1]),
            weights=np.ones(3),
        )
        assert part.nbytes == 8 * 4 + 16 * 3
        assert "nbytes" in vars(part)
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.nbytes = 0  # type: ignore[misc]
        assert dataclasses.replace(part, weights=None).nbytes == 8 * 4 + 8 * 3

    @pytest.fixture
    def partition_calls(self, monkeypatch):
        """Block sizes of every ``partition_by_range`` call the engine
        module makes."""
        calls = []
        original = engine_module.partition_by_range

        def counting(graph, block_bytes):
            calls.append(block_bytes)
            return original(graph, block_bytes)

        monkeypatch.setattr(engine_module, "partition_by_range", counting)
        return calls

    def test_two_standalone_queries_partition_the_graph_once(
        self, partition_calls
    ):
        graph = generators.rmat(scale=8, edge_factor=4, seed=6)
        config = EngineConfig(partition_bytes=2_048)
        first = run_standalone(graph, UniformQuery(walks=6, length=5), 1, config)
        second = run_standalone(graph, UniformQuery(walks=6, length=5), 1, config)
        assert len(partition_calls) == 1
        assert np.array_equal(first.final_vertices, second.final_vertices)
        # Another block size is another partitioning.
        run_standalone(
            graph, UniformQuery(walks=6, length=5), 1,
            config.with_options(partition_bytes=4_096),
        )
        assert partition_calls == [2_048, 4_096]

    def test_session_and_standalone_query_partition_the_graph_once(
        self, partition_calls
    ):
        graph = generators.rmat(scale=8, edge_factor=4, seed=6)
        config = EngineConfig(partition_bytes=2_048)
        session = ServeSession(graph, config, workers=2)
        report = session.run([UniformQuery(walks=6, length=5)] * 2)
        solo = run_standalone(graph, UniformQuery(walks=6, length=5), 1, config)
        assert partition_calls == [2_048]
        assert session.partitioned is engine_module.range_partition(
            graph, 2_048
        )
        assert report.stats.queries_completed == 2
        assert len(solo.final_vertices) == 6


def test_kernel_coefficients_cached_across_runs(small_graph):
    from repro.algorithms.uniform import UniformSampling

    config = EngineConfig(partition_bytes=4_096, seed=3)
    engine_module.LightTrafficEngine(
        small_graph, UniformSampling(length=4), config
    ).run(200)
    misses = kernels.update_coefficients.cache_info().misses
    stats = engine_module.LightTrafficEngine(
        small_graph, UniformSampling(length=4), config
    ).run(200)
    assert stats.total_steps == 800
    assert kernels.update_coefficients.cache_info().misses == misses

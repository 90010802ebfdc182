"""Differential test of graph ingest against the two-sort reference.

``preprocess_edges`` dedupes and compacts with one sort over an ``int64``
edge key and a presence mask, and ``from_edges`` orders edges with one
stable ``argsort`` over the same key.  The reference below is the
previous implementation, kept verbatim: ``np.unique(axis=0)`` for the
dedupe, ``np.unique`` for the used ids and a two-key ``lexsort``.  Every
output array must be identical to it, value for value and dtype for dtype.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import workloads
from repro.core.prng import seeded_rng
from repro.graph import generators
from repro.graph.builders import from_edges, preprocess_edges
from repro.graph.csr import CSRGraph


# ----------------------------------------------------------------------
# Reference implementation (verbatim, only the function names prefixed)
# ----------------------------------------------------------------------
def _as_edge_array(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(arr, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an (n, 2) array of (source, target)")
    return arr


def reference_preprocess_edges(
    edges: Iterable[Tuple[int, int]],
    undirected: bool = True,
    remove_self_loops: bool = True,
    remove_duplicates: bool = True,
    compact_ids: bool = True,
) -> Tuple[np.ndarray, int, np.ndarray]:
    arr = _as_edge_array(edges)
    if arr.size and arr.min() < 0:
        raise ValueError("vertex ids must be non-negative")
    if undirected and arr.size:
        arr = np.concatenate([arr, arr[:, ::-1]], axis=0)
    if remove_self_loops and arr.size:
        arr = arr[arr[:, 0] != arr[:, 1]]
    if remove_duplicates and arr.size:
        arr = np.unique(arr, axis=0)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64), 0, np.empty(0, dtype=np.int64)
    if compact_ids:
        used = np.unique(arr)
        remap = np.empty(int(used.max()) + 1, dtype=np.int64)
        remap[used] = np.arange(used.size)
        arr = remap[arr]
        return arr, int(used.size), used
    num_vertices = int(arr.max()) + 1
    return arr, num_vertices, np.arange(num_vertices, dtype=np.int64)


def reference_from_edges(
    edges: Iterable[Tuple[int, int]],
    num_vertices: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    sort_neighbors: bool = True,
    name: str = "",
) -> CSRGraph:
    arr = _as_edge_array(edges)
    if num_vertices is None:
        num_vertices = int(arr.max()) + 1 if arr.size else 0
    if arr.size and arr.max() >= num_vertices:
        raise ValueError("edge endpoint exceeds num_vertices")
    weight_arr = None
    if weights is not None:
        weight_arr = np.asarray(weights, dtype=np.float64)
        if weight_arr.shape != (arr.shape[0],):
            raise ValueError("weights must align with edges")

    if sort_neighbors and arr.size:
        order = np.lexsort((arr[:, 1], arr[:, 0]))
    elif arr.size:
        order = np.argsort(arr[:, 0], kind="stable")
    else:
        order = np.empty(0, dtype=np.int64)
    arr = arr[order]
    if weight_arr is not None:
        weight_arr = weight_arr[order]

    counts = np.bincount(arr[:, 0], minlength=num_vertices) if arr.size else (
        np.zeros(num_vertices, dtype=np.int64)
    )
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    targets = arr[:, 1].copy() if arr.size else np.empty(0, dtype=np.int64)
    return CSRGraph(offsets, targets, weight_arr, name=name)


def reference_barabasi_albert(
    num_vertices: int, attach: int, seed: Optional[int] = None
) -> CSRGraph:
    rng = seeded_rng(seed)
    seed_vertices = attach + 1
    repeated = []
    edges = []
    for v in range(seed_vertices):
        for u in range(v):
            edges.append((v, u))
            repeated.extend((v, u))
    for v in range(seed_vertices, num_vertices):
        pool = np.asarray(repeated, dtype=np.int64)
        choices = rng.choice(pool, size=attach, replace=True)
        for u in np.unique(choices):
            edges.append((v, int(u)))
            repeated.extend((v, int(u)))
    cleaned, n, __ = reference_preprocess_edges(edges, undirected=True)
    return reference_from_edges(cleaned, num_vertices=n)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    assert_same_array(got.offsets, want.offsets)
    assert_same_array(got.targets, want.targets)
    assert (got.weights is None) == (want.weights is None)
    if want.weights is not None:
        assert got.weights is not None
        assert_same_array(got.weights, want.weights)
    assert got.name == want.name


def use_reference_ingest(monkeypatch) -> None:
    """Route the generators and the dataset builder through the reference."""
    for module in (generators, workloads):
        monkeypatch.setattr(module, "preprocess_edges", reference_preprocess_edges)
        monkeypatch.setattr(module, "from_edges", reference_from_edges)


# Dense ids make duplicates and self loops common; sparse ids leave most
# ids unused, so compaction and the key's vertex count both matter.
dense_ids = st.integers(0, 12)
sparse_ids = st.sampled_from([0, 1, 7, 1_000, 65_536, 99_991, 100_000])
edge_lists = st.one_of(
    st.lists(st.tuples(dense_ids, dense_ids), max_size=60),
    st.lists(st.tuples(sparse_ids, sparse_ids), max_size=60),
    st.lists(st.tuples(st.integers(0, 100_000), st.integers(0, 100_000)), max_size=40),
)
FLAGS = list(itertools.product([False, True], repeat=4))


@pytest.mark.parametrize(
    "flags", FLAGS, ids=["".join("TF"[not f] for f in flags) for flags in FLAGS]
)
@settings(max_examples=40, deadline=None)
@given(edges=edge_lists)
def test_preprocess_matches_reference(flags, edges):
    undirected, self_loops, duplicates, compact = flags
    kwargs = dict(
        undirected=undirected,
        remove_self_loops=self_loops,
        remove_duplicates=duplicates,
        compact_ids=compact,
    )
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    got = preprocess_edges(arr.copy(), **kwargs)
    want = reference_preprocess_edges(arr.copy(), **kwargs)
    assert_same_array(got[0], want[0])
    assert got[1] == want[1]
    assert_same_array(got[2], want[2])
    # The cleaned list as the generators use it: straight into from_edges.
    assert_same_graph(
        from_edges(got[0], num_vertices=got[1]),
        reference_from_edges(want[0], num_vertices=want[1]),
    )


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.tuples(dense_ids, dense_ids), max_size=80),
    weighted=st.booleans(),
    sort_neighbors=st.booleans(),
    extra_vertices=st.sampled_from([None, 0, 1, 9]),
    data=st.data(),
)
def test_from_edges_matches_reference(
    edges, weighted, sort_neighbors, extra_vertices, data
):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    num_vertices = None
    if extra_vertices is not None:
        num_vertices = (int(arr.max()) + 1 if arr.size else 0) + extra_vertices
    weights = None
    if weighted:
        # Distinct weights, so the order of parallel edges shows.
        weights = data.draw(st.permutations(range(1, arr.shape[0] + 1)))
        weights = np.asarray(weights, dtype=np.float64)
    got = from_edges(
        arr, num_vertices=num_vertices, weights=weights,
        sort_neighbors=sort_neighbors, name="g",
    )
    want = reference_from_edges(
        arr, num_vertices=num_vertices, weights=weights,
        sort_neighbors=sort_neighbors, name="g",
    )
    assert_same_graph(got, want)


@pytest.mark.parametrize("sort_neighbors", [False, True])
def test_parallel_edges_keep_input_order(sort_neighbors):
    # Thousands of copies of a few edges: an unstable sort reorders their
    # weights, while insertion sort on tiny inputs would hide it.
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 4, size=(4_000, 2))
    weights = rng.permutation(arr.shape[0]) + 1.0
    assert_same_graph(
        from_edges(arr, weights=weights, sort_neighbors=sort_neighbors),
        reference_from_edges(arr, weights=weights, sort_neighbors=sort_neighbors),
    )


# The benchmark workloads' smoke inputs (benchmarks/perf/workloads.py).
_OOM_SKEW = 0.59
WORKLOAD_SMOKE_RMAT = {
    "evict-pressure": dict(scale=9, edge_factor=8),
    "oom-pagerank": dict(
        scale=10, edge_factor=35.0, a=_OOM_SKEW,
        b=(1 - _OOM_SKEW) / 3, c=(1 - _OOM_SKEW) / 3,
    ),
    "kernel-bound": dict(scale=10, edge_factor=16),
    "cluster-sanitized": dict(scale=9, edge_factor=8),
    "serve-mixed": dict(scale=9, edge_factor=8),
}


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_SMOKE_RMAT))
def test_rmat_workload_inputs_match_reference(workload, seed, monkeypatch):
    kwargs = WORKLOAD_SMOKE_RMAT[workload]
    got = generators.rmat(seed=seed, **kwargs)
    use_reference_ingest(monkeypatch)
    assert_same_graph(got, generators.rmat(seed=seed, **kwargs))


def _dataset_at_scale_9(spec: workloads.DatasetSpec) -> CSRGraph:
    graph = generators.rmat(
        scale=9,
        edge_factor=spec.edge_factor,
        a=spec.skew_a,
        b=(1.0 - spec.skew_a) / 3,
        c=(1.0 - spec.skew_a) / 3,
        seed=spec.seed,
        name=spec.name,
    )
    if spec.global_hub:
        graph = workloads._add_global_hub(graph, spec.name)
    return graph


@pytest.mark.parametrize("name", sorted(workloads.DATASETS))
def test_dataset_recipes_match_reference(name, monkeypatch):
    spec = workloads.DATASETS[name]
    got = _dataset_at_scale_9(spec)
    use_reference_ingest(monkeypatch)
    assert_same_graph(got, _dataset_at_scale_9(spec))


@pytest.mark.parametrize(
    "num_vertices, attach, seed", [(6, 1, 0), (300, 3, 1), (500, 7, 7)]
)
def test_barabasi_albert_matches_reference(num_vertices, attach, seed):
    assert_same_graph(
        generators.barabasi_albert(num_vertices, attach, seed=seed),
        reference_barabasi_albert(num_vertices, attach, seed=seed),
    )

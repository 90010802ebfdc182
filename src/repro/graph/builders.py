"""Builders that turn raw edge data into :class:`~repro.graph.csr.CSRGraph`.

``preprocess_edges`` implements the paper's preprocessing pipeline
(§IV-A): convert to an undirected graph, remove self loops and duplicate
edges, and drop zero-degree vertices (compacting vertex ids).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

#: Largest vertex count whose ``src * n + dst`` edge keys fit ``int64``.
MAX_KEYED_VERTICES = 3_037_000_499  # floor(sqrt(2**63 - 1))


def _as_edge_array(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(arr, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an (n, 2) array of (source, target)")
    return arr


def _edge_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """One ``int64`` key per edge, ``src * num_vertices + dst``.

    For ids in ``[0, num_vertices)`` the key order is the lexicographic
    ``(src, dst)`` order; it fits ``int64`` while ``num_vertices**2 < 2**63``.
    """
    if num_vertices > MAX_KEYED_VERTICES:
        raise ValueError(
            f"{num_vertices} vertices exceed the edge-key limit of "
            f"{MAX_KEYED_VERTICES} (num_vertices**2 must stay below 2**63)"
        )
    keys = src * num_vertices
    keys += dst
    return keys


def preprocess_edges(
    edges: Iterable[Tuple[int, int]],
    undirected: bool = True,
    remove_self_loops: bool = True,
    remove_duplicates: bool = True,
    compact_ids: bool = True,
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Clean an edge list the way the paper preprocesses its datasets.

    Returns ``(edges, num_vertices, id_map)`` where ``edges`` is the cleaned
    ``(n, 2)`` array, ``num_vertices`` counts the surviving vertices and
    ``id_map`` maps new vertex ids back to the original ids (identity when
    ``compact_ids`` is false).  With ``remove_duplicates`` the edges come
    out sorted by ``(source, target)``; otherwise they keep input order
    (reverse edges after all forward ones).
    """
    arr = _as_edge_array(edges)
    if arr.size and arr.min() < 0:
        raise ValueError("vertex ids must be non-negative")
    src, dst = arr[:, 0], arr[:, 1]
    # A self loop is its own reverse, so filtering before symmetrising keeps
    # the order and holds fewer copies of the edge list.
    if remove_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if src.size == 0:
        return np.empty((0, 2), dtype=np.int64), 0, np.empty(0, dtype=np.int64)
    num_vertices = int(max(src.max(), dst.max())) + 1
    if compact_ids:
        # The ids that occur, in increasing order, and their new dense ids.
        present = np.zeros(num_vertices, dtype=bool)
        present[src] = True
        present[dst] = True
        id_map = present.nonzero()[0]
        remap = np.empty(num_vertices, dtype=np.int64)
        remap[id_map] = np.arange(id_map.size)
        src = remap[src]
        dst = remap[dst]
        num_vertices = int(id_map.size)
    if remove_duplicates:
        keys = _edge_keys(src, dst, num_vertices)
        del src, dst
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        cleaned = np.empty((keys.size, 2), dtype=np.int64)
        np.divmod(keys, num_vertices, out=(cleaned[:, 0], cleaned[:, 1]))
    else:
        cleaned = np.stack([src, dst], axis=1)
    if not compact_ids:
        id_map = np.arange(num_vertices, dtype=np.int64)
    return cleaned, num_vertices, id_map


def from_edges(
    edges: Iterable[Tuple[int, int]],
    num_vertices: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    sort_neighbors: bool = True,
    name: str = "",
) -> CSRGraph:
    """Build a CSR graph from an edge list.

    Parameters
    ----------
    edges:
        iterable of ``(source, target)`` pairs, or an ``(n, 2)`` array.
    num_vertices:
        total vertex count; inferred as ``max id + 1`` when omitted.
    weights:
        optional per-edge weights aligned with ``edges``.
    sort_neighbors:
        keep each neighbor list sorted (enables binary-search ``has_edge``).

    Edges are ordered by a stable sort, so parallel edges keep their input
    order (and their weights with them).
    """
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

    src, dst = arr[:, 0], arr[:, 1]
    # Timsort (NumPy's stable int64 sort) is linear on already-sorted keys,
    # which is what preprocess_edges hands over.
    keys = _edge_keys(src, dst, num_vertices) if sort_neighbors else src
    order = np.argsort(keys, kind="stable")
    del keys
    targets = dst[order]
    if weight_arr is not None:
        weight_arr = weight_arr[order]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
    return CSRGraph(offsets, targets, weight_arr, name=name)


def from_adjacency(
    adjacency: Sequence[Sequence[int]],
    weights: Optional[Sequence[Sequence[float]]] = None,
    name: str = "",
) -> CSRGraph:
    """Build a CSR graph from per-vertex neighbor lists."""
    num_vertices = len(adjacency)
    counts = np.fromiter(
        (len(neigh) for neigh in adjacency), dtype=np.int64, count=num_vertices
    )
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    targets = np.empty(int(offsets[-1]), dtype=np.int64)
    for v, neigh in enumerate(adjacency):
        targets[offsets[v] : offsets[v + 1]] = neigh
    weight_arr = None
    if weights is not None:
        if len(weights) != num_vertices:
            raise ValueError("weights must align with adjacency")
        weight_arr = np.empty_like(targets, dtype=np.float64)
        for v, w in enumerate(weights):
            if len(w) != counts[v]:
                raise ValueError(f"weights for vertex {v} misaligned")
            weight_arr[offsets[v] : offsets[v + 1]] = w
    return CSRGraph(offsets, targets, weight_arr, name=name)

"""Synthetic graph generators.

The paper evaluates on seven real graphs (Table II) that are not
redistributable here, so the benchmark suite uses scaled-down synthetic
twins.  The workhorse is a vectorized R-MAT generator, which reproduces the
power-law degree skew (hub vertices, stragglers, hot partitions) that drives
the paper's scheduling results.  Simple deterministic topologies (star, ring,
complete) support unit tests with analytically known walk behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.prng import seeded_rng
from repro.graph.builders import from_edges, preprocess_edges
from repro.graph.csr import CSRGraph


def _rng(seed: Optional[int]) -> np.random.Generator:
    return seeded_rng(seed)


def rmat(
    scale: int,
    edge_factor: float,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
    undirected: bool = True,
    name: str = "",
) -> CSRGraph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    ``edge_factor`` is the number of generated edges per vertex *before*
    preprocessing (undirecting and dedup change the final count).  The
    recursive quadrant probabilities ``(a, b, c, d=1-a-b-c)`` default to the
    Graph500 values, which yield a heavy-tailed degree distribution similar
    to the paper's social/web graphs.
    """
    if scale < 1 or scale > 30:
        raise ValueError("scale must be in [1, 30]")
    if not 0 < edge_factor <= 1024:
        raise ValueError("edge_factor must be in (0, 1024]")
    if not 0 < a + b + c < 1:
        raise ValueError("quadrant probabilities must leave d = 1-a-b-c > 0")
    rng = _rng(seed)
    num_vertices = 1 << scale
    num_edges = int(edge_factor * num_vertices)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    ab = a + b
    a_frac = a / ab
    c_frac = c / (1.0 - ab)
    for _ in range(scale):
        src <<= 1
        dst <<= 1
        go_down = rng.random(num_edges) >= ab
        # Within the chosen half, pick the right quadrant.
        right = np.where(
            go_down,
            rng.random(num_edges) >= c_frac,
            rng.random(num_edges) >= a_frac,
        )
        src += go_down
        dst += right
    edges = np.stack([src, dst], axis=1)
    # Hold one copy of the raw edges while cleaning and none while building
    # the CSR: the build's peak memory is set here, not by the draws.
    del src, dst
    cleaned, n, __ = preprocess_edges(edges, undirected=undirected)
    del edges
    return from_edges(cleaned, num_vertices=n, name=name)


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: Optional[int] = None,
    undirected: bool = True,
    name: str = "",
) -> CSRGraph:
    """Uniform random graph with ``num_edges`` sampled edges."""
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    rng = _rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    edges = np.stack([src, dst], axis=1)
    cleaned, n, __ = preprocess_edges(edges, undirected=undirected)
    return from_edges(cleaned, num_vertices=n, name=name)


def barabasi_albert(
    num_vertices: int,
    attach: int,
    seed: Optional[int] = None,
    name: str = "",
) -> CSRGraph:
    """Preferential-attachment graph (each new vertex attaches ``attach`` edges).

    Uses the repeated-endpoint trick for preferential attachment, so it runs
    in O(|E|) without per-step degree bookkeeping: ``repeated`` lists both
    endpoints of every edge so far, so a uniform draw from it picks a
    vertex with probability proportional to its degree.  Read in pairs it
    is also the edge list.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if num_vertices <= attach:
        raise ValueError("num_vertices must exceed attach")
    rng = _rng(seed)
    # Start from a small clique of `attach + 1` vertices.
    seed_vertices = attach + 1
    clique = [(v, u) for v in range(seed_vertices) for u in range(v)]
    repeated = np.empty(
        2 * (len(clique) + attach * (num_vertices - seed_vertices)), dtype=np.int64
    )
    count = 2 * len(clique)
    repeated[:count] = np.asarray(clique, dtype=np.int64).ravel()
    for v in range(seed_vertices, num_vertices):
        choices = rng.choice(repeated[:count], size=attach, replace=True)
        targets = np.unique(choices)
        end = count + 2 * targets.size
        repeated[count:end:2] = v
        repeated[count + 1 : end : 2] = targets
        count = end
    edges = repeated[:count].reshape(-1, 2)
    cleaned, n, __ = preprocess_edges(edges, undirected=True)
    return from_edges(cleaned, num_vertices=n, name=name)


def star(num_leaves: int, name: str = "star") -> CSRGraph:
    """Hub vertex 0 connected to ``num_leaves`` leaves (undirected)."""
    if num_leaves < 1:
        raise ValueError("num_leaves must be >= 1")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    edges = np.stack([np.zeros_like(leaves), leaves], axis=1)
    cleaned, n, __ = preprocess_edges(edges, undirected=True, compact_ids=False)
    return from_edges(cleaned, num_vertices=n, name=name)


def ring(num_vertices: int, name: str = "ring") -> CSRGraph:
    """Cycle graph on ``num_vertices`` vertices (undirected)."""
    if num_vertices < 3:
        raise ValueError("ring needs at least 3 vertices")
    src = np.arange(num_vertices, dtype=np.int64)
    dst = (src + 1) % num_vertices
    cleaned, n, __ = preprocess_edges(
        np.stack([src, dst], axis=1), undirected=True, compact_ids=False
    )
    return from_edges(cleaned, num_vertices=n, name=name)


def complete(num_vertices: int, name: str = "complete") -> CSRGraph:
    """Complete graph on ``num_vertices`` vertices."""
    if num_vertices < 2:
        raise ValueError("complete graph needs at least 2 vertices")
    grid_src, grid_dst = np.meshgrid(
        np.arange(num_vertices, dtype=np.int64),
        np.arange(num_vertices, dtype=np.int64),
        indexing="ij",
    )
    mask = grid_src != grid_dst
    edges = np.stack([grid_src[mask], grid_dst[mask]], axis=1)
    return from_edges(edges, num_vertices=num_vertices, name=name)


def with_random_weights(
    graph: CSRGraph, seed: Optional[int] = None, low: float = 0.1, high: float = 1.0
) -> CSRGraph:
    """Copy of ``graph`` with uniform random edge weights in ``[low, high)``."""
    if low <= 0 or high <= low:
        raise ValueError("need 0 < low < high")
    rng = _rng(seed)
    weights = rng.uniform(low, high, size=graph.num_edges)
    return CSRGraph(graph.offsets, graph.targets, weights, name=graph.name)


def degree_histogram(graph: CSRGraph, bins: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Log-binned degree histogram (testing/reporting helper)."""
    degrees = graph.degrees()
    degrees = degrees[degrees > 0]
    if degrees.size == 0:
        return np.zeros(0), np.zeros(0)
    edges = np.unique(
        np.geomspace(1, max(degrees.max(), 2), num=bins).astype(np.int64)
    )
    hist, bin_edges = np.histogram(degrees, bins=edges)
    return hist, bin_edges

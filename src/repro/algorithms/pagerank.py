"""PageRank via random walk with restart (§IV-A).

Each walk has a fixed length ``l``; at each step it restarts at a uniformly
random vertex with probability ``p`` (default 0.15), otherwise moves to a
uniform neighbor.  Per-vertex visit frequencies (stored in GPU memory in the
paper) are the Monte-Carlo PageRank estimate; :meth:`pagerank_scores`
normalizes them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm, uniform_neighbors
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition
from repro.walks.state import WalkArrays


class PageRank(RandomWalkAlgorithm):
    """Random walk with restart; visit frequencies estimate PageRank."""

    name = "pagerank"
    carries_walk_id = False

    def __init__(self, length: int = 80, restart_prob: float = 0.15) -> None:
        if length < 1:
            raise ValueError("walk length must be >= 1")
        if not 0 <= restart_prob < 1:
            raise ValueError("restart_prob must be in [0, 1)")
        self.length = length
        self.restart_prob = restart_prob
        self.visit_counts: Optional[np.ndarray] = None
        self._num_vertices = 0

    # ------------------------------------------------------------------
    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        self._num_vertices = graph.num_vertices
        self.visit_counts = np.zeros(graph.num_vertices, dtype=np.int64)
        return np.arange(num_walks, dtype=np.int64) % graph.num_vertices

    def on_start(self, walks: WalkArrays, graph: CSRGraph) -> None:
        np.add.at(self.visit_counts, walks.vertices, 1)

    def step_once(
        self,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        partition: GraphPartition,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        # One block for the neighbour pick and the restart coin: the same
        # stream as two ``random(n)`` calls.  The restart target stays a
        # separate ``integers`` draw (a Generator's bounded integers are a
        # different stream from its floats).
        uniforms = rng.random((2, vertices.size))
        neighbor, dead_end = uniform_neighbors(
            partition, vertices, uniforms[0]
        )
        restart = uniforms[1] < self.restart_prob
        # Dead ends behave like a forced restart (dangling-vertex handling).
        restart |= dead_end
        random_targets = rng.integers(
            0, self._num_vertices, size=vertices.size, dtype=np.int64
        )
        new_v = np.where(restart, random_targets, neighbor)
        terminated = steps >= self.length - 1
        return new_v, terminated

    def observe(
        self, vertices: np.ndarray, ids: np.ndarray, terminated: np.ndarray
    ) -> None:
        np.add.at(self.visit_counts, vertices, 1)

    # ------------------------------------------------------------------
    def pagerank_scores(self) -> np.ndarray:
        """Visit frequencies normalized to a probability vector."""
        if self.visit_counts is None:
            raise RuntimeError("run the algorithm before reading scores")
        total = self.visit_counts.sum()
        if total == 0:
            return np.zeros_like(self.visit_counts, dtype=np.float64)
        return self.visit_counts / total

    def expected_total_steps(self, num_walks: int) -> float:
        return float(num_walks) * self.length


def power_iteration_pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    iterations: int = 100,
    tol: float = 1e-12,
) -> np.ndarray:
    """Reference PageRank by power iteration (for accuracy tests).

    ``damping = 1 - restart_prob``; dangling vertices redistribute uniformly,
    matching the walker's forced-restart behaviour.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0)
    degrees = graph.degrees().astype(np.float64)
    dangling = degrees == 0
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        contrib = np.zeros(n)
        weights = rank[sources] / degrees[sources]
        np.add.at(contrib, graph.targets, weights)
        dangling_mass = rank[dangling].sum()
        new_rank = (1 - damping) / n + damping * (contrib + dangling_mass / n)
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return rank / rank.sum()

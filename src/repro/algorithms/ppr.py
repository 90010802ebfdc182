"""Personalized PageRank via geometric-length walks from one source (§IV-A).

All walks start at the same source vertex (the paper uses the
highest-degree vertex); at each step a walk terminates with probability
``p`` (default 0.15) and otherwise moves to a uniform neighbor, so walk
lengths follow a geometric distribution — the paper's canonical
variable-length workload (it is what makes stragglers and adaptive
zero-copy scheduling matter, Fig 14).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm, uniform_neighbors
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition
from repro.walks.state import WalkArrays


class PersonalizedPageRank(RandomWalkAlgorithm):
    """Single-source random walks with geometric termination."""

    name = "ppr"
    carries_walk_id = False
    fixed_length = False

    def __init__(
        self,
        source: Optional[int] = None,
        stop_prob: float = 0.15,
        max_length: int = 10_000,
    ) -> None:
        if not 0 < stop_prob < 1:
            raise ValueError("stop_prob must be in (0, 1)")
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.source = source
        self.stop_prob = stop_prob
        self.max_length = max_length
        self.visit_counts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def resolve_source(self, graph: CSRGraph) -> int:
        """The configured source, defaulting to the highest-degree vertex."""
        if self.source is not None:
            if not 0 <= self.source < graph.num_vertices:
                raise ValueError("source vertex out of range")
            return self.source
        return int(np.argmax(graph.degrees()))

    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        self.visit_counts = np.zeros(graph.num_vertices, dtype=np.int64)
        source = self.resolve_source(graph)
        return np.full(num_walks, source, dtype=np.int64)

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
        # One block for the stop coin and the neighbour pick: the same
        # stream as two ``random(n)`` calls.
        uniforms = rng.random((2, vertices.size))
        stop = uniforms[0] < self.stop_prob
        neighbor, dead_end = uniform_neighbors(
            partition, vertices, uniforms[1]
        )
        new_v = np.where(stop, vertices, neighbor)
        terminated = steps >= self.max_length - 1
        terminated |= stop
        terminated |= dead_end
        return new_v, terminated

    def observe(
        self, vertices: np.ndarray, ids: np.ndarray, terminated: np.ndarray
    ) -> None:
        moved = ~terminated
        if moved.any():
            np.add.at(self.visit_counts, vertices[moved], 1)

    # ------------------------------------------------------------------
    def ppr_scores(self) -> np.ndarray:
        """Visit frequencies normalized to the PPR probability estimate."""
        if self.visit_counts is None:
            raise RuntimeError("run the algorithm before reading scores")
        total = self.visit_counts.sum()
        if total == 0:
            return np.zeros_like(self.visit_counts, dtype=np.float64)
        return self.visit_counts / total

    def expected_total_steps(self, num_walks: int) -> float:
        # Each step terminates w.p. p, so processed steps per walk are
        # geometric with mean 1/p (the terminating draw is also processed).
        return float(num_walks) / self.stop_prob


class SeedSetPersonalizedPageRank(PersonalizedPageRank):
    """PPR whose walks start from a *seed set* instead of one source.

    The serving front-end's PPR queries carry an explicit seed set (a
    user's neighborhood, a topic's anchor pages); walks are assigned to
    seeds round-robin so every seed gets ``ceil(walks / len(seeds))`` or
    the floor thereof.  The assignment is a pure function of the walk
    index — no RNG draw — which keeps start vertices identical between a
    standalone run and the coalesced serve path regardless of the
    generator handed in.
    """

    name = "ppr-seedset"

    def __init__(
        self,
        sources: Sequence[int],
        stop_prob: float = 0.15,
        max_length: int = 10_000,
    ) -> None:
        super().__init__(
            source=None, stop_prob=stop_prob, max_length=max_length
        )
        seeds = np.asarray(list(sources), dtype=np.int64)
        if seeds.size == 0:
            raise ValueError("seed set must not be empty")
        if (seeds < 0).any():
            raise ValueError("seed vertices must be non-negative")
        self.sources = seeds

    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        if int(self.sources.max()) >= graph.num_vertices:
            raise ValueError("seed vertex out of range")
        self.visit_counts = np.zeros(graph.num_vertices, dtype=np.int64)
        picks = np.arange(num_walks, dtype=np.int64) % self.sources.size
        return self.sources[picks]

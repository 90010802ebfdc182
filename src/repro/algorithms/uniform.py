"""Uniform sampling: fixed-length uniform-neighbor walks (§IV-A).

Walks start uniformly at all vertices (walk ``k`` starts at vertex
``k mod |V|``, matching "2|V| walks started uniformly at all vertices") and
take exactly ``length`` steps.  The walk index carries ``walk_id`` so that
sampled paths can be shipped to a consumer; optional in-process path
recording is provided for small runs (examples/tests) — the paper assumes
paths are transferred to other GPUs and does not store them.

Weighted next-hop selection is delegated to the transition-sampler
registry (:mod:`repro.algorithms.transitions`): any registered sampler
(``alias``, ``inverse``, ``rejection``, ``uniform``) can be selected per
instance or via ``EngineConfig.sampler`` / ``repro run --sampler``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm, uniform_neighbors
from repro.algorithms.transitions import (
    SAMPLER_ALIAS,
    SAMPLER_REJECTION,
    SAMPLER_UNIFORM,
    make_sampler,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition
from repro.walks.state import WalkArrays


class UniformSampling(RandomWalkAlgorithm):
    """Fixed-length uniform random walks (DeepWalk-style sampling)."""

    name = "uniform"
    carries_walk_id = True

    #: legacy aliases for the registry's sampler names (§II-A mentions both).
    SAMPLER_ALIAS = SAMPLER_ALIAS
    SAMPLER_REJECTION = SAMPLER_REJECTION

    def __init__(
        self,
        length: int = 80,
        record_paths: bool = False,
        weighted: bool = False,
        sampler: str = SAMPLER_ALIAS,
        max_reject_rounds: int = 64,
    ) -> None:
        if length < 1:
            raise ValueError("walk length must be >= 1")
        self.length = length
        self.record_paths = record_paths
        self.weighted = weighted
        self.max_reject_rounds = max_reject_rounds
        self.paths: Optional[np.ndarray] = None
        self.set_transition_sampler(sampler)

    # ------------------------------------------------------------------
    def set_transition_sampler(self, name: str) -> None:
        """Select the weighted next-hop sampler from the registry."""
        if name == SAMPLER_REJECTION:
            impl = make_sampler(name, max_rounds=self.max_reject_rounds)
        else:
            impl = make_sampler(name)
        self.sampler = name
        self._sampler_impl = impl
        # Cost-model identity: unweighted walks always step uniformly.
        self.transition_sampler = name if self.weighted else SAMPLER_UNIFORM
        self.uses_subset_draws = self.weighted and impl.subset_draws

    def consume_sampler_fallbacks(self) -> int:
        return self._sampler_impl.consume_fallbacks()

    # ------------------------------------------------------------------
    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        starts = np.arange(num_walks, dtype=np.int64) % graph.num_vertices
        if self.record_paths:
            self.paths = np.full(
                (num_walks, self.length + 1), -1, dtype=np.int64
            )
        return starts

    def on_start(self, walks: WalkArrays, graph: CSRGraph) -> None:
        if self.paths is not None:
            self.paths[walks.ids, 0] = walks.vertices

    def step_once(
        self,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        partition: GraphPartition,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        if (
            self.weighted
            and partition.weights is not None
            and self.sampler != SAMPLER_UNIFORM
        ):
            new_v, dead_end = self._sampler_impl.sample(
                partition, vertices, rng
            )
        else:
            new_v, dead_end = uniform_neighbors(
                partition, vertices, rng.random(vertices.size)
            )
        terminated = steps >= self.length - 1
        terminated |= dead_end
        if self.paths is not None:
            self.paths[ids, steps + 1] = new_v
        return new_v, terminated

    def expected_total_steps(self, num_walks: int) -> float:
        return float(num_walks) * self.length

"""Uniform next-hop sampling (the paper's default, §II-A)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.algorithms.base import uniform_neighbors
from repro.algorithms.transitions.base import TransitionSampler
from repro.algorithms.transitions.registry import (
    SAMPLER_UNIFORM,
    register_sampler,
)
from repro.graph.partition import GraphPartition


class UniformTransition(TransitionSampler):
    """Degree-scaled uniform pick: one ``rng.random`` draw per walk.

    Delegates to :func:`repro.algorithms.base.uniform_neighbors` so the
    registry path is draw-for-draw identical to the historical inline call
    (golden engine traces must not move).
    """

    name = SAMPLER_UNIFORM

    def sample(
        self,
        partition: GraphPartition,
        vertices: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return uniform_neighbors(
            partition, vertices, rng.random(vertices.size)
        )


register_sampler(SAMPLER_UNIFORM, UniformTransition)

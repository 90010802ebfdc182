"""The transition-sampler protocol.

A :class:`TransitionSampler` answers one question, vectorized: *given a set
of walks parked at vertices of one graph partition, which neighbor does
each walk move to?*  Algorithms own a sampler instance and call
:meth:`TransitionSampler.sample` from ``step_once``; the engine's cost
model charges the active sampler's per-step cycles
(:meth:`repro.gpu.calibration.Calibration.step_cycles_for`).

Contract
--------
* ``sample(partition, vertices, rng)`` returns ``(next_vertices,
  dead_end)``; ``dead_end[i]`` marks walks whose vertex has no eligible
  out-edge (their ``next_vertices`` entry is the vertex itself).  All
  ``vertices`` carry *global* ids inside ``partition``.
* Per-partition preprocessing (alias tables, prefix sums) happens in
  :meth:`prepare`, cached by partition index — the O(E_p) build cost is
  paid once, mirroring a device-resident auxiliary structure.
* Samplers that redraw only a *subset* of lanes (rejection) set
  ``subset_draws = True``; the engine refuses ``rng_mode="counter"`` for
  them because the counter RNG's all-lanes draw contract cannot replay
  data-dependent subsets.
* Saturation of bounded rejection loops is counted in ``fallbacks`` and
  drained by :meth:`consume_fallbacks` so the event bus can surface
  silent quality degradation (walks that accepted an unvetted candidate).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Tuple

import numpy as np

from repro.graph.partition import GraphPartition


class TransitionSampler(abc.ABC):
    """Vectorized next-hop selection for walks inside one partition."""

    #: registry name (also the cost-model key).
    name: str = "sampler"
    #: whether the sampler requires edge weights on the partition.
    needs_weights: bool = False
    #: whether the sampler redraws data-dependent lane subsets
    #: (incompatible with the counter-based RNG's all-lanes contract).
    subset_draws: bool = False

    def __init__(self) -> None:
        self._states: Dict[int, object] = {}
        self.fallbacks = 0

    # ------------------------------------------------------------------
    def prepare(self, partition: GraphPartition) -> Any:
        """Cached per-partition build state (alias tables, prefix sums)."""
        state = self._states.get(partition.index)
        if state is None:
            state = self._states[partition.index] = self._build(partition)
        return state

    def consume_fallbacks(self) -> int:
        """Return and clear the saturation count since the last call."""
        count = self.fallbacks
        self.fallbacks = 0
        return count

    # ------------------------------------------------------------------
    def _build(self, partition: GraphPartition) -> Any:
        """Build the per-partition state; default: no state."""
        return None

    @abc.abstractmethod
    def sample(
        self,
        partition: GraphPartition,
        vertices: np.ndarray,
        rng: Any,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pick one neighbor per walk; returns ``(next_vertices, dead_end)``."""

    # ------------------------------------------------------------------
    def _require_weights(self, partition: GraphPartition) -> np.ndarray:
        if partition.weights is None:
            raise ValueError(
                f"{self.name} sampling requires edge weights "
                f"(partition {partition.index} is unweighted)"
            )
        return partition.weights

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"

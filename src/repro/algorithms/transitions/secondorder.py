"""Second-order (node2vec) acceptance without per-candidate ``has_edge``.

The node2vec rejection sampler classifies each proposed candidate against
the walk's *previous* vertex: return (distance 0), common neighbor
(distance 1) or outward (distance 2).  The distance-1 test is an edge-
existence query ``(prev, candidate)``; the historical implementation
(`Node2Vec._acceptance`) issued one Python-level ``graph.has_edge`` call
per candidate.  Here a whole batch is one ``np.searchsorted`` into the
graph's sorted edge keys ``source * |V| + target``
(:meth:`~repro.graph.csr.CSRGraph.edges_exist`), built once per graph and
shared by every kernel of every run on it, whatever the row order.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.transitions.registry import SAMPLER_SECOND_ORDER
from repro.graph.csr import CSRGraph


class SecondOrderAcceptance:
    """Batched node2vec acceptance probabilities.

    Not a first-order :class:`TransitionSampler` (it needs each walk's
    previous vertex), but it shares the cost-model namespace under
    ``"second_order"``.  Produces values identical to the historical
    per-element loop: the branch constants are precomputed scalars, so
    only the edge-existence test changes implementation.
    """

    name = SAMPLER_SECOND_ORDER

    def __init__(self, return_param: float, inout_param: float) -> None:
        if return_param <= 0 or inout_param <= 0:
            raise ValueError("p and q must be positive")
        self.w_return = 1.0 / return_param
        self.w_inout = 1.0 / inout_param
        self.ceiling = max(1.0, self.w_return, self.w_inout)

    def acceptance(
        self,
        graph: CSRGraph,
        prev: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Acceptance probability of each candidate given previous vertices."""
        p_return = self.w_return / self.ceiling
        p_common = 1.0 / self.ceiling
        p_inout = self.w_inout / self.ceiling
        first_step = prev < 0
        is_return = candidates == prev
        # Edge existence only matters for lanes that are neither; give the
        # test a safe source for first-step lanes (prev == -1).
        exists = graph.edges_exist(np.where(first_step, 0, prev), candidates)
        return np.where(
            first_step,
            1.0,
            np.where(is_return, p_return, np.where(exists, p_common, p_inout)),
        )

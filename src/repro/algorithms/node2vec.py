"""Second-order node2vec walks via rejection sampling (extension).

This goes beyond the paper's three evaluated algorithms (the paper cites
second-order walks as related work, §V).  Node2vec biases the next-hop
distribution by the *previous* vertex: a candidate at distance 0 from the
previous vertex is weighted ``1/p``, distance 1 weighted ``1``, otherwise
``1/q``.  We use the standard rejection-sampling formulation: propose a
uniform neighbor, accept with the candidate's weight over ``max(1, 1/p,
1/q)``.

The acceptance classification runs vectorized through
:class:`~repro.algorithms.transitions.secondorder.SecondOrderAcceptance`:
the distance-1 test is one ``searchsorted`` into the graph's sorted edge
keys (:meth:`~repro.graph.csr.CSRGraph.edges_exist`), an index built once
per graph and reused by every kernel and every engine run on it.  The
historical per-candidate ``graph.has_edge`` loop is kept as
:meth:`Node2Vec._acceptance_loop` — the parity anchor and the ``repro
experiment samplers`` before/after baseline.

Out-of-memory caveat (documented deviation): the distance test needs the
*previous* vertex's adjacency, which may live in a different partition.
True out-of-memory second-order walks need the I/O machinery of GraSorw;
here the check reads the full host-resident graph (in this reproduction the
host always holds the whole CSR anyway), and the walk index carries the
previous vertex in a host-side side table keyed by ``walk_id``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm, uniform_neighbors
from repro.algorithms.transitions import (
    SAMPLER_SECOND_ORDER,
    SecondOrderAcceptance,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition


class Node2Vec(RandomWalkAlgorithm):
    """Fixed-length second-order walks with (p, q) bias."""

    name = "node2vec"
    carries_walk_id = True
    transition_sampler = SAMPLER_SECOND_ORDER
    uses_subset_draws = True  # rejection rounds redraw pending lanes only

    def __init__(
        self,
        length: int = 80,
        return_param: float = 1.0,
        inout_param: float = 1.0,
        max_reject_rounds: int = 32,
    ) -> None:
        if length < 1:
            raise ValueError("walk length must be >= 1")
        if return_param <= 0 or inout_param <= 0:
            raise ValueError("p and q must be positive")
        self.length = length
        self.return_param = return_param
        self.inout_param = inout_param
        self.max_reject_rounds = max_reject_rounds
        self._acceptance_kernel = SecondOrderAcceptance(
            return_param, inout_param
        )
        self._prev: Optional[np.ndarray] = None
        self._fallbacks = 0

    # ------------------------------------------------------------------
    @property
    def bytes_per_walk(self) -> int:
        # vertex + steps + walk_id + prev_vertex
        return 24

    def consume_sampler_fallbacks(self) -> int:
        count = self._fallbacks
        self._fallbacks = 0
        return count

    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        starts = np.arange(num_walks, dtype=np.int64) % graph.num_vertices
        self._prev = np.full(num_walks, -1, dtype=np.int64)
        return starts

    def _prev_table(self, ids: np.ndarray) -> np.ndarray:
        """The previous-vertex side table, grown to cover ``ids``.

        Engine reuse (multi-round runs, a second ``run`` with more walks)
        can present walk ids beyond the table sized by ``start_vertices``;
        growing on demand keeps those ids well-defined as fresh walks
        (prev = -1) instead of surfacing a raw IndexError.
        """
        if self._prev is None:
            raise RuntimeError("start_vertices must be called first")
        if ids.size:
            max_id = int(ids.max())
            if max_id >= self._prev.size:
                grown = np.full(max_id + 1, -1, dtype=np.int64)
                grown[: self._prev.size] = self._prev
                self._prev = grown
        return self._prev

    # ------------------------------------------------------------------
    def _acceptance(
        self,
        graph: CSRGraph,
        prev: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Acceptance probability of each candidate given previous vertices."""
        return self._acceptance_kernel.acceptance(graph, prev, candidates)

    def _acceptance_loop(
        self,
        graph: CSRGraph,
        prev: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Per-candidate ``has_edge`` loop (parity/bench reference)."""
        w_return = 1.0 / self.return_param
        w_inout = 1.0 / self.inout_param
        ceiling = max(1.0, w_return, w_inout)
        probs = np.empty(candidates.size, dtype=np.float64)
        for i in range(candidates.size):
            pv = int(prev[i])
            cand = int(candidates[i])
            if pv < 0:
                probs[i] = 1.0  # first step is unbiased
            elif cand == pv:
                probs[i] = w_return / ceiling
            elif graph.has_edge(pv, cand):
                probs[i] = 1.0 / ceiling
            else:
                probs[i] = w_inout / ceiling
        return probs

    def step_once(
        self,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        partition: GraphPartition,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        if graph is None:
            raise RuntimeError(
                "Node2Vec requires host-graph access for second-order checks"
            )
        prev_table = self._prev_table(ids)
        prev = prev_table[ids]
        new_v, dead_end = uniform_neighbors(
            partition, vertices, rng.random(vertices.size)
        )
        pending = ~dead_end
        rounds = 0
        while pending.any() and rounds < self.max_reject_rounds:
            idx = np.nonzero(pending)[0]
            probs = self._acceptance(graph, prev[idx], new_v[idx])
            accepted = rng.random(idx.size) < probs
            pending[idx[accepted]] = False
            if pending.any():
                re_idx = np.nonzero(pending)[0]
                resampled, re_dead = uniform_neighbors(
                    partition, vertices[re_idx], rng.random(re_idx.size)
                )
                new_v[re_idx] = resampled
                pending[re_idx[re_dead]] = False
            rounds += 1
        # Lanes still pending kept their last, unvetted candidate; count
        # them so the event bus can surface the quality degradation.
        self._fallbacks += int(pending.sum())
        prev_table[ids] = vertices
        terminated = dead_end | (steps + 1 >= self.length)
        return new_v, terminated

    def expected_total_steps(self, num_walks: int) -> float:
        return float(num_walks) * self.length

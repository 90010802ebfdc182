"""Neighbor sampling strategies for weighted graphs (§II-A).

The paper notes simple random walks extend to weighted graphs via rejection
sampling and alias sampling; both are provided here:

* :class:`AliasTable` — Vose's O(n) construction, O(1) sampling; used for
  weighted first-order walks.
* :func:`rejection_sample` — generic accept/reject against per-candidate
  acceptance probabilities; used by second-order node2vec walks.

These are the *loop reference* implementations: the production hot path
lives in :mod:`repro.algorithms.transitions` (vectorized builds), and this
module anchors its golden parity tests and the ``repro experiment
samplers`` before/after comparison.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np


class AliasTable:
    """Walker/Vose alias method over a discrete distribution."""

    __slots__ = ("prob", "alias", "size")

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        n = weights.size
        scaled = weights * (n / total)
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        for i in small + large:
            prob[i] = 1.0
        self.prob = prob
        self.alias = alias
        self.size = n

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Draw ``count`` indices in O(1) each."""
        if count < 0:
            raise ValueError("count must be non-negative")
        slots = rng.integers(0, self.size, size=count)
        accept = rng.random(count) < self.prob[slots]
        return np.where(accept, slots, self.alias[slots])


class PartitionAliasSampler:
    """Per-vertex alias tables for one weighted graph partition.

    Built lazily per partition (the construction cost is O(E_p), paid once
    when a weighted algorithm first touches the partition).  The per-vertex
    tables are stored *flattened* along the partition's edge array, so
    sampling is two vectorized draws for any mix of vertices — exactly the
    (slot, accept) pair a GPU alias kernel issues, and compatible with the
    counter-based RNG's all-lanes draw contract.
    """

    def __init__(self, offsets: np.ndarray, weights: np.ndarray) -> None:
        if weights is None:
            raise ValueError("partition has no weights")
        self.offsets = np.asarray(offsets, dtype=np.int64)
        num_edges = int(self.offsets[-1])
        self.prob_flat = np.ones(num_edges, dtype=np.float64)
        self.alias_flat = np.zeros(num_edges, dtype=np.int64)
        for v in range(self.offsets.size - 1):
            lo, hi = int(self.offsets[v]), int(self.offsets[v + 1])
            if hi > lo:
                table = AliasTable(weights[lo:hi])
                self.prob_flat[lo:hi] = table.prob
                self.alias_flat[lo:hi] = table.alias

    def sample_local(
        self, local_vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Edge-array index of a weighted neighbor pick per local vertex.

        Dead-end vertices (no out-edges) get -1.
        """
        n = local_vertices.size
        if self.prob_flat.size == 0:  # partition with no edges at all
            return np.full(n, -1, dtype=np.int64)
        starts = self.offsets[local_vertices]
        degrees = self.offsets[local_vertices + 1] - starts
        dead_end = degrees == 0
        slot = (rng.random(n) * degrees).astype(np.int64)
        slot = np.minimum(slot, np.maximum(degrees - 1, 0))
        edge = starts + slot
        safe_edge = np.where(dead_end, 0, edge)
        accept = rng.random(n) < self.prob_flat[safe_edge]
        picked_slot = np.where(accept, slot, self.alias_flat[safe_edge])
        out = starts + picked_slot
        return np.where(dead_end, -1, out)


def rejection_sample(
    rng: np.random.Generator,
    propose: Callable[[int], Tuple[np.ndarray, np.ndarray]],
    max_rounds: int = 64,
    on_fallback: Optional[Callable[[int], None]] = None,
) -> np.ndarray:
    """Generic vectorized rejection sampler.

    ``propose(k)`` returns ``(candidates, accept_prob)`` for ``k`` pending
    slots; slots failing the acceptance draw are re-proposed, up to
    ``max_rounds`` (after which the last candidate is accepted — acceptance
    probabilities are assumed bounded away from 0, as in node2vec where the
    floor is ``min(1, 1/p, 1/q)``).

    ``on_fallback`` is called with the number of slots that saturated the
    round cap and kept an unvetted candidate, so callers can surface the
    silent quality degradation (it is never called for a clean run).
    """
    candidates, accept_prob = propose(-1)  # -1 => all slots
    n = candidates.size
    result = candidates.copy()
    pending = rng.random(n) >= accept_prob
    rounds = 0
    while pending.any() and rounds < max_rounds:
        k = int(pending.sum())
        cand, prob = propose(k)
        idx = np.nonzero(pending)[0]
        result[idx] = cand
        accepted = rng.random(k) < prob
        pending[idx[accepted]] = False
        rounds += 1
    saturated = int(pending.sum())
    if saturated and on_fallback is not None:
        on_fallback(saturated)
    return result

"""Typed walk queries accepted by the serving front-end.

A query is the client-facing unit of work: "give me ``walks`` random
walks with these semantics".  Four kinds cover the workloads the paper's
motivating applications issue online:

* :class:`PPRQuery` — personalized PageRank from an explicit seed set
  (recommendation candidates for one user);
* :class:`UniformQuery` — fixed-length DeepWalk-style samples, optionally
  weighted with a configurable transition sampler;
* :class:`MetapathQuery` — typed walks following a cyclic vertex-type
  pattern over a heterogeneous graph;
* :class:`EmbeddingQuery` — node2vec second-order samples for an
  embedding refresh.

Each query knows how to build its algorithm instance
(:meth:`WalkQuery.make_algorithm`) and exposes the two facts the
admission controller needs: whether it may share a coalesced counter-RNG
batch at all (:attr:`WalkQuery.coalescible` — node2vec's subset redraws
cannot), and its :meth:`WalkQuery.batch_key` — the step-semantics
fingerprint two queries must share to ride one batch.  Start-vertex
parameters (PPR seed sets) are deliberately *excluded* from the key:
they only shape each query's own lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.algorithms import (
    MetapathWalk,
    Node2Vec,
    SeedSetPersonalizedPageRank,
    UniformSampling,
)
from repro.algorithms.base import RandomWalkAlgorithm
from repro.graph.csr import CSRGraph

KIND_PPR = "ppr"
KIND_UNIFORM = "uniform"
KIND_METAPATH = "metapath"
KIND_NODE2VEC = "node2vec"

#: Every query kind the front-end admits, in CLI/menu order.
QUERY_KINDS = (KIND_PPR, KIND_UNIFORM, KIND_METAPATH, KIND_NODE2VEC)

#: Hard ceiling on per-query walk length / step budget.  A query is
#: client input: an unbounded ``length`` would size the per-lane step
#: loops (and the multiprocess backend's trajectory tables) directly
#: from the wire, so every step-shaped field is validated against this
#: cap in ``__post_init__`` before it can reach an allocation.
MAX_QUERY_STEPS = 1024


def validated(
    value: float, lo: float, hi: float, what: str = "value"
) -> float:
    """Bounds-check a client-supplied number.

    Returns ``value`` unchanged when ``lo <= value <= hi`` and raises
    :class:`ValueError` otherwise.  Every query class validates its
    client-controlled fields through this helper in ``__post_init__``.
    """
    if not (lo <= value <= hi):
        raise ValueError(f"{what}={value!r} outside [{lo}, {hi}]")
    return value


@dataclass(frozen=True)
class WalkQuery:
    """Base class of one client request for ``walks`` random walks."""

    walks: int

    kind: str = ""

    def __post_init__(self) -> None:
        if self.walks < 1:
            raise ValueError("a query must request at least one walk")

    # ------------------------------------------------------------------
    @property
    def coalescible(self) -> bool:
        """Whether this query's algorithm honors the counter-RNG
        all-lanes contract (the precondition for sharing a batch)."""
        return True

    def batch_key(self) -> Tuple[object, ...]:
        """Step-semantics fingerprint; equal keys may share a batch."""
        raise NotImplementedError

    def make_algorithm(
        self,
        graph: CSRGraph,
        vertex_types: Optional[np.ndarray] = None,
    ) -> RandomWalkAlgorithm:
        """Build a fresh algorithm instance executing this query."""
        raise NotImplementedError


@dataclass(frozen=True)
class PPRQuery(WalkQuery):
    """Personalized PageRank walks from an explicit seed set."""

    sources: Tuple[int, ...] = ()
    stop_prob: float = 0.15
    max_length: int = 64

    kind: str = KIND_PPR

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sources:
            raise ValueError("a PPR query needs a non-empty seed set")
        if any(v < 0 for v in self.sources):
            raise ValueError("PPR seed vertices must be non-negative")
        if not (0.0 < self.stop_prob <= 1.0):
            raise ValueError(
                f"stop_prob={self.stop_prob!r} outside (0, 1]"
            )
        validated(self.max_length, 1, MAX_QUERY_STEPS, "max_length")

    def batch_key(self) -> Tuple[object, ...]:
        # The seed set shapes start vertices only, never step semantics,
        # so queries of different users still coalesce.
        return (self.kind, self.stop_prob, self.max_length)

    def make_algorithm(
        self,
        graph: CSRGraph,
        vertex_types: Optional[np.ndarray] = None,
    ) -> RandomWalkAlgorithm:
        return SeedSetPersonalizedPageRank(
            sources=self.sources,
            stop_prob=self.stop_prob,
            max_length=self.max_length,
        )


@dataclass(frozen=True)
class UniformQuery(WalkQuery):
    """Fixed-length uniform (optionally weighted) walk samples."""

    length: int = 16
    weighted: bool = False
    sampler: Optional[str] = None

    kind: str = KIND_UNIFORM

    def __post_init__(self) -> None:
        super().__post_init__()
        validated(self.length, 1, MAX_QUERY_STEPS, "length")

    @property
    def coalescible(self) -> bool:
        # The rejection sampler redraws data-dependent lane subsets,
        # which the counter RNG cannot key; such queries run solo.
        probe = UniformSampling(
            length=self.length,
            weighted=self.weighted,
            sampler=self.sampler or UniformSampling.SAMPLER_ALIAS,
        )
        return not probe.uses_subset_draws

    def batch_key(self) -> Tuple[object, ...]:
        return (self.kind, self.length, self.weighted, self.sampler)

    def make_algorithm(
        self,
        graph: CSRGraph,
        vertex_types: Optional[np.ndarray] = None,
    ) -> RandomWalkAlgorithm:
        return UniformSampling(
            length=self.length,
            weighted=self.weighted,
            sampler=self.sampler or UniformSampling.SAMPLER_ALIAS,
        )


@dataclass(frozen=True)
class MetapathQuery(WalkQuery):
    """Typed walks following a cyclic vertex-type metapath."""

    metapath: Tuple[int, ...] = ()
    length: int = 16

    kind: str = KIND_METAPATH

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.metapath) < 2:
            raise ValueError("a metapath query needs at least two types")
        if any(t < 0 for t in self.metapath):
            raise ValueError("metapath vertex types must be non-negative")
        validated(self.length, 1, MAX_QUERY_STEPS, "length")

    def batch_key(self) -> Tuple[object, ...]:
        return (self.kind, self.metapath, self.length)

    def make_algorithm(
        self,
        graph: CSRGraph,
        vertex_types: Optional[np.ndarray] = None,
    ) -> RandomWalkAlgorithm:
        if vertex_types is None:
            raise ValueError(
                "metapath queries need the session's vertex-type table"
            )
        return MetapathWalk(
            vertex_types=vertex_types,
            metapath=self.metapath,
            length=self.length,
        )


@dataclass(frozen=True)
class EmbeddingQuery(WalkQuery):
    """node2vec second-order samples for an embedding request."""

    length: int = 16
    return_param: float = 1.0
    inout_param: float = 1.0

    kind: str = KIND_NODE2VEC

    def __post_init__(self) -> None:
        super().__post_init__()
        validated(self.length, 1, MAX_QUERY_STEPS, "length")
        if self.return_param <= 0 or self.inout_param <= 0:
            raise ValueError("node2vec p/q parameters must be positive")

    @property
    def coalescible(self) -> bool:
        # node2vec's rejection rounds redraw pending lanes only; it is
        # incompatible with counter-RNG coalescing and always runs solo.
        return False

    def batch_key(self) -> Tuple[object, ...]:
        return (self.kind, self.length, self.return_param, self.inout_param)

    def make_algorithm(
        self,
        graph: CSRGraph,
        vertex_types: Optional[np.ndarray] = None,
    ) -> RandomWalkAlgorithm:
        return Node2Vec(
            length=self.length,
            return_param=self.return_param,
            inout_param=self.inout_param,
        )

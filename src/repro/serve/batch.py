"""Coalesced query batches and the per-query standalone reference path.

The admission controller merges compatible queries (equal
:meth:`~repro.serve.queries.WalkQuery.batch_key`) into one
:class:`CoalescedBatch`: a facade algorithm whose lanes are the
concatenation of every member query's walks.  Bit-identical per-query
replay is the design constraint — a walk must step exactly as it would
in a standalone run of its own query — and it holds because

* start vertices are computed *per query* from that query's own derived
  seed (``seeded_rng(query_seed)`` is bit-identical to the fallback
  generator a standalone ``CounterRNG(query_seed)`` run would use), and
* stepping randomness is keyed per lane by ``(query_seed,
  local_walk_id, step, draw)`` through
  :class:`~repro.core.prng.TenantCounterRNG`, which the engine
  instantiates when it sees the batch's :attr:`CoalescedBatch.tenant_lanes`
  tables — the same key a standalone counter run hashes.

:func:`run_standalone` is both the reference implementation the parity
suite compares against and the execution path for non-coalescible
queries (node2vec), which run solo with the sequential RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.core.prng import seeded_rng
from repro.core.stats import RunStats
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition, PartitionedGraph
from repro.serve.queries import WalkQuery
from repro.walks.state import WalkArrays

_SEED_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


class RecordingAlgorithm(RandomWalkAlgorithm):
    """Delegating wrapper that records each walk's terminal state.

    One-shot runs normally keep only aggregate results (visit counts,
    recorded paths); serving needs the per-walk outcome to route walks
    back to requests and to compare coalesced against standalone
    execution.  The wrapper forwards every algorithm hook to ``inner``
    unchanged and additionally records, per walk id, the step count and
    the final vertex at termination — so trajectories are untouched.
    """

    def __init__(self, inner: RandomWalkAlgorithm, num_walks: int) -> None:
        self.inner = inner
        self.name = inner.name
        self.carries_walk_id = inner.carries_walk_id
        self.fixed_length = inner.fixed_length
        self.transition_sampler = inner.transition_sampler
        self.uses_subset_draws = inner.uses_subset_draws
        #: whether ``inner`` has an ``observe`` of its own to forward to.
        self._forward_observe = (
            type(inner).observe is not RandomWalkAlgorithm.observe
        )
        self.final_vertices = np.full(num_walks, -1, dtype=np.int64)
        self.steps_taken = np.zeros(num_walks, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def bytes_per_walk(self) -> int:
        return self.inner.bytes_per_walk

    def set_transition_sampler(self, name: str) -> None:
        self.inner.set_transition_sampler(name)
        self.transition_sampler = self.inner.transition_sampler
        self.uses_subset_draws = self.inner.uses_subset_draws

    def consume_sampler_fallbacks(self) -> int:
        return self.inner.consume_sampler_fallbacks()

    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self.inner.start_vertices(graph, num_walks, rng)

    def on_start(self, walks: WalkArrays, graph: CSRGraph) -> None:
        self.inner.on_start(walks, graph)

    def step_once(
        self,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        partition: GraphPartition,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner.step_once(
            vertices, steps, ids, partition, rng, graph
        )

    def observe(
        self,
        vertices: np.ndarray,
        ids: np.ndarray,
        terminated: np.ndarray,
    ) -> None:
        if self._forward_observe:
            self.inner.observe(vertices, ids, terminated)
        self.steps_taken[ids] += 1
        ended = terminated.nonzero()[0]
        if ended.size:
            self.final_vertices[ids[ended]] = vertices[ended]

    def expected_total_steps(self, num_walks: int) -> Optional[float]:
        return self.inner.expected_total_steps(num_walks)


class CoalescedBatch(RandomWalkAlgorithm):
    """One shared frontier batch executing several compatible queries.

    ``entries`` pairs every member query with its derived seed; the
    head query's algorithm instance provides the step semantics (the
    batch key guarantees all members agree on them).  The inner
    algorithm's *aggregate* hooks (``on_start``/``observe``) are not
    delegated: the inner instance never saw ``start_vertices``, so its
    application state (e.g. PPR visit counts) is uninitialized, and the
    serve path's observable outcome is the per-walk record, not the
    aggregate.  Trajectories are unaffected — ``observe`` never feeds
    back into stepping.
    """

    def __init__(
        self,
        graph: CSRGraph,
        entries: Sequence[Tuple[WalkQuery, int]],
        vertex_types: Optional[np.ndarray] = None,
    ) -> None:
        if not entries:
            raise ValueError("a coalesced batch needs at least one query")
        head = entries[0][0]
        key = head.batch_key()
        for query, _ in entries[1:]:
            if query.batch_key() != key:
                raise ValueError(
                    "all queries of a coalesced batch must share one "
                    "batch key"
                )
        self.entries = list(entries)
        self.vertex_types = vertex_types
        self.inner = head.make_algorithm(graph, vertex_types)
        if self.inner.uses_subset_draws:
            raise ValueError(
                f"query kind {head.kind!r} cannot be coalesced: its "
                f"algorithm redraws lane subsets"
            )
        self.name = self.inner.name
        self.carries_walk_id = self.inner.carries_walk_id
        self.fixed_length = self.inner.fixed_length
        self.transition_sampler = self.inner.transition_sampler
        self.uses_subset_draws = False
        counts = [query.walks for query, _ in self.entries]
        self.total_walks = int(sum(counts))
        self.offsets = np.concatenate(
            ([0], np.cumsum(np.asarray(counts, dtype=np.int64)))
        )
        with np.errstate(over="ignore"):
            lane_seeds = np.concatenate(
                [
                    np.full(
                        query.walks,
                        np.uint64(seed) & _SEED_MASK,
                        dtype=np.uint64,
                    )
                    for query, seed in self.entries
                ]
            )
        lane_locals = np.concatenate(
            [
                np.arange(query.walks, dtype=np.uint64)
                for query, _ in self.entries
            ]
        )
        #: the engine's ``_make_rng`` hook: per-global-lane (query seed,
        #: local walk id) tables keying the TenantCounterRNG.
        self.tenant_lanes = (lane_seeds, lane_locals)
        self.final_vertices = np.full(self.total_walks, -1, dtype=np.int64)
        self.steps_taken = np.zeros(self.total_walks, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def bytes_per_walk(self) -> int:
        return self.inner.bytes_per_walk

    def consume_sampler_fallbacks(self) -> int:
        return self.inner.consume_sampler_fallbacks()

    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_walks != self.total_walks:
            raise ValueError(
                f"batch seeds {self.total_walks} walks, engine asked for "
                f"{num_walks}"
            )
        # Per-query start vertices from each query's own stream —
        # bit-identical to what that query's standalone counter run
        # computes through its init-fallback generator.
        parts: List[np.ndarray] = []
        for query, seed in self.entries:
            algorithm = query.make_algorithm(graph, self.vertex_types)
            parts.append(
                algorithm.start_vertices(
                    graph, query.walks, seeded_rng(seed)
                )
            )
        return np.concatenate(parts)

    def step_once(
        self,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        partition: GraphPartition,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.inner.step_once(
            vertices, steps, ids, partition, rng, graph
        )

    def observe(
        self,
        vertices: np.ndarray,
        ids: np.ndarray,
        terminated: np.ndarray,
    ) -> None:
        self.steps_taken[ids] += 1
        ended = terminated.nonzero()[0]
        if ended.size:
            self.final_vertices[ids[ended]] = vertices[ended]

    # ------------------------------------------------------------------
    def lane_slice(self, index: int) -> slice:
        """Global-lane slice of the ``index``-th member query."""
        return slice(
            int(self.offsets[index]), int(self.offsets[index + 1])
        )


@dataclass(frozen=True)
class StandaloneOutcome:
    """Per-walk results of one query executed on its own engine."""

    final_vertices: np.ndarray
    steps_taken: np.ndarray
    stats: RunStats


def standalone_config(
    config: EngineConfig, seed: int, coalescible: bool
) -> EngineConfig:
    """The engine config a query's standalone reference run uses."""
    return config.with_options(
        seed=seed,
        rng_mode="counter" if coalescible else "sequential",
    )


def run_standalone(
    graph: CSRGraph,
    query: WalkQuery,
    seed: int,
    config: EngineConfig,
    vertex_types: Optional[np.ndarray] = None,
    partitioned: Optional[PartitionedGraph] = None,
) -> StandaloneOutcome:
    """Execute one query on its own engine run (the parity reference).

    Coalescible queries run under the counter RNG seeded with the
    query's derived seed — the exact stream the coalesced path keys per
    lane.  Non-coalescible queries (node2vec) run sequentially; the
    serve path executes them through this very function, so parity is
    by construction.  ``partitioned`` is ``graph`` already partitioned
    at ``config.partition_bytes``; otherwise the engine reuses the graph's
    cached partitioning at that size, so only the first query on a graph
    partitions it.
    """
    algorithm = RecordingAlgorithm(
        query.make_algorithm(graph, vertex_types), query.walks
    )
    cfg = standalone_config(config, seed, query.coalescible)
    stats = LightTrafficEngine(
        graph, algorithm, cfg, partitioned=partitioned
    ).run(query.walks)
    return StandaloneOutcome(
        final_vertices=algorithm.final_vertices,
        steps_taken=algorithm.steps_taken,
        stats=stats,
    )

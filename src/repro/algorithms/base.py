"""Algorithm protocol and the shared in-partition kernel loop.

The engine is *walk-centric* (§IV-B): a batch of walks is assigned to the
kernel together with its graph partition, and each walk keeps stepping until
it either terminates or leaves the partition (at which point it must wait
for another partition, Figure 1).  That multi-step-per-kernel behaviour is
implemented once in :meth:`RandomWalkAlgorithm.advance_in_partition`;
concrete algorithms only define a vectorized ``step_once``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition
from repro.walks.state import WalkArrays


@dataclass(frozen=True)
class BatchRunResult:
    """Outcome of running one batch against one partition.

    Attributes
    ----------
    total_steps:
        walk steps executed by this kernel invocation.
    longest_run:
        max steps any single walk took (the kernel's serial critical path).
    active:
        boolean mask over the batch: walks still alive (not terminated).
        Alive walks have necessarily left the partition.
    """

    total_steps: int
    longest_run: int
    active: np.ndarray


def uniform_neighbors(
    partition: GraphPartition,
    vertices: np.ndarray,
    uniforms: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pick one uniform neighbor for each vertex (vectorized).

    ``uniforms[i]`` is vertex ``i``'s draw in [0, 1), so a step takes it
    from the one block it draws for all its decisions.  Returns
    ``(next_vertices, dead_end)`` where ``dead_end[i]`` marks vertices with
    no out-edges (their ``next_vertices`` entry is the vertex itself).  All
    ``vertices`` must lie inside ``partition``.
    """
    offsets = partition.offsets
    local = vertices - partition.start
    starts = offsets.take(local)
    degrees = offsets[1:].take(local)
    degrees -= starts
    dead_end = degrees == 0
    # A uniform is < 1.0 strictly, so floor(u * deg) <= deg - 1: the pick
    # stays inside the vertex's own edges without a clamp.  The multiply
    # casts the degrees to float64 itself.
    edge = (uniforms * degrees).astype(np.int64)
    edge += starts
    # A dead end's edge is the next vertex's first, or one past the
    # partition's edges for its last vertex (clipped): read, then put back.
    next_vertices = partition.targets.take(edge, mode="clip")
    holes = dead_end.nonzero()[0]
    if holes.size:
        next_vertices[holes] = vertices[holes]
    return next_vertices, dead_end


class RandomWalkAlgorithm(abc.ABC):
    """Base class for random walk applications.

    Subclasses implement :meth:`step_once` (one vectorized step for a set of
    walks all located in one partition) and may override :meth:`observe` to
    maintain application state (visit frequencies, sampled paths).
    """

    #: human-readable algorithm name (used in reports).
    name: str = "walk"
    #: whether the walk index carries a walk_id (affects ``S_w``, §IV-A).
    carries_walk_id: bool = False
    #: whether every walk has the same, known length (FlashMob supports only
    #: fixed-length walks, §IV-B).
    fixed_length: bool = True
    #: cost-model key of the active next-hop sampling method
    #: (:meth:`repro.gpu.calibration.Calibration.step_cycles_for`).
    transition_sampler: str = "uniform"
    #: whether stepping redraws data-dependent lane subsets — incompatible
    #: with the counter RNG's all-lanes draw contract.
    uses_subset_draws: bool = False

    # ------------------------------------------------------------------
    def set_transition_sampler(self, name: str) -> None:
        """Select the transition sampler (``EngineConfig.sampler`` hook)."""
        raise ValueError(
            f"algorithm {self.name!r} does not support configurable "
            f"transition samplers"
        )

    def consume_sampler_fallbacks(self) -> int:
        """Return and clear rejection-saturation counts since the last call."""
        return 0

    # ------------------------------------------------------------------
    @property
    def bytes_per_walk(self) -> int:
        """The paper's ``S_w``: 8 B state, +8 B when walk_id is carried."""
        return 16 if self.carries_walk_id else 8

    @abc.abstractmethod
    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Initial vertex of each walk."""

    @abc.abstractmethod
    def step_once(
        self,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        partition: GraphPartition,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the given walks one step.

        ``steps`` holds pre-increment counts.  Returns ``(new_vertices,
        terminated)``; the caller increments ``walked_steps`` and handles
        partition crossings.  The input arrays may be the batch's own
        storage, so they are read, never written.
        """

    def on_start(self, walks: WalkArrays, graph: CSRGraph) -> None:
        """Hook called once with the freshly initialized walks."""

    def observe(
        self,
        vertices: np.ndarray,
        ids: np.ndarray,
        terminated: np.ndarray,
    ) -> None:
        """Hook called after each vectorized step with the new positions."""

    def expected_total_steps(self, num_walks: int) -> Optional[float]:
        """Analytic expected step count, when known (used by CPU models)."""
        return None

    # ------------------------------------------------------------------
    def advance_in_partition(
        self,
        partition: GraphPartition,
        walks: WalkArrays,
        rng: np.random.Generator,
        graph: Optional[CSRGraph] = None,
    ) -> BatchRunResult:
        """Run every walk of a batch until it terminates or exits ``partition``.

        Mutates ``walks`` in place (vertices and steps).  This is the
        semantic core of the walk-updating kernel (Algorithm 1, line 4).
        """
        if len(walks) == 0:
            return BatchRunResult(0, 0, np.zeros(0, dtype=bool))
        # A counter RNG hashes each walk id once per kernel; later rounds
        # carry the survivors' keys.
        counter: Any = rng if hasattr(rng, "lane_keys") else None
        keys = None if counter is None else counter.lane_keys(walks.ids)
        start = partition.start
        width = np.uint64(partition.stop - start)
        # Round 1 steps every walk on the batch's own arrays; rounds 2+
        # gather the survivors, whose positions in ``walks`` are ``idx``.
        ids, vertices, steps = walks.ids, walks.vertices, walks.steps
        idx: Optional[np.ndarray] = None
        total_steps = 0
        rounds = 0
        while True:
            if keys is not None:
                counter.set_context(ids, steps, keys)
            new_v, terminated = self.step_once(
                vertices, steps, ids, partition, rng, graph
            )
            steps += 1
            if idx is None:
                vertices[:] = new_v
                alive = ~terminated
            else:
                walks.vertices[idx] = new_v
                walks.steps[idx] = steps
                if terminated.any():
                    alive[idx[terminated]] = False
            total_steps += int(ids.size)
            rounds += 1
            self.observe(new_v, ids, terminated)
            # One unsigned compare: a vertex below ``start`` wraps high.
            offset = np.subtract(new_v, start, dtype=np.int64)
            in_part = offset.view(np.uint64) < width
            # A lane survives inside and not terminated: True > False only.
            survivors = (in_part > terminated).nonzero()[0]
            if survivors.size == 0:
                break
            idx = survivors if idx is None else idx[survivors]
            ids = ids[survivors]
            vertices = walks.vertices[idx]
            steps = steps[survivors]
            if keys is not None:
                keys = keys[survivors]
        # Every walk surviving round k has taken exactly k steps, so the
        # longest serial chain equals the number of rounds.
        return BatchRunResult(total_steps, rounds, alive)

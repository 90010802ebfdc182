"""Metapath-guided walks over heterogeneous graphs (extension).

metapath2vec (cited in the paper's introduction as a heavy consumer of
random walks — it samples up to 1000|V| walks) constrains each step to
follow a *metapath*: a cyclic sequence of vertex types, e.g.
author -> paper -> author.  This extension adds typed walks on top of the
same out-of-memory engine: vertex types live in a host-side array, the walk
picks uniformly among neighbors of the type the metapath requires next, and
terminates early if no such neighbor exists.

Like :class:`~repro.algorithms.node2vec.Node2Vec`, the type filter needs
neighbor inspection beyond the current partition's guarantee, so walks
consult the host-resident type table (documented deviation; the type array
is tiny — one byte-scale entry per vertex — and would realistically be
device-resident).

A step is two gathers and a pick.  The graph's *typed adjacency* — for
every ``(vertex, type)`` that type's neighbors in CSR order, plus offsets
— is built once per (graph, type table) and cached on the graph, keyed by
a digest of the table, so every kernel of every run reuses it and a
different table can never be served a stale index.  Each lane gathers its
``(vertex, wanted type)`` slot's offsets and takes neighbor
``k = min(floor(u * count), count - 1)`` of that slot: a uniform pick among
the typed neighbors, in CSR order, from one uniform per lane.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import RandomWalkAlgorithm
from repro.core.prng import seeded_rng
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition


#: ``(graph, offsets, targets, width, column of each metapath position)``.
_TypedIndex = Tuple[CSRGraph, np.ndarray, np.ndarray, int, np.ndarray]


def typed_adjacency(
    graph: CSRGraph, vertex_types: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kinds, offsets, targets)``: ``graph``'s neighbors grouped by type.

    ``kinds`` are the table's distinct types and ``width = kinds.size + 1``.
    Slot ``v * width + c`` holds ``v``'s neighbors of type ``kinds[c]``, in
    CSR order, at ``targets[offsets[slot]:offsets[slot + 1]]``.  Column
    ``width - 1`` belongs to no type and is always empty.
    """
    if graph.num_edges and int(graph.targets.max()) >= vertex_types.size:
        raise ValueError(
            f"vertex_types covers {vertex_types.size} vertices "
            f"but the graph references vertex {int(graph.targets.max())}"
        )
    kinds, codes = np.unique(vertex_types, return_inverse=True)
    width = kinds.size + 1
    slots = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64) * width, graph.degrees()
    )
    slots += codes.take(graph.targets)
    offsets = np.zeros(graph.num_vertices * width + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(slots, minlength=graph.num_vertices * width),
        out=offsets[1:],
    )
    # A stable sort keeps CSR order within each (vertex, type) slot.
    return kinds, offsets, graph.targets[np.argsort(slots, kind="stable")]


class MetapathWalk(RandomWalkAlgorithm):
    """Fixed-length walks constrained to a cyclic vertex-type pattern."""

    name = "metapath"
    carries_walk_id = True

    def __init__(
        self,
        vertex_types: np.ndarray,
        metapath: Sequence[int],
        length: int = 80,
    ) -> None:
        if length < 1:
            raise ValueError("walk length must be >= 1")
        vertex_types = np.asarray(vertex_types, dtype=np.int64)
        if vertex_types.ndim != 1:
            raise ValueError("vertex_types must be 1-D")
        metapath = list(metapath)
        if len(metapath) < 2:
            raise ValueError("metapath needs at least two types")
        self.vertex_types = vertex_types
        self.metapath = np.asarray(metapath, dtype=np.int64)
        self.length = length
        self.early_terminations = 0
        #: the typed index of the last graph stepped on; the type table is
        #: read once per graph.
        self._typed: Optional[_TypedIndex] = None

    def _typed_index(self, graph: Optional[CSRGraph]) -> _TypedIndex:
        if self._typed is not None and self._typed[0] is graph:
            return self._typed
        if graph is None:
            raise RuntimeError(
                "MetapathWalk requires host-graph access for the type filter"
            )
        table = self.vertex_types
        kinds, offsets, targets = graph.derived(
            "typed_adjacency",
            hashlib.blake2b(table.tobytes(), digest_size=16).digest(),
            lambda: typed_adjacency(graph, table),
        )
        # A wanted type that no vertex has maps to the empty column.
        pos = np.searchsorted(kinds, self.metapath)
        hit = kinds.take(pos, mode="clip") == self.metapath
        codes = np.where(hit, pos, kinds.size)
        self._typed = (graph, offsets, targets, kinds.size + 1, codes)
        return self._typed

    # ------------------------------------------------------------------
    @property
    def bytes_per_walk(self) -> int:
        # vertex + steps + walk_id (+ the metapath phase, 1 byte, rounded
        # into the id word in a real layout).
        return 16

    def start_vertices(
        self, graph: CSRGraph, num_walks: int, rng: np.random.Generator
    ) -> np.ndarray:
        if self.vertex_types.size != graph.num_vertices:
            raise ValueError("vertex_types must cover every vertex")
        starts = np.nonzero(self.vertex_types == self.metapath[0])[0]
        if starts.size == 0:
            raise ValueError(
                f"no vertex has the metapath's start type {self.metapath[0]}"
            )
        picks = rng.integers(0, starts.size, size=num_walks)
        return starts[picks]

    # ------------------------------------------------------------------
    def step_once(
        self,
        vertices: np.ndarray,
        steps: np.ndarray,
        ids: np.ndarray,
        partition: GraphPartition,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> Tuple[np.ndarray, np.ndarray]:
        __, offsets, targets, width, codes = self._typed_index(graph)
        # The required next type cycles with the step count; the start
        # vertex consumed phase 0.
        slots = vertices * width
        slots += codes.take((steps + 1) % self.metapath.size)
        lo = offsets.take(slots)
        counts = offsets.take(slots + 1)
        counts -= lo
        # One uniform per walk regardless of its typed-neighbor count keeps
        # the draw shape data-independent (counter-RNG compatible).
        u = rng.random(vertices.size)
        stuck = counts == 0
        pick = (u * counts).astype(np.int64)
        np.minimum(pick, counts - 1, out=pick)
        pick += lo
        if targets.size:
            new_v = targets.take(pick, mode="clip")
        else:  # an edgeless graph: every lane is stuck
            new_v = vertices.copy()
        holes = stuck.nonzero()[0]
        if holes.size:
            new_v[holes] = vertices[holes]
        self.early_terminations += int(stuck.sum())
        terminated = stuck | (steps + 1 >= self.length)
        return new_v, terminated

    def expected_total_steps(self, num_walks: int) -> Optional[float]:
        return None  # early termination makes it data-dependent


def random_vertex_types(
    num_vertices: int, num_types: int, seed: Optional[int] = None
) -> np.ndarray:
    """Uniformly random type labels (testing/example helper)."""
    if num_types < 1:
        raise ValueError("num_types must be >= 1")
    rng = seeded_rng(seed)
    return rng.integers(0, num_types, size=num_vertices, dtype=np.int64)

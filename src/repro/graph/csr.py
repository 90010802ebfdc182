"""Compressed Sparse Row graph representation.

The paper stores graphs in CSR format (Figure 5): a vertex array whose entry
``offsets[v]`` gives the start of vertex ``v``'s neighbor range in the edge
array, and an edge array holding neighbor ids.  All LightTraffic components
(partitioner, engine kernels, baselines) consume this structure.

Sizing conventions follow the paper's accounting: vertex ids are 8 bytes and
edge entries are 8 bytes, so the CSR size of a graph is
``8 * (|V| + 1) + 8 * |E|`` bytes (plus another ``8 * |E|`` when weighted).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.units import Bytes

#: Bytes used per vertex-array entry when accounting CSR sizes.
VERTEX_ENTRY_BYTES = 8
#: Bytes used per edge-array entry when accounting CSR sizes.
EDGE_ENTRY_BYTES = 8

T = TypeVar("T")


class CSRGraph:
    """An immutable CSR graph.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``offsets[0] == 0`` and ``offsets[-1] == num_edges``.
    targets:
        ``int64`` array of length ``num_edges`` with neighbor vertex ids.
    weights:
        optional ``float64`` array of length ``num_edges`` with positive edge
        weights; ``None`` for unweighted graphs.
    name:
        optional human-readable label used by the dataset registry.

    Indexes derived from the arrays (node2vec's edge keys, metapath's typed
    adjacency, the engine's range partitioning) are built once per graph
    through :meth:`derived` and reused by every kernel and engine run.
    """

    __slots__ = ("offsets", "targets", "weights", "name", "_derived")

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "",
    ) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if offsets.ndim != 1 or targets.ndim != 1:
            raise ValueError("offsets and targets must be 1-D arrays")
        if offsets.size == 0:
            raise ValueError("offsets must have at least one entry")
        if offsets[0] != 0:
            raise ValueError("offsets[0] must be 0")
        if offsets[-1] != targets.size:
            raise ValueError(
                f"offsets[-1] ({offsets[-1]}) must equal number of edges "
                f"({targets.size})"
            )
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        num_vertices = offsets.size - 1
        if targets.size and (targets.min() < 0 or targets.max() >= num_vertices):
            raise ValueError("edge targets out of vertex-id range")
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != targets.shape:
                raise ValueError("weights must have one entry per edge")
            if weights.size and weights.min() <= 0:
                raise ValueError("edge weights must be positive")
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.name = name
        self._derived: Dict[str, Tuple[Hashable, Any]] = {}

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of (directed) edge entries ``|E|``."""
        return self.targets.size

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries edge weights."""
        return self.weights is not None

    @property
    def csr_bytes(self) -> Bytes:
        """Size of the CSR arrays using the paper's 8-byte entries."""
        size = VERTEX_ENTRY_BYTES * (self.num_vertices + 1)
        size += EDGE_ENTRY_BYTES * self.num_edges
        if self.weights is not None:
            size += EDGE_ENTRY_BYTES * self.num_edges
        return Bytes(size)

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array."""
        return np.diff(self.offsets)

    def degree(self, vertex: int) -> int:
        """Out-degree of a single vertex."""
        self._check_vertex(vertex)
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    @property
    def max_degree(self) -> int:
        """The largest vertex degree (``d_max`` in Table II)."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees().max(initial=0))

    # ------------------------------------------------------------------
    # Neighbor queries
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> np.ndarray:
        """View of the neighbor ids of ``vertex``."""
        self._check_vertex(vertex)
        return self.targets[self.offsets[vertex] : self.offsets[vertex + 1]]

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        """View of the edge weights of ``vertex``'s out-edges."""
        if self.weights is None:
            raise ValueError("graph is unweighted")
        self._check_vertex(vertex)
        return self.weights[self.offsets[vertex] : self.offsets[vertex + 1]]

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        neigh = self.neighbors(source)
        # Neighbor lists are sorted by the builders, so binary search works;
        # fall back to a scan for hand-built graphs.
        pos = np.searchsorted(neigh, target)
        if pos < neigh.size and neigh[pos] == target:
            return True
        return bool(np.any(neigh == target))

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(source, target)`` pairs (mainly for tests)."""
        for v in range(self.num_vertices):
            for t in self.neighbors(v):
                yield v, int(t)

    # ------------------------------------------------------------------
    # Slicing (used by the partitioner and the Subway baseline)
    # ------------------------------------------------------------------
    def vertex_range_edges(self, start: int, stop: int) -> Tuple[int, int]:
        """Edge-array range ``[lo, hi)`` covering vertices ``[start, stop)``."""
        if not 0 <= start <= stop <= self.num_vertices:
            raise ValueError(f"invalid vertex range [{start}, {stop})")
        return int(self.offsets[start]), int(self.offsets[stop])

    def subgraph_arrays(
        self, start: int, stop: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """CSR arrays restricted to source vertices ``[start, stop)``.

        The returned ``offsets`` are rebased to 0 and have length
        ``stop - start + 1``; ``targets`` keep *global* vertex ids so walks
        can cross partition boundaries.
        """
        lo, hi = self.vertex_range_edges(start, stop)
        offsets = self.offsets[start : stop + 1] - self.offsets[start]
        targets = self.targets[lo:hi]
        weights = None if self.weights is None else self.weights[lo:hi]
        return offsets, targets, weights

    # ------------------------------------------------------------------
    # Derived indexes
    # ------------------------------------------------------------------
    def derived(self, kind: str, key: Hashable, build: Callable[[], T]) -> T:
        """The ``kind`` index of this graph for ``key``, built on a miss.

        An index is a function of the graph's (immutable) arrays and of
        ``key``.  Each kind holds one entry: asking for another key
        rebuilds and replaces it, so memory stays bounded by the number
        of kinds and a stale key can never be served.  A value that refers
        back to the graph (a partitioning) forms a reference cycle, which
        the cyclic collector frees together with the graph.
        """
        entry = self._derived.get(kind)
        if entry is not None and entry[0] == key:
            return entry[1]
        value = build()
        self._derived[kind] = (key, value)
        return value

    def edges_exist(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`has_edge`: one ``searchsorted`` per batch.

        The index is the sorted ``int64`` keys ``source * |V| + target``,
        built once per graph.  The builders sort rows, so the keys come
        out sorted; hand-built rows in any order are sorted once.
        """
        keys = self.derived("edge_keys", None, self._edge_keys)
        queries = np.asarray(sources, dtype=np.int64) * self.num_vertices
        queries += targets
        if keys.size == 0:
            return np.zeros(queries.shape, dtype=bool)
        found = keys.take(np.searchsorted(keys, queries), mode="clip")
        return found == queries

    def _edge_keys(self) -> np.ndarray:
        n = self.num_vertices
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, self.degrees())
        keys += self.targets
        if keys.size > 1 and not bool(np.all(keys[1:] >= keys[:-1])):
            keys.sort()
        return keys

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-run the construction invariants (useful after IO)."""
        CSRGraph(self.offsets, self.targets, self.weights, self.name)

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} |V|={self.num_vertices} |E|={self.num_edges}"
            f" {'weighted' if self.is_weighted else 'unweighted'}>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not np.array_equal(self.offsets, other.offsets):
            return False
        if not np.array_equal(self.targets, other.targets):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None and not np.allclose(
            self.weights, other.weights
        ):
            return False
        return True

    def __hash__(self) -> int:  # noqa: D105 - graphs are mutable-free
        return id(self)


def adjacency_lists(graph: CSRGraph) -> Sequence[np.ndarray]:
    """Materialize per-vertex neighbor arrays (testing helper)."""
    return [graph.neighbors(v) for v in range(graph.num_vertices)]

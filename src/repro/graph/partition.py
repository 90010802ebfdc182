"""Range-based graph partitioning (paper §III-B, Figure 5).

LightTraffic statically divides vertices ``0..|V|-1`` into disjoint
contiguous intervals; an edge belongs to the partition of its source vertex.
Intervals are grown greedily until adding the next vertex would push the
partition's CSR size past the configured block size, which gives three
properties the engine relies on:

* a partition's bytes are one contiguous CSR slice (single ``memcpy``),
* every partition fits in one graph-pool block (the block size), and
* ``vertex -> partition`` lookup is a LUT: one gather from a ``|V|``-entry
  table in the narrowest signed dtype that holds ``P``.

A vertex whose edges alone exceed the block size gets a partition of its own
(the paper notes such vertices could be split further; we keep them whole and
let the memory pool allocate an oversized block, mirroring the YH caveat in
§IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.units import Bytes
from repro.graph.csr import CSRGraph, EDGE_ENTRY_BYTES, VERTEX_ENTRY_BYTES


@dataclass(frozen=True)
class GraphPartition:
    """One contiguous vertex interval of a partitioned graph.

    Attributes
    ----------
    index:
        partition id in ``[0, P)``.
    start, stop:
        vertex interval ``[start, stop)``.
    offsets:
        local CSR offsets rebased to 0, length ``stop - start + 1``.
    targets:
        edge array slice; targets keep global vertex ids.
    weights:
        optional weight slice aligned with ``targets``.
    nbytes:
        CSR bytes of this partition (paper's ``S_p``), computed once at
        construction.
    """

    index: int
    start: int
    stop: int
    offsets: np.ndarray
    targets: np.ndarray
    weights: Optional[np.ndarray] = None
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edge_bytes = EDGE_ENTRY_BYTES * (1 if self.weights is None else 2)
        object.__setattr__(
            self,
            "nbytes",
            VERTEX_ENTRY_BYTES * (self.num_vertices + 1)
            + edge_bytes * self.num_edges,
        )

    @property
    def num_vertices(self) -> int:
        return self.stop - self.start

    @property
    def num_edges(self) -> int:
        return int(self.targets.size)

    def contains(self, vertex: int) -> bool:
        return self.start <= vertex < self.stop

    def local_neighbors(self, vertex: int) -> np.ndarray:
        """Neighbors of a (global-id) vertex served from this partition."""
        if not self.contains(vertex):
            raise IndexError(
                f"vertex {vertex} not in partition [{self.start}, {self.stop})"
            )
        local = vertex - self.start
        return self.targets[self.offsets[local] : self.offsets[local + 1]]


class PartitionedGraph:
    """A CSR graph plus its static range partitioning."""

    def __init__(
        self, graph: CSRGraph, partitions: List[GraphPartition]
    ) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        self.graph = graph
        self.partitions = partitions
        self._validate()
        # Vertex -> partition LUT; -P fits the narrowest signed dtype that
        # also holds 0..P-1 (int8 up to P = 128, int16 up to 32 768), so
        # grouping by these keys is NumPy's radix sort.
        self.lut = np.repeat(
            np.arange(len(partitions), dtype=np.min_scalar_type(-len(partitions))),
            [p.num_vertices for p in partitions],
        )

    def _validate(self) -> None:
        prev_stop = 0
        for i, part in enumerate(self.partitions):
            if part.index != i:
                raise ValueError("partition indices must be 0..P-1 in order")
            if part.start != prev_stop:
                raise ValueError("partitions must tile the vertex range")
            if part.stop <= part.start:
                raise ValueError("partitions must be non-empty")
            prev_stop = part.stop
        if prev_stop != self.graph.num_vertices:
            raise ValueError("partitions must cover all vertices")

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def max_partition_bytes(self) -> Bytes:
        return Bytes(max(p.nbytes for p in self.partitions))

    def find_partition(self, vertex: int) -> int:
        """Partition index of ``vertex`` (paper §III-B)."""
        if not 0 <= vertex < self.graph.num_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        return int(self.lut[vertex])

    def find_partitions(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized ``find_partition``: partition ids in the LUT's dtype.

        Raises ``IndexError`` on any vertex outside ``[0, |V|)`` — a
        negative id would otherwise wrap to the last partition.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        # One reduction checks both ends: as uint64 a negative id is huge.
        if vertices.size and vertices.view(np.uint64).max() >= self.lut.size:
            raise IndexError(
                f"vertices out of range [0, {self.lut.size}): "
                f"min={vertices.min()}, max={vertices.max()}"
            )
        return self.lut[vertices]

    def partition_of(self, vertex: int) -> GraphPartition:
        return self.partitions[self.find_partition(vertex)]

    def partition_sizes(self) -> np.ndarray:
        """Per-partition CSR bytes."""
        return np.asarray([p.nbytes for p in self.partitions], dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PartitionedGraph P={self.num_partitions} "
            f"|V|={self.graph.num_vertices} |E|={self.graph.num_edges}>"
        )


def partition_by_range(graph: CSRGraph, block_bytes: int) -> PartitionedGraph:
    """Greedy range partitioning targeting ``block_bytes`` per partition.

    Vertices are appended to the current partition while the partition's CSR
    size stays within ``block_bytes``; a single vertex whose own edges exceed
    the budget still forms a (oversized) singleton partition so that the
    partitioning is always total.
    """
    if block_bytes <= 0:
        raise ValueError("block_bytes must be positive")
    if graph.num_vertices == 0:
        raise ValueError("cannot partition an empty graph")

    weight_per_edge = EDGE_ENTRY_BYTES * (2 if graph.is_weighted else 1)
    # bytes(start, stop) = 8*(stop-start+1) + w*(off[stop]-off[start])
    #                    = prefix[stop] - prefix[start] + 8
    # over the strictly increasing prefix[i] = 8*i + w*off[i], so the
    # largest stop that fits is one searchsorted per partition.
    prefix = weight_per_edge * graph.offsets
    prefix += VERTEX_ENTRY_BYTES * np.arange(
        graph.num_vertices + 1, dtype=np.int64
    )
    budget = block_bytes - VERTEX_ENTRY_BYTES
    boundaries = [0]
    start = 0
    while start < graph.num_vertices:
        stop = int(
            np.searchsorted(prefix, prefix[start] + budget, side="right")
        ) - 1
        # A vertex whose own edges exceed the budget is a singleton.
        start = max(stop, start + 1)
        boundaries.append(start)

    partitions: List[GraphPartition] = []
    for i in range(len(boundaries) - 1):
        p_start, p_stop = boundaries[i], boundaries[i + 1]
        offsets, targets, weights = graph.subgraph_arrays(p_start, p_stop)
        partitions.append(
            GraphPartition(
                index=i,
                start=p_start,
                stop=p_stop,
                offsets=offsets,
                targets=targets,
                weights=weights,
            )
        )
    return PartitionedGraph(graph, partitions)


def partition_into(graph: CSRGraph, num_partitions: int) -> PartitionedGraph:
    """Partition so that *approximately* ``num_partitions`` result.

    Convenience used by benchmarks that sweep partition counts rather than
    byte sizes.  Binary-searches the block size; exact counts are not always
    achievable (greedy growth quantizes at vertex granularity), so the result
    has the closest achievable count ``<= 2x`` the request.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    total = graph.csr_bytes
    block = max(total // num_partitions, VERTEX_ENTRY_BYTES * 2)
    best = partition_by_range(graph, block)
    lo, hi = block // 4 + 1, total
    for _ in range(40):
        if best.num_partitions == num_partitions:
            break
        if best.num_partitions > num_partitions:
            lo = block + 1
        else:
            hi = block - 1
        if lo > hi:
            break
        block = (lo + hi) // 2
        candidate = partition_by_range(graph, block)
        if abs(candidate.num_partitions - num_partitions) <= abs(
            best.num_partitions - num_partitions
        ):
            best = candidate
    return best

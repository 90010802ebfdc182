"""Walk state as a struct-of-arrays.

Each walk's state is ``current_vertex`` (the vertex the walk stays at) and
``walked_steps`` (steps moved so far) — the paper's *walk index* — plus a
``walk_id`` for applications that must attribute sampled data back to a walk
(uniform sampling, §IV-A).  Struct-of-arrays keeps every kernel vectorized.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np


class WalkArrays:
    """A resizable-by-copy bundle of aligned walk-state arrays."""

    __slots__ = ("vertices", "steps", "ids")

    def __init__(
        self, vertices: np.ndarray, steps: np.ndarray, ids: np.ndarray
    ) -> None:
        vertices = np.asarray(vertices, dtype=np.int64)
        steps = np.asarray(steps, dtype=np.int32)
        ids = np.asarray(ids, dtype=np.int64)
        if not (vertices.shape == steps.shape == ids.shape) or vertices.ndim != 1:
            raise ValueError("walk arrays must be aligned 1-D arrays")
        self.vertices = vertices
        self.steps = steps
        self.ids = ids

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "WalkArrays":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
        )

    @classmethod
    def fresh(cls, start_vertices: np.ndarray, first_id: int = 0) -> "WalkArrays":
        """New walks at the given start vertices, 0 steps walked."""
        start_vertices = np.asarray(start_vertices, dtype=np.int64)
        n = start_vertices.size
        return cls(
            start_vertices.copy(),
            np.zeros(n, dtype=np.int32),
            np.arange(first_id, first_id + n, dtype=np.int64),
        )

    @classmethod
    def concat(cls, chunks: Iterable["WalkArrays"]) -> "WalkArrays":
        chunks = [c for c in chunks if len(c)]
        if not chunks:
            return cls.empty()
        return cls(
            np.concatenate([c.vertices for c in chunks]),
            np.concatenate([c.steps for c in chunks]),
            np.concatenate([c.ids for c in chunks]),
        )

    @classmethod
    def _wrap(
        cls, vertices: np.ndarray, steps: np.ndarray, ids: np.ndarray
    ) -> "WalkArrays":
        """Arrays already validated as walk arrays (slices of checked ones,
        say), wrapped without ``__init__``'s checks and casts."""
        walks = cls.__new__(cls)
        walks.vertices = vertices
        walks.steps = steps
        walks.ids = ids
        return walks

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.vertices.size

    def select(self, index: np.ndarray) -> "WalkArrays":
        """Subset by boolean mask or integer index array (copies)."""
        return WalkArrays(
            self.vertices[index], self.steps[index], self.ids[index]
        )

    def slice(self, start: int, stop: int) -> "WalkArrays":
        """Contiguous subset (copies, so callers cannot alias batches)."""
        return WalkArrays(
            self.vertices[start:stop].copy(),
            self.steps[start:stop].copy(),
            self.ids[start:stop].copy(),
        )

    def split(self, sizes: Sequence[int]) -> List["WalkArrays"]:
        """Consecutive pieces of ``sizes[k]`` walks each, as views (no copy).

        Slices of arrays already checked here need no re-validation, so the
        pieces skip ``__init__``: an eviction splits its one copy-out into
        every batch it pushes to the host.
        """
        pieces: List[WalkArrays] = []
        lo = 0
        for size in sizes:
            hi = lo + size
            pieces.append(
                WalkArrays._wrap(
                    self.vertices[lo:hi], self.steps[lo:hi], self.ids[lo:hi]
                )
            )
            lo = hi
        return pieces

    def copy(self) -> "WalkArrays":
        return WalkArrays(
            self.vertices.copy(), self.steps.copy(), self.ids.copy()
        )

    def id_set(self) -> set:
        """Python set of walk ids (testing helper for conservation checks)."""
        return set(int(i) for i in self.ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WalkArrays n={len(self)}>"


def index_bytes_per_walk(with_walk_id: bool = False) -> int:
    """The paper's ``S_w``: 8 bytes (vertex + steps), +8 with ``walk_id``."""
    return 16 if with_walk_id else 8

"""The default backend: today's vectorized NumPy path, bit-identical.

Delegates straight to
:meth:`~repro.algorithms.base.RandomWalkAlgorithm.advance_in_partition`
and the stable argsort the reshuffler always used — the refactor moves
the call site, not the computation, so every golden stays bit-identical.
The only addition is observation: each delegated kernel is wrapped in
``time.perf_counter`` so the NumPy interpreter's real wall-clock is
recorded per kernel, giving ``repro experiment backends`` its baseline.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.algorithms.base import BatchRunResult
from repro.backends.base import ExecutionBackend
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition
from repro.walks.state import WalkArrays


class SimulatedBackend(ExecutionBackend):
    """NumPy interpreter execution (the historical inline path)."""

    name = "simulated"

    def advance(
        self,
        partition: GraphPartition,
        walks: WalkArrays,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> BatchRunResult:
        assert self.algorithm is not None, "bind() must run before advance()"
        lanes = len(walks)
        started = time.perf_counter()
        result = self.algorithm.advance_in_partition(
            partition, walks, rng, graph
        )
        self._record_kernel(
            partition, lanes, result, time.perf_counter() - started
        )
        return result

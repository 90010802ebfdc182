"""Walk-serving front-end (ROADMAP item 1).

The package turns the one-shot batch engine into a request service:
typed queries (:mod:`repro.serve.queries`) arrive from simulated
concurrent clients, an admission controller coalesces compatible queries
into shared counter-RNG batches (:mod:`repro.serve.batch`), and a
completion router demultiplexes finished walks back per request with
queue/service/total latency accounting (:mod:`repro.serve.session`).
Coalesced execution is bit-identical per query to a standalone run with
the same derived seed — the property ``tests/test_serve_parity.py``
pins.
"""

from repro.serve.batch import (
    CoalescedBatch,
    RecordingAlgorithm,
    StandaloneOutcome,
    run_standalone,
    standalone_config,
)
from repro.serve.queries import (
    KIND_METAPATH,
    KIND_NODE2VEC,
    KIND_PPR,
    KIND_UNIFORM,
    MAX_QUERY_STEPS,
    QUERY_KINDS,
    EmbeddingQuery,
    MetapathQuery,
    PPRQuery,
    UniformQuery,
    WalkQuery,
    validated,
)
from repro.serve.session import (
    ARRIVAL_CLOSED,
    ARRIVAL_MODES,
    ARRIVAL_OPEN,
    LATENCY_PERCENTILES,
    RequestResult,
    ServeReport,
    ServeSession,
    default_workload,
    make_vertex_types,
    nearest_rank,
)

__all__ = [
    "ARRIVAL_CLOSED",
    "ARRIVAL_MODES",
    "ARRIVAL_OPEN",
    "CoalescedBatch",
    "EmbeddingQuery",
    "KIND_METAPATH",
    "KIND_NODE2VEC",
    "KIND_PPR",
    "KIND_UNIFORM",
    "LATENCY_PERCENTILES",
    "MAX_QUERY_STEPS",
    "MetapathQuery",
    "PPRQuery",
    "QUERY_KINDS",
    "RecordingAlgorithm",
    "RequestResult",
    "ServeReport",
    "ServeSession",
    "StandaloneOutcome",
    "UniformQuery",
    "WalkQuery",
    "default_workload",
    "make_vertex_types",
    "nearest_rank",
    "run_standalone",
    "standalone_config",
    "validated",
]

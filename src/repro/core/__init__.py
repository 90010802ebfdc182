"""The LightTraffic engine (paper §III).

:class:`~repro.core.engine.LightTrafficEngine` runs a random walk algorithm
over a range-partitioned graph with fully out-of-GPU-memory management of
both graph data and walk index, reproducing Algorithm 2:

* partition-based iterations with a graph pool and a walk pool,
* a 3-phase pipeline over three simulated streams (graph loading, walk
  loading, computing) with eviction on a fourth full-duplex channel,
* preemptive scheduling (compute ready batches while loads are in flight),
* selective scheduling (load the partition with the most walks, evict the
  one with the fewest, pick batches to maximize cached-data reuse),
* adaptive scheduling (zero copy instead of explicit partition loads when
  ``alpha * w < S_p``).

Every behaviour is a config toggle so the ablation benchmarks (Fig 13,
Table III, Fig 14) can run the exact baselines the paper compares against.
"""

from repro.core.config import EngineConfig
from repro.core.stats import RunStats, StatsCollector
from repro.core.scheduler import Scheduler
from repro.core.adaptive import AdaptivePolicy
from repro.core.engine import LightTrafficEngine, run_walks
from repro.core.epochs import EpochResult, run_epochs
from repro.core.events import (
    BatchEvicted,
    BatchLoaded,
    EventBus,
    GraphServed,
    IterationStarted,
    KernelDispatched,
    Reshuffled,
    RunCompleted,
    WalkFinished,
)
from repro.core.metrics import MetricsCollector
from repro.core.trace import TraceRecorder
from repro.core.prng import CounterRNG
from repro.core.theory import (
    IterationModel,
    transfer_bound_throughput,
    walk_density,
)

__all__ = [
    "EngineConfig",
    "RunStats",
    "StatsCollector",
    "Scheduler",
    "AdaptivePolicy",
    "LightTrafficEngine",
    "run_walks",
    "EpochResult",
    "run_epochs",
    "EventBus",
    "IterationStarted",
    "GraphServed",
    "BatchLoaded",
    "KernelDispatched",
    "Reshuffled",
    "BatchEvicted",
    "WalkFinished",
    "RunCompleted",
    "MetricsCollector",
    "TraceRecorder",
    "CounterRNG",
    "IterationModel",
    "transfer_bound_throughput",
    "walk_density",
]

"""Behavioural tests of the straggler phase (§III-E) using engine traces.

The paper's adaptive scheduling exists because of stragglers: late in a
variable-length run only a few walks survive, partitions hold too few walks
to justify full loads, and zero copy takes over.  These tests assert that
the engine actually exhibits that phase structure.
"""

import numpy as np
import pytest

from repro.algorithms import PersonalizedPageRank, UniformSampling
from repro.core.config import COPY_ADAPTIVE
from repro.core.engine import LightTrafficEngine
from repro.core.events import SERVED_ZERO_COPY
from repro.core.trace import TraceRecorder
from repro.graph import generators


@pytest.fixture(scope="module")
def straggler_graph():
    return generators.rmat(scale=10, edge_factor=6, seed=19, name="strag")


def traced_run(graph, algorithm, config):
    trace = TraceRecorder()
    engine = LightTrafficEngine(graph, algorithm, config, trace=trace)
    stats = engine.run(800)
    return stats, trace


class TestStragglerPhase:
    def test_zero_copy_concentrates_late(self, straggler_graph, tiny_config):
        config = tiny_config.with_options(copy_mode=COPY_ADAPTIVE)
        stats, trace = traced_run(
            straggler_graph, PersonalizedPageRank(stop_prob=0.15), config
        )
        zc_iters = [
            it.iteration
            for it in trace.iterations
            if it.served == SERVED_ZERO_COPY
        ]
        assert zc_iters, "PPR should trigger zero copy"
        # The median zero-copy iteration falls in the run's second half.
        midpoint = stats.iterations / 2
        assert np.median(zc_iters) > midpoint

    def test_walks_per_iteration_decay(self, straggler_graph, tiny_config):
        __, trace = traced_run(
            straggler_graph,
            PersonalizedPageRank(stop_prob=0.15),
            tiny_config,
        )
        walks = [it.walks_total for it in trace.iterations]
        early = np.mean(walks[: max(1, len(walks) // 5)])
        late = np.mean(walks[-max(1, len(walks) // 5) :])
        assert late < early / 2  # geometric termination thins the load

    def test_fixed_length_has_mild_tail(self, straggler_graph, tiny_config):
        """Fixed-length walks finish near-simultaneously: far fewer
        zero-copy iterations than PPR at the same settings."""
        config = tiny_config.with_options(copy_mode=COPY_ADAPTIVE)
        ppr_stats, __ = traced_run(
            straggler_graph, PersonalizedPageRank(stop_prob=0.15), config
        )
        uni_stats, __ = traced_run(
            straggler_graph, UniformSampling(length=7), config
        )
        ppr_zc_frac = ppr_stats.zero_copy_iterations / ppr_stats.iterations
        uni_zc_frac = uni_stats.zero_copy_iterations / max(1, uni_stats.iterations)
        assert ppr_zc_frac > uni_zc_frac

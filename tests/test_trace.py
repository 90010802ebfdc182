"""Tests for engine tracing (per-iteration records)."""

import numpy as np
import pytest

from repro.algorithms import PageRank, PersonalizedPageRank
from repro.core.config import COPY_EXPLICIT, COPY_ZERO
from repro.core.engine import LightTrafficEngine
from repro.core.events import SERVED_EXPLICIT, SERVED_HIT, SERVED_ZERO_COPY
from repro.core.trace import IterationTrace, TraceRecorder


class TestRecorderUnit:
    def test_basic_flow(self):
        trace = TraceRecorder()
        trace.begin_iteration(1, partition=3, served=SERVED_EXPLICIT)
        trace.record_compute(3, walks=10, steps=25, preemptive=False)
        trace.record_compute(5, walks=4, steps=8, preemptive=True)
        trace.record_eviction()
        assert len(trace) == 1
        record = trace.iterations[0]
        assert record.walks_selected == 10
        assert record.walks_preempted == 4
        assert record.walks_total == 14
        assert record.steps == 33
        assert record.preempted_partitions == [5]
        assert record.evicted_batches == 1

    def test_served_counts(self):
        trace = TraceRecorder()
        trace.begin_iteration(1, 0, SERVED_HIT)
        trace.begin_iteration(2, 1, SERVED_EXPLICIT)
        trace.begin_iteration(3, 2, SERVED_HIT)
        counts = trace.served_counts()
        assert counts[SERVED_HIT] == 2
        assert counts[SERVED_EXPLICIT] == 1
        assert counts[SERVED_ZERO_COPY] == 0

    def test_preemption_fraction(self):
        trace = TraceRecorder()
        trace.begin_iteration(1, 0, SERVED_HIT)
        trace.record_compute(0, walks=6, steps=6, preemptive=False)
        trace.record_compute(1, walks=2, steps=2, preemptive=True)
        assert trace.preemption_fraction() == pytest.approx(0.25)

    def test_empty_fraction(self):
        assert TraceRecorder().preemption_fraction() == 0.0

    def test_hooks_require_iteration(self):
        trace = TraceRecorder()
        with pytest.raises(RuntimeError):
            trace.record_compute(0, 1, 1, False)
        with pytest.raises(RuntimeError):
            trace.record_eviction()

    def test_invalid_served(self):
        with pytest.raises(ValueError):
            TraceRecorder().begin_iteration(1, 0, "teleport")


class TestEngineIntegration:
    def test_trace_matches_stats(self, small_graph, tiny_config):
        trace = TraceRecorder()
        engine = LightTrafficEngine(
            small_graph, PageRank(length=8), tiny_config, trace=trace
        )
        stats = engine.run(300)
        assert len(trace) == stats.iterations
        assert sum(it.steps for it in trace.iterations) == stats.total_steps
        counts = trace.served_counts()
        assert counts[SERVED_EXPLICIT] == stats.explicit_copies
        assert counts[SERVED_ZERO_COPY] == stats.zero_copy_iterations
        evictions = sum(it.evicted_batches for it in trace.iterations)
        assert evictions == stats.walk_batches_evicted

    def test_zero_copy_mode_traced(self, small_graph, tiny_config):
        trace = TraceRecorder()
        engine = LightTrafficEngine(
            small_graph,
            PageRank(length=6),
            tiny_config.with_options(copy_mode=COPY_ZERO),
            trace=trace,
        )
        engine.run(100)
        assert all(
            it.served == SERVED_ZERO_COPY for it in trace.iterations
        )

    def test_preemption_visible_when_enabled(self, small_graph, tiny_config):
        def fraction(preemptive):
            trace = TraceRecorder()
            LightTrafficEngine(
                small_graph,
                PageRank(length=10),
                tiny_config.with_options(
                    preemptive=preemptive,
                    copy_mode=COPY_EXPLICIT,
                    batch_walks=16,
                ),
                trace=trace,
            ).run(400)
            return trace.preemption_fraction()

        assert fraction(False) == 0.0
        assert fraction(True) > 0.0

    def test_partition_visit_counts(self, small_graph, tiny_config):
        trace = TraceRecorder()
        engine = LightTrafficEngine(
            small_graph, PersonalizedPageRank(stop_prob=0.3), tiny_config,
            trace=trace,
        )
        stats = engine.run(200)
        counts = trace.partition_visit_counts(stats.num_partitions)
        assert counts.sum() == stats.iterations

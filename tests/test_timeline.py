"""Unit and property tests for the discrete-event timeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.timeline import (
    TIME_EPS,
    Stream,
    StreamOp,
    TimeBreakdown,
    Timeline,
    times_close,
)


class TestStream:
    def test_sequential_ops(self):
        s = Stream("s")
        assert s.schedule(1.0, "a") == (0.0, 1.0)
        assert s.schedule(2.0, "a") == (1.0, 3.0)
        assert s.busy_until == 3.0

    def test_earliest_release(self):
        s = Stream("s")
        start, end = s.schedule(1.0, "a", earliest=5.0)
        assert (start, end) == (5.0, 6.0)

    def test_earliest_in_past_ignored(self):
        s = Stream("s")
        s.schedule(4.0, "a")
        start, __ = s.schedule(1.0, "a", earliest=2.0)
        assert start == 4.0

    def test_zero_duration(self):
        s = Stream("s")
        start, end = s.schedule(0.0, "a")
        assert start == end == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Stream("s").schedule(-1.0, "a")

    def test_negative_earliest_rejected(self):
        with pytest.raises(ValueError):
            Stream("s").schedule(1.0, "a", earliest=-1.0)

    def test_idle_before(self):
        s = Stream("s")
        s.schedule(1.0, "a")
        assert s.idle_before(3.0) == 2.0
        assert s.idle_before(0.5) == 0.0

    def test_breakdown_recording(self):
        bd = TimeBreakdown()
        s = Stream("s", breakdown=bd)
        s.schedule(1.0, "load")
        s.schedule(2.0, "load")
        s.schedule(0.5, "compute")
        assert bd.get("load") == pytest.approx(3.0)
        assert bd.get("compute") == pytest.approx(0.5)
        assert bd.total() == pytest.approx(3.5)

    def test_op_recording(self):
        s = Stream("s", record_ops=True)
        s.schedule(1.0, "a")
        s.schedule(1.0, "b", earliest=4.0)
        assert [op.category for op in s.ops] == ["a", "b"]
        assert s.ops[1].start == 4.0
        assert s.ops[1].duration == 1.0


class TestTimesClose:
    def test_equal_times(self):
        assert times_close(1.5, 1.5)

    def test_rounding_noise_tolerated(self):
        t = 0.1 + 0.2  # classic float artifact vs 0.3
        assert times_close(t, 0.3)
        assert t != 0.3  # lint: allow-float-timestamp-eq

    def test_relative_scaling(self):
        # At large magnitudes the tolerance scales with the operands.
        big = 1e9
        assert times_close(big, big * (1.0 + TIME_EPS / 2))
        assert not times_close(big, big + 1.0)

    def test_distinct_times(self):
        assert not times_close(1.0, 2.0)


class TestStreamOp:
    def test_negative_duration_rejected_at_construction(self):
        with pytest.raises(ValueError, match="negative-duration"):
            StreamOp("a", start=2.0, end=1.0)

    def test_zero_duration_allowed(self):
        op = StreamOp("a", start=1.0, end=1.0)
        assert op.duration == 0.0


class TestStreamObserver:
    def test_observer_sees_every_op(self):
        tl = Timeline()
        seen = []
        tl.install_observer(
            lambda stream, cat, start, end, earliest: seen.append(
                (stream.name, cat, start, end, earliest)
            )
        )
        tl.load.schedule(1.0, "graph_load")
        tl.compute.schedule(2.0, "compute", earliest=1.0)
        assert seen == [
            ("load", "graph_load", 0.0, 1.0, 0.0),
            ("compute", "compute", 1.0, 3.0, 1.0),
        ]

    def test_double_install_rejected(self):
        tl = Timeline()
        tl.install_observer(lambda *args: None)
        with pytest.raises(RuntimeError, match="already has an observer"):
            tl.install_observer(lambda *args: None)

    def test_remove_observer(self):
        tl = Timeline()
        seen = []
        tl.install_observer(lambda *args: seen.append(args))
        tl.remove_observer()
        tl.load.schedule(1.0, "graph_load")
        assert seen == []
        tl.install_observer(lambda *args: None)  # reinstall works


class TestTimeBreakdown:
    def test_get_missing(self):
        assert TimeBreakdown().get("nope") == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("a", -1.0)

    def test_merge(self):
        a, b = TimeBreakdown(), TimeBreakdown()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.get("x") == 3.0 and a.get("y") == 3.0

    def test_as_dict_copy(self):
        bd = TimeBreakdown()
        bd.add("x", 1.0)
        d = bd.as_dict()
        d["x"] = 99.0
        assert bd.get("x") == 1.0


class TestTimeline:
    def test_streams_overlap(self):
        tl = Timeline()
        tl.load.schedule(10.0, "graph_load")
        tl.compute.schedule(3.0, "compute")
        tl.evict.schedule(2.0, "evict")
        assert tl.now == 10.0  # overlapping, not summed

    def test_cross_stream_dependency(self):
        tl = Timeline()
        __, load_end = tl.load.schedule(5.0, "graph_load")
        start, __ = tl.compute.schedule(1.0, "compute", earliest=load_end)
        assert start == 5.0

    def test_validate_passes(self):
        tl = Timeline(record_ops=True)
        tl.load.schedule(1.0, "a")
        tl.load.schedule(1.0, "b")
        tl.compute.schedule(5.0, "c")
        tl.validate()

    def test_total_time(self):
        tl = Timeline()
        assert tl.total_time() == 0.0
        tl.compute.schedule(2.5, "x")
        assert tl.total_time() == 2.5


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["compute", "load", "evict"]),
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(0.0, 20.0, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=80, deadline=None)
def test_timeline_invariants(ops):
    """Property: per-stream ops never overlap; makespan >= every stream."""
    tl = Timeline(record_ops=True)
    streams = {"compute": tl.compute, "load": tl.load, "evict": tl.evict}
    total_by_cat = {}
    for name, duration, earliest in ops:
        start, end = streams[name].schedule(duration, name, earliest=earliest)
        assert start >= earliest
        assert end - start == pytest.approx(duration)
        total_by_cat[name] = total_by_cat.get(name, 0.0) + duration
    tl.validate()
    for name, total in total_by_cat.items():
        assert tl.breakdown.get(name) == pytest.approx(total)
        # A stream's busy_until is at least its total busy time.
        assert streams[name].busy_until >= total - 1e-9
    assert tl.now == max(s.busy_until for s in tl.streams)


# ----------------------------------------------------------------------
# A run of back-to-back ops (Stream.schedule_run, StageContext.sched_run)
# against one schedule / sched call per op: the same floats, bit for bit.
# ----------------------------------------------------------------------
DURATIONS = st.lists(
    st.sampled_from((0.0, 0.1, 0.2, 0.3, 1e-7, 3.3e-6, 1 / 3, 2.5e-5)),
    max_size=12,
)


def _stream_pair(record_ops, observed, busy):
    pair = []
    for __ in range(2):
        calls = []
        stream = Stream("evict", TimeBreakdown(), record_ops=record_ops)
        stream.schedule(busy, "walk_evict")
        if observed:
            stream.observer = lambda *args, calls=calls: calls.append(args[1:])
        pair.append((stream, calls))
    return pair


def _state(stream, calls):
    return (
        stream.busy_until,
        stream._breakdown.as_dict(),
        stream.ops,
        list(calls),
    )


@settings(max_examples=300, deadline=None)
@given(
    durations=DURATIONS,
    earliest=st.sampled_from((0.0, 0.05, 0.4)),
    busy=st.sampled_from((0.0, 0.1, 0.7)),
    record_ops=st.booleans(),
    observed=st.booleans(),
)
def test_schedule_run_equals_one_schedule_per_op(
    durations, earliest, busy, record_ops, observed
):
    (run, run_calls), (ops, op_calls) = _stream_pair(record_ops, observed, busy)
    end = run.schedule_run(durations, "walk_evict", earliest)
    last = busy
    for duration in durations:
        __, last = ops.schedule(duration, "walk_evict", earliest)
    assert end == last
    assert _state(run, run_calls) == _state(ops, op_calls)


@pytest.mark.parametrize("record_ops", [False, True])
def test_schedule_run_rejects_bad_input_unchanged(record_ops):
    (stream, calls), __ = _stream_pair(record_ops, True, 0.5)
    before = _state(stream, calls)
    with pytest.raises(ValueError):
        stream.schedule_run([0.1, 0.2, -1e-9, 0.3], "walk_evict")
    with pytest.raises(ValueError):
        stream.schedule_run([0.1], "walk_evict", earliest=-1.0)
    assert _state(stream, calls) == before


@settings(max_examples=200, deadline=None)
@given(
    durations=DURATIONS,
    earliest=st.sampled_from((0.0, 0.05, 0.4)),
    busy=st.tuples(*[st.sampled_from((0.0, 0.1, 0.7))] * 3),
    pipeline=st.booleans(),
    observed=st.booleans(),
)
def test_sched_run_equals_one_sched_per_op(
    durations, earliest, busy, pipeline, observed
):
    from repro.core.config import EngineConfig
    from repro.core.stages.context import StageContext

    states = []
    for one_at_a_time in (False, True):
        timeline = Timeline(record_ops=observed)
        for stream, until in zip(timeline.streams, busy):
            stream.schedule(until, "setup")
        calls = []
        if observed:
            timeline.install_observer(lambda *args: calls.append(args[1:]))
        ctx = StageContext(
            config=EngineConfig(pipeline=pipeline), graph=None,
            algorithm=None, pgraph=None, rng=None, scheduler=None,
            host=None, device=None, graph_pool=None, timeline=timeline,
            bus=None, reshuffler=None, kernel_model=None, pcie=None,
            ship_link=None, bytes_per_walk=16, adaptive=None, backend=None,
        )
        if one_at_a_time:
            end = timeline.load.busy_until
            for duration in durations:
                end = ctx.sched(timeline.load, duration, "walk_load", earliest)
        else:
            end = ctx.sched_run(timeline.load, durations, "walk_load", earliest)
        states.append(
            (
                end,
                [s.busy_until for s in timeline.streams],
                timeline.breakdown.as_dict(),
                [s.ops for s in timeline.streams],
                calls,
            )
        )
    assert states[0] == states[1]

"""Discrete-event simulated CUDA streams.

A :class:`Stream` is a serial queue of operations: an op scheduled with an
``earliest`` release time starts at ``max(stream.busy_until, earliest)`` and
occupies the stream for its duration, exactly like ops issued to one CUDA
stream.  Ops on *different* streams overlap freely, which is how the paper's
3-phase pipeline (graph loading / walk loading / computing on three CUDA
streams, §III-D) is modeled.

Every op is tagged with a category; :class:`TimeBreakdown` accumulates busy
time per category, producing the Fig 15 / Fig 17 / Table I style breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.units import Seconds

#: Tolerance for comparing simulated timestamps.  Timestamps are sums of
#: float durations accumulated in program order, so two "simultaneous"
#: times can differ by accumulated rounding; exact ``==``/``!=`` on them
#: is a bug (lint rule ``float-timestamp-eq``) — use :func:`times_close`.
TIME_EPS = 1e-12


def times_close(a: float, b: float, eps: float = TIME_EPS) -> bool:
    """Whether two simulated timestamps are equal up to rounding."""
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


#: Signature of a stream observer: ``(stream, category, start, end,
#: earliest)`` called after every scheduled op (sanitizer hook).
StreamObserver = Callable[["Stream", str, float, float, float], None]


@dataclass(frozen=True)
class StreamOp:
    """One completed operation on a stream (kept for tests/inspection)."""

    category: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"negative-duration op {self.category!r}: "
                f"start={self.start} end={self.end}"
            )

    @property
    def duration(self) -> Seconds:
        return Seconds(self.end - self.start)


class TimeBreakdown:
    """Per-category accumulated busy time."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}

    def add(self, category: str, duration: float) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._totals[category] = self._totals.get(category, 0.0) + duration

    def add_run(self, category: str, durations: Sequence[float]) -> None:
        """:meth:`add` per duration: the same additions, in the same order
        (nothing is added when a duration is negative)."""
        if not durations:
            return
        total = self._totals.get(category, 0.0)
        for duration in durations:
            if duration < 0:
                raise ValueError("duration must be non-negative")
            total += duration
        self._totals[category] = total

    def get(self, category: str) -> Seconds:
        return Seconds(self._totals.get(category, 0.0))

    def as_dict(self) -> Dict[str, float]:
        return dict(self._totals)

    def total(self) -> Seconds:
        return Seconds(sum(self._totals.values()))

    def merge(self, other: "TimeBreakdown") -> None:
        for category, duration in other._totals.items():
            self.add(category, duration)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{k}={v * 1e3:.3f}ms" for k, v in sorted(self._totals.items())
        )
        return f"<TimeBreakdown {inner}>"


class Stream:
    """A serial simulated stream (one CUDA stream)."""

    def __init__(
        self,
        name: str,
        breakdown: Optional[TimeBreakdown] = None,
        record_ops: bool = False,
    ) -> None:
        self.name = name
        self.busy_until = 0.0
        self._breakdown = breakdown
        self._record_ops = record_ops
        self.ops: List[StreamOp] = []
        #: optional post-schedule callback (see :data:`StreamObserver`);
        #: pure observation — must not touch the stream's state.
        self.observer: Optional[StreamObserver] = None

    def schedule(
        self, duration: float, category: str, earliest: float = 0.0
    ) -> Tuple[Seconds, Seconds]:
        """Append an op; returns its ``(start, end)`` times.

        ``earliest`` expresses a cross-stream dependency (the op cannot start
        before that time) — the analogue of ``cudaStreamSynchronize`` /
        event waits in Algorithm 2.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if earliest < 0:
            raise ValueError("earliest must be non-negative")
        start = max(self.busy_until, earliest)
        end = start + duration
        self.busy_until = end
        if self._breakdown is not None:
            self._breakdown.add(category, duration)
        if self._record_ops:
            self.ops.append(StreamOp(category, start, end))
        if self.observer is not None:
            self.observer(self, category, start, end, earliest)
        return Seconds(start), Seconds(end)

    def schedule_run(
        self, durations: Sequence[float], category: str, earliest: float = 0.0
    ) -> Seconds:
        """Append one op per duration, back to back; returns the last end.

        Bit-identical to one :meth:`schedule` call per duration with the
        same ``earliest``: the same float additions in the same order (a
        loop, never a pairwise sum), and the observer and op record still
        see every op.  Invalid input raises before the stream changes.
        """
        if earliest < 0:
            raise ValueError("earliest must be non-negative")
        end = self.busy_until
        for duration in durations:
            if duration < 0:
                raise ValueError("duration must be non-negative")
            end = max(end, earliest) + duration
        if self._record_ops or self.observer is not None:
            for duration in durations:
                self.schedule(duration, category, earliest)
            return Seconds(self.busy_until)
        if self._breakdown is not None:
            self._breakdown.add_run(category, durations)
        self.busy_until = end
        return Seconds(end)

    def idle_before(self, time: float) -> Seconds:
        """How long this stream would sit idle until ``time`` (>= 0)."""
        return Seconds(max(0.0, time - self.busy_until))

    def leads(self, other: "Stream") -> bool:
        """Whether this stream's completion frontier is ahead of ``other``.

        The preemptive scheduler uses ``load.leads(compute)`` as its "the
        GPU would idle" condition: as long as the load stream finishes
        later than the compute stream, there is a window to fill.
        """
        return self.busy_until > other.busy_until


class Timeline:
    """The engine's three streams plus shared accounting.

    ``compute`` executes kernels; ``load`` carries host-to-device transfers
    (explicit partition/batch copies and the PCIe occupancy of zero-copy
    reads); ``evict`` carries device-to-host transfers.  PCIe is full
    duplex, so ``load`` and ``evict`` being separate streams models
    simultaneous loading and eviction without interference (§III-D).
    """

    COMPUTE = "compute"
    LOAD = "load"
    EVICT = "evict"

    def __init__(self, record_ops: bool = False) -> None:
        self.breakdown = TimeBreakdown()
        self.compute = Stream(self.COMPUTE, self.breakdown, record_ops)
        self.load = Stream(self.LOAD, self.breakdown, record_ops)
        self.evict = Stream(self.EVICT, self.breakdown, record_ops)

    @property
    def streams(self) -> Tuple[Stream, Stream, Stream]:
        return (self.compute, self.load, self.evict)

    def install_observer(self, observer: StreamObserver) -> None:
        """Attach one observer to every stream (one at a time)."""
        for stream in self.streams:
            if stream.observer is not None:
                raise RuntimeError(
                    f"stream {stream.name} already has an observer"
                )
            stream.observer = observer

    def remove_observer(self) -> None:
        for stream in self.streams:
            stream.observer = None

    @property
    def now(self) -> Seconds:
        """The makespan so far (max across streams)."""
        return Seconds(max(stream.busy_until for stream in self.streams))

    def total_time(self) -> Seconds:
        return self.now

    def validate(self) -> None:
        """Check per-stream ops never overlap (needs ``record_ops=True``)."""
        for stream in self.streams:
            prev_end = 0.0
            for op in stream.ops:
                if op.start + 1e-12 < prev_end:
                    raise AssertionError(
                        f"overlapping ops on stream {stream.name}: "
                        f"{op} starts before {prev_end}"
                    )
                prev_end = op.end

"""Unit-of-measure aliases threaded through the cost stack.

Everything this reproduction produces is analytic cost math — seconds,
cycles, bytes, cache lines, walk counts, link packets — flowing between
the :mod:`repro.gpu` cost models, the simulated timeline and the
scheduler.  A silently-mixed unit (cycles added to seconds, bytes
compared to walk counts) corrupts every downstream figure without any
runtime error, so each quantity gets its own :func:`typing.NewType`
alias:

* the aliases are zero-cost at runtime (``Seconds(x) is x``);
* mypy treats them as distinct types, so an annotated function cannot
  return a raw expression without the author asserting its unit.

Conversions between dimensions are spelled out by the helpers at the
bottom — :func:`seconds_from_cycles` is the blessed cycles→seconds
boundary (next to :meth:`repro.gpu.device.DeviceSpec.cycles_to_seconds`).
"""

from __future__ import annotations

import math
from typing import NewType

# ---------------------------------------------------------------------------
# Base quantities
# ---------------------------------------------------------------------------

#: Simulated wall-clock time (stream timestamps, durations, latencies).
Seconds = NewType("Seconds", float)

#: GPU/CPU clock cycles (per-step kernel costs before the clock divide).
Cycles = NewType("Cycles", float)

#: Memory / transfer sizes.
Bytes = NewType("Bytes", int)

#: Fractional byte quantities (per-walk averages, scaled traffic).
BytesF = NewType("BytesF", float)

#: PCIe cache-line counts (zero-copy traffic granularity).
CacheLines = NewType("CacheLines", int)

#: Walk counts (pool sizes, batch sizes, migration payloads).
Walks = NewType("Walks", int)

#: Peer-link packet counts (P2P transfer granularity).
Packets = NewType("Packets", int)

# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

#: Clock rates: cycles per second.
Hertz = NewType("Hertz", float)

#: Link / memory bandwidth: bytes per second.
BytesPerSecond = NewType("BytesPerSecond", float)

#: Kernel throughput: walk steps per second (steps are dimensionless
#: counts; the alias documents intent for readers and mypy only).
StepsPerSecond = NewType("StepsPerSecond", float)


# ---------------------------------------------------------------------------
# Blessed conversions (the only sanctioned dimension boundaries)
# ---------------------------------------------------------------------------

def seconds_from_cycles(cycles: float, clock_hz: float) -> Seconds:
    """Convert a cycle count to seconds at ``clock_hz``.

    The cycles→seconds boundary of the cost stack, next to
    :meth:`repro.gpu.device.DeviceSpec.cycles_to_seconds`.
    """
    if clock_hz <= 0:
        raise ValueError("clock_hz must be positive")
    return Seconds(cycles / clock_hz)


def seconds_from_bytes(nbytes: float, bandwidth: float) -> Seconds:
    """Transfer time of ``nbytes`` at ``bandwidth`` bytes/second."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return Seconds(nbytes / bandwidth)


def cache_lines_from_bytes(nbytes: int, cacheline_bytes: int) -> CacheLines:
    """Whole cache lines covering ``nbytes`` (zero-copy granularity)."""
    if cacheline_bytes < 1:
        raise ValueError("cacheline_bytes must be >= 1")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    return CacheLines(-(-nbytes // cacheline_bytes))


def packets_from_bytes(nbytes: int, packet_bytes: int) -> Packets:
    """Whole link packets covering ``nbytes`` (P2P granularity)."""
    if packet_bytes < 1:
        raise ValueError("packet_bytes must be >= 1")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    return Packets(math.ceil(nbytes / packet_bytes))

"""Analytic kernel cost models.

The walk-update kernel (Algorithm 1) is memory bound; its duration is the
maximum of a *latency* bound (the longest walk's serial chain of dependent
steps) and a *throughput* bound (total steps over the device's sustainable
step rate, itself the minimum of a compute-lane bound and a device-memory
bandwidth bound).  A locality factor raises the per-step cost as the
partition grows past the L2 cache, which is what makes walk updating slower
for large partitions in Fig 17.

The reshuffle model implements the Fig 12 comparison: the two-level path
(shared-memory local index + counting sort + coalesced frontier writes) has a
small per-walk cost growing with ``log2(P)`` (findPartition + sort depth),
while the direct-write path pays L2-latency atomics plus a scatter penalty
that grows with the number of partitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.units import Cycles, Seconds, StepsPerSecond
from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.device import DeviceSpec

#: Reshuffle strategies (Fig 12).
TWO_LEVEL = "two_level"
DIRECT_WRITE = "direct"


@dataclass(frozen=True)
class KernelCost:
    """Decomposed cost of one walk-update kernel invocation."""

    update_seconds: float
    reshuffle_seconds: float
    other_seconds: float

    @property
    def total_seconds(self) -> Seconds:
        return Seconds(
            self.update_seconds + self.reshuffle_seconds + self.other_seconds
        )


class KernelModel:
    """Cost model bound to a device spec and calibration."""

    def __init__(
        self,
        device: DeviceSpec,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        calibration.validate()
        self.device = device
        self.calibration = calibration

    # ------------------------------------------------------------------
    # Walk update (Algorithm 1, lines 3-5)
    # ------------------------------------------------------------------
    def locality_factor(self, partition_bytes: int) -> float:
        """Per-step slowdown of large partitions (cache-unfriendly gathers)."""
        cal = self.calibration
        span = cal.locality_l2_multiple * self.device.l2_bytes
        pressure = min(1.0, partition_bytes / span)
        return 1.0 + (cal.step_cycles_locality / cal.step_cycles_base) * pressure

    def step_cycles(
        self, partition_bytes: int, sampler: str = "uniform"
    ) -> Cycles:
        """Cycles per walk step against a partition of the given size.

        ``sampler`` selects the transition-sampling method's per-step cost
        (:meth:`Calibration.step_cycles_for`); uniform adds exactly zero
        cycles, so the default is bit-identical to the historical model.
        """
        return Cycles(
            self.calibration.step_cycles_for(sampler)
            * self.locality_factor(partition_bytes)
        )

    def steps_per_second(
        self, partition_bytes: int, sampler: str = "uniform"
    ) -> StepsPerSecond:
        """Sustainable device-wide step throughput for a partition size."""
        cal = self.calibration
        cycles = self.step_cycles(partition_bytes, sampler)
        compute_bound = (
            self.device.total_cores * self.device.clock_hz / cycles
        )
        memory_bound = (
            self.device.mem_bandwidth
            * cal.random_access_efficiency
            / cal.step_bytes_effective
        ) / self.locality_factor(partition_bytes)
        return StepsPerSecond(min(compute_bound, memory_bound))

    def update_time(
        self,
        total_steps: int,
        longest_run: int,
        partition_bytes: int,
        sampler: str = "uniform",
    ) -> Seconds:
        """Duration of updating one batch.

        Parameters
        ----------
        total_steps:
            steps executed across all walks in the batch this invocation.
        longest_run:
            the maximum steps any single walk took (serial dependent chain).
        partition_bytes:
            size of the graph partition being walked (locality model).
        sampler:
            active transition-sampling method (per-step cost entry).
        """
        if total_steps < 0 or longest_run < 0:
            raise ValueError("step counts must be non-negative")
        if total_steps == 0:
            return Seconds(0.0)
        # The latency bound is a fixed-size term (per-walk dependent chain),
        # so it shrinks with sim_scale like the other fixed costs.
        latency_bound = self.calibration.sim_scale * self.device.cycles_to_seconds(
            longest_run * self.step_cycles(partition_bytes, sampler)
        )
        throughput_bound = total_steps / self.steps_per_second(
            partition_bytes, sampler
        )
        return Seconds(max(latency_bound, throughput_bound))

    # ------------------------------------------------------------------
    # Reshuffle (Algorithm 1, lines 6-14; Fig 12)
    # ------------------------------------------------------------------
    def reshuffle_serial_seconds(
        self, num_partitions: int, mode: str = TWO_LEVEL
    ) -> Seconds:
        """Single-lane duration of reshuffling one walk.

        This is *the* per-walk cost formula; both :meth:`reshuffle_time`
        and the reshufflers' hot path (`_BaseReshuffler.seconds_for`) scale
        it by ``num_walks / lanes`` so the two can never drift.
        """
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        cal = self.calibration
        if mode == TWO_LEVEL:
            per_walk = cal.reshuffle_two_level_base_cycles
            per_walk += cal.reshuffle_two_level_log_cycles * math.log2(
                max(2, num_partitions)
            )
        elif mode == DIRECT_WRITE:
            per_walk = cal.reshuffle_direct_base_cycles
            per_walk += cal.reshuffle_direct_scatter_cycles * min(
                num_partitions, cal.reshuffle_direct_scatter_cap
            )
        else:
            raise ValueError(f"unknown reshuffle mode {mode!r}")
        return self.device.cycles_to_seconds(per_walk)

    def reshuffle_time(
        self, num_walks: int, num_partitions: int, mode: str = TWO_LEVEL
    ) -> Seconds:
        """Duration of inserting ``num_walks`` updated walks into frontiers."""
        if num_walks < 0:
            raise ValueError("num_walks must be non-negative")
        if num_walks == 0:
            if num_partitions < 1:
                raise ValueError("num_partitions must be >= 1")
            return Seconds(0.0)
        serial = self.reshuffle_serial_seconds(num_partitions, mode)
        lanes = min(num_walks, self.calibration.reshuffle_parallel_lanes)
        return Seconds(num_walks * serial / lanes)

    # ------------------------------------------------------------------
    # Full kernel
    # ------------------------------------------------------------------
    def kernel_cost(
        self,
        total_steps: int,
        longest_run: int,
        num_walks: int,
        num_partitions: int,
        partition_bytes: int,
        reshuffle_mode: str = TWO_LEVEL,
        sampler: str = "uniform",
    ) -> KernelCost:
        """Cost of one walk-update-and-reshuffle kernel (Algorithm 1)."""
        return KernelCost(
            update_seconds=self.update_time(
                total_steps, longest_run, partition_bytes, sampler
            ),
            reshuffle_seconds=self.reshuffle_time(
                num_walks, num_partitions, reshuffle_mode
            ),
            other_seconds=self.calibration.scaled_kernel_launch_seconds,
        )

    # ------------------------------------------------------------------
    # Vertex-centric baseline kernel (Subway, Fig 10)
    # ------------------------------------------------------------------
    def vertex_centric_time(
        self, total_steps: int, max_walks_per_vertex: int
    ) -> Seconds:
        """One Subway-style iteration kernel: one thread per active vertex.

        Walks co-located on a vertex are processed serially by that vertex's
        thread, so the critical path is ``max_walks_per_vertex`` steps; this
        is the load imbalance §IV-B attributes Subway's compute gap to.
        """
        if total_steps == 0:
            return Seconds(0.0)
        cal = self.calibration
        # max_walks_per_vertex already shrinks with the dataset scale (it is
        # proportional to the walk count), so no sim_scale here.
        latency_bound = self.device.cycles_to_seconds(
            max_walks_per_vertex * cal.subway_step_cycles
        )
        throughput_bound = self.device.cycles_to_seconds(
            total_steps * cal.subway_step_cycles / cal.subway_lane_count
        )
        return Seconds(max(latency_bound, throughput_bound))


@functools.lru_cache(maxsize=4096)
def update_coefficients(
    device: DeviceSpec,
    calibration: Calibration,
    partition_bytes: int,
    sampler: str = "uniform",
) -> Tuple[float, float]:
    """``(seconds per kernel round, seconds per step)`` of one partition.

    A walk-update kernel of ``steps`` over ``rounds`` lasts the larger of
    ``rounds`` latencies and ``steps`` reciprocal step rates.  Both are
    pure functions of the arguments, so they are cached across engine
    runs (frozen specs hash by value).
    """
    model = KernelModel(device, calibration)
    latency = calibration.sim_scale * device.cycles_to_seconds(
        model.step_cycles(partition_bytes, sampler)
    )
    return latency, 1.0 / model.steps_per_second(partition_bytes, sampler)


# ----------------------------------------------------------------------
# Cross-validation of the analytic model against measured backends
# ----------------------------------------------------------------------
def fit_time_scale(
    predicted: Sequence[float], measured: Sequence[float]
) -> float:
    """Least-squares scale ``lambda`` minimizing ``|lambda*pred - meas|^2``.

    The analytic :class:`KernelModel` predicts *simulated GPU* seconds;
    a real backend measures *host wall-clock* seconds.  The two live on
    different absolute scales, so cross-validation first fits the single
    free factor ``lambda = sum(pred*meas) / sum(pred^2)`` and then judges
    the model by the residual per-kernel relative error
    (:func:`relative_errors`) — i.e. by *shape*, not absolute magnitude.
    """
    if len(predicted) != len(measured):
        raise ValueError("predicted and measured must align")
    num = 0.0
    den = 0.0
    for pred, meas in zip(predicted, measured):
        num += pred * meas
        den += pred * pred
    if den <= 0.0:
        return 0.0
    return num / den


def relative_errors(
    predicted: Sequence[float],
    measured: Sequence[float],
    scale: float,
) -> List[float]:
    """Per-kernel ``|scale*pred - meas| / meas`` (skips meas <= 0)."""
    if len(predicted) != len(measured):
        raise ValueError("predicted and measured must align")
    errors: List[float] = []
    for pred, meas in zip(predicted, measured):
        if meas <= 0.0:
            continue
        errors.append(abs(scale * pred - meas) / meas)
    return errors

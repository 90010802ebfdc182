"""Engine configuration.

Defaults follow the paper's default setting scaled to the synthetic
datasets: range partitions of a fixed byte budget, walk batches sized
``16x`` the GPU core count (§III-B; benchmark configs use smaller batches
to keep batch:partition proportions at the reduced graph scale), and all
three scheduling optimizations enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple, Union

from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.kernels import DIRECT_WRITE, TWO_LEVEL
from repro.gpu.pcie import PCIeSpec

#: copy_mode values (§III-E): adaptive picks per-iteration via alpha*w < S_p.
COPY_ADAPTIVE = "adaptive"
COPY_EXPLICIT = "explicit"
COPY_ZERO = "zero_copy"

#: partition-selection / eviction policy values.
SCHED_SELECTIVE = "selective"
SCHED_ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class DeviceFailure:
    """One injected device failure: ``device`` dies at ``at_iteration``.

    The failure fires at the sweep boundary before the engine would run
    global iteration ``at_iteration`` — the shard's pending walks are
    recovered onto surviving devices before any further kernel runs.
    """

    device: int
    at_iteration: int

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError("device must be >= 0")
        if self.at_iteration < 1:
            raise ValueError("at_iteration must be >= 1")


@dataclass(frozen=True)
class FailureSchedule:
    """Deterministic mid-run device-failure injection plan.

    Carried by :attr:`EngineConfig.failure_schedule`; the multi-device
    engine fires each :class:`DeviceFailure` once, in iteration order.
    Failing every device is rejected at run time (the last survivor
    must be able to absorb the recovered walks).
    """

    failures: Tuple[DeviceFailure, ...]

    def __post_init__(self) -> None:
        seen = set()
        for failure in self.failures:
            if not isinstance(failure, DeviceFailure):
                raise TypeError("failures must hold DeviceFailure entries")
            if failure.device in seen:
                raise ValueError(
                    f"device {failure.device} scheduled to fail twice"
                )
            seen.add(failure.device)

    @classmethod
    def single(cls, device: int, at_iteration: int) -> "FailureSchedule":
        """One device failing once (the common bench/test case)."""
        return cls(failures=(DeviceFailure(device, at_iteration),))

    @classmethod
    def parse(cls, text: str) -> "FailureSchedule":
        """Parse ``DEV@ITER[,DEV@ITER...]``, e.g. ``1@40`` or ``1@40,2@90``."""
        failures = []
        for item in text.split(","):
            dev_text, sep, iter_text = item.partition("@")
            if not sep:
                raise ValueError(
                    f"bad failure {item!r}; expected DEVICE@ITERATION"
                )
            failures.append(
                DeviceFailure(device=int(dev_text), at_iteration=int(iter_text))
            )
        return cls(failures=tuple(failures))


@dataclass(frozen=True)
class EngineConfig:
    """All knobs of :class:`~repro.core.engine.LightTrafficEngine`.

    Attributes
    ----------
    partition_bytes:
        target CSR bytes per graph partition (block size of the graph pool).
    batch_walks:
        walks per batch; ``None`` = ``16 * device.total_cores`` (paper
        default).
    graph_pool_partitions:
        ``m_g`` — graph partitions cached in GPU memory.
    walk_pool_walks:
        ``m_w`` — walks cached in GPU memory; ``None`` = unbounded (all
        walks fit, no walk eviction).
    pipeline:
        overlap loading and computing on separate streams; ``False``
        serializes every operation (ablation lower bound).
    preemptive:
        compute ready batches while the load stream is busy (§III-D).
    selective:
        selective partition load/evict and batch-pick policies (§III-D);
        ``False`` = round-robin loading + FIFO eviction (paper's baseline).
    copy_mode:
        ``adaptive`` | ``explicit`` | ``zero_copy`` (§III-E / Fig 14).
    reshuffle_mode:
        ``two_level`` | ``direct`` (§III-C / Fig 12).
    interconnect:
        ``pcie3`` | ``pcie4`` | ``nvlink2``, or a custom
        :class:`~repro.gpu.pcie.PCIeSpec` (benchmarks pass scaled specs).
    device:
        modeled GPU.
    calibration:
        cost-model constants.
    rng_mode:
        ``sequential`` (one shared RNG stream; trajectories depend on
        dispatch order) or ``counter`` (Philox-style per-walk randomness
        derived from ``(seed, walk_id, step)``: trajectories are bitwise
        identical under every scheduling/copy-mode combination).
    sanitize:
        attach a :class:`~repro.analysis.Sanitizer` to the run: timeline
        causality, stream affinity, partition residency, walk-batch
        lifecycle and walk conservation are checked live, with the
        findings in ``RunStats.sanitizer``.  Pure observation — the
        simulated results stay bit-identical.
    seed:
        RNG seed for walk trajectories.
    max_iterations:
        safety cap; ``None`` = unlimited.
    record_ops:
        keep per-op timeline records (tests / debugging; costs memory).
    """

    partition_bytes: int = 256 * 1024
    batch_walks: Optional[int] = None
    graph_pool_partitions: int = 8
    walk_pool_walks: Optional[int] = None
    pipeline: bool = True
    preemptive: bool = True
    selective: bool = True
    copy_mode: str = COPY_ADAPTIVE
    reshuffle_mode: str = TWO_LEVEL
    #: ship sampled path fragments to a consumer GPU as walks advance
    #: (the paper's §IV-A assumption for uniform sampling; off = paths
    #: are not stored, exactly as the paper measures).
    ship_paths: bool = False
    #: link carrying shipped paths (device-to-device NVLink by default).
    ship_interconnect: Union[str, PCIeSpec] = "nvlink2"
    #: graph-pool eviction: None = paper default (min_walks when selective,
    #: FIFO otherwise); or one of 'fifo' | 'lru' | 'min_walks'.
    eviction_policy: Optional[str] = None
    interconnect: Union[str, PCIeSpec] = "pcie3"
    device: DeviceSpec = RTX3090
    calibration: Calibration = DEFAULT_CALIBRATION
    #: transition-sampler override applied to the algorithm (a name from
    #: the :mod:`repro.algorithms.transitions` registry); ``None`` keeps
    #: the algorithm's own choice.  Only algorithms with configurable
    #: sampling (e.g. weighted uniform walks) accept an override.
    sampler: Optional[str] = None
    #: device shards the run executes on.  1 = the paper's single-GPU
    #: engine; > 1 shards the partition range across N simulated devices
    #: with P2P walk migration (:mod:`repro.core.cluster`).
    devices: int = 1
    #: peer interconnect carrying cross-shard walk migrations — a name
    #: from :func:`repro.gpu.cluster.peer_link_by_name` or a custom
    #: :class:`~repro.gpu.cluster.PeerLinkSpec`.
    peer_interconnect: Union[str, "object"] = "nvlink"
    #: per-device capability specs (one
    #: :class:`~repro.gpu.cluster.ClusterDeviceSpec` per shard); ``None``
    #: = homogeneous (the historical uniform cluster, bit-identical).
    device_specs: Optional[Tuple[Any, ...]] = None
    #: interconnect topology routing cross-shard migrations — one of
    #: ``all-pairs`` | ``ring`` | ``switch`` (multi-hop routes relay
    #: through intermediate devices / an explicit switch node).
    topology: str = "all-pairs"
    #: deterministic mid-run device-failure injection; ``None`` = the
    #: historical reliable cluster.
    failure_schedule: Optional[FailureSchedule] = None
    #: elastic rebalance trigger: when the most loaded alive device's
    #: compute-normalized pending walks exceed ``threshold x`` the alive
    #: mean, partitions are handed off to rebalance.  ``None`` disables
    #: elasticity (static assignment, the historical behavior).
    rebalance_threshold: Optional[float] = None
    #: minimum sweeps between two elastic rebalances.
    rebalance_cooldown: int = 8
    #: weight the initial (and recovery) partition assignment by each
    #: device's compute scale; ``False`` keeps the uniform byte-balanced
    #: assignment even on skewed specs (the "homogeneous assumption"
    #: baseline the elastic bench compares against).
    heterogeneous_assignment: bool = True
    rng_mode: str = "sequential"
    sanitize: bool = False
    seed: Optional[int] = 42
    max_iterations: Optional[int] = None
    record_ops: bool = False
    #: execution backend running the kernel inner loops: ``simulated``
    #: (vectorized NumPy, the default and the only one usable with
    #: ``rng_mode="sequential"``) or ``multiprocess`` (shared-memory
    #: trajectory precompute; requires the counter RNG so trajectories
    #: stay bit-identical to the simulated path).
    backend: str = "simulated"

    def __post_init__(self) -> None:
        if self.partition_bytes <= 0:
            raise ValueError("partition_bytes must be positive")
        if self.batch_walks is not None and self.batch_walks < 1:
            raise ValueError("batch_walks must be >= 1")
        if self.graph_pool_partitions < 1:
            raise ValueError("graph_pool_partitions must be >= 1")
        if self.copy_mode not in (COPY_ADAPTIVE, COPY_EXPLICIT, COPY_ZERO):
            raise ValueError(f"unknown copy_mode {self.copy_mode!r}")
        if self.reshuffle_mode not in (TWO_LEVEL, DIRECT_WRITE):
            raise ValueError(f"unknown reshuffle_mode {self.reshuffle_mode!r}")
        if self.rng_mode not in ("sequential", "counter"):
            raise ValueError(f"unknown rng_mode {self.rng_mode!r}")
        if self.sampler is not None:
            # Deferred import: the registry pulls in the sampler
            # implementations, which config itself must not depend on.
            from repro.algorithms.transitions import available_samplers

            if self.sampler not in available_samplers():
                raise ValueError(
                    f"unknown sampler {self.sampler!r}; available: "
                    f"{', '.join(available_samplers())}"
                )
        if self.eviction_policy not in (None, "fifo", "lru", "min_walks"):
            raise ValueError(
                f"unknown eviction_policy {self.eviction_policy!r}"
            )
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if isinstance(self.peer_interconnect, str):
            from repro.gpu.cluster import available_peer_links

            if self.peer_interconnect not in available_peer_links():
                raise ValueError(
                    f"unknown peer_interconnect {self.peer_interconnect!r}; "
                    f"available: {', '.join(available_peer_links())}"
                )
        # Deferred import: gpu.cluster must not be a hard dependency of
        # config construction (mirrors the peer-link check above).
        from repro.gpu.cluster import TOPOLOGIES, ClusterDeviceSpec

        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; available: "
                f"{', '.join(sorted(TOPOLOGIES))}"
            )
        if self.device_specs is not None:
            if len(self.device_specs) != self.devices:
                raise ValueError(
                    f"got {len(self.device_specs)} device spec(s) for "
                    f"{self.devices} devices"
                )
            for spec in self.device_specs:
                if not isinstance(spec, ClusterDeviceSpec):
                    raise TypeError(
                        "device_specs must hold ClusterDeviceSpec entries"
                    )
        if self.failure_schedule is not None:
            if not isinstance(self.failure_schedule, FailureSchedule):
                raise TypeError("failure_schedule must be a FailureSchedule")
            for failure in self.failure_schedule.failures:
                if failure.device >= self.devices:
                    raise ValueError(
                        f"failure_schedule names device {failure.device}, "
                        f"but the cluster has {self.devices} device(s)"
                    )
            if len(self.failure_schedule.failures) >= self.devices:
                raise ValueError(
                    "failure_schedule would kill every device; at least "
                    "one must survive to recover walks"
                )
        if self.rebalance_threshold is not None:
            if not self.rebalance_threshold > 1.0:
                raise ValueError("rebalance_threshold must be > 1.0")
        if self.rebalance_cooldown < 1:
            raise ValueError("rebalance_cooldown must be >= 1")
        if self.backend != "simulated":
            # Deferred import: the backends depend on config.
            from repro.backends import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; available: "
                    f"{', '.join(available_backends())}"
                )
            if self.rng_mode != "counter":
                raise ValueError(
                    f"backend {self.backend!r} requires rng_mode='counter' "
                    "(real backends re-order execution, which only the "
                    "schedule-independent counter RNG can replay)"
                )

    def resolved_batch_walks(self) -> int:
        """Batch capacity: configured, or the paper's 16x core count."""
        if self.batch_walks is not None:
            return self.batch_walks
        return 16 * self.device.total_cores

    def with_options(self, **changes: Any) -> "EngineConfig":
        """Functional update (convenience for benchmark sweeps)."""
        return replace(self, **changes)

"""PCIe interconnect model.

Two transfer modes, mirroring §II-A / §III-E:

* **explicit copy** (``cudaMemcpyAsync``): a contiguous DMA achieving the
  link's effective bandwidth, plus a fixed per-call latency.  The paper
  measures PCIe 3.0 at ~12 GB/s in practice (§I) and 128 MB in ~10.4 ms
  (§II-B), which the defaults reproduce.
* **zero copy** (``cudaHostAlloc`` + direct access): the GPU fetches host
  memory in cache-line units on demand; random cache-line traffic reaches
  only a fraction of link bandwidth.

PCIe is full duplex: host-to-device and device-to-host are independent
channels, which the engine exploits by putting loads and evictions on
different streams.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Union

from repro.core.units import BytesPerSecond, Seconds
from repro.gpu.calibration import Calibration, DEFAULT_CALIBRATION


@dataclass(frozen=True)
class PCIeSpec:
    """An interconnect generation.

    Attributes
    ----------
    name:
        label, e.g. ``pcie3``.
    bandwidth:
        effective unidirectional bandwidth for large DMA, bytes/second.
    latency_seconds:
        fixed per-transfer setup latency.
    """

    name: str
    bandwidth: float
    latency_seconds: float = 10e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_seconds < 0:
            raise ValueError("latency must be non-negative")

    def explicit_copy_time(self, nbytes: int) -> Seconds:
        """Duration of a contiguous DMA of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return Seconds(0.0)
        return Seconds(self.latency_seconds + nbytes / self.bandwidth)

    def zero_copy_bandwidth(
        self, calibration: Calibration = DEFAULT_CALIBRATION
    ) -> BytesPerSecond:
        """Effective bandwidth of random cache-line zero-copy reads."""
        return BytesPerSecond(
            self.bandwidth * calibration.zero_copy_bandwidth_fraction
        )

    def zero_copy_time(
        self, nbytes: int, calibration: Calibration = DEFAULT_CALIBRATION
    ) -> Seconds:
        """Duration of ``nbytes`` of random zero-copy traffic.

        Traffic is rounded up to whole cache lines; there is no per-call
        latency because accesses are issued by the kernel itself.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return Seconds(0.0)
        lines = math.ceil(nbytes / calibration.cacheline_bytes)
        traffic = lines * calibration.cacheline_bytes
        return Seconds(traffic / self.zero_copy_bandwidth(calibration))


#: PCIe 3.0 x16 at the paper's measured practical bandwidth.
PCIE3 = PCIeSpec(name="pcie3", bandwidth=12e9)

#: PCIe 4.0 x16 (double the effective bandwidth).
PCIE4 = PCIeSpec(name="pcie4", bandwidth=24e9)

#: NVLink 2.0-class fast interconnect (the paper's outlook, §IV-B).
NVLINK2 = PCIeSpec(name="nvlink2", bandwidth=64e9, latency_seconds=5e-6)

_BY_NAME = {spec.name: spec for spec in (PCIE3, PCIE4, NVLINK2)}


def interconnect_by_name(name: str) -> PCIeSpec:
    """Look up a preset interconnect by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown interconnect {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def resolve_interconnect(spec_or_name: Union[str, PCIeSpec]) -> PCIeSpec:
    """A config's interconnect field as a spec: presets may be given by name."""
    if isinstance(spec_or_name, PCIeSpec):
        return spec_or_name
    return interconnect_by_name(spec_or_name)

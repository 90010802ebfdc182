"""Execution backends for the walk kernels.

The engine *costs* kernels with the simulated device model and
*executes* them through an :class:`ExecutionBackend`, one of two:
``simulated`` (the vectorized NumPy path, default) and ``multiprocess``
(shared-memory trajectory precompute).  See :mod:`repro.backends.base`
for the protocol and the replayability gate that keeps both
bit-identical.
"""

from typing import Dict, Tuple, Type

from repro.backends.base import (
    ExecutionBackend,
    KernelRecord,
    MeasuredTimings,
    require_lockstep_algorithm,
)
from repro.backends.multiprocess import MultiprocessBackend
from repro.backends.simulated import SimulatedBackend

BACKEND_SIMULATED = SimulatedBackend.name
BACKEND_MULTIPROCESS = MultiprocessBackend.name

#: backend name -> class; ``EngineConfig.backend``, ``--backend`` and
#: ``repro experiment backends`` all select from it.
_BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    BACKEND_SIMULATED: SimulatedBackend,
    BACKEND_MULTIPROCESS: MultiprocessBackend,
}


def available_backends() -> Tuple[str, ...]:
    """The backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def make_backend(name: str) -> ExecutionBackend:
    """A fresh backend of ``name``; ``ValueError`` for an unknown name."""
    try:
        backend = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return backend()


__all__ = [
    "BACKEND_MULTIPROCESS",
    "BACKEND_SIMULATED",
    "ExecutionBackend",
    "KernelRecord",
    "MeasuredTimings",
    "available_backends",
    "make_backend",
    "require_lockstep_algorithm",
]

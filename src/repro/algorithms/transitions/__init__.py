"""Unified vectorized transition-sampling layer.

Next-hop sampling dominates the walk-update kernel's per-step cost
(Algorithm 1 line 4): ThunderRW shows the choice of sampling *method*
(uniform, alias, inverse-transform, rejection) is the main per-step cost
knob, and C-SAW makes sampling a first-class pluggable API on GPUs.  This
subpackage gives the reproduction the same structure:

* :class:`~repro.algorithms.transitions.base.TransitionSampler` — the
  protocol every sampler implements: ``prepare`` (per-partition build,
  cached) and ``sample`` (one vectorized draw per pending walk).
* Implementations — :class:`UniformTransition` (degree-scaled draw),
  :class:`AliasTransition` (fully vectorized Vose build over the flattened
  partition edge array), :class:`InverseTransformTransition`
  (``searchsorted`` on per-vertex weight prefix sums) and
  :class:`RejectionTransition` (propose uniform, accept ``w / w_max``).
* :mod:`~repro.algorithms.transitions.secondorder` — the node2vec
  acceptance kernel: candidate classification is one ``searchsorted``
  into the graph's edge keys (built once per graph) instead of
  per-candidate ``graph.has_edge``.
* A registry (:func:`make_sampler`, :func:`available_samplers`) the
  algorithms, :class:`~repro.core.config.EngineConfig` and the CLI select
  samplers through; every system (LightTraffic engine and the
  NextDoor/FlashMob/ThunderRW baselines) shares these implementations.

The per-sampler *cost* lives in :mod:`repro.gpu.calibration`
(``Calibration.step_cycles_for``) so Fig-17-style experiments can compare
sampling methods on the simulated device.
"""

from repro.algorithms.transitions.base import TransitionSampler
from repro.algorithms.transitions.registry import (
    SAMPLER_ALIAS,
    SAMPLER_INVERSE,
    SAMPLER_REJECTION,
    SAMPLER_SECOND_ORDER,
    SAMPLER_UNIFORM,
    available_samplers,
    make_sampler,
    register_sampler,
)
from repro.algorithms.transitions.uniform import UniformTransition
from repro.algorithms.transitions.alias import (
    AliasTransition,
    build_alias_tables,
)
from repro.algorithms.transitions.inverse import InverseTransformTransition
from repro.algorithms.transitions.rejection import RejectionTransition
from repro.algorithms.transitions.secondorder import SecondOrderAcceptance

__all__ = [
    "TransitionSampler",
    "SAMPLER_UNIFORM",
    "SAMPLER_ALIAS",
    "SAMPLER_INVERSE",
    "SAMPLER_REJECTION",
    "SAMPLER_SECOND_ORDER",
    "available_samplers",
    "make_sampler",
    "register_sampler",
    "UniformTransition",
    "AliasTransition",
    "build_alias_tables",
    "InverseTransformTransition",
    "RejectionTransition",
    "SecondOrderAcceptance",
]

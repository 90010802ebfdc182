"""Correctness tooling: runtime simulation sanitizer + repo-specific lint.

Two complementary passes guard the engine's invariants so perf PRs can
refactor aggressively without corrupting the cost model:

* :class:`~repro.analysis.sanitizer.Sanitizer` — a runtime checker that
  rides a run's event bus and substrate hooks, validating timeline
  causality, PCIe duplex/stream affinity, partition residency, walk-batch
  lifecycle and global walk conservation.  Enabled per run via
  ``EngineConfig(sanitize=True)`` / ``repro run --sanitize``.
* :mod:`~repro.analysis.static` — the static analysis behind
  ``repro lint``: one always-on rule set (six house rules plus the
  cross-stage ``unpublished-mutation`` rule) sharing one
  :class:`~repro.analysis.static.findings.Finding` type and one waiver
  syntax.
"""

from repro.analysis.static import Finding, analyze_paths
from repro.analysis.static.runner import lint_paths, run_lint
from repro.analysis.sanitizer import STREAM_AFFINITY, Sanitizer, format_summary
from repro.analysis.violations import (
    ALL_RULES,
    RULE_CROSS_DEVICE,
    RULE_DOUBLE_CONSUME,
    RULE_EVICT_IN_FLIGHT,
    RULE_MIGRATION,
    RULE_REQUEST_CONSERVATION,
    RULE_RESIDENCY,
    RULE_STALE_OWNER,
    RULE_STREAM_AFFINITY,
    RULE_STREAM_MONOTONIC,
    RULE_WALK_CAPACITY,
    RULE_WALK_CONSERVATION,
    Violation,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "analyze_paths",
    "RULE_CROSS_DEVICE",
    "RULE_DOUBLE_CONSUME",
    "RULE_EVICT_IN_FLIGHT",
    "RULE_MIGRATION",
    "RULE_REQUEST_CONSERVATION",
    "RULE_RESIDENCY",
    "RULE_STALE_OWNER",
    "RULE_STREAM_AFFINITY",
    "RULE_STREAM_MONOTONIC",
    "RULE_WALK_CAPACITY",
    "RULE_WALK_CONSERVATION",
    "STREAM_AFFINITY",
    "Sanitizer",
    "Violation",
    "format_summary",
    "lint_paths",
    "run_lint",
]

"""The repo-specific static analysis behind ``repro lint``.

One rule set, always on: the cheap per-file house rules, plus the
cross-stage rule that caught a defect no runtime test can see (the
audit of every former rule is in DESIGN.md §3f).  Every rule produces
the same :class:`~repro.analysis.static.findings.Finding` type,
suppressible only by a ``# lint: allow-<rule>`` waiver on the flagged
line.

Passes:

* :mod:`~repro.analysis.static.houserules` — six per-file rules: RNG
  factory, timestamp equality, frozen events, event-handler coverage,
  device-failure conservation, no simulated time in backends.
* :mod:`~repro.analysis.static.aliasing` — ``unpublished-mutation``:
  a stage mutating shared ``StageContext`` state without publishing an
  event.

``repro lint --sarif PATH`` additionally writes the findings as a SARIF
2.1.0 log (:mod:`~repro.analysis.static.sarif`) for GitHub
code-scanning upload.
"""

from repro.analysis.static.aliasing import RULE_UNPUBLISHED
from repro.analysis.static.findings import Finding
from repro.analysis.static.houserules import (
    RULE_BACKEND_SIM_TIME,
    RULE_FLOAT_EQ,
    RULE_FROZEN_EVENT,
    RULE_HANDLER_COVERAGE,
    RULE_RNG,
)
from repro.analysis.static.runner import (
    PASSES,
    analyze_paths,
    lint_paths,
    run_lint,
)
from repro.analysis.static.sarif import sarif_log, write_sarif

__all__ = [
    "Finding",
    "PASSES",
    "RULE_BACKEND_SIM_TIME",
    "RULE_FLOAT_EQ",
    "RULE_FROZEN_EVENT",
    "RULE_HANDLER_COVERAGE",
    "RULE_RNG",
    "RULE_UNPUBLISHED",
    "analyze_paths",
    "lint_paths",
    "run_lint",
    "sarif_log",
    "write_sarif",
]

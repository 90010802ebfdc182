"""SARIF 2.1.0 emission for ``repro lint`` findings.

``repro lint --sarif lint.sarif`` writes a Static Analysis Results
Interchange Format log so CI can upload findings to GitHub code
scanning (``github/codeql-action/upload-sarif``) and reviewers see them
as inline annotations.  ``tests/data/lint_golden.sarif`` pins the
emitted bytes for one finding.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis.static.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"


def sarif_log(findings: Sequence[Finding]) -> Dict[str, object]:
    """Build the SARIF 2.1.0 log object for one lint run."""
    rule_ids = sorted({f.rule for f in findings})
    rule_index = {rule: index for index, rule in enumerate(rule_ids)}
    rules: List[Dict[str, object]] = [
        {
            "id": rule,
            "shortDescription": {"text": f"repro lint rule '{rule}'"},
        }
        for rule in rule_ids
    ]

    def result(finding: Finding) -> Dict[str, object]:
        return {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {"startLine": max(finding.line, 1)},
                    }
                }
            ],
        }

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": (
                            "https://github.com/"  # repo-relative docs
                        ),
                        "rules": rules,
                    }
                },
                "results": [result(f) for f in findings],
            }
        ],
    }


def write_sarif(path: Path, findings: Sequence[Finding]) -> None:
    log = sarif_log(findings)
    path.write_text(
        json.dumps(log, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

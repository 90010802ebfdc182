"""Pass registry and the ``repro lint`` entry points.

``repro lint`` runs every rule of every pass in :data:`PASSES` — one
rule set, always on.  ``--json`` writes the machine-readable findings
report CI uploads as an artifact; ``--sarif`` writes a SARIF 2.1.0 log
for GitHub code scanning.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.static import aliasing, houserules, sarif
from repro.analysis.static.dataflow import (
    ModuleInfo,
    PathInput,
    iter_python_files,
)
from repro.analysis.static.findings import Finding

#: pass name -> runner over the parsed modules of one lint run.
PASSES: Dict[str, Callable[[Sequence[ModuleInfo]], List[Finding]]] = {
    houserules.PASS_NAME: houserules.run_pass,
    aliasing.PASS_NAME: aliasing.run_pass,
}


def analyze_paths(paths: Sequence[PathInput]) -> Tuple[List[Finding], int]:
    """Parse, run every pass, apply waivers.

    Returns ``(findings, files_checked)`` with findings sorted by
    ``(path, line, rule)``.  Unparseable files yield one ``syntax``
    finding each and are excluded from the passes.
    """
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(paths):
        checked += 1
        try:
            modules.append(ModuleInfo.parse(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path.as_posix(),
                    exc.lineno or 0,
                    "syntax",
                    f"cannot parse: {exc.msg}",
                )
            )
    for run in PASSES.values():
        findings.extend(run(modules))
    waivers_of = {module.rel: module.waivers for module in modules}
    findings = [
        f
        for f in findings
        if f.rule not in waivers_of.get(f.path, {}).get(f.line, set())
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, checked


def lint_paths(paths: Sequence[PathInput]) -> List[Finding]:
    """Run every rule; returns the unwaived findings."""
    findings, _ = analyze_paths(paths)
    return findings


def _write_json(
    json_path: Path, checked: int, findings: Sequence[Finding]
) -> None:
    payload = {
        "checked_files": checked,
        "passes": list(PASSES),
        "findings": [f.as_dict() for f in findings],
    }
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def run_lint(
    paths: Sequence[str],
    json_path: Optional[str] = None,
    sarif_path: Optional[str] = None,
) -> int:
    """CLI entry: print findings, return the exit code (0/1/2)."""
    resolved = [Path(p) for p in paths]
    missing = [p for p in resolved if not p.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}", file=sys.stderr)
        return 2
    findings, checked = analyze_paths(resolved)

    for finding in findings:
        print(finding)
    if json_path is not None:
        _write_json(Path(json_path), checked, findings)
    if sarif_path is not None:
        sarif.write_sarif(Path(sarif_path), findings)
    if findings:
        print(
            f"repro lint: {len(findings)} violation(s) in "
            f"{checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"repro lint: {checked} file(s) clean")
    return 0

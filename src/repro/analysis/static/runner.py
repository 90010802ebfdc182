"""Pass registry and the ``repro lint`` entry points.

``repro lint`` (default) runs the ported house rules — cheap, zero
false positives, always on.  ``repro lint --strict`` additionally runs
the dataflow passes (unit-of-measure, cross-stage aliasing) and the
interprocedural call-graph passes (RNG discipline, observer purity,
event-protocol conformance, resource typestate, client-input taint) and
gates against the committed suppression baseline: findings already
recorded in the baseline are reported as suppressed and do not fail the
run, anything new does.  ``--json`` writes the machine-readable findings
report CI uploads as an artifact; ``--sarif`` writes a SARIF 2.1.0 log
for GitHub code scanning; ``--update-baseline`` rewrites the baseline
from the current findings (a reviewed, committed action).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.static import (
    aliasing,
    effects,
    houserules,
    protocol,
    rngcheck,
    sarif,
    taint,
    typestate,
    unitcheck,
)
from repro.analysis.static.dataflow import (
    CallGraph,
    ModuleInfo,
    PathInput,
    SymbolTable,
    iter_python_files,
)
from repro.analysis.static.findings import Baseline, Finding, apply_waivers

#: pass name -> (runner, strict_only, uses_call_graph).  Every runner
#: takes ``(modules, table)``; the interprocedural ones take the
#: project :class:`CallGraph` as a third argument, built once per
#: :func:`analyze_paths` and shared (passes only read it).
PassFn = Callable[..., List[Finding]]
PASSES: Dict[str, Tuple[PassFn, bool, bool]] = {
    houserules.PASS_NAME: (houserules.run_pass, False, False),
    unitcheck.PASS_NAME: (unitcheck.run_pass, True, False),
    aliasing.PASS_NAME: (aliasing.run_pass, True, False),
    rngcheck.PASS_NAME: (rngcheck.run_pass, True, True),
    effects.PASS_NAME: (effects.run_pass, True, True),
    protocol.PASS_NAME: (protocol.run_pass, True, True),
    typestate.PASS_NAME: (typestate.run_pass, True, False),
    taint.PASS_NAME: (taint.run_pass, True, True),
}

#: default suppression-baseline location (repo root, committed).
DEFAULT_BASELINE = "lint-baseline.json"


def active_passes(strict: bool) -> List[str]:
    return [
        name
        for name, (_, strict_only, _) in PASSES.items()
        if strict or not strict_only
    ]


def analyze_paths(
    paths: Sequence[PathInput], strict: bool = False
) -> Tuple[List[Finding], int]:
    """Parse, run the active passes, apply waivers.

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
    table = SymbolTable.build(modules)
    graph: Optional[CallGraph] = None
    for name in active_passes(strict):
        run, _, uses_call_graph = PASSES[name]
        if not uses_call_graph:
            findings.extend(run(modules, table))
            continue
        if graph is None:
            graph = CallGraph.build(modules, table)
        findings.extend(run(modules, table, graph))
    waivers_of = {module.rel: module.waivers for module in modules}
    findings = apply_waivers_by_module(findings, waivers_of)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, checked


def apply_waivers_by_module(
    findings: Sequence[Finding],
    waivers_of: Dict[str, Dict[int, set]],
) -> List[Finding]:
    out: List[Finding] = []
    for rel in sorted({f.path for f in findings}):
        batch = [f for f in findings if f.path == rel]
        out.extend(apply_waivers(batch, waivers_of.get(rel, {})))
    return out


def lint_paths(paths: Sequence[PathInput]) -> List[Finding]:
    """Run the default (non-strict) rules; returns unwaived findings."""
    findings, _ = analyze_paths(paths, strict=False)
    return findings


def _write_json(
    json_path: Path,
    checked: int,
    strict: bool,
    fresh: Sequence[Finding],
    suppressed: Sequence[Finding],
) -> None:
    payload = {
        "checked_files": checked,
        "strict": strict,
        "passes": active_passes(strict),
        "findings": [f.as_dict() for f in fresh],
        "suppressed": [f.as_dict() for f in suppressed],
    }
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def run_lint(
    paths: Sequence[str],
    strict: bool = False,
    json_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
    update_baseline: bool = False,
    sarif_path: Optional[str] = None,
) -> int:
    """CLI entry: print findings, return the exit code (0/1/2)."""
    resolved = [Path(p) for p in paths]
    missing = [p for p in resolved if not p.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}", file=sys.stderr)
        return 2
    findings, checked = analyze_paths(resolved, strict=strict)

    baseline = Baseline.empty()
    if strict and baseline_path is not None:
        baseline = Baseline.load(Path(baseline_path))
    if update_baseline:
        target = Path(baseline_path or DEFAULT_BASELINE)
        Baseline.save(
            target,
            findings,
            comment=(
                "Accepted `repro lint --strict` findings; every entry "
                "needs a justification in the PR that adds it.  Keyed on "
                "(path, rule, message): fixing the finding or changing "
                "the flagged code un-suppresses it."
            ),
        )
        print(
            f"repro lint: baseline updated with {len(findings)} "
            f"finding(s) at {target}"
        )
        return 0
    fresh, suppressed = baseline.split(findings)

    for finding in fresh:
        print(finding)
    if json_path is not None:
        _write_json(Path(json_path), checked, strict, fresh, suppressed)
    if sarif_path is not None:
        sarif.write_sarif(Path(sarif_path), fresh, suppressed)
    suffix = (
        f" ({len(suppressed)} baseline-suppressed)" if suppressed else ""
    )
    if fresh:
        print(
            f"repro lint: {len(fresh)} violation(s) in "
            f"{checked} file(s){suffix}",
            file=sys.stderr,
        )
        return 1
    print(f"repro lint: {checked} file(s) clean{suffix}")
    return 0

"""Markdown report generation: regenerate all paper experiments in one go.

``python -m repro report --out results.md`` runs every experiment in the
registry (or a chosen subset) and writes one self-contained markdown
document with a table per experiment — the machine-regenerated counterpart
of ``EXPERIMENTS.md`` — and the verdict of its paper claim
(:data:`repro.bench.harness.CLAIMS`), also printed as it goes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.bench.reporting import format_cell


def experiment_registry() -> Dict[str, tuple]:
    """All report-able experiments: name -> (runner, description)."""
    # Imported here so the heavy harness module stays off the critical
    # path of `import repro`.
    from repro.bench import harness

    return harness.EXPERIMENTS


def rows_to_markdown(rows: List[dict]) -> str:
    """Render a list of dict rows as a GitHub-flavored markdown table."""
    if not rows:
        return "_no rows_"
    keys = list(rows[0].keys())
    lines = [
        "| " + " | ".join(keys) + " |",
        "|" + "|".join("---" for __ in keys) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(format_cell(row.get(k, "")) for k in keys) + " |"
        )
    return "\n".join(lines)


def generate_report(
    only: Optional[Iterable[str]] = None,
    registry: Optional[Dict[str, tuple]] = None,
    clock: Callable[[], float] = time.perf_counter,
    failed: Optional[List[str]] = None,
) -> str:
    """Run experiments and return the markdown report text.

    Parameters
    ----------
    only:
        experiment names to include (default: all, in registry order).
    registry:
        override the experiment registry (tests inject cheap runners).
    clock:
        wall-clock source used for the per-experiment timing footnote.
    failed:
        if given, the name of every experiment whose paper claim fails is
        appended to it (``repro report`` exits 1 on any).
    """
    from repro.bench.harness import check_claims, claim_verdict

    registry = registry if registry is not None else experiment_registry()
    names = list(only) if only else list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    sections = [
        "# LightTraffic reproduction — regenerated results",
        "",
        "Generated by `python -m repro report`. Columns ending in `wall_s`",
        "(`loop_wall_s`, `steps_per_wall_s`, ...) are host wall-clock, and so",
        "are the `samplers` and `backends` speedups taken from them; every",
        "other time is simulated seconds on the scaled platform (see",
        "DESIGN.md).",
    ]
    for name in names:
        runner, description = registry[name]
        start = clock()
        rows = runner()
        elapsed = clock() - start
        sections.append("")
        sections.append(f"## {name} — {description}")
        sections.append("")
        sections.append(rows_to_markdown(rows))
        sections.append("")
        sections.append(f"_{len(rows)} rows, generated in {elapsed:.1f}s._")
        failures = check_claims(name, rows)
        if failures is None:
            continue
        verdict = claim_verdict(name, failures)
        print(verdict)
        sections.extend(["", f"**{verdict}**"])
        if failures and failed is not None:
            failed.append(name)
    return "\n".join(sections) + "\n"


def write_report(path: str, **kwargs: Any) -> str:
    """Generate and write the report; returns the text."""
    text = generate_report(**kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text

"""Fixed-width table printers for command-line output.

``repro experiment`` prints an experiment's rows through these, so its
output reads side by side with the paper's tables and figures.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

Cell = Union[str, int, float]


def format_seconds(seconds: float) -> str:
    """Human-scale duration (simulated seconds)."""
    if seconds <= 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def format_cell(value: Cell) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [
        [format_cell(c) for c in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} =="]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[Cell]]
) -> None:
    print()
    print(render_table(title, headers, rows))


def rows_from_dicts(
    dicts: Iterable[Mapping[str, Cell]], keys: Sequence[str]
) -> List[List[Cell]]:
    """Project a list of dict rows onto ordered columns."""
    return [[d.get(k, "") for k in keys] for d in dicts]

"""Plain-text table rendering for experiment reports.

Every experiment module prints the same rows/series its paper figure
shows; this renderer keeps those reports aligned and diff-friendly (the
``repro all`` digest pins them byte for byte).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def _fmt(cell: Cell, precision: int) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if abs(cell) >= 1e5 or (abs(cell) < 1e-3 and cell != 0):
            return f"{cell:.{precision}e}"
        return f"{cell:.{precision}f}"
    return str(cell)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    srows: List[List[str]] = [[_fmt(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match headers {len(headers)}"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def render_kv(pairs: Sequence[tuple], title: Optional[str] = None) -> str:
    """Render key/value pairs, one per line."""
    width = max((len(str(k)) for k, _ in pairs), default=0)
    lines = [title] if title else []
    for k, v in pairs:
        lines.append(f"{str(k).ljust(width)} : {v}")
    return "\n".join(lines)

"""Plain-text table rendering for experiment reports.

Benchmarks print their regenerated "tables/figures" through these
helpers so EXPERIMENTS.md, the CLI, and the bench output all share one
format.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["render_table", "format_cell"]


def format_cell(value) -> str:
    """Render one cell: floats get 4 significant digits, rest ``str``.

    Floats follow a single ``%.4g`` rule, so the same magnitude always
    renders the same way across every table (scientific notation only
    when four significant digits cannot express the value), and a float
    that happens to be integral (``5200.0``) matches the plain-``str``
    rendering of the equal int in a neighboring column.
    """
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        return f"{value:.4g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    string_rows: List[List[str]] = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("  ".join("-" * width for width in widths))
    parts.extend(line(row) for row in string_rows)
    return "\n".join(parts)



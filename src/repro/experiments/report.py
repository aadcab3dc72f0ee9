"""Tiny text-table formatting helpers shared by the experiment harnesses."""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = "") -> str:
    """Render a list of rows as an aligned, pipe-separated text table.

    Numbers are rendered with :func:`format_number`; everything else with
    ``str``.  Used by every experiment harness so benchmark output, example
    output and the ``python -m repro.experiments`` report share one format.
    """
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append([format_number(cell) for cell in row])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(rendered[0], widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered[1:]:
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_number(value: object) -> str:
    """Compact formatting: ints as-is, floats in engineering-friendly form."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:,.3f}"
    return str(value)

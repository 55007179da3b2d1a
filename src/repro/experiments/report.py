"""Plain-text rendering helpers shared by the experiment modules."""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """A fixed-width text table with a rule under the header."""
    columns = len(headers)
    widths = [len(header) for header in headers]
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not have {columns} cells")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[index])
                         for index, cell in enumerate(cells)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


#: Cells in a :func:`format_bar` bar.
BAR_WIDTH = 30


def format_bar(fraction: float) -> str:
    """A bar for quick visual comparison, e.g. '#####.....' for 0.5."""
    if not 0 <= fraction <= 1:
        fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * BAR_WIDTH)
    return "#" * filled + "." * (BAR_WIDTH - filled)

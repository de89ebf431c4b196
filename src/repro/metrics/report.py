"""Plain-text table formatting for examples, benchmarks and reports."""

from __future__ import annotations

from typing import Sequence

from repro.numeric import ordered_sum

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.1f}",
) -> str:
    """Render a list of rows as an aligned plain-text table.

    Floats are formatted with ``float_format``; every other value goes
    through ``str``.  Columns are right-aligned except the first, which is
    left-aligned (it usually holds row labels).
    """
    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered_rows = [[render(value) for value in row] for row in rows]
    all_rows = [list(headers)] + rendered_rows
    widths = [
        max(len(row[column]) for row in all_rows)
        for column in range(len(headers))
    ]

    def format_row(row: Sequence[str]) -> str:
        cells = []
        for column, value in enumerate(row):
            if column == 0:
                cells.append(value.ljust(widths[column]))
            else:
                cells.append(value.rjust(widths[column]))
        return "  ".join(cells)

    separator = "-" * (ordered_sum(widths) + 2 * (len(widths) - 1))
    lines = [format_row(list(headers)), separator]
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)

"""Plain-text reporting of experiment results.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers render lists of dictionaries as aligned text tables and as CSV
so the output can be eyeballed in the terminal or diffed across runs.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` (dictionaries) as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    widths = {column: len(column) for column in columns}
    rendered: List[List[str]] = []
    for row in rows:
        line = [cell(row.get(column, "")) for column in columns]
        rendered.append(line)
        for column, text in zip(columns, line):
            widths[column] = max(widths[column], len(text))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for line in rendered:
        out.write("  ".join(text.ljust(widths[column]) for column, text in zip(columns, line)) + "\n")
    return out.getvalue()


def rows_to_csv(
    rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None
) -> str:
    """Render ``rows`` as CSV text (no quoting of commas inside values)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(column, "")) for column in columns))
    return "\n".join(lines) + "\n"


def pivot_series(
    rows: Sequence[Mapping[str, object]],
    x_key: str,
    series_key: str,
    value_key: str,
) -> Dict[object, Dict[object, object]]:
    """Pivot flat rows into ``{series: {x: value}}`` for figure-style output.

    Useful to turn the engine's flat result rows into one series per
    algorithm, mirroring the lines of the paper's figures.
    """
    series: Dict[object, Dict[object, object]] = {}
    for row in rows:
        series.setdefault(row[series_key], {})[row[x_key]] = row[value_key]
    return series

"""Plain-text rendering of experiment tables (what the benches print).

The harness produces rows as dictionaries; these helpers lay them out as
aligned monospace tables with the paper's formatting conventions
(times in ms, ratios as ``68.23x``), so a bench run's stdout can be
diffed against ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Any, Sequence


def fmt_ms(seconds: float) -> str:
    """Seconds → the paper's integer-millisecond style."""
    return f"{seconds * 1e3:,.0f}"


def fmt_ratio(x: float) -> str:
    """Ratio → the paper's ``68.23x`` style."""
    if x != x or x in (float("inf"), float("-inf")):  # NaN / inf guards
        return "-"
    return f"{x:,.2f}x"


def fmt_bytes(n: float) -> str:
    """Bytes → human-readable MB/KB."""
    if n >= 1e6:
        return f"{n / 1e6:.2f} MB"
    if n >= 1e3:
        return f"{n / 1e3:.2f} KB"
    return f"{n:.0f} B"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

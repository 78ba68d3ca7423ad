"""ASCII figures: sparklines and bar charts for experiment output.

The benchmarks print their "figures" as tables plus these compact ASCII
renderings, so the shape of a time series (the collapse to one sender,
the unbounded counter growth) is visible at a glance in a terminal or a
text file.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["sparkline", "render_series", "render_bars"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: float | None = None,
              hi: float | None = None) -> str:
    """One-line block-character rendering of a series.

    ``lo``/``hi`` pin the scale (e.g. to share it across series);
    defaults are the series' own extremes.  A flat series renders as its
    lowest block.
    """
    if not values:
        return ""
    low = min(values) if lo is None else lo
    high = max(values) if hi is None else hi
    if high < low:
        raise ValueError("hi must be >= lo")
    span = high - low
    out = []
    for value in values:
        if span == 0:
            index = 0
        else:
            clamped = min(max(value, low), high)
            index = int((clamped - low) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[index])
    return "".join(out)


def render_series(series: Mapping[str, Sequence[float]],
                  title: str | None = None) -> str:
    """Multi-line labelled sparklines on one shared scale."""
    if not series:
        return title or ""
    lo = hi = None
    everything = [v for values in series.values() for v in values]
    if everything:
        lo, hi = min(everything), max(everything)
    label_width = max(len(label) for label in series)
    lines = [] if title is None else [title]
    for label, values in series.items():
        line = sparkline(values, lo, hi)
        peak = max(values) if values else 0
        lines.append(f"{label.ljust(label_width)}  {line}  (max {peak:g})")
    return "\n".join(lines)


def render_bars(items: Iterable[tuple[str, float]], width: int = 40,
                title: str | None = None) -> str:
    """Horizontal bar chart with value annotations."""
    rows = list(items)
    if not rows:
        return title or ""
    if width < 1:
        raise ValueError("width must be positive")
    top = max(value for _, value in rows)
    label_width = max(len(label) for label, _ in rows)
    lines = [] if title is None else [title]
    for label, value in rows:
        length = 0 if top == 0 else int(round(value / top * width))
        bar = "█" * length
        lines.append(f"{label.ljust(label_width)}  {bar} {value:g}")
    return "\n".join(lines)

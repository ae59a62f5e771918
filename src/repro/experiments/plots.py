"""Terminal plotting helpers for experiment output.

Plain-text visualizations so the regenerated figures are readable in a
terminal: Unicode sparklines, labelled horizontal bar charts, and a
multi-series ASCII line plot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: The character grid :func:`line_plot` draws on.
PLOT_WIDTH, PLOT_HEIGHT = 60, 12


def sparkline(values: Sequence[float]) -> str:
    """Render values as a Unicode sparkline (min..max normalized)."""
    values = list(values)
    if not values:
        return ""
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK_LEVELS[0] * len(values)
    chars = []
    for value in values:
        level = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def bar_chart(items: Sequence[Tuple[str, float]], width: int = 40,
              title: Optional[str] = None,
              unit: str = "") -> str:
    """Horizontal bar chart with aligned labels and values."""
    items = list(items)
    if not items:
        return title or ""
    label_width = max(len(label) for label, _value in items)
    peak = max((value for _label, value in items), default=0.0)
    lines = [title] if title else []
    for label, value in items:
        filled = 0 if peak <= 0 else int(round(value / peak * width))
        bar = "█" * filled
        lines.append(f"{label.ljust(label_width)}  {value:8.2f}{unit}  "
                     f"{bar}")
    return "\n".join(lines)


def line_plot(series: Dict[str, List[Tuple[float, float]]],
              title: Optional[str] = None,
              x_label: str = "", y_label: str = "") -> str:
    """Multi-series ASCII scatter/line plot.

    Each series gets a marker character; points are binned onto a
    :data:`PLOT_WIDTH` x :data:`PLOT_HEIGHT` character grid spanning
    the data range.
    """
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    markers = "*o+x#@%&"
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return title or ""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in values:
            column = int((x - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            grid[row][column] = marker

    lines = [title] if title else []
    lines.append(f"{y_high:10.2f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    if height > 1:
        lines.append(f"{y_low:10.2f} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + f"{x_low:<.0f}".ljust(width - 8)
                 + f"{x_high:>.0f}")
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    if x_label or y_label:
        lines.append(" " * 12 + f"x: {x_label}   y: {y_label}".strip())
    return "\n".join(lines)

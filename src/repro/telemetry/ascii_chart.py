"""ASCII rendering of time series, in the spirit of the paper's figures.

Benchmarks print these charts so a terminal run of
``pytest benchmarks/ --benchmark-only`` shows the reproduced figure next to
the paper's expected plateaus without any plotting dependency.
"""

from __future__ import annotations

from ..errors import TelemetryError
from .series import TimeSeries


#: Columns a chart is drawn on (the default terminal width, less margins).
CHART_WIDTH = 78


def chart_span(series_list: list[TimeSeries]) -> tuple[float, float]:
    """The time span a chart of *series_list* covers: first to last sample."""
    start_s = min(series.times[0] for series in series_list if len(series))
    end_s = max(series.times[-1] for series in series_list if len(series))
    return start_s, end_s


def chart_columns(
    series: TimeSeries, start_s: float, end_s: float, width: int = CHART_WIDTH
) -> list[float | None]:
    """*series* resampled onto *width* columns spanning ``[start_s, end_s]``.

    Each column holds the last value at or before its time (the step
    semantics the figures have), or ``None`` before the first sample.
    """
    span_t = max(end_s - start_s, 1e-12)
    columns: list[float | None] = []
    for column in range(width):
        try:
            columns.append(series.value_at(start_s + span_t * column / (width - 1)))
        except TelemetryError:
            columns.append(None)
    return columns


def render_chart(
    series_list: list[TimeSeries],
    *,
    width: int = CHART_WIDTH,
    height: int = 16,
    y_min: float = 0.0,
    y_max: float | None = None,
    title: str = "",
    labels: list[str] | None = None,
) -> str:
    """Render one or more series as a fixed-size ASCII chart.

    Each series gets a marker character (``*``, ``+``, ``o``, ``#``); series
    are resampled onto *width* columns by :func:`chart_columns`.
    """
    if not series_list:
        raise TelemetryError("render_chart needs at least one series")
    if width < 10 or height < 4:
        raise TelemetryError(f"chart too small: {width}x{height}")
    if labels is None:
        labels = [series.name for series in series_list]
    start_s, end_s = chart_span(series_list)
    if y_max is None:
        y_max = max(series.max() for series in series_list)
        y_max = max(y_max, y_min + 1.0)
    return draw_chart(
        [chart_columns(series, start_s, end_s, width) for series in series_list],
        start_s,
        end_s,
        height=height,
        y_min=y_min,
        y_max=y_max,
        title=title,
        labels=labels,
    )


def draw_chart(
    columns_list: list[list[float | None]],
    start_s: float,
    end_s: float,
    *,
    labels: list[str],
    y_max: float,
    height: int = 16,
    y_min: float = 0.0,
    title: str = "",
) -> str:
    """Draw already-resampled series (:func:`chart_columns`) as a chart.

    One marker per series; a ``None`` column is left blank.  The chart is
    as wide as the columns.
    """
    if len(labels) != len(columns_list):
        raise TelemetryError("one label per series required")
    markers = "*+o#@%&"
    width = len(columns_list[0])
    grid = [[" "] * width for _ in range(height)]
    span_y = max(y_max - y_min, 1e-12)
    for index, columns in enumerate(columns_list):
        marker = markers[index % len(markers)]
        for column, value in enumerate(columns):
            if value is None:
                continue
            fraction = (value - y_min) / span_y
            fraction = min(max(fraction, 0.0), 1.0)
            row = height - 1 - int(round(fraction * (height - 1)))
            grid[row][column] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_max:8.1f} |"
    bottom_label = f"{y_min:8.1f} |"
    mid_pad = " " * 9 + "|"
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label
        elif row_index == height - 1:
            prefix = bottom_label
        else:
            prefix = mid_pad
        lines.append(prefix + "".join(row))
    lines.append(" " * 10 + "-" * width)
    lines.append(" " * 10 + f"t={start_s:.0f}s" + " " * max(0, width - 20) + f"t={end_s:.0f}s")
    legend = "   ".join(
        f"{markers[index % len(markers)]} {label}" for index, label in enumerate(labels)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)

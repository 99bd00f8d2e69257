"""Figure 4 reproduction: stage-concurrency timelines.

Converts a simulated job's span tree (``SimJobResult.tracer``) into
"number of tasks active at time t" series per stage — the panels of
Figure 4 — and renders them as ASCII line charts for the bench output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs import Span, Tracer
from repro.sim.hadoop import SimJobResult

#: Stage kinds of the barrier panel (Figure 4(a)).
BARRIER_STAGES: tuple[str, ...] = ("map", "shuffle", "sort", "reduce")
#: Stage kinds of the barrier-less panel (Figure 4(b)).
BARRIERLESS_STAGES: tuple[str, ...] = ("map", "shuffle+reduce", "output")


@dataclass(frozen=True, slots=True)
class TimelineSeries:
    """One stage's activity curve."""

    stage: str
    times: tuple[float, ...]
    counts: tuple[int, ...]

    def peak(self) -> int:
        """Maximum simultaneous tasks of this stage."""
        return max(self.counts, default=0)


def concurrency_series(
    intervals: Sequence,
    step: float = 1.0,
    until: float | None = None,
) -> tuple[list[float], list[int]]:
    """Sample how many intervals are simultaneously active every ``step`` s.

    ``intervals`` is anything with ``.start`` and ``.end`` (normally
    :class:`~repro.obs.Span`).  Returns ``(times, counts)``; an interval
    is active at ``t`` when ``start <= t < end``, except that a
    zero-duration one (start == end) counts as active at its single
    instant — an instantaneous task did run, and dropping it would make
    the series disagree with the trace.  With no intervals and no
    explicit ``until`` there is nothing to sample, so the series is
    empty rather than a phantom ``t=0`` sample.  This is the Figure 4
    y-axis ("Number of Tasks").
    """
    if step <= 0:
        raise ValueError("step must be positive")
    horizon = until
    if horizon is None:
        if not intervals:
            return [], []
        horizon = max(interval.end for interval in intervals)
    times: list[float] = []
    counts: list[int] = []
    t = 0.0
    while t <= horizon + 1e-9:
        active = sum(
            1
            for interval in intervals
            if interval.start <= t < interval.end
            or (
                interval.start == interval.end
                and abs(t - interval.start) <= 1e-9
            )
        )
        times.append(round(t, 9))
        counts.append(active)
        t += step
    return times, counts


def stage_spans(tracer: Tracer, stage: str) -> list[Span]:
    """One Figure 4 stage's intervals in a simulated run's trace.

    The ``map`` stage is the ``task`` spans under the ``map`` stage span;
    every other stage (``shuffle``, ``sort``, ``reduce``,
    ``shuffle+reduce``, ``output``) is the ``op`` spans of that name.
    """
    if stage == "map":
        stages = {
            span.span_id for span in tracer.spans("stage") if span.name == "map"
        }
        return [span for span in tracer.spans("task") if span.parent_id in stages]
    return [span for span in tracer.spans("op") if span.name == stage]


def timeline(result: SimJobResult, step: float = 2.0) -> list[TimelineSeries]:
    """Stage activity series for one simulated job (Figure 4 panel)."""
    stages = (
        BARRIER_STAGES
        if result.mode.value == "barrier"
        else BARRIERLESS_STAGES
    )
    horizon = result.completion_time
    series = []
    for stage in stages:
        times, counts = concurrency_series(
            stage_spans(result.tracer, stage), step=step, until=horizon
        )
        series.append(TimelineSeries(stage, tuple(times), tuple(counts)))
    return series


def ascii_timeline(
    series: list[TimelineSeries], height: int = 12, width: int = 72
) -> str:
    """Render stage curves as one overlaid ASCII chart.

    Each stage gets a marker character; the y-axis is task count, x-axis
    is job-relative seconds — the same axes as Figure 4.
    """
    if not series:
        raise ValueError("no series")
    markers = "M#SR+O*"
    max_count = max((s.peak() for s in series), default=1) or 1
    max_time = max((s.times[-1] for s in series if s.times), default=1.0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, s in enumerate(series):
        marker = markers[index % len(markers)]
        for t, c in zip(s.times, s.counts):
            if c <= 0:
                continue
            col = min(width - 1, int(t / max_time * (width - 1)))
            row = height - 1 - min(height - 1, int(c / max_count * (height - 1)))
            grid[row][col] = marker
    lines = [f"{max_count:4d} |" + "".join(grid[0])]
    for row in grid[1:]:
        lines.append("     |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"     0{'':{width - 12}}{max_time:8.1f}s")
    legend = "  ".join(
        f"{markers[i % len(markers)]}={s.stage}" for i, s in enumerate(series)
    )
    lines.append("     " + legend)
    return "\n".join(lines)


#: Sparkline intensity ramp, lowest to highest sample value.
SPARKLINE_LEVELS = " .:-=+*#%@"


def ascii_sparkline(values: list[float], width: int = 40) -> str:
    """Render a value series as a fixed-width ASCII sparkline.

    Values are resampled onto ``width`` columns (nearest sample) and
    mapped onto :data:`SPARKLINE_LEVELS` between the series min and max;
    a flat series renders at the lowest level.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if not values:
        return " " * width
    lo, hi = min(values), max(values)
    span = hi - lo
    columns = []
    last = len(values) - 1
    for col in range(width):
        value = values[round(col * last / (width - 1))] if width > 1 else values[0]
        if span <= 0:
            level = 0
        else:
            level = round((value - lo) / span * (len(SPARKLINE_LEVELS) - 1))
        columns.append(SPARKLINE_LEVELS[level])
    return "".join(columns)


def render_metrics_table(snapshot: dict, width: int = 40) -> str:
    """Pretty-print a metrics snapshot as a sparkline table.

    ``snapshot`` is the :meth:`~repro.obs.MetricsRegistry.as_dict` /
    :func:`~repro.obs.load_metrics` form: ``{"series": {name: {"unit",
    "points", "summary"}}, "maxima": {...}}``.  One row per series —
    name, unit, sample count, min/mean/max/last and the sparkline —
    followed by the recorded high-water marks.
    """
    series = snapshot.get("series", {})
    lines = []
    name_width = max((len(name) for name in series), default=4)
    header = (
        f"{'series':<{name_width}}  {'unit':<9} {'n':>5} "
        f"{'min':>10} {'mean':>10} {'max':>10} {'last':>10}  trend"
    )
    lines.append(header)
    lines.append("-" * len(header.rstrip()) + "-" * (width + 1))
    for name in sorted(series):
        entry = series[name]
        values = [value for _t, value in entry.get("points", [])]
        summary = entry.get("summary") or {}
        lines.append(
            f"{name:<{name_width}}  {entry.get('unit', ''):<9} "
            f"{summary.get('n', len(values)):>5} "
            f"{summary.get('min', 0.0):>10.2f} {summary.get('mean', 0.0):>10.2f} "
            f"{summary.get('max', 0.0):>10.2f} {summary.get('last', 0.0):>10.2f}  "
            f"{ascii_sparkline(values, width)}"
        )
    maxima = snapshot.get("maxima", {})
    if maxima:
        lines.append("")
        lines.append("high-water marks:")
        for name in sorted(maxima):
            lines.append(f"  {name:<{name_width}}  {maxima[name]:.2f}")
    return "\n".join(lines)


def stage_summary(result: SimJobResult) -> dict[str, float]:
    """Key Figure 4 annotations: stage boundaries and mapper slack."""
    st = result.stage_times
    return {
        "first_map_done": st.first_map_done,
        "last_map_done": st.last_map_done,
        "shuffle_done": st.shuffle_done,
        "sort_done": st.sort_done,
        "job_done": st.job_done,
        "mapper_slack": st.mapper_slack,
    }

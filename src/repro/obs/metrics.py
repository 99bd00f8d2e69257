"""Time-series metrics: sampled gauges for live engines and the simulator.

Counters answer "how much, in total"; this module answers "how did it
evolve *during* the run" — the paper's timing-shape claims (shuffle/reduce
overlap, buffer occupancy at the barrier, mapper slack) are statements
about trajectories, not totals.  A :class:`MetricsRegistry` holds named
:class:`TimeSeries` of ``(t, value)`` samples on the same job-relative
clock the tracer uses, so series and spans line up on one axis.

Two sampling disciplines feed the same schema:

- **live engines** register zero-argument gauge callables
  (:meth:`MetricsRegistry.register_gauge` /
  :meth:`MetricsRegistry.register_rate`) and run a :class:`MetricsTicker`
  — a wall-clock sampler thread — for the duration of the run;
- **the simulator** calls :meth:`MetricsRegistry.sample` with explicit
  *virtual* times, producing series directly diffable with measured ones.

High-water marks that a periodic sampler would miss (queue depth spikes
between ticks) are tracked separately via
:meth:`MetricsRegistry.observe_max`.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from typing import Callable, Mapping

#: Current on-disk schema of :func:`write_metrics` payloads.
METRICS_SCHEMA_VERSION = 1


class TimeSeries:
    """One named series of ``(t, value)`` samples, in sample order.

    Appends are registry-locked; reads return snapshots.  Summary
    statistics are computed on demand so recording stays O(1).
    """

    __slots__ = ("name", "unit", "_points")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self._points: list[tuple[float, float]] = []

    def _append(self, t: float, value: float) -> None:
        self._points.append((t, value))

    def points(self) -> list[tuple[float, float]]:
        """Snapshot copy of all samples."""
        return list(self._points)

    def values(self) -> list[float]:
        """Just the sample values, in time order."""
        return [value for _t, value in self._points]

    def summary(self) -> dict[str, float]:
        """``{n, min, max, mean, last}`` over the samples (zeros if empty)."""
        if not self._points:
            return {"n": 0, "min": 0.0, "max": 0.0, "mean": 0.0, "last": 0.0}
        values = self.values()
        return {
            "n": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "last": values[-1],
        }

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, {len(self._points)} points)"


class LiveGauge:
    """A thread-safe integer gauge for instantaneous occupancy counts.

    Engines ``add(+1)`` / ``add(-1)`` around an interval (a fetch stream
    in flight, a record in a buffer); the ticker reads :meth:`value`.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def value(self) -> int:
        with self._lock:
            return self._value


class MetricsRegistry:
    """Thread-safe collection of time-series, gauges and high-water marks.

    ``clock`` is a zero-argument callable returning job-relative seconds
    (engines pass their tracer's clock so spans and samples share one
    timeline).  A registry constructed with ``enabled=False`` turns every
    mutation into an early-return no-op, mirroring
    :class:`~repro.obs.counters.CounterRegistry`.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ):
        self.enabled = enabled
        if clock is None:
            origin = time.monotonic()
            clock = lambda: time.monotonic() - origin  # noqa: E731
        self._clock = clock
        self._lock = threading.Lock()
        self._series: dict[str, TimeSeries] = {}
        self._maxima: dict[str, float] = {}
        #: name -> (callable, unit) sampled by :meth:`sample_gauges`.
        self._gauges: dict[str, tuple[Callable[[], float], str]] = {}
        #: name -> (cumulative callable, unit, last (t, value)) for rates.
        self._rates: dict[
            str, tuple[Callable[[], float], str, list[float]]
        ] = {}

    # -- recording --------------------------------------------------------

    def now(self) -> float:
        """Current job-relative time in seconds."""
        return self._clock()

    def sample(
        self, name: str, value: float, t: float | None = None, unit: str = ""
    ) -> None:
        """Append one ``(t, value)`` sample to series ``name``.

        ``t`` defaults to the registry clock (live engines); the
        simulator passes explicit virtual times.
        """
        if not self.enabled:
            return
        if t is None:
            t = self._clock()
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = TimeSeries(name, unit)
                self._series[name] = series
            series._append(t, value)

    def observe_max(self, name: str, value: float) -> None:
        """Track the high-water mark of ``name`` (event-driven, not ticked)."""
        if not self.enabled:
            return
        with self._lock:
            if value > self._maxima.get(name, -math.inf):
                self._maxima[name] = value

    # -- gauge registration ----------------------------------------------

    def register_gauge(
        self, name: str, fn: Callable[[], float], unit: str = ""
    ) -> None:
        """Register a gauge callable to be read on every tick."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = (fn, unit)

    def register_rate(
        self, name: str, cumulative_fn: Callable[[], float], unit: str = ""
    ) -> None:
        """Register a rate series derived from a cumulative counter.

        On each tick the sampled value is ``Δcumulative / Δt`` since the
        previous tick — e.g. records/sec from a records-consumed total.
        """
        if not self.enabled:
            return
        with self._lock:
            self._rates[name] = (
                cumulative_fn, unit, [self._clock(), float(cumulative_fn())]
            )

    def unregister(self, name: str) -> None:
        """Stop ticking a gauge or rate (recorded samples are kept)."""
        with self._lock:
            self._gauges.pop(name, None)
            self._rates.pop(name, None)

    def sample_gauges(self, t: float | None = None) -> None:
        """Read every registered gauge/rate once; called per tick.

        Gauge callables run outside the registry lock (they may take the
        caller's own locks); a gauge that raises is skipped for that tick
        rather than killing the sampler.
        """
        if not self.enabled:
            return
        if t is None:
            t = self._clock()
        with self._lock:
            gauges = list(self._gauges.items())
            rates = list(self._rates.items())
        for name, (fn, unit) in gauges:
            try:
                value = float(fn())
            except Exception:
                continue
            self.sample(name, value, t=t, unit=unit)
        for name, (fn, unit, last) in rates:
            try:
                cumulative = float(fn())
            except Exception:
                continue
            previous_t, previous_v = last
            dt = t - previous_t
            if dt <= 0:
                continue
            self.sample(name, (cumulative - previous_v) / dt, t=t, unit=unit)
            last[0] = t
            last[1] = cumulative

    # -- read side --------------------------------------------------------

    def series(self, name: str) -> TimeSeries | None:
        """The named series, or ``None`` if never sampled."""
        with self._lock:
            return self._series.get(name)

    def names(self) -> list[str]:
        """Sorted names of all recorded series."""
        with self._lock:
            return sorted(self._series)

    def maxima(self) -> dict[str, float]:
        """Snapshot of all high-water marks."""
        with self._lock:
            return dict(self._maxima)

    def as_dict(self) -> dict:
        """JSON-ready snapshot: series points, summaries and maxima."""
        with self._lock:
            series = {
                name: {
                    "unit": s.unit,
                    "points": [[round(t, 6), value] for t, value in s._points],
                    "summary": s.summary(),
                }
                for name, s in sorted(self._series.items())
            }
            maxima = dict(self._maxima)
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "series": series,
            "maxima": maxima,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)


class MetricsTicker:
    """Wall-clock sampler thread driving a registry's gauges.

    Engines start one for the duration of a run; each tick calls
    :meth:`MetricsRegistry.sample_gauges`.  The thread is a daemon and
    :meth:`stop` takes one final sample so short runs (shorter than one
    interval) still record at least one point per gauge.
    """

    def __init__(self, metrics: MetricsRegistry, interval_s: float = 0.01):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self._metrics = metrics
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Begin sampling (no-op for a disabled registry)."""
        if not self._metrics.enabled or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="metrics-ticker", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._metrics.sample_gauges()

    def stop(self) -> None:
        """Stop the sampler and take one final sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._metrics.sample_gauges()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def ensure_parent(path: str) -> str:
    """Create ``path``'s parent directory if missing; returns ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def write_metrics(path: str, metrics: "MetricsRegistry | Mapping") -> str:
    """Write a metrics snapshot as JSON to ``path``; returns the path.

    Accepts either a live registry or an already-snapshotted dict (the
    :meth:`MetricsRegistry.as_dict` form).  Parent directories are
    created if missing.
    """
    payload = metrics.as_dict() if isinstance(metrics, MetricsRegistry) else dict(metrics)
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return path


def load_metrics(path: str) -> dict:
    """Read a metrics snapshot written by :func:`write_metrics`."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "series" not in payload:
        raise ValueError(f"{path}: not a metrics snapshot (no 'series' key)")
    return payload

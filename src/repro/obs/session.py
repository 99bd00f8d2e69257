"""The observability bundle every engine accepts.

:class:`JobObservability` groups one :class:`CounterRegistry`, one
:class:`Tracer` and one :class:`MetricsRegistry` under a single
enabled/disabled switch, and carries the wall-clock epoch (``time.time``
at construction) that worker *processes* use to express their span times
in the parent's trace timeline — the cross-process counterpart of the
tracer's monotonic clock.  Metrics run on the tracer's clock, so samples
and spans share one job-relative timeline.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.counters import CounterRegistry
from repro.obs.export import (
    render_trace_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, write_metrics
from repro.obs.trace import Tracer


class JobObservability:
    """Counters + tracer + metrics, sharing one on/off switch."""

    __slots__ = ("enabled", "counters", "tracer", "metrics", "epoch")

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] | None = None,
    ):
        self.enabled = enabled
        self.counters = CounterRegistry(enabled=enabled)
        self.tracer = Tracer(clock=clock, enabled=enabled)
        self.metrics = MetricsRegistry(clock=self.tracer.now, enabled=enabled)
        #: Wall-clock anchor of the tracer's t=0.  Worker processes
        #: compute ``time.time() - epoch`` to produce span times directly
        #: comparable with the parent's monotonic clock (same host, so
        #: the clocks agree to well under a millisecond).
        self.epoch = time.time()

    @classmethod
    def disabled(cls) -> "JobObservability":
        """A no-op bundle: increments and spans cost one branch each."""
        return cls(enabled=False)

    def with_own_counters(self) -> "JobObservability":
        """An enabled bundle with fresh counters on this one's tracer,
        metrics and epoch: one task attempt's counters, kept apart while
        its spans and samples land on the job-wide timeline."""
        bundle = object.__new__(JobObservability)
        bundle.enabled = True
        bundle.counters = CounterRegistry()
        bundle.tracer = self.tracer
        bundle.metrics = self.metrics
        bundle.epoch = self.epoch
        return bundle

    # -- export conveniences ----------------------------------------------

    def chrome_trace(self, process_name: str = "repro") -> dict:
        """The Chrome ``trace_event`` dict for this bundle."""
        return to_chrome_trace(self.tracer, self.counters, process_name)

    def write_trace(self, path: str, process_name: str = "repro") -> str:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        return write_chrome_trace(path, self.tracer, self.counters, process_name)

    def write_metrics(self, path: str) -> str:
        """Write the sampled time-series JSON to ``path``; returns it."""
        return write_metrics(path, self.metrics)

    def summary(self) -> str:
        """Plain-text span tree + counter table."""
        return render_trace_summary(self.tracer, self.counters)

"""Span-based tracing: nestable intervals for jobs, stages, tasks, attempts.

A :class:`Span` is one interval with an identity, a parent and
free-form attributes, so one schema covers the whole execution
hierarchy::

    job > stage > task > attempt | op

``op`` spans are intra-task phases (shuffle, sort, the reduce call); they
may nest under tasks or attempts.  The :class:`Tracer` is thread-safe and
clock-agnostic: real engines use a monotonic wall clock anchored at
tracer construction, while the discrete-event simulator records spans
with explicit *virtual* times through :meth:`Tracer.record` — which is
what makes real and simulated traces diffable.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Allowed nesting depth per span kind: a child's depth must be strictly
#: greater than its parent's (``op`` spans may nest under anything below
#: stage level, including other ops).
KIND_DEPTH: dict[str, int] = {
    "job": 0,
    "stage": 1,
    "task": 2,
    "attempt": 3,
    "op": 4,
}


@dataclass(slots=True)
class Span:
    """One interval in the execution hierarchy, in job-relative seconds."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start: float
    end: float
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (never negative)."""
        return max(0.0, self.end - self.start)


class Tracer:
    """Thread-safe collector of completed spans for one or more jobs.

    ``clock`` is a zero-argument callable returning seconds since the
    trace epoch; the default anchors ``time.monotonic`` at construction.
    A tracer constructed with ``enabled=False`` records nothing and its
    context manager yields ``None`` — callers pass that straight through
    as the parent of child spans, which keeps the disabled path free of
    conditionals at call sites.
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
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack = threading.local()

    # -- clock ------------------------------------------------------------

    def now(self) -> float:
        """Current trace-epoch-relative time in seconds."""
        return self._clock()

    # -- recording --------------------------------------------------------

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    @staticmethod
    def _parent_id(parent: "Span | int | None") -> int | None:
        if parent is None or isinstance(parent, int):
            return parent
        return parent.span_id

    def _implicit_parent(self) -> int | None:
        stack = getattr(self._stack, "spans", None)
        return stack[-1].span_id if stack else None

    def open(
        self,
        name: str,
        kind: str,
        parent: "Span | int | None" = None,
        **attrs,
    ) -> Span | None:
        """Start a span now; it records once :meth:`close` is called.

        The returned handle carries its final id immediately, so it is
        usable as the ``parent`` of child spans — including ones opened
        in other threads before this span closes.  Use for intervals
        whose open/close points do not nest lexically (the threaded
        engine's overlapping map and reduce stages); prefer
        :meth:`span` otherwise.
        """
        if not self.enabled:
            return None
        if kind not in KIND_DEPTH:
            raise ValueError(f"unknown span kind {kind!r}")
        parent_id = self._parent_id(parent)
        if parent_id is None:
            parent_id = self._implicit_parent()
        return Span(
            span_id=self._allocate_id(),
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=self._clock(),
            end=0.0,
            tid=threading.get_ident() & 0xFFFF,
            attrs=dict(attrs),
        )

    def close(self, span: Span | None) -> None:
        """End an :meth:`open`-ed span and commit it to the trace."""
        if span is None:
            return
        span.end = self._clock()
        with self._lock:
            self._spans.append(span)

    @contextmanager
    def span(
        self,
        name: str,
        kind: str,
        parent: "Span | int | None" = None,
        **attrs,
    ) -> Iterator[Span | None]:
        """Open a span around a block; yields the (not yet closed) span.

        The yielded span carries its final id, so it is usable as the
        ``parent`` of child spans opened in *other* threads before this
        one closes.  Within one thread, nesting is implicit: an open span
        is the default parent of spans opened under it.
        """
        span = self.open(name, kind, parent=parent, **attrs)
        if span is None:
            yield None
            return
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self.close(span)

    def record(
        self,
        name: str,
        kind: str,
        start: float,
        end: float,
        parent: "Span | int | None" = None,
        tid: int = 0,
        **attrs,
    ) -> Span | None:
        """Record one completed span with explicit times.

        This is the entry point for the simulator (virtual times) and for
        re-ingesting spans measured inside worker processes.
        """
        if not self.enabled:
            return None
        if kind not in KIND_DEPTH:
            raise ValueError(f"unknown span kind {kind!r}")
        if end < start:
            raise ValueError(f"span {name!r}: end {end} < start {start}")
        span = Span(
            span_id=self._allocate_id(),
            parent_id=self._parent_id(parent),
            name=name,
            kind=kind,
            start=start,
            end=end,
            tid=tid,
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(span)
        return span

    # -- read side --------------------------------------------------------

    def spans(self, kind: str | None = None) -> list[Span]:
        """Completed spans (optionally by kind), sorted by (start, id)."""
        with self._lock:
            snapshot = list(self._spans)
        if kind is not None:
            snapshot = [span for span in snapshot if span.kind == kind]
        return sorted(snapshot, key=lambda span: (span.start, span.span_id))

    def find(self, name: str) -> list[Span]:
        """All completed spans with the given name."""
        return [span for span in self.spans() if span.name == name]

    def children(self, parent: Span | int) -> list[Span]:
        """Direct children of a span, sorted by start time."""
        parent_id = self._parent_id(parent)
        return [span for span in self.spans() if span.parent_id == parent_id]

    def roots(self) -> list[Span]:
        """Spans with no parent (normally the job spans)."""
        return [span for span in self.spans() if span.parent_id is None]

    def makespan(self) -> float:
        """Latest end time across all spans (0.0 when empty)."""
        with self._lock:
            if not self._spans:
                return 0.0
            return max(span.end for span in self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

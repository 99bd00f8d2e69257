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

import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.core.types import StageTimes

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
        #: span id -> its nearest ``job`` span's id (a job's is its own),
        #: and job span id -> that job's completed spans.
        self._job_of: dict[int, int] = {}
        self._by_job: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack = threading.local()

    # -- clock ------------------------------------------------------------

    def now(self) -> float:
        """Current trace-epoch-relative time in seconds."""
        return self._clock()

    # -- recording --------------------------------------------------------

    def _allocate_id(self, kind: str, parent_id: int | None) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            job = span_id if kind == "job" else self._job_of.get(parent_id)
            if job is not None:
                self._job_of[span_id] = job
            return span_id

    def _commit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            job = self._job_of.get(span.span_id)
            if job is not None:
                self._by_job.setdefault(job, []).append(span)

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
            span_id=self._allocate_id(kind, parent_id),
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
        self._commit(span)

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
        parent_id = self._parent_id(parent)
        span = Span(
            span_id=self._allocate_id(kind, parent_id),
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=start,
            end=end,
            tid=tid,
            attrs=dict(attrs),
        )
        self._commit(span)
        return span

    # -- read side --------------------------------------------------------

    def spans(self, kind: str | None = None) -> list[Span]:
        """Completed spans (optionally by kind), sorted by (start, id)."""
        with self._lock:
            snapshot = list(self._spans)
        if kind is not None:
            snapshot = [span for span in snapshot if span.kind == kind]
        return sorted(snapshot, key=lambda span: (span.start, span.span_id))

    def job_spans(self, job: Span | int | None) -> list[Span]:
        """``job``'s completed spans, itself included once closed.

        A span belongs to its nearest ``job`` ancestor, so jobs sharing
        one tracer never see each other's spans; the cost is that job's
        span count, not the tracer's.  ``None`` (a disabled tracer's
        handle) has no spans.
        """
        if job is None:
            return []
        with self._lock:
            return list(self._by_job.get(self._parent_id(job), ()))

    def forget_job(self, job: Span | int | None) -> None:
        """Drop ``job``'s completed spans, itself included.

        What keeps a long-lived tracer bounded: the cluster coordinator
        forgets a job once it is no longer among those it reports.
        """
        if job is None:
            return
        job_id = self._parent_id(job)
        with self._lock:
            gone = {span.span_id for span in self._by_job.pop(job_id, ())}
            self._spans = [
                span for span in self._spans if span.span_id not in gone
            ]
            self._job_of = {
                span_id: owner
                for span_id, owner in self._job_of.items()
                if owner != job_id
            }

    def makespan(self) -> float:
        """Latest end time across all spans (0.0 when empty)."""
        with self._lock:
            if not self._spans:
                return 0.0
            return max(span.end for span in self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def stage_times(spans: Iterable[Span]) -> StageTimes:
    """One job's stage boundaries, relative to the start of its job span.

    Keyed on span kind and name, not on stage parents (cluster workers
    record none): maps from the ``map-N`` task spans (a re-executed map
    by its last end; ``map-N-reexec`` is not one), ``shuffle_done`` / ``sort_done`` from the
    ``shuffle`` or ``shuffle+reduce`` / ``sort`` ops of ``reduce-N``
    tasks (no sort: ``shuffle_done``), ``reduce_done`` and ``job_done``
    from the ends of those tasks and of the job span.  What was not
    recorded is 0.0; with no job span every field is.
    """
    spans = list(spans)
    job = next((span for span in spans if span.kind == "job"), None)
    if job is None:
        return StageTimes()
    t0 = job.start
    tasks = [span for span in spans if span.kind == "task"]
    maps = [span for span in tasks if re.fullmatch(r"map-\d+", span.name)]
    reduces = {
        span.span_id: span for span in tasks
        if re.fullmatch(r"reduce-\d+", span.name)
    }
    # The last end per map: a re-executed map's surviving output.
    map_done = {
        span.name: span.end for span in sorted(maps, key=lambda s: s.end)
    }

    def op_end(*names: str) -> float:
        return max(
            (span.end - t0 for span in spans if span.kind == "op"
             and span.parent_id in reduces and span.name in names),
            default=0.0,
        )

    shuffle_done = op_end("shuffle", "shuffle+reduce")
    return StageTimes(
        map_start=min((span.start - t0 for span in maps), default=0.0),
        first_map_done=min(map_done.values(), default=t0) - t0,
        last_map_done=max(map_done.values(), default=t0) - t0,
        shuffle_done=shuffle_done,
        sort_done=op_end("sort") or shuffle_done,
        reduce_done=max((s.end - t0 for s in reduces.values()), default=0.0),
        job_done=job.end - t0,
    )

"""Cluster-wide telemetry: trace propagation, shipping and merging.

The in-process engines report spans, counters and sampled
series into one :class:`~repro.obs.JobObservability`; the cluster
runtime spreads that state across N worker processes.  This module is
the plane that brings it back together:

- :class:`TraceContext` — the ``(job_id, task_id, attempt, epoch)``
  identity the coordinator stamps on every map/reduce grant, carried
  over the framed RPC and attached to every span a worker records for
  that task;
- :class:`TelemetryBuffer` — the worker side.  Wraps a per-job
  observability bundle and, on every heartbeat (plus a final flush on
  each task completion), pickles the *delta* since the last ship —
  newly completed spans, counter increments, new metrics-series points
  thinned to a per-frame cap — into one raw wire frame
  (:func:`repro.dfs.wire.encode_frame`), inheriting the shuffle wire's
  CRC-or-nothing integrity.  Only completed spans ship: a SIGKILLed
  worker leaves everything up to its last heartbeat on the coordinator
  and nothing fabricated beyond it;
- :class:`ClusterTelemetry` — the coordinator side.  Decodes frames,
  estimates each worker's clock offset from heartbeat delivery delays
  (the minimum of ``recv_wall - send_wall`` over samples bounds skew
  from above because network delay is non-negative), and merges
  everything onto the coordinator's timeline: a multi-process Chrome
  trace (coordinator as pid 0, one pid per worker), a combined metrics
  snapshot, and the per-worker status used by the ``status`` RPC verb
  and the ``repro top`` dashboard.  Unpickling a delta adds no trust
  edge (the coordinator already unpickles ``reduce-done`` outputs); the
  ``status`` plane stays pickle-free.

Shipped telemetry is *presentation* state: the coordinator never merges
a telemetry frame's counters into the job's counter registry — task
completion messages remain the single authoritative source, merged
first-wins exactly as before, so re-executions and duplicate attempts
cannot double-count through the telemetry path.
"""

from __future__ import annotations

import io
import pickle
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.core.types import Record
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import WireConfig, decode_frame, encode_frame
from repro.obs import JobObservability, Span, to_chrome_trace_multi
from repro.obs.metrics import METRICS_SCHEMA_VERSION
from repro.cluster.rpc import RpcError, recv_message, send_message

__all__ = [
    "ClusterTelemetry",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryBuffer",
    "TraceContext",
    "decode_telemetry",
    "request_status",
]

#: Version tag carried in every telemetry frame payload.
TELEMETRY_SCHEMA_VERSION = 2

#: At most this many new points per series per frame; the rest are
#: thinned (evenly, keeping the newest point) and counted as dropped.
MAX_SERIES_POINTS_PER_FRAME = 32

#: Per-series cap on points retained coordinator-side; the oldest are
#: discarded (and counted dropped) so a long-lived cluster cannot grow
#: its status plane without bound.
MAX_SERIES_POINTS_RETAINED = 2048

#: Concluded jobs the coordinator keeps — here its own job spans, every
#: worker's spans and span-id maps; in the dispatcher each job's state,
#: output and result.  Older jobs are dropped, oldest first, so a
#: long-lived cluster cannot grow its trace or its memory without bound.
MAX_JOBS_RETAINED = 32

#: Telemetry frames use the same fixed framing as RPC messages: one
#: record, CRC32, sealed raw.
_TELEMETRY_WIRE = WireConfig(compress=False)


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Task identity propagated from the coordinator with every grant.

    ``task_id`` is ``map-<i>`` or ``reduce-<i>``; ``attempt`` counts
    reduce reassignments (always 0 for maps, whose re-executions are
    identified by ``epoch`` instead); ``epoch`` is the map-output epoch
    (always 0 for reduces).  Workers tag every span they record for
    the task with these four fields plus their own
    ``(worker, pid)``, so a merged trace can be sliced by grant.
    """

    job_id: str
    task_id: str
    attempt: int
    epoch: int

    def as_fields(self) -> dict:
        """The RPC-safe dict carried on ``assign-map``/``assign-reduce``."""
        return {
            "job_id": self.job_id,
            "task_id": self.task_id,
            "attempt": self.attempt,
            "epoch": self.epoch,
        }

    @classmethod
    def from_fields(cls, fields: dict | None) -> "TraceContext | None":
        """Rebuild a context from grant fields; ``None`` when absent."""
        if not fields:
            return None
        return cls(
            job_id=str(fields.get("job_id", "")),
            task_id=str(fields.get("task_id", "")),
            attempt=int(fields.get("attempt", 0)),
            epoch=int(fields.get("epoch", 0)),
        )


def _codec_safe(value):
    """Coerce attr values into the builtins :class:`_PlainUnpickler` loads."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return [_codec_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _codec_safe(item) for key, item in value.items()}
    return str(value)


def _thin_points(
    points: list[tuple[float, float]], limit: int
) -> tuple[list[list[float]], int]:
    """Keep at most ``limit`` points, evenly spaced, newest always kept."""
    if len(points) <= limit:
        return [[float(t), float(v)] for t, v in points], 0
    last = len(points) - 1
    picks = sorted({round(i * last / (limit - 1)) for i in range(limit)})
    return (
        [[float(points[i][0]), float(points[i][1])] for i in picks],
        len(points) - len(picks),
    )


class TelemetryBuffer:
    """Worker-side delta encoder over one per-job observability bundle.

    :meth:`collect` snapshots everything recorded since the previous
    collect and returns it as one encoded frame; cursors advance
    immediately, and :meth:`rollback` restores the previous cursors when
    the caller failed to put the frame on the wire (only valid while no
    newer collect has happened — a stale rollback is a no-op, and the
    uncollected state is simply re-shipped after reconnection).
    """

    def __init__(
        self,
        obs: JobObservability,
        *,
        job_id: str,
        worker: str,
        pid: int,
        max_points: int = MAX_SERIES_POINTS_PER_FRAME,
    ) -> None:
        self._obs = obs
        self._job_id = job_id
        self._worker = worker
        self._pid = pid
        self._max_points = max_points
        self._lock = threading.Lock()
        self._shipped_spans: set[int] = set()
        self._counter_base: dict[str, int] = {}
        self._series_cursor: dict[str, int] = {}
        self._generation = 0
        self._undo: tuple | None = None

    def collect(self) -> bytes:
        """Encode the delta since the last collect as one wire frame."""
        obs = self._obs
        with self._lock:
            undo = (
                set(self._shipped_spans),
                dict(self._counter_base),
                dict(self._series_cursor),
            )
            spans = []
            for span in obs.tracer.spans():
                if span.span_id in self._shipped_spans:
                    continue
                self._shipped_spans.add(span.span_id)
                spans.append({
                    "id": span.span_id, "parent": span.parent_id,
                    "name": span.name, "kind": span.kind,
                    "start": float(span.start), "end": float(span.end),
                    "tid": span.tid, "attrs": _codec_safe(span.attrs),
                })
            totals = obs.counters.as_dict()
            counter_delta = {
                name: total - self._counter_base.get(name, 0)
                for name, total in totals.items()
                if total != self._counter_base.get(name, 0)
            }
            self._counter_base = totals
            series = {}
            for name in obs.metrics.names():
                recorded = obs.metrics.series(name)
                if recorded is None:
                    continue
                points = recorded.points()
                sent = self._series_cursor.get(name, 0)
                fresh = points[sent:]
                if not fresh:
                    continue
                self._series_cursor[name] = len(points)
                shipped, dropped = _thin_points(fresh, self._max_points)
                series[name] = {
                    "unit": recorded.unit,
                    "points": shipped,
                    "dropped": dropped,
                }
            self._generation += 1
            self._undo = (self._generation, undo)
        payload = {
            "v": TELEMETRY_SCHEMA_VERSION,
            "job_id": self._job_id,
            "worker": self._worker,
            "pid": self._pid,
            "epoch0": float(obs.epoch),
            "wall": time.time(),
            "spans": spans,
            "counters": counter_delta,
            "series": series,
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return encode_frame([Record("telemetry", blob)], _TELEMETRY_WIRE).frame

    def rollback(self) -> None:
        """Undo the most recent collect (frame never made it out).

        A no-op when a newer collect has happened since — that frame's
        cursors already include this one's state, so the delta is not
        lost, merely re-shipped later.
        """
        with self._lock:
            if self._undo is None or self._undo[0] != self._generation:
                return
            (
                self._shipped_spans,
                self._counter_base,
                self._series_cursor,
            ) = self._undo[1]
            self._undo = None


class _PlainUnpickler(pickle.Unpickler):
    """Builtin scalars and containers only: a delta names no class."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"telemetry may not load {module}.{name}")


def decode_telemetry(frame: bytes) -> dict:
    """Decode one telemetry frame; inverse of :meth:`TelemetryBuffer.collect`.

    Raises :class:`~repro.dfs.serialization.SerializationError` on any
    defect — truncation, bit corruption (CRC), trailing bytes, a frame
    that is not the single ``("telemetry", bytes)`` record (all checked
    before unpickling), or bytes that do not unpickle to a dict.
    """
    records, end = decode_frame(frame)
    if end != len(frame):
        raise SerializationError(
            f"{len(frame) - end} trailing bytes after telemetry frame"
        )
    if len(records) != 1 or records[0].key != "telemetry":
        raise SerializationError("telemetry frame must hold one record")
    try:
        payload = _PlainUnpickler(io.BytesIO(records[0].value)).load()
    except Exception as exc:  # a non-bytes value, or any unpickling error
        raise SerializationError(f"telemetry payload: {exc!r}") from exc
    if not isinstance(payload, dict):
        raise SerializationError("telemetry payload must be a dict")
    return payload


class _WorkerTelemetry:
    """Everything the coordinator has merged from one worker."""

    __slots__ = (
        "name", "pid", "truncated", "delay_min_s", "frames", "bytes",
        "spans", "counters", "series", "last_wall",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.pid = 0
        self.truncated = False
        #: Minimum observed (coordinator recv wall − worker send wall):
        #: an upper bound on clock skew, tight on a quiet loopback link.
        self.delay_min_s: float | None = None
        self.frames = 0
        self.bytes = 0
        #: job_id -> that job's spans from this worker.  Times are stored
        #: on the *worker's wall clock* (job epoch + job-relative time)
        #: and shifted onto the coordinator timeline when read, so a
        #: refined skew estimate retroactively improves alignment.
        self.spans: dict[str, list[Span]] = {}
        self.counters: dict[str, int] = {}
        self.series: dict[str, dict] = {}
        self.last_wall = 0.0

    @property
    def skew_s(self) -> float:
        return self.delay_min_s if self.delay_min_s is not None else 0.0


def _shifted(span: Span, offset: float) -> Span:
    return replace(span, start=span.start + offset, end=span.end + offset)


class ClusterTelemetry:
    """Coordinator-side merge of every worker's shipped telemetry.

    Thread-safe: frames are ingested from per-connection receiver
    threads while the job loop (and ``status`` connections) read merged
    views.  ``obs`` is the coordinator's own bundle — its tracer's
    timeline is the merge target, and ``cluster.telemetry.*`` counters
    and the ``cluster.telemetry.clock_skew_ms`` series land in it.
    """

    def __init__(self, obs: JobObservability) -> None:
        self.obs = obs
        self._lock = threading.Lock()
        self._workers: dict[str, _WorkerTelemetry] = {}
        #: (worker, job_id) -> {worker-local span id: merged span id}.
        #: Allocated on first sight (a span may reference its parent
        #: before that parent's frame arrives), stable thereafter.
        self._id_maps: dict[tuple[str, str], dict[int, int]] = {}
        self._next_span_id = 0
        #: The retained concluded jobs, oldest first: job_id -> the
        #: coordinator's job span of each of its runs.
        self._concluded: OrderedDict[str, list[Span]] = OrderedDict()
        #: Every dropped job id: spans that still arrive for one are not
        #: merged.  An id, not its spans, is what grows per job.
        self._dropped_jobs: set[str] = set()

    # -- ingest ------------------------------------------------------------

    def _merged_id(self, key: tuple[str, str], local_id: int) -> int:
        id_map = self._id_maps.setdefault(key, {})
        merged = id_map.get(local_id)
        if merged is None:
            merged = self._next_span_id
            self._next_span_id += 1
            id_map[local_id] = merged
        return merged

    def ingest(self, frame: bytes, recv_wall: float | None = None) -> bool:
        """Merge one telemetry frame; returns False on a corrupt frame.

        Every field is read before any is merged: a frame that does not
        decode, or holds a malformed delta, is dropped whole.
        """
        if recv_wall is None:
            recv_wall = time.time()
        try:
            payload = decode_telemetry(frame)
            name = str(payload.get("worker", ""))
            job_id = str(payload.get("job_id", ""))
            pid = int(payload.get("pid", 0))
            wall = float(payload.get("wall", recv_wall))
            epoch0 = float(payload.get("epoch0", recv_wall))
            spans = [(
                int(span["id"]),
                None if span.get("parent") is None else int(span["parent"]),
                str(span.get("name", "")), str(span.get("kind", "op")),
                epoch0 + float(span.get("start", 0.0)),
                epoch0 + float(span.get("end", 0.0)),
                int(span.get("tid", 0)), dict(span.get("attrs", {})),
            ) for span in payload.get("spans", ())]
            deltas = {
                str(counter): int(delta)
                for counter, delta in dict(payload.get("counters", {})).items()
            }
            series = [(
                str(series_name), str(shipped.get("unit", "")),
                [[epoch0 + float(t), float(v)]
                 for t, v in shipped.get("points", ())],
                int(shipped.get("dropped", 0)),
            ) for series_name, shipped in dict(payload.get("series", {})).items()]
        except (SerializationError, ArithmeticError, AttributeError,
                LookupError, TypeError, ValueError):
            self.obs.counters.increment("cluster.telemetry.dropped")
            return False
        with self._lock:
            wt = self._workers.get(name)
            if wt is None:
                wt = _WorkerTelemetry(name)
                self._workers[name] = wt
            wt.pid = pid or wt.pid
            wt.frames += 1
            wt.bytes += len(frame)
            wt.last_wall = wall
            delay = recv_wall - wall
            if wt.delay_min_s is None or delay < wt.delay_min_s:
                wt.delay_min_s = delay
            if spans and job_id not in self._dropped_jobs:
                key = (name, job_id)
                job_spans = wt.spans.setdefault(job_id, [])
                for span_id, parent, *fields in spans:
                    job_spans.append(
                        Span(
                            self._merged_id(key, span_id),
                            None if parent is None
                            else self._merged_id(key, parent),
                            *fields,
                        )
                    )
            for counter, delta in deltas.items():
                wt.counters[counter] = wt.counters.get(counter, 0) + delta
            dropped = 0
            for series_name, unit, points, shipped_dropped in series:
                entry = wt.series.setdefault(
                    series_name, {"unit": unit, "points": [], "dropped": 0}
                )
                entry["points"].extend(points)
                entry["dropped"] += shipped_dropped
                dropped += shipped_dropped
                excess = len(entry["points"]) - MAX_SERIES_POINTS_RETAINED
                if excess > 0:
                    del entry["points"][:excess]
                    entry["dropped"] += excess
                    dropped += excess
            skew_ms = wt.skew_s * 1e3
        counters = self.obs.counters
        counters.increment("cluster.telemetry.frames")
        counters.increment("cluster.telemetry.bytes", len(frame))
        if dropped:
            counters.increment("cluster.telemetry.dropped", dropped)
        self.obs.metrics.sample(
            "cluster.telemetry.clock_skew_ms", skew_ms, unit="ms"
        )
        return True

    def job_concluded(self, job_id: str, run_spans: list[Span]) -> None:
        """Count ``job_id`` among the concluded jobs kept.

        ``run_spans`` are the coordinator's job spans, one per run (a
        preempted and resumed job has several).  Past
        :data:`MAX_JOBS_RETAINED` the oldest concluded job is dropped:
        every worker's spans and span-id maps for it, and its run spans
        in the coordinator's tracer.  A job's stage times are read before
        it concludes (``Coordinator._conclude``).
        """
        dropped: list[Span] = []
        with self._lock:
            self._concluded.pop(job_id, None)
            self._concluded[job_id] = list(run_spans)
            while len(self._concluded) > MAX_JOBS_RETAINED:
                old_id, old_spans = self._concluded.popitem(last=False)
                for wt in self._workers.values():
                    wt.spans.pop(old_id, None)
                for key in [key for key in self._id_maps if key[1] == old_id]:
                    del self._id_maps[key]
                self._dropped_jobs.add(old_id)
                dropped.extend(old_spans)
        for span in dropped:
            self.obs.tracer.forget_job(span)

    def mark_truncated(self, name: str) -> None:
        """Flag a dead worker: its telemetry stops at its last heartbeat.

        A worker can die before its first frame lands; the entry is
        created so the truncation is still visible in the status plane.
        """
        with self._lock:
            wt = self._workers.get(name)
            if wt is None:
                wt = _WorkerTelemetry(name)
                self._workers[name] = wt
            if wt.truncated:
                return
            wt.truncated = True
        self.obs.counters.increment("cluster.telemetry.truncated")

    # -- merged views ------------------------------------------------------

    def _offset_s(self, wt: _WorkerTelemetry) -> float:
        """Worker-wall → coordinator-job-relative time shift."""
        return wt.skew_s - self.obs.epoch

    def job_spans(self, job_id: str) -> list[Span]:
        """One job's spans from every worker, shifted onto the
        coordinator timeline as :meth:`chrome_trace` shifts them."""
        with self._lock:
            return [
                _shifted(span, self._offset_s(wt))
                for wt in self._workers.values()
                for span in wt.spans.get(job_id, ())
            ]

    def truncated_workers(self) -> list[str]:
        """Names of workers whose telemetry is flagged truncated."""
        with self._lock:
            return sorted(
                name for name, wt in self._workers.items() if wt.truncated
            )

    def chrome_trace(self, process_name: str = "repro-cluster") -> dict:
        """Multi-process Chrome trace: coordinator pid 0, one pid/worker."""
        with self._lock:
            workers = [
                (wt.pid, wt.name, wt.truncated,
                 [span for spans in wt.spans.values() for span in spans],
                 self._offset_s(wt))
                for wt in self._workers.values()
                # pid 0 = no frame ever landed (died pre-heartbeat);
                # there is nothing to draw and pid 0 is the coordinator.
                if wt.pid != 0
            ]
        processes: list[tuple[int, str, list[Span]]] = [
            (0, f"{process_name} coordinator", self.obs.tracer.spans())
        ]
        for pid, name, truncated, spans, offset in sorted(workers):
            adjusted = [_shifted(span, offset) for span in spans]
            label = f"worker {name}" + (" (truncated)" if truncated else "")
            processes.append((pid, label, adjusted))
        return to_chrome_trace_multi(processes, counters=self.obs.counters)

    def metrics_snapshot(self) -> dict:
        """Coordinator + worker series in the ``write_metrics`` schema.

        Worker series are namespaced ``<worker>.<series>`` with their
        timestamps shifted onto the coordinator timeline, so the
        combined snapshot renders directly via ``repro metrics --file``.
        """
        snapshot = self.obs.metrics.as_dict()
        series = dict(snapshot.get("series", {}))
        with self._lock:
            for name, wt in sorted(self._workers.items()):
                offset = self._offset_s(wt)
                for series_name, entry in sorted(wt.series.items()):
                    values = [value for _t, value in entry["points"]]
                    series[f"{name}.{series_name}"] = {
                        "unit": entry["unit"],
                        "points": [
                            [round(t + offset, 6), value]
                            for t, value in entry["points"]
                        ],
                        "summary": {
                            "n": len(values),
                            "min": min(values, default=0.0),
                            "max": max(values, default=0.0),
                            "mean": (
                                sum(values) / len(values) if values else 0.0
                            ),
                            "last": values[-1] if values else 0.0,
                        },
                    }
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "series": series,
            "maxima": snapshot.get("maxima", {}),
        }

    def status_snapshot(self, tail: int = 60) -> dict:
        """Per-worker live status: gauges, series tails, skew, flags."""
        workers: dict[str, dict] = {}
        with self._lock:
            for name, wt in sorted(self._workers.items()):
                offset = self._offset_s(wt)
                series = {}
                gauges = {}
                for series_name, entry in sorted(wt.series.items()):
                    points = entry["points"][-tail:]
                    series[series_name] = {
                        "unit": entry["unit"],
                        "points": [
                            [round(t + offset, 6), value]
                            for t, value in points
                        ],
                        "dropped": entry["dropped"],
                    }
                    if points:
                        gauges[series_name] = points[-1][1]
                workers[name] = {
                    "pid": wt.pid,
                    "truncated": wt.truncated,
                    "clock_skew_ms": round(wt.skew_s * 1e3, 3),
                    "frames": wt.frames,
                    "bytes": wt.bytes,
                    "counters": dict(wt.counters),
                    "gauges": gauges,
                    "series": series,
                }
        return workers


def request_status(
    host: str, port: int, timeout: float = 5.0
) -> dict:
    """Fetch one status snapshot over the RPC ``status`` verb.

    Opens a fresh connection, sends ``status`` as the first (and only)
    message, and returns the ``status-reply`` payload.  Raises
    :class:`~repro.cluster.rpc.RpcError` on protocol trouble and
    ``OSError`` when the coordinator is unreachable.
    """
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.settimeout(timeout)
        send_message(conn, "status", {})
        kind, fields = recv_message(conn)
    if kind != "status-reply":
        raise RpcError(f"expected status-reply, got {kind!r}")
    status = fields.get("status")
    if not isinstance(status, dict):
        raise RpcError("status-reply carries no status dict")
    return status

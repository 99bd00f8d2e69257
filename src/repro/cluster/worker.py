"""Cluster worker process: task executor + shuffle server + heartbeats.

A worker is one OS process (forked by :class:`~repro.cluster.engine.
ClusterRuntime`) hosting:

- a :class:`~repro.cluster.shuffle.ShuffleServer` that serves this
  worker's map outputs to peers over TCP;
- a control-plane connection to the coordinator, whose receive loop
  dispatches task assignments onto executor threads (the socket thread
  never blocks on task work, so reassignments and location updates keep
  flowing while tasks run);
- map tasks — :func:`~repro.engine.base.run_map_task_partitioned`, the
  output encoded into wire frames and published to the local store under
  the assigned epoch;
- reduce tasks — the *same* attempt executors the threaded engine uses
  (:func:`~repro.engine.runtime.run_pipelined_reduce_attempt` /
  :func:`~repro.engine.runtime.run_barrier_reduce_attempt`), pointed at
  a socket-backed :class:`~repro.cluster.shuffle.RemoteMapOutputSource`
  instead of the in-memory service;
- a heartbeat thread reporting per-reducer fold progress, which the
  coordinator snapshots so a reassigned attempt can classify the dead
  attempt's work as replayed/refolded.  Heartbeats flow even between
  jobs — they are the lease-keeping signal that distinguishes an idle
  worker from a wedged one.

Telemetry: unlike the throwaway per-attempt bundles of earlier
revisions, each job gets one long-lived :class:`JobObservability` for
this worker's lifetime of the job.  Task executors record spans, events
and counters into it, tagged with the coordinator-stamped
:class:`~repro.cluster.telemetry.TraceContext` plus ``(worker, pid)``;
gauges (store bytes, in-flight fetches, records/s) tick on a background
sampler.  A :class:`~repro.cluster.telemetry.TelemetryBuffer` ships the
delta on every heartbeat and flushes with each completion message, so
the coordinator holds everything up to the last beat even when this
process is SIGKILLed mid-task.  Completion-message counters stay
per-attempt (a fresh registry per task) — the coordinator's first-wins
merge remains the single authoritative counter path, and telemetry
never feeds it.

The control connection is *resilient*: registration retries with
:class:`~repro.engine.recovery.BackoffPolicy` (closing the fork-time
race where a worker starts before the coordinator listens), and a
connection that drops mid-life — coordinator crash, chaos proxy reset,
lease-expiry eviction — triggers reconnect + re-register rather than
worker exit.  The register message re-advertises every map output the
shuffle store still holds and every reduce attempt still running, which
is exactly what a restarted coordinator needs to resume a journaled job
on surviving work.  Task-completion messages that cannot be delivered
are queued and flushed after the next successful re-register, so a
reduce that finishes during a coordinator outage still commits.

Preemption (PR 10): a ``preempt-reduce`` control message sets the stop
event of the named reduce attempt; at its next wire-batch boundary the
attempt cuts a final checkpoint and unwinds with
:class:`~repro.engine.fold.ReducePreemptedError`, which this worker
answers with a ``reduce-preempted`` ack instead of ``task-failed``.  A
parked job's context is *kept* — the coordinator deliberately does not
broadcast ``job-done`` — so held map outputs, the location table and
the job spec are all still here when the job resumes.

Chaos hooks: a job may carry a *kill spec* naming this worker (or
``"*"`` for any worker) as the victim.  ``serves`` SIGKILLs the process
after N shuffle batches served (death mid-shuffle, sockets mid-stream);
``reduce-records`` SIGKILLs after N records folded (death mid-reduce,
checkpoint files left on disk); ``map-done`` SIGKILLs after N completed
map tasks; ``preempt-kill`` SIGKILLs on receipt of a ``preempt-reduce``
request (death mid-preemption, before the cut can ack; an optional
``delay_ms`` also throttles folds so the preempt lands mid-reduce
deterministically).  SIGKILL is
deliberate — no atexit, no socket shutdown, no flush — because that is
the failure the recovery machinery claims to survive.  Two
non-lethal triggers drive the quarantine and preemption suites
deterministically: ``fail-tasks`` makes the next N tasks raise (a
deterministically sick worker), ``reduce-delay`` sleeps per record
folded (slows reduces so a preempt directive lands mid-flight).
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import socket
import threading
import time
from collections import deque

from repro.core.types import Counters, ExecutionMode
from repro.dfs.wire import account_batches, encode_record_batches
from repro.engine.base import run_map_task_partitioned
from repro.engine.fold import ReducePreemptedError, ReduceTaskRecovery
from repro.engine.recovery import BackoffPolicy, FetchFaultInjector
from repro.engine.runtime import (
    ATTEMPT_STRIDE,
    RunInstruments,
    checkpoint_gate,
    run_barrier_reduce_attempt,
    run_pipelined_reduce_attempt,
)
from repro.obs import JobObservability, MetricsTicker
from repro.cluster.rpc import RpcError, recv_message, send_message
from repro.cluster.telemetry import TelemetryBuffer, TraceContext
from repro.cluster.shuffle import (
    LocationTable,
    RemoteMapOutputSource,
    ShuffleServer,
    ShuffleStore,
)

__all__ = ["worker_main"]

_HEARTBEAT_INTERVAL_S = 0.05

#: Control-connection (re)establishment: capped exponential backoff with
#: deterministic jitter.  ~60 attempts at a 0.5s cap rides out a
#: multi-second coordinator restart without hammering the port.
_CONNECT_BACKOFF = BackoffPolicy(base_s=0.05, cap_s=0.5)
_CONNECT_ATTEMPTS = 60


class _SigkillReduceInjector(FetchFaultInjector):
    """Fault injector that SIGKILLs the process mid-reduce.

    Rides the same ``check_reduce`` hook the in-process chaos suites use
    to raise :class:`~repro.engine.recovery.ReducerCrashError` — except
    here the whole worker dies, taking its shuffle server, its control
    socket and every thread with it.
    """

    def __init__(self, after_records: int) -> None:
        super().__init__()
        self._after = after_records

    def check_reduce(self, reducer: int, consumed: int) -> None:
        if consumed >= self._after:
            os.kill(os.getpid(), signal.SIGKILL)


class _ThrottleReduceInjector(FetchFaultInjector):
    """Non-lethal injector: sleep per record folded.

    Stretches a reduce out in wall-clock time so the preemption suites
    can deterministically land a preempt directive while the attempt is
    mid-flight, without inflating record counts.
    """

    def __init__(self, delay_s: float) -> None:
        super().__init__()
        self._delay_s = delay_s

    def check_reduce(self, reducer: int, consumed: int) -> None:
        time.sleep(self._delay_s)


class _JobContext:
    """Everything a worker holds for one active job."""

    def __init__(self, job_id: str, fields: dict, worker: "_Worker") -> None:
        self.job_id = job_id
        self.job = pickle.loads(fields["job"])
        self.wire = pickle.loads(fields["wire"])
        self.recovery = pickle.loads(fields["recovery"])
        self.checkpoint_root = fields.get("checkpoint_root") or None
        self.locations = LocationTable()
        self.kill = fields.get("kill") or None
        #: reducer -> (attempt, live ReduceTaskRecovery); heartbeats read
        #: fold progress from it, re-registration advertises the attempt.
        self.active: dict[int, tuple[int, ReduceTaskRecovery]] = {}
        #: reducer -> (attempt, stop event) for preemptible attempts;
        #: ``preempt-reduce`` sets the event, the attempt acks at its
        #: next batch boundary.
        self.preempt: dict[int, tuple[int, threading.Event]] = {}
        #: Remaining injected task failures (``fail-tasks`` chaos).
        self.fail_tasks_left = 0
        self.map_dones = 0
        # One long-lived observability bundle per (worker, job): task
        # executors record into it, the telemetry buffer ships deltas on
        # heartbeats.  With shipping off the bundle is fully disabled and
        # every recording call no-ops, which is the overhead baseline.
        self.instruments = RunInstruments()
        self.ticker: MetricsTicker | None = None
        self.telemetry: TelemetryBuffer | None = None
        if worker.ship_telemetry:
            obs = JobObservability()
            self.instruments.register(obs)
            obs.metrics.register_gauge(
                "worker.store.bytes", worker.store.bytes_held, unit="bytes"
            )
            obs.metrics.register_gauge(
                "worker.fetch.inflight",
                self.instruments.inflight.value,
                unit="streams",
            )
            obs.metrics.register_rate(
                "worker.records_per_s",
                lambda: obs.counters.get("shuffle.records.consumed"),
                unit="records/s",
            )
            self.obs = obs
            self.telemetry = TelemetryBuffer(
                obs, job_id=job_id, worker=worker.name, pid=os.getpid()
            )
            self.ticker = MetricsTicker(obs.metrics, interval_s=0.02)
            self.ticker.start()
        else:
            self.obs = JobObservability.disabled()

    @functools.cached_property
    def make_recovery(self):
        """``make(reducer)``: the job's checkpoint gate, decided once.

        Snapshots need a directory on the (shared) filesystem; without a
        ``checkpoint_root`` from the coordinator the gate stays shut.
        """
        return checkpoint_gate(self.job, self.recovery, self.checkpoint_root)

    def attempt_observability(self) -> JobObservability:
        """Per-attempt bundle: fresh counters, shared everything else.

        Completion messages must carry *this attempt's* counters only —
        the coordinator merges them first-wins, and a shared per-job
        registry would double-count re-executions.  Spans, events,
        metrics and the clock stay the job-wide instances so the
        attempt's activity lands in the long-lived telemetry state.
        """
        attempt_obs = JobObservability()
        attempt_obs.tracer = self.obs.tracer
        attempt_obs.metrics = self.obs.metrics
        attempt_obs.events = self.obs.events
        attempt_obs.epoch = self.obs.epoch
        return attempt_obs

    def flush_telemetry(self) -> bytes | None:
        """Final-flush frame for a completion message (None when off).

        Samples the registered gauges first: a task can finish inside
        one ticker interval, and the flush must still carry at least one
        point per gauge series.
        """
        if self.telemetry is None:
            return None
        self.obs.metrics.sample_gauges()
        return self.telemetry.collect()

    def close(self) -> bytes | None:
        """Stop the sampler; returns one last delta frame to ship.

        The ticker's stop() takes a final gauge sample, which lands
        *after* the last task flush — collect once more so it reaches
        the coordinator instead of dying with the context.
        """
        if self.ticker is not None:
            self.ticker.stop()
        if self.telemetry is None:
            return None
        return self.telemetry.collect()


class _Worker:
    def __init__(
        self,
        name: str,
        coord_host: str,
        coord_port: int,
        *,
        ship_telemetry: bool = True,
    ) -> None:
        self.name = name
        self.ship_telemetry = ship_telemetry
        self._coord = (coord_host, coord_port)
        self._store = ShuffleStore()
        self._server = ShuffleServer(self._store, on_serve=self._on_serve)
        self._kill_serves: int | None = None
        self._jobs: dict[str, _JobContext] = {}
        self._jobs_lock = threading.Lock()
        self._closing = threading.Event()
        self._conn: socket.socket | None = None
        self._send_lock = threading.Lock()
        #: Messages that failed to send while disconnected; flushed FIFO
        #: right after the next successful re-register (socket FIFO
        #: guarantees the coordinator sees register first).
        self._pending: deque[tuple[str, dict]] = deque()

    @property
    def store(self) -> ShuffleStore:
        return self._store

    # -- outbound ----------------------------------------------------------

    def _send(
        self, kind: str, fields: dict, *, queue_on_failure: bool = True
    ) -> bool:
        """Send one control message; queue it if the link is down.

        Never raises on connection trouble: a broken socket is marked
        down (the control loop notices via its own recv error and
        reconnects) and, for messages that must not be lost — task
        completions, failures — the message waits in ``_pending``.
        """
        with self._send_lock:
            conn = self._conn
            if conn is not None:
                try:
                    send_message(conn, kind, fields)
                    return True
                except OSError:
                    self._conn = None
            if queue_on_failure:
                self._pending.append((kind, fields))
            return False

    def _register_fields(self) -> dict:
        with self._jobs_lock:
            active = [
                (ctx.job_id, reducer, attempt)
                for ctx in self._jobs.values()
                for reducer, (attempt, _rec) in list(ctx.active.items())
            ]
        return {
            "worker": self.name,
            "pid": os.getpid(),
            "shuffle_host": self._server.host,
            "shuffle_port": self._server.port,
            "held": self._store.held(),
            "active": sorted(active),
        }

    def _connect_and_register(self) -> socket.socket | None:
        """(Re)establish the control link; returns None when giving up.

        Retries with deterministic backoff: closes the fork-time race
        where the worker process starts before the coordinator's
        listener exists, and rides out a coordinator restart.  On
        success the register message — carrying held map outputs and
        active reduce attempts — is already on the wire, and any queued
        messages are flushed behind it.
        """
        for attempt in range(_CONNECT_ATTEMPTS):
            if self._closing.is_set():
                return None
            try:
                conn = socket.create_connection(self._coord, timeout=5.0)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(None)
                send_message(conn, "register", self._register_fields())
            except OSError:
                time.sleep(
                    _CONNECT_BACKOFF.delay((self.name, "register"), attempt)
                )
                continue
            with self._send_lock:
                self._conn = conn
                while self._pending:
                    kind, fields = self._pending[0]
                    try:
                        send_message(conn, kind, fields)
                    except OSError:
                        self._conn = None
                        break
                    self._pending.popleft()
                if self._conn is None:
                    continue  # link died mid-flush; retry from scratch
            return conn
        return None

    # -- chaos hooks -------------------------------------------------------

    def _on_serve(self, serves: int) -> None:
        threshold = self._kill_serves
        if threshold is not None and serves >= threshold:
            os.kill(os.getpid(), signal.SIGKILL)

    def _install_kill(self, ctx: _JobContext) -> None:
        kill = ctx.kill
        if not kill or kill.get("worker") not in (self.name, "*"):
            ctx.kill = None
            return
        if kill.get("trigger") == "serves":
            self._kill_serves = int(kill.get("count", 1))
        elif kill.get("trigger") == "fail-tasks":
            # Deterministically sick worker: the next N tasks raise.
            ctx.fail_tasks_left = int(kill.get("count", 1_000_000))

    def _reduce_injector(self, ctx: _JobContext) -> FetchFaultInjector | None:
        kill = ctx.kill
        if kill and kill.get("trigger") == "reduce-records":
            return _SigkillReduceInjector(int(kill.get("count", 1)))
        if kill and kill.get("trigger") == "reduce-delay":
            return _ThrottleReduceInjector(
                float(kill.get("delay_ms", 1.0)) / 1000.0
            )
        if (
            kill
            and kill.get("trigger") == "preempt-kill"
            and kill.get("delay_ms")
        ):
            # Optional fold throttle so the job is reliably mid-reduce
            # when the preempt directive (and the SIGKILL) arrives.
            return _ThrottleReduceInjector(float(kill["delay_ms"]) / 1000.0)
        return None

    def _injected_task_failure(self, ctx: _JobContext) -> bool:
        if ctx.fail_tasks_left > 0:
            ctx.fail_tasks_left -= 1
            return True
        return False

    # -- tasks -------------------------------------------------------------

    def _trace_context(
        self, ctx: _JobContext, fields: dict, task_id: str,
        attempt: int, epoch: int,
    ) -> TraceContext:
        """The grant's stamped context (synthesised if an old coordinator
        sent a grant without one, so spans are never untagged)."""
        stamped = TraceContext.from_fields(fields.get("ctx"))
        if stamped is not None:
            return stamped
        return TraceContext(
            job_id=ctx.job_id, task_id=task_id, attempt=attempt, epoch=epoch
        )

    def _run_map(
        self, ctx: _JobContext, mapper: int, epoch: int, split,
        tc: TraceContext,
    ) -> None:
        obs = ctx.obs
        task_span = obs.tracer.open(
            f"map-{mapper}", "task",
            worker=self.name, pid=os.getpid(), **tc.as_fields(),
        )
        obs.events.emit("task.start", worker=self.name, **tc.as_fields())
        try:
            if self._injected_task_failure(ctx):
                raise RuntimeError(
                    f"injected task failure on {self.name} (fail-tasks)"
                )
            counters = Counters()
            partitions = run_map_task_partitioned(
                ctx.job, split, counters, wire=ctx.wire
            )
            batches = {
                reducer: encode_record_batches(
                    partitions.get(reducer, []), ctx.wire
                )
                for reducer in range(ctx.job.num_reducers)
            }
            account_batches(
                counters, [b for bs in batches.values() for b in bs]
            )
            self._store.publish(ctx.job_id, mapper, epoch, batches)
            # Telemetry view only; the map-done counters below remain the
            # authoritative (first-wins merged) copy.
            obs.counters.merge_counters(counters)
            obs.events.emit(
                "task.finish", worker=self.name, status="ok",
                **tc.as_fields(),
            )
            if task_span is not None:
                obs.tracer.close(task_span)
            done = {
                "job_id": ctx.job_id,
                "mapper": mapper,
                "epoch": epoch,
                "worker": self.name,
                "counters": counters.as_dict(),
            }
            flush = ctx.flush_telemetry()
            if flush is not None:
                done["telemetry"] = flush
            self._send("map-done", done)
            kill = ctx.kill
            if kill and kill.get("trigger") == "map-done":
                ctx.map_dones += 1
                if ctx.map_dones >= int(kill.get("count", 1)):
                    os.kill(os.getpid(), signal.SIGKILL)
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            obs.events.emit(
                "task.finish", worker=self.name, status="failed",
                error=f"{type(exc).__name__}: {exc}", **tc.as_fields(),
            )
            if task_span is not None:
                obs.tracer.close(task_span)
            self._task_failed(ctx, "map", mapper, 0, exc)

    def _run_reduce(
        self,
        ctx: _JobContext,
        reducer: int,
        attempt: int,
        num_maps: int,
        prior: dict,
        tc: TraceContext,
        stop: threading.Event,
    ) -> None:
        job = ctx.job
        obs = ctx.attempt_observability()
        task_span = obs.tracer.open(
            f"reduce-{reducer}", "task",
            worker=self.name, pid=os.getpid(), **tc.as_fields(),
        )
        obs.events.emit("task.start", worker=self.name, **tc.as_fields())
        source = RemoteMapOutputSource(
            ctx.job_id, ctx.locations, ctx.recovery.fetch_timeout_s
        )
        # A fresh ledger per attempt: the dead attempt's fold progress
        # arrives from the coordinator (heartbeats), not from memory.
        rec = ctx.make_recovery(reducer)
        rec.prior_records = {
            int(mapper): int(count) for mapper, count in (prior or {}).items()
        }
        ctx.active[reducer] = (attempt, rec)
        attempt_base = attempt * ATTEMPT_STRIDE
        injector = self._reduce_injector(ctx)
        try:
            if self._injected_task_failure(ctx):
                raise RuntimeError(
                    f"injected task failure on {self.name} (fail-tasks)"
                )
            if job.mode is ExecutionMode.BARRIER:
                produced, local_counters = run_barrier_reduce_attempt(
                    job, source, reducer, num_maps, task_span, attempt_base,
                    obs=obs, config=ctx.recovery, injector=injector,
                    wire=ctx.wire, inst=ctx.instruments, stop=stop,
                )
            else:
                produced, local_counters = run_pipelined_reduce_attempt(
                    job, source, reducer, num_maps, task_span, attempt_base,
                    obs=obs, config=ctx.recovery, injector=injector,
                    wire=ctx.wire, recovery=rec, inst=ctx.instruments,
                    stop=stop,
                )
            obs.counters.merge_counters(local_counters)
            obs.events.emit(
                "task.finish", worker=self.name, status="ok",
                **tc.as_fields(),
            )
            if task_span is not None:
                obs.tracer.close(task_span)
            done = {
                "job_id": ctx.job_id,
                "reducer": reducer,
                "attempt": attempt,
                "worker": self.name,
                "output": pickle.dumps(produced),
                "counters": obs.counters.as_dict(),
            }
            flush = ctx.flush_telemetry()
            if flush is not None:
                done["telemetry"] = flush
            self._send("reduce-done", done)
        except ReducePreemptedError as exc:
            # Cooperative stop, not a failure: the final checkpoint (if
            # checkpointing is active) is on disk, the coordinator gets
            # an ack so it can park the job once every attempt stopped.
            obs.events.emit(
                "task.finish", worker=self.name, status="preempted",
                records=exc.records, **tc.as_fields(),
            )
            if task_span is not None:
                obs.tracer.close(task_span)
            ack = {
                "job_id": ctx.job_id,
                "reducer": reducer,
                "attempt": attempt,
                "worker": self.name,
                "records": exc.records,
            }
            flush = ctx.flush_telemetry()
            if flush is not None:
                ack["telemetry"] = flush
            self._send("reduce-preempted", ack)
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            obs.events.emit(
                "task.finish", worker=self.name, status="failed",
                error=f"{type(exc).__name__}: {exc}", **tc.as_fields(),
            )
            if task_span is not None:
                obs.tracer.close(task_span)
            self._task_failed(ctx, "reduce", reducer, attempt, exc)
        finally:
            source.close()
            held = ctx.active.get(reducer)
            if held is not None and held[0] == attempt:
                ctx.active.pop(reducer, None)
            pending = ctx.preempt.get(reducer)
            if pending is not None and pending[0] == attempt:
                ctx.preempt.pop(reducer, None)

    def _task_failed(
        self, ctx: _JobContext, kind: str, index: int, attempt: int,
        exc: BaseException,
    ) -> None:
        self._send(
            "task-failed",
            {
                "job_id": ctx.job_id,
                "kind": kind,
                "index": index,
                "attempt": attempt,
                "worker": self.name,
                "error": f"{type(exc).__name__}: {exc}",
            },
        )

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._closing.wait(_HEARTBEAT_INTERVAL_S):
            with self._jobs_lock:
                contexts = list(self._jobs.values())
            if not contexts:
                # Idle lease-keeping beat: proves this worker is alive
                # (not SIGSTOP'd) even when no job is running.  Not
                # queued — a missed heartbeat is stale the moment the
                # next one fires.
                self._send(
                    "heartbeat",
                    {"worker": self.name, "job_id": "", "progress": {}},
                    queue_on_failure=False,
                )
                continue
            for ctx in contexts:
                progress = {
                    reducer: dict(rec.prior_records)
                    for reducer, (_attempt, rec) in list(ctx.active.items())
                }
                beat = {
                    "worker": self.name,
                    "job_id": ctx.job_id,
                    "progress": progress,
                }
                telemetry = ctx.telemetry
                if telemetry is not None:
                    beat["telemetry"] = telemetry.collect()
                sent = self._send("heartbeat", beat, queue_on_failure=False)
                if not sent and telemetry is not None:
                    # The delta never hit the wire: rewind the cursors so
                    # it rides the next beat after reconnection instead
                    # of vanishing.
                    telemetry.rollback()

    # -- control loop ------------------------------------------------------

    def run(self) -> None:
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="heartbeat", daemon=True
        )
        heartbeat.start()
        try:
            conn = self._connect_and_register()
            while conn is not None:
                try:
                    kind, fields = recv_message(conn)
                except (RpcError, OSError):
                    if self._closing.is_set():
                        return
                    # Coordinator gone (crash, restart, lease eviction):
                    # reconnect and re-register.  Held outputs and active
                    # attempts ride along in the register message.
                    with self._send_lock:
                        if self._conn is conn:
                            self._conn = None
                    try:
                        conn.close()
                    except OSError:
                        pass
                    conn = self._connect_and_register()
                    continue
                if kind == "shutdown":
                    return
                self._dispatch(kind, fields)
        finally:
            self._closing.set()
            self._server.close()
            with self._send_lock:
                conn, self._conn = self._conn, None
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass

    def _dispatch(self, kind: str, fields: dict) -> None:
        job_id = str(fields.get("job_id", ""))
        if kind == "job":
            with self._jobs_lock:
                if job_id in self._jobs:
                    return  # re-sync after reconnect: context survives
                ctx = _JobContext(job_id, fields, self)
                self._install_kill(ctx)
                self._jobs[job_id] = ctx
            return
        with self._jobs_lock:
            ctx = self._jobs.get(job_id)
        if ctx is None:
            return  # stale message for a finished job
        if kind == "assign-map":
            split = pickle.loads(fields["split"])
            mapper = int(fields["mapper"])
            epoch = int(fields["epoch"])
            tc = self._trace_context(
                ctx, fields, f"map-{mapper}", 0, epoch
            )
            threading.Thread(
                target=self._run_map,
                args=(ctx, mapper, epoch, split, tc),
                name=f"map-{mapper}",
                daemon=True,
            ).start()
        elif kind == "assign-reduce":
            reducer = int(fields["reducer"])
            attempt = int(fields["attempt"])
            tc = self._trace_context(
                ctx, fields, f"reduce-{reducer}", attempt, 0
            )
            stop = threading.Event()
            ctx.preempt[reducer] = (attempt, stop)
            threading.Thread(
                target=self._run_reduce,
                args=(
                    ctx,
                    reducer,
                    attempt,
                    int(fields["num_maps"]),
                    fields.get("prior") or {},
                    tc,
                    stop,
                ),
                name=f"reduce-{reducer}",
                daemon=True,
            ).start()
        elif kind == "preempt-reduce":
            reducer = int(fields["reducer"])
            attempt = int(fields["attempt"])
            kill = ctx.kill
            if kill and kill.get("trigger") == "preempt-kill":
                os.kill(os.getpid(), signal.SIGKILL)
            pending = ctx.preempt.get(reducer)
            if pending is not None and pending[0] == attempt:
                pending[1].set()
            elif reducer not in ctx.active:
                # Nothing to stop (attempt already finished or never
                # started here): ack immediately so the coordinator's
                # park never waits on a ghost attempt.
                self._send(
                    "reduce-preempted",
                    {
                        "job_id": ctx.job_id,
                        "reducer": reducer,
                        "attempt": attempt,
                        "worker": self.name,
                        "records": 0,
                    },
                )
        elif kind == "location":
            ctx.locations.update(
                int(fields["mapper"]),
                str(fields["host"]),
                int(fields["port"]),
                int(fields["epoch"]),
            )
        elif kind == "job-done":
            with self._jobs_lock:
                done = self._jobs.pop(job_id, None)
            if done is not None:
                frame = done.close()
                if frame is not None:
                    self._send(
                        "heartbeat",
                        {
                            "worker": self.name,
                            "job_id": job_id,
                            "progress": {},
                            "telemetry": frame,
                        },
                        queue_on_failure=False,
                    )
            self._store.drop_job(job_id)


def worker_main(
    name: str,
    coord_host: str,
    coord_port: int,
    ship_telemetry: bool = True,
) -> None:
    """Process entry point: connect to the coordinator and serve.

    ``ship_telemetry=False`` disables the whole per-job observability
    plane (spans, events, gauges, heartbeat frames) — the baseline arm
    of the shipping-overhead benchmark.
    """
    _Worker(name, coord_host, coord_port, ship_telemetry=ship_telemetry).run()

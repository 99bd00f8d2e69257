"""Cluster worker process: the I/O shell around the pure worker core.

Every decision about the worker's control protocol — which jobs it
knows, which reduce attempt a ``preempt-reduce`` may stop, what is owed
to the coordinator after a dropped link and in what order, what a
heartbeat says, when a chaos kill spec fires — is made by
:class:`~repro.cluster.worker_core.WorkerCore`, which never touches a
socket, a thread or ``os.kill``.  This module is what it cannot be:

- the control connection and its redial loop: a link that will not come
  up (the fork-time race with the coordinator's listener) or that drops
  mid-life (coordinator crash, chaos proxy reset, lease eviction) is
  redialled under a :class:`~repro.engine.recovery.BackoffPolicy`;
- the 50 ms beat timer — heartbeats flow between jobs too: they are
  what tells an idle worker from a wedged one;
- the :class:`~repro.cluster.shuffle.ShuffleServer` serving this
  worker's map outputs to peers;
- one executor thread per granted task, so the socket thread never
  blocks on task work.  Reduces run the *same* attempt executors the
  threaded engine uses, over a socket-backed
  :class:`~repro.cluster.shuffle.RemoteMapOutputSource`.  However an
  attempt ends — it returns, stops for a preemption (acked, not
  failed), raises anywhere from set-up to harvest — it ends in one
  :meth:`_Worker._finish`, so the coordinator always hears;
- the heavy per-job objects (:class:`_JobContext`: spec, location
  table, ledgers, the long-lived observability bundle whose deltas ride
  every heartbeat and completion — docs/observability.md) and the one
  ``os.kill``.  SIGKILL is deliberate — no atexit, no socket shutdown,
  no flush — because that is the failure recovery claims to survive.

The core has no lock; every call into it is made under ``_Worker._lock``.
docs/cluster.md ("Worker core and shell") has the contract.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import socket
import threading
import time
from typing import Callable

from repro.core.types import Counters, ExecutionMode
from repro.dfs.wire import account_batches
from repro.engine.base import run_map_task_encoded
from repro.engine.fold import ReducePreemptedError
from repro.engine.recovery import BackoffPolicy, FetchFaultInjector
from repro.engine.runtime import (
    ATTEMPT_STRIDE,
    RunInstruments,
    checkpoint_gate,
    run_barrier_reduce_attempt,
    run_pipelined_reduce_attempt,
)
from repro.obs import JobObservability, MetricsTicker
from repro.cluster.rpc import (
    RpcError,
    close_listener as _hang_up,
    recv_message,
    send_message,
)
from repro.cluster.telemetry import TelemetryBuffer, TraceContext
from repro.cluster.shuffle import (
    LocationTable,
    RemoteMapOutputSource,
    ShuffleServer,
    ShuffleStore,
)
from repro.cluster.worker_core import (
    Outcome,
    WorkerCore,
    done,
    failed,
    preempted,
)

__all__ = ["worker_main"]

_HEARTBEAT_INTERVAL_S = 0.05

#: Control-connection (re)establishment: capped exponential backoff with
#: deterministic jitter.  ~60 attempts at a 0.5s cap rides out a
#: multi-second coordinator restart without hammering the port.
_CONNECT_BACKOFF = BackoffPolicy(base_s=0.05, cap_s=0.5)
_CONNECT_ATTEMPTS = 60


class _FoldFault(FetchFaultInjector):
    """The kill spec's fold-time fault, on the ``check_reduce`` hook the
    in-process chaos suites use to raise ``ReducerCrashError``.

    ``("kill", n)``: once n records are folded the whole worker dies,
    taking its shuffle server, its control socket and every thread with
    it (checkpoint files stay on disk).  ``("delay", s)``: sleep s per
    record, stretching a reduce out in wall-clock time so a preempt
    directive lands mid-flight, without inflating record counts.
    """

    def __init__(self, spec: tuple[str, float], die: Callable[[], None]) -> None:
        super().__init__()
        self._fault, self._amount = spec
        self._die = die

    def check_reduce(self, reducer: int, consumed: int) -> None:
        if self._fault == "delay":
            time.sleep(self._amount)
        elif consumed >= self._amount:
            self._die()


class _JobContext:
    """The heavy objects a worker holds for one open job."""

    def __init__(self, job_id: str, fields: dict, worker: "_Worker") -> None:
        self.job_id = job_id
        self.job = pickle.loads(fields["job"])
        self.wire = pickle.loads(fields["wire"])
        self.recovery = pickle.loads(fields["recovery"])
        self.checkpoint_root = fields.get("checkpoint_root") or None
        self.locations = LocationTable()
        #: (reducer, attempt) -> (stop event, {mapper: records folded}),
        #: from grant to report.  ``stop_reduce`` sets the event and the
        #: attempt unwinds at its next wire-batch boundary; the attempt's
        #: ledger advances the dict and heartbeats read it.
        self.runs: dict[tuple[int, int], tuple[threading.Event, dict]] = {}
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
    """Sockets, threads and the clock: the core's ``WorkerShell``."""

    def __init__(
        self, name: str, coord_host: str, coord_port: int, ship_telemetry: bool
    ) -> None:
        self.name = name
        self.ship_telemetry = ship_telemetry
        self._coord = (coord_host, coord_port)
        self.store = ShuffleStore()
        self._server = ShuffleServer(self.store, on_serve=self._on_serve)
        self._closing = threading.Event()
        #: Held around every call into the core, hence around every send
        #: and every use of ``_jobs`` and ``_conn``.
        self._lock = threading.Lock()
        self._jobs: dict[str, _JobContext] = {}
        self._conn: socket.socket | None = None
        self._core = WorkerCore(
            name, os.getpid(), self._server.host, self._server.port, self
        )

    # -- what the core asks for (WorkerShell) ------------------------------

    def send(self, kind: str, fields: dict) -> bool:
        """Never raises on connection trouble: a broken socket is marked
        down, and the control loop notices via its own recv error."""
        if self._conn is None:
            return False
        try:
            send_message(self._conn, kind, fields)
            return True
        except OSError:
            self._conn = None
            return False

    def open_job(self, job_id: str, fields: dict) -> None:
        self._jobs[job_id] = _JobContext(job_id, fields, self)

    def close_job(self, job_id: str) -> bytes | None:
        self.store.drop_job(job_id)
        return self._jobs.pop(job_id).close()

    def start_map(
        self, job_id: str, mapper: int, epoch: int, grant: dict, fail: bool
    ) -> None:
        ctx = self._jobs[job_id]
        self._spawn(
            "map", mapper, ctx, ctx.obs, epoch, grant, fail,
            lambda _span: self._map(ctx, mapper, epoch, grant),
        )

    def start_reduce(
        self, job_id: str, reducer: int, attempt: int, grant: dict,
        fail: bool, inject: tuple[str, float] | None,
    ) -> None:
        ctx = self._jobs[job_id]
        stop, progress = ctx.runs[reducer, attempt] = threading.Event(), {}
        obs = ctx.attempt_observability()
        self._spawn(
            "reduce", reducer, ctx, obs, attempt, grant, fail,
            lambda span: self._reduce(
                ctx, obs, reducer, attempt, grant, inject, stop, progress, span
            ),
        )

    def stop_reduce(self, job_id: str, reducer: int, attempt: int) -> None:
        self._jobs[job_id].runs[reducer, attempt][0].set()

    def locate(
        self, job_id: str, mapper: int, host: str, port: int, epoch: int
    ) -> None:
        self._jobs[job_id].locations.update(mapper, host, port, epoch)

    def beat(self, job_id: str, active: dict[int, int]) -> tuple[dict, bytes | None]:
        ctx = self._jobs[job_id]
        progress = {r: dict(ctx.runs[r, a][1]) for r, a in active.items()}
        frame = ctx.telemetry.collect() if ctx.telemetry is not None else None
        return progress, frame

    def rollback(self, job_id: str) -> None:
        self._jobs[job_id].telemetry.rollback()

    def die(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    def _on_serve(self, serves: int) -> None:
        with self._lock:
            self._core.served(serves)

    # -- tasks -------------------------------------------------------------

    def _spawn(self, kind: str, index: int, *rest) -> None:
        threading.Thread(
            target=self._run_task, args=(kind, index, *rest),
            name=f"{kind}-{index}", daemon=True,
        ).start()

    def _run_task(
        self, kind: str, index: int, ctx: _JobContext, obs: JobObservability,
        attempt: int, grant: dict, fail: bool,
        body: Callable[[object], Outcome],
    ) -> None:
        """A granted attempt from span to report: however ``body`` ends —
        set-up included — the coordinator hears exactly once."""
        tags: dict = {}
        span = None
        try:
            # A grant without a trace context is a malformed frame.
            tags = TraceContext.from_fields(grant["ctx"]).as_fields()
            span = obs.tracer.open(
                f"{kind}-{index}", "task",
                worker=self.name, pid=os.getpid(), **tags,
            )
            obs.events.emit("task.start", worker=self.name, **tags)
            if fail:
                raise RuntimeError(
                    f"injected task failure on {self.name} (fail-tasks)"
                )
            outcome = body(span)
        except ReducePreemptedError as exc:
            # Cooperative stop, not a failure: the final checkpoint (if
            # checkpointing is active) is on disk, the coordinator gets
            # an ack so it can park the job once every attempt stopped.
            outcome = preempted(exc.records)
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            outcome = failed(f"{type(exc).__name__}: {exc}")
        self._finish(ctx, obs, tags, span, kind, index, attempt, outcome)

    def _finish(
        self, ctx: _JobContext, obs: JobObservability, tags: dict, span,
        kind: str, index: int, attempt: int, outcome: Outcome,
    ) -> None:
        """Turn a task outcome into its ``task.finish`` event, the closed
        span, the telemetry flush and the core's report."""
        status, fields = outcome
        obs.events.emit(
            "task.finish", worker=self.name, status=status,
            **({} if status == "ok" else fields), **tags,
        )
        if span is not None:
            obs.tracer.close(span)
        with self._lock:
            # Flushed under the lock so a heartbeat's collect-send-rollback
            # cannot interleave with it.  Failures ship no frame; theirs
            # rides the next beat.
            flush = ctx.flush_telemetry() if status != "failed" else None
            if flush is not None:
                outcome = status, {**fields, "telemetry": flush}
            task = (ctx.job_id, kind, index, attempt)
            try:
                self._core.task_finished(*task, outcome)
            except RpcError as exc:
                # The report cannot be framed (an output over the message
                # ceiling): the attempt failed after all.
                self._core.task_finished(
                    *task, failed(f"{type(exc).__name__}: {exc}")
                )
            if kind == "reduce":
                del ctx.runs[index, attempt]

    def _map(
        self, ctx: _JobContext, mapper: int, epoch: int, grant: dict
    ) -> Outcome:
        counters = Counters()
        batches = run_map_task_encoded(
            ctx.job, pickle.loads(grant["split"]), counters, ctx.wire
        )
        account_batches(counters, [b for bs in batches.values() for b in bs])
        self.store.publish(ctx.job_id, mapper, epoch, batches)
        # Telemetry view only; the map-done counters remain the
        # authoritative (first-wins merged) copy.
        ctx.obs.counters.merge_counters(counters)
        return done(counters=counters.as_dict())

    def _reduce(
        self, ctx: _JobContext, obs: JobObservability, reducer: int,
        attempt: int, grant: dict, inject: tuple[str, float] | None,
        stop: threading.Event, progress: dict, span,
    ) -> Outcome:
        job = ctx.job
        injector = _FoldFault(inject, self.die) if inject is not None else None
        # A fresh ledger per attempt: the dead attempt's fold progress
        # arrives from the coordinator (heartbeats), not from memory.  The
        # ledger keeps its high-water marks current in this very dict.
        ledger = ctx.make_recovery(reducer)
        ledger.prior_records = progress
        for mapper, count in (grant.get("prior") or {}).items():
            progress[int(mapper)] = int(count)
        source = RemoteMapOutputSource(
            ctx.job_id, ctx.locations, ctx.recovery.fetch_timeout_s
        )
        barrier = job.mode is ExecutionMode.BARRIER
        run = run_barrier_reduce_attempt if barrier else run_pipelined_reduce_attempt
        try:
            produced, local_counters = run(
                job, source, reducer, int(grant["num_maps"]), span,
                attempt * ATTEMPT_STRIDE, obs=obs, config=ctx.recovery,
                injector=injector, wire=ctx.wire, inst=ctx.instruments, stop=stop,
                **({} if barrier else {"recovery": ledger}),
            )
        finally:
            source.close()
        obs.counters.merge_counters(local_counters)
        return done(
            output=pickle.dumps(produced), counters=obs.counters.as_dict()
        )

    # -- the link and the clock --------------------------------------------

    def _connect(self) -> socket.socket | None:
        """(Re)establish the control link; returns None when giving up.

        A link counts only once the core has put ``register`` and
        everything it still owed on it; until then, back off and redial.
        """
        for attempt in range(_CONNECT_ATTEMPTS):
            if self._closing.is_set():
                return None
            try:
                conn = socket.create_connection(self._coord, timeout=5.0)
            except OSError:
                pass
            else:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(None)
                with self._lock:
                    self._conn = conn
                    if self._core.connected(self.store.held()):
                        return conn
                _hang_up(conn)
            time.sleep(_CONNECT_BACKOFF.delay((self.name, "register"), attempt))
        return None

    def _beat_loop(self) -> None:
        while not self._closing.wait(_HEARTBEAT_INTERVAL_S):
            with self._lock:
                self._core.tick(time.monotonic())

    def run(self) -> None:
        threading.Thread(
            target=self._beat_loop, name="heartbeat", daemon=True
        ).start()
        conn = None
        try:
            conn = self._connect()
            while conn is not None:
                try:
                    kind, fields = recv_message(conn)
                except (RpcError, OSError):
                    if self._closing.is_set():
                        return
                    # Coordinator gone (crash, restart, lease eviction):
                    # redial.  Held outputs and running attempts ride
                    # along in the register message.
                    with self._lock:
                        self._conn = None
                        self._core.disconnected()
                    _hang_up(conn)
                    conn = self._connect()
                    continue
                with self._lock:
                    self._core.handle(time.monotonic(), kind, fields)
                if self._core.stopped:
                    return
        finally:
            self._closing.set()
            self._server.close()
            with self._lock:
                self._conn = None
            if conn is not None:
                _hang_up(conn)


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
    _Worker(name, coord_host, coord_port, ship_telemetry).run()

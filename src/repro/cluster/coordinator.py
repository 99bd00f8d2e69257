"""Cluster coordinator: the I/O shell around the pure dispatcher.

Every scheduling decision — placement, epoch bumps, re-grants, first-wins
commits, leases, deadlines, quarantine, preemption — is made by
:class:`~repro.cluster.dispatch.Dispatcher`, a state machine that never
touches a socket, a thread or a clock.  This module is what it cannot
be: the listening socket, one receiver thread per worker connection, the
inbox, the journal file, the events submitters block on, and the loop
that feeds the dispatcher one message at a time.

- Each worker connects and keeps that connection for as long as it
  lives; its receiver thread stamps every message with its **receipt
  time** and queues it, so worker death is observed as EOF the moment
  the OS tears the socket down, and a worker that reconnects after a
  coordinator restart re-registers on a fresh connection.
- The dispatch loop hands each queued message to ``Dispatcher.handle``
  with that receipt time, then calls ``Dispatcher.tick(now)``.  Stamping
  and queueing are one atomic step and ``now`` is read under the same
  lock before the inbox is drained, so a tick has seen every heartbeat
  received before its ``now``: a busy dispatcher can never mistake its
  own backlog for a worker's silence.
- :meth:`Coordinator.submit` validates, hands the job over as a
  ``job-start`` message (the ``job-submit`` record to journal, already
  pickled) and blocks on a per-job future — any number of
  threads (the job server's slot runners, ``ClusterRuntime.run_job``
  callers) can submit in parallel and their jobs interleave on the same
  workers.  The dispatcher answers through ``conclude``.
- The dispatcher's ``log`` is this module's journal append.  Constructed
  over a :class:`~repro.cluster.journal.Journal` whose file already
  holds records, the coordinator replays the longest valid prefix into
  the dispatcher; :meth:`resume` then finishes every incomplete job on
  whatever the surviving workers re-advertise.

Telemetry plane: telemetry frames riding on heartbeats and completion
messages are ingested into :attr:`Coordinator.telemetry` directly on the
receiver threads — so spans, events and gauge series keep merging even
while no job is active.  Ingested counters never touch the job counter
path; completion messages remain the only authoritative counter source.
A fresh connection may also open with a ``status`` message instead of
``register``: the coordinator answers with one JSON-able snapshot
(:meth:`Coordinator.status`) and closes — the ``repro top`` wire verb.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Sequence

from repro.core.job import JobSpec, split_input
from repro.core.types import JobResult, Key, Value
from repro.dfs.wire import WireConfig
from repro.engine.recovery import RecoveryConfig
from repro.obs import JobObservability, stage_times
from repro.cluster.dispatch import (
    DEFAULT_LEASE_S,
    PLACEMENTS,
    RETRY_MODES,
    ClusterJobError,
    ClusterTaskError,
    Dispatcher,
    JobPreemptedError,
)
from repro.cluster.journal import Journal, replay_journal
from repro.cluster.quarantine import QuarantineConfig
from repro.cluster.rpc import (
    RpcError,
    close_listener,
    recv_message,
    send_message,
)
from repro.cluster.telemetry import ClusterTelemetry

__all__ = [
    "ClusterJobError",
    "ClusterTaskError",
    "Coordinator",
    "DEFAULT_LEASE_S",
    "JobPreemptedError",
    "RETRY_MODES",
]

#: How long :meth:`Coordinator.shutdown` waits for workers to read their
#: ``shutdown`` message and hang up before it closes the links anyway.
_SHUTDOWN_GRACE_S = 0.5


#: Shutting a socket down before closing it wakes a thread blocked in
#: ``recv`` on it just as it wakes one blocked in ``accept``.
_hang_up = close_listener


class _Link:
    """One worker's control connection and its receiver thread."""

    __slots__ = ("name", "conn", "send_lock", "gen", "alive", "receiver")

    def __init__(self, name: str, conn: socket.socket, gen: int) -> None:
        self.name = name
        self.conn = conn
        self.send_lock = threading.Lock()
        self.gen = gen
        self.alive = True
        self.receiver = threading.current_thread()


class Coordinator:
    """Accepts worker registrations and runs jobs over them.

    Any number of threads may call :meth:`submit` concurrently; their
    jobs multiplex over the same workers, each bounded by its own
    deadline.  All job state lives in the dispatcher and is mutated only
    on the dispatch thread — submitters hand their job over and block.
    """

    def __init__(
        self,
        obs: JobObservability | None = None,
        host: str = "127.0.0.1",
        *,
        port: int = 0,
        journal: "Journal | str | None" = None,
        lease_s: float | None = DEFAULT_LEASE_S,
        shuffle_proxy: Callable[[str, int], tuple[str, int]] | None = None,
        quarantine: QuarantineConfig | None = None,
    ) -> None:
        self.obs = obs if obs is not None else JobObservability()
        if isinstance(journal, str):
            journal = Journal(journal)
        self._journal = journal
        self._lease_s = lease_s
        self._shuffle_proxy = shuffle_proxy
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._links: dict[str, _Link] = {}
        #: Guards ``_links``/``_gen``; notified whenever the dispatcher
        #: has taken note of a registration.
        self._workers_cond = threading.Condition()
        self._gen = 0
        #: ``(received, kind, fields)``; see :meth:`_enqueue`.
        self._inbox: "queue.Queue[tuple[float, str, dict]]" = queue.Queue()
        self._stamp_lock = threading.Lock()
        self._closing = threading.Event()
        self._job_seq = 0
        self._job_seq_lock = threading.Lock()
        #: job_id -> what its not-yet-answered submitter(s) block on.
        self._waiters: dict[str, Future] = {}
        #: Merged worker telemetry (spans, events, series, skew) keyed
        #: by worker name; fed by the receiver threads.
        self.telemetry = ClusterTelemetry(self.obs)
        self._dispatcher = Dispatcher(
            self.obs,
            log=self._log,
            send=self._send,
            conclude=self._conclude,
            lost=self._lost,
            lease_s=lease_s,
            quarantine=quarantine,
        )
        if self._journal is not None:
            self._replay()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="coordinator-accept", daemon=True
        )
        self._accept_thread.start()
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="coordinator-dispatch",
            daemon=True,
        )
        self._dispatch_thread.start()

    # -- what the dispatcher emits -----------------------------------------

    def _log(self, kind: str, fields: dict) -> None:
        if self._journal is None:
            return
        written = self._journal.append(kind, fields)
        self.obs.counters.increment("cluster.journal.records")
        self.obs.counters.increment("cluster.journal.bytes", written)

    def _send(self, worker: str, kind: str, fields: dict) -> None:
        with self._workers_cond:
            link = self._links.get(worker)
        if link is None or not link.alive:
            return
        try:
            with link.send_lock:
                send_message(link.conn, kind, fields)
        except OSError:
            # A link that cannot be written is dead: hang up, so its
            # receiver reports the death to the dispatcher.
            link.alive = False
            _hang_up(link.conn)

    def _conclude(
        self, job_id: str, result: JobResult | None,
        error: ClusterJobError | None,
    ) -> None:
        state = self._dispatcher.job(job_id)
        job_span = state.span if state is not None else None
        if result is not None and job_span is not None:
            # Each committed task's telemetry frame was ingested before
            # its completion message was queued.  Spans that ended
            # before the job span began are a resumed job's earlier run.
            result.stage_times = stage_times([job_span] + [
                span for span in self.telemetry.job_spans(job_id)
                if span.end >= job_span.start
            ])
        if not isinstance(error, JobPreemptedError):
            # A parked job is not over: its spans stay for the resume.
            self.telemetry.job_concluded(
                job_id, state.run_spans if state is not None else []
            )
        waiter = self._waiters.pop(job_id, None)
        if waiter is None:
            return
        if error is not None:
            waiter.set_exception(error)
        else:
            waiter.set_result(result)

    def _lost(self, worker: str, gen: int) -> None:
        # Whatever the dead worker shipped up to its last heartbeat
        # stays, flagged truncated; nothing beyond it is fabricated.
        self.telemetry.mark_truncated(worker)
        with self._workers_cond:
            link = self._links.get(worker)
        if link is not None and link.gen == gen and link.alive:
            link.alive = False
            _hang_up(link.conn)

    def _replay(self) -> None:
        records, stats = replay_journal(self._journal.path)
        self._dispatcher.replay(records)
        recovered = self._dispatcher.recovered()
        if stats.records or stats.torn_bytes:
            self.obs.counters.increment(
                "cluster.journal.replayed", stats.records
            )
            self.obs.counters.increment(
                "cluster.journal.torn_bytes", stats.torn_bytes
            )
            self.obs.events.emit(
                "cluster.journal.replay",
                records=stats.records,
                torn_bytes=stats.torn_bytes,
                jobs=len(recovered),
                incomplete=sum(not done for done in recovered.values()),
            )
        # Never reuse a replayed job id for a fresh submission.
        for job_id in recovered:
            try:
                self._job_seq = max(self._job_seq, int(job_id.rsplit("-", 1)[1]))
            except (IndexError, ValueError):
                pass

    # -- registration and receipt ------------------------------------------

    def _enqueue(self, kind: str, fields: dict) -> None:
        """Stamp a message with its receipt time and queue it, atomically
        with respect to the dispatch loop reading ``now``."""
        with self._stamp_lock:
            self._inbox.put((time.monotonic(), kind, fields))

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_worker, args=(conn,),
                name="coordinator-recv", daemon=True,
            ).start()

    def _serve_worker(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            kind, fields = recv_message(conn)
        except (RpcError, OSError):
            conn.close()
            return
        if kind == "status":
            # One-shot status client (`repro top`): answer and hang up.
            try:
                send_message(conn, "status-reply", {"status": self.status()})
            except (RpcError, OSError):
                pass
            conn.close()
            return
        if kind != "register":
            conn.close()
            return
        name = str(fields["worker"])
        if self._shuffle_proxy is not None:
            # Interpose the chaos proxy: every location broadcast for
            # this worker's outputs points at the proxy, not the worker.
            host, port = self._shuffle_proxy(
                str(fields["shuffle_host"]), int(fields["shuffle_port"])
            )
            fields = {**fields, "shuffle_host": host, "shuffle_port": port}
        with self._workers_cond:
            self._gen += 1
            link = _Link(name, conn, self._gen)
            self._links[name] = link
        self._enqueue("worker-joined", {**fields, "gen": link.gen})
        # Read to EOF even while shutting down: hanging up on a worker
        # that is still writing would answer it with a reset, which can
        # overtake the ``shutdown`` message it has not read yet.
        while True:
            try:
                kind, fields = recv_message(conn)
            except (RpcError, OSError):
                break
            if self._closing.is_set():
                continue
            self.obs.counters.increment("cluster.rpc.messages")
            frame = fields.get("telemetry")
            if isinstance(frame, (bytes, bytearray)):
                # Merged here, on the receiver thread, so telemetry keeps
                # flowing into the status plane between jobs too.
                self.telemetry.ingest(bytes(frame))
            self._enqueue(kind, fields)
        link.alive = False
        conn.close()
        if not self._closing.is_set():
            self._enqueue("worker-dead", {"worker": name, "gen": link.gen})

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers have registered.

        A worker counts once the dispatcher knows it, so a job submitted
        right after this returns is placed on all ``count`` of them.
        Condition-based: returns the moment the Nth registration lands
        rather than on the next poll tick, and raises precisely at
        ``timeout`` otherwise.
        """
        deadline = time.monotonic() + timeout
        with self._workers_cond:
            while self._dispatcher.worker_count() < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterJobError(
                        f"only {self._dispatcher.worker_count()}/{count} "
                        f"workers registered within {timeout}s"
                    )
                self._workers_cond.wait(timeout=remaining)

    # -- the dispatch loop -------------------------------------------------

    def _dispatch_loop(self) -> None:
        """The single thread that runs the dispatcher."""
        while not self._closing.is_set():
            try:
                batch = [self._inbox.get(timeout=0.05)]
            except queue.Empty:
                batch = []
            with self._stamp_lock:
                now = time.monotonic()
                backlog = self._inbox.qsize()
            # Exactly the messages received before ``now``: this thread
            # is the only consumer, so none of the gets can come up empty.
            batch += [self._inbox.get_nowait() for _ in range(backlog)]
            for received, kind, fields in batch:
                self._dispatcher.handle(received, kind, fields)
                if kind == "worker-joined":
                    with self._workers_cond:
                        self._workers_cond.notify_all()
            self._dispatcher.tick(now)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        job: JobSpec,
        pairs: Sequence[tuple[Key, Value]],
        num_maps: int = 4,
        *,
        wire: WireConfig,
        recovery: RecoveryConfig,
        checkpoint_root: str | None = None,
        kill: dict | None = None,
        placement: str = "spread",
        deadline_s: float = 60.0,
        job_id: str | None = None,
        task_retries: int = 0,
        retry_mode: str = "fail_fast",
    ) -> JobResult:
        """Run one job to completion; raises :class:`ClusterJobError`.

        Safe to call from many threads at once — each call blocks until
        *its* job finishes while the dispatcher multiplexes all of them
        over the shared workers.  ``checkpoint_root`` is a *base*
        directory: the job's snapshots land in a ``<job_id>/`` subtree,
        so concurrent jobs can never read each other's checkpoints.
        ``job_id`` lets a caller (the job server) pin its own stable
        identifier so it can later :meth:`preempt` / :meth:`resume_job`
        the job; ``retry_mode``/``task_retries`` pick the task-failure
        policy (see :data:`RETRY_MODES`).  A preempted submission
        raises :class:`JobPreemptedError` — park, not failure.
        """
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        if retry_mode not in RETRY_MODES:
            raise ValueError(
                f"unknown retry mode {retry_mode!r} (choose from {RETRY_MODES})"
            )
        job.validate()
        with self._workers_cond:
            if not any(link.alive for link in self._links.values()):
                raise ClusterJobError("no live workers")
        with self._job_seq_lock:
            self._job_seq += 1
            if job_id is None:
                job_id = f"job-{self._job_seq}"
        if job_id in self._waiters or self._dispatcher.job(job_id) is not None:
            raise ClusterJobError(f"duplicate job id {job_id!r}")
        if checkpoint_root is not None:
            checkpoint_root = os.path.join(checkpoint_root, job_id)
            os.makedirs(checkpoint_root, exist_ok=True)
        waiter = self._request(
            "job-start",
            {
                "job_id": job_id,
                "job": pickle.dumps(job),
                # One pickle per split, forwarded as is in assign-map.
                "splits": [
                    pickle.dumps(split) for split in split_input(pairs, num_maps)
                ],
                "wire": pickle.dumps(wire),
                "recovery": pickle.dumps(recovery),
                "checkpoint_root": checkpoint_root or "",
                "placement": placement,
                "deadline_s": float(deadline_s),
                "task_retries": int(task_retries),
                "retry_mode": retry_mode,
                "kill": kill,
            },
        )
        return self._await(job_id, waiter)

    def preempt(self, job_id: str) -> None:
        """Ask the dispatcher to checkpoint-park one running job.

        Asynchronous and idempotent: the request is journaled
        write-ahead, every uncommitted reduce attempt is asked to stop
        at its next wire-batch boundary, and once all of them ack the
        job parks — its submitter's blocked :meth:`submit` call raises
        :class:`JobPreemptedError`.  Unknown, finished or
        already-parking jobs are a no-op.
        """
        self._enqueue("preempt-job", {"job_id": job_id})

    def resume_job(self, job_id: str) -> JobResult:
        """Continue a checkpoint-parked job to completion; blocks.

        Held map outputs are reused via fresh location broadcasts;
        uncommitted reduces are re-granted at the next attempt number
        and restore from the checkpoints their preempted predecessors
        cut, replaying only the un-consumed tail of each stream.
        """
        state = self._dispatcher.job(job_id)
        if state is None or not state.begun:
            raise ClusterJobError(f"unknown job {job_id!r}")
        if state.done and state.result is not None:
            return state.result
        if not state.parked:
            raise ClusterJobError(f"{job_id} is not parked")
        return self._await(
            job_id, self._request("job-resume", {"job_id": job_id})
        )

    def resume(self) -> dict[str, JobResult]:
        """Finish every journal-recovered job that never committed.

        Callers should :meth:`wait_for_workers` first so the surviving
        workers' re-registrations (with their held outputs and active
        attempts) are on the books before placement decisions are made.
        Incomplete jobs are started together and finish concurrently.
        """
        pending = {
            job_id: self._request("job-recover", {"job_id": job_id})
            for job_id, done in self._dispatcher.recovered().items()
            if not done
        }
        return {
            job_id: self._await(job_id, waiter)
            for job_id, waiter in pending.items()
        }

    def _request(self, kind: str, fields: dict) -> Future:
        """Queue a job request; :meth:`_await` blocks for its answer.

        Requests for one job share one future, so two callers resuming
        the same parked job both get its result.
        """
        waiter = self._waiters.setdefault(fields["job_id"], Future())
        self._enqueue(kind, fields)
        return waiter

    def _await(self, job_id: str, waiter: Future) -> JobResult:
        """Block the submitting thread until the dispatcher concludes."""
        while True:
            try:
                return waiter.result(timeout=0.2)
            except TimeoutError:
                if self._closing.is_set():
                    raise ClusterJobError(
                        f"coordinator shut down while {job_id} ran"
                    ) from None

    # -- live status -------------------------------------------------------

    def status(self) -> dict:
        """One JSON-able snapshot of the whole cluster, for ``repro top``.

        Composes control-plane state (workers, leases, per-job progress)
        with the merged telemetry's per-worker gauges and series tails.
        Everything in it is typed-codec- and JSON-serialisable, so the
        same dict answers the RPC ``status`` verb and lands in
        ``repro cluster --status-json`` dumps unchanged.
        """
        control = self._dispatcher.status(time.monotonic())
        telemetry = self.telemetry.status_snapshot()
        workers = control["workers"]
        for name, entry in workers.items():
            entry.update(telemetry.get(name, {"pid": entry["pid"]}))
        # Telemetry may know workers the control plane has dropped.
        for name, entry in telemetry.items():
            workers.setdefault(name, {"alive": False, **entry})
        return {
            "wall": time.time(),
            "coordinator": {
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "lease_s": float(self._lease_s or 0.0),
                "active_jobs": control["active_jobs"],
                "parked_jobs": control["parked_jobs"],
                "quarantined_workers": control["quarantined_workers"],
                "counters": self.obs.counters.as_dict(),
            },
            "workers": workers,
            "jobs": control["jobs"],
        }

    # -- shutdown ----------------------------------------------------------

    def shutdown(self) -> None:
        self._closing.set()
        # Unblock every submitter still waiting on an in-flight job.
        for job_id in list(self._waiters):
            self._conclude(
                job_id, None,
                ClusterJobError(f"coordinator shut down while {job_id} ran"),
            )
        close_listener(self._listener)
        with self._workers_cond:
            links = list(self._links.values())
        # Say goodbye and half-close: the worker reads ``shutdown`` and
        # hangs up, its receiver thread sees the EOF and closes our end.
        # Closing first would reset a link with a heartbeat in flight.
        for link in links:
            self._send(link.name, "shutdown", {})
            try:
                link.conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for link in links:
            link.receiver.join(max(0.0, deadline - time.monotonic()))
            _hang_up(link.conn)
        if self._journal is not None:
            self._journal.close()

"""The long-running multi-tenant job server.

:class:`JobServer` is the live twin of the simulator's JobTracker
(``sim/hadoop.py``): a single process that accepts job submissions from
many tenants, queues them through the clock-free
:class:`~repro.server.kernel.SchedulerKernel`, and multiplexes granted
jobs over a shared execution backend — either per-job
:class:`~repro.engine.threaded.ThreadedEngine` instances (``threaded``,
the default: in-process, byte-identical to a serial run) or one shared
:class:`~repro.cluster.engine.ClusterRuntime` whose coordinator
interleaves every granted job across the same worker pool
(``cluster``).

Jobs are named applications (the ``repro.apps.demo`` registry) with a
deterministic seed, not pickled closures — so a submission is a small,
typed, codec-friendly dict, identical over the in-process API, the
framed-RPC plane and the HTTP shim, and two runs of the same submission
are byte-comparable.

Threading model: submitter threads (RPC handlers, HTTP handlers,
direct callers) only talk to the kernel and the record table; one
*dispatch thread* turns kernel grants into slot-runner threads; each
slot runner executes exactly one job on the backend, then releases its
slot and wakes the dispatcher.  A condition variable ties the three
together — no polling loops.

Everything observable lands in the server's
:class:`~repro.obs.JobObservability` under ``server.*`` counters —
global (``server.jobs.submitted`` …) and per-tenant
(``server.tenant.<name>.granted`` …) — which the status plane folds
into the same snapshot shape ``repro top`` renders, growing a per-
tenant lane next to the cluster's worker lane.

Preemption (PR 10, cluster backend only): when the fair-share policy
finds a backlogged tenant starved of its entitlement while the pool is
full, the dispatcher asks the coordinator to checkpoint-park the most
over-share tenant's youngest running job.  The parked record goes to
state ``preempted`` — not terminal: its slot returns to the kernel (the
ticket requeues at the *head* of its tenant's backlog, keeping its
seniority) and the next grant resumes the cluster job from its reduce
checkpoints, replaying only the un-consumed tail of each fetch stream.
The threaded backend cannot stop a running engine mid-fold, so it never
preempts.  :meth:`JobServer.drain` rides the same machinery for
graceful shutdown: queued jobs are cancelled, running jobs are
checkpoint-parked, and new submissions bounce with a typed
:class:`BackpressureError` until :meth:`JobServer.close`.
"""

from __future__ import annotations

import hashlib
import pickle
import socket
import threading
import time

from repro.apps.demo import APP_CHOICES, demo_job_and_input, normalized_output
from repro.core.types import ExecutionMode, JobResult
from repro.obs import JobObservability
from repro.cluster.coordinator import JobPreemptedError
from repro.cluster.rpc import RpcError, recv_message, send_message
from repro.server.kernel import (
    AdmissionConfig,
    BackpressureError,
    SchedulerKernel,
    TenantConfig,
)
from repro.server.policy import Ticket

__all__ = ["BACKENDS", "JobRecord", "JobServer"]

BACKENDS = ("threaded", "cluster")

#: Terminal job states; everything else is still in flight.  A
#: ``preempted`` record is *not* terminal — it is parked between grants
#: and re-enters ``running`` when the kernel re-grants its ticket.
_TERMINAL = ("done", "failed", "cancelled")


class JobRecord:
    """One submission's full lifecycle, from admission to output.

    ``state`` walks ``queued → running → done|failed`` (or straight to
    ``cancelled`` from the queue; through ``preempted`` and back to
    ``running`` any number of times on the cluster backend).  ``digest``
    is the SHA-256 of the pickled *normalised* output — the value
    differential tests and the RPC status verb compare, because two
    byte-identical runs must agree on it while raw ``JobResult`` objects
    carry timings that never match.
    """

    def __init__(self, job_id: str, tenant: str, spec: dict) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.spec = spec
        #: Materialised job + input, held only until the run finishes.
        #: A *preempted* record keeps both — the resume needs them if
        #: the cluster ever forgot the job, and the record is still in
        #: flight.
        self.job = None
        self.pairs = None
        self.state = "queued"
        self.error: str | None = None
        self.digest: str | None = None
        #: Chaos kill-spec forwarded to the cluster backend (tests).
        self.chaos: dict | None = None
        #: Stable id the cluster coordinator knows this job by; pinned
        #: on first execution so preempt/resume target the same job.
        self.cluster_job_id: str | None = None
        #: How many times this record was checkpoint-parked.
        self.preempted = 0
        self.submitted_at = time.monotonic()
        self.finished_at: float | None = None
        self.done = threading.Event()

    def summary(self) -> dict:
        """JSON-able record for list/status replies."""
        entry = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "app": self.spec["app"],
            "mode": self.spec["mode"],
            "records": self.spec["records"],
            "state": self.state,
        }
        if self.preempted:
            entry["preempted"] = self.preempted
        if self.error is not None:
            entry["error"] = self.error
        if self.digest is not None:
            entry["digest"] = self.digest
        if self.finished_at is not None:
            entry["elapsed_s"] = round(
                self.finished_at - self.submitted_at, 4
            )
        return entry


class JobServer:
    """Accepts, schedules and runs jobs for many tenants; see module doc."""

    def __init__(
        self,
        backend: str = "threaded",
        *,
        slots: int = 4,
        policy: str = "fair",
        tenants: "dict[str, TenantConfig] | dict[str, float] | None" = None,
        admission: AdmissionConfig | None = None,
        workers: int = 2,
        obs: JobObservability | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        job_deadline_s: float = 60.0,
        recovery=None,
        task_retries: int = 0,
        retry_mode: str = "fail_fast",
        quarantine=None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {BACKENDS})"
            )
        self.backend = backend
        self.obs = obs if obs is not None else JobObservability()
        tenant_configs: dict[str, TenantConfig] = {}
        for name, value in (tenants or {}).items():
            tenant_configs[name] = (
                value
                if isinstance(value, TenantConfig)
                else TenantConfig(weight=float(value))
            )
        self._kernel = SchedulerKernel(
            slots=slots,
            policy=policy,
            tenants=tenant_configs,
            admission=admission,
        )
        self._job_deadline_s = job_deadline_s
        self._records: dict[str, JobRecord] = {}
        self._jobs_lock = threading.Lock()
        self._job_seq = 0
        self._wake = threading.Condition()
        #: Set under ``_wake`` whenever scheduler inputs changed, so a
        #: notify that lands while the dispatcher is granting (not yet
        #: waiting) is never lost to a 0.5s timeout.
        self._pending = False
        self._closing = threading.Event()
        #: Set by :meth:`drain`: submissions bounce, grants stop, and
        #: running jobs are checkpoint-parked.
        self._draining = threading.Event()
        self._runtime = None
        if backend == "cluster":
            # One shared cluster: the coordinator multiplexes every
            # granted job over the same forked workers (PR 9's
            # concurrent-submit path), so slots here bound how many
            # jobs hold cluster capacity at once.
            from repro.cluster.engine import ClusterRuntime

            self._runtime = ClusterRuntime(
                workers,
                obs=self.obs,
                deadline_s=job_deadline_s,
                recovery=recovery,
                task_retries=task_retries,
                retry_mode=retry_mode,
                quarantine=quarantine,
            )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="server-accept", daemon=True
        )
        self._accept_thread.start()
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="server-dispatch", daemon=True
        )
        self._dispatch_thread.start()
        self._http_server = None

    # -- submission (in-process API) ---------------------------------------

    def submit(
        self,
        tenant: str,
        app: str,
        *,
        mode: str = "barrierless",
        records: int = 200,
        num_maps: int = 2,
        num_reducers: int = 2,
        seed: int = 0,
        deadline_s: float | None = None,
        chaos: dict | None = None,
    ) -> str:
        """Admit one job; returns its id or raises BackpressureError.

        The job's input is generated *now* (deterministic from the
        seed) so admission control can gate on its real pickled size —
        queued bytes, not job count, is the scarce resource once
        barrier-less reduce slots hold partial state for long periods.
        ``chaos`` is a worker kill-spec forwarded verbatim to the
        cluster backend (fault-injection tests only).
        """
        if self._draining.is_set():
            self.obs.counters.increment("server.jobs.rejected")
            self.obs.counters.increment(f"server.tenant.{tenant}.rejected")
            raise BackpressureError("server draining", 1.0)
        if app not in APP_CHOICES:
            raise ValueError(f"unknown app {app!r} (choose from {APP_CHOICES})")
        execution_mode = ExecutionMode(mode)
        job, pairs = demo_job_and_input(
            app,
            execution_mode,
            records=records,
            num_reducers=num_reducers,
            num_maps=num_maps,
            seed=seed,
        )
        input_bytes = len(pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL))
        with self._jobs_lock:
            self._job_seq += 1
            job_id = f"s-{self._job_seq}"
        spec = {
            "app": app,
            "mode": mode,
            "records": records,
            "num_maps": num_maps,
            "num_reducers": num_reducers,
            "seed": seed,
        }
        record = JobRecord(job_id, tenant, spec)
        record.job = job
        record.pairs = pairs
        record.chaos = chaos
        # Register the record *before* the kernel can queue (and the
        # dispatcher grant) the ticket — _run_ticket must never race a
        # grant against an unregistered job_id and drop it.
        with self._jobs_lock:
            self._records[job_id] = record
        try:
            self._kernel.submit(
                tenant,
                job_id,
                input_bytes=input_bytes,
                deadline=(
                    time.monotonic() + deadline_s
                    if deadline_s is not None
                    else None
                ),
            )
        except BackpressureError:
            with self._jobs_lock:
                self._records.pop(job_id, None)
            self.obs.counters.increment("server.jobs.rejected")
            self.obs.counters.increment(f"server.tenant.{tenant}.rejected")
            raise
        self.obs.counters.increment("server.jobs.submitted")
        self.obs.counters.increment("server.bytes.admitted", input_bytes)
        self.obs.counters.increment(f"server.tenant.{tenant}.submitted")
        with self._wake:
            self._pending = True
            self._wake.notify_all()
        return job_id

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until the job reaches a terminal state."""
        record = self._record(job_id)
        if not record.done.wait(timeout=timeout):
            raise TimeoutError(
                f"{job_id} still {record.state} after {timeout}s"
            )
        return record

    def cancel(self, job_id: str) -> str:
        """Cancel a queued job; idempotent, never interrupts a runner."""
        record = self._record(job_id)
        state = self._kernel.cancel(job_id)
        if state == "cancelled":
            record.state = "cancelled"
            record.finished_at = time.monotonic()
            record.done.set()
            self.obs.counters.increment("server.jobs.cancelled")
            self.obs.counters.increment(
                f"server.tenant.{record.tenant}.cancelled"
            )
        return record.state

    def jobs(self, tenant: str | None = None) -> list[dict]:
        """Summaries of every known job, newest last."""
        with self._jobs_lock:
            records = list(self._records.values())
        return [
            record.summary()
            for record in records
            if tenant is None or record.tenant == tenant
        ]

    def _record(self, job_id: str) -> JobRecord:
        with self._jobs_lock:
            record = self._records.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        return record

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._closing.is_set():
            # While draining, no new grants: a just-parked ticket sits
            # at the head of its backlog and must not bounce straight
            # back onto a slot the drain is trying to empty.
            granted = (
                [] if self._draining.is_set() else self._kernel.next_grants()
            )
            for ticket in granted:
                threading.Thread(
                    target=self._run_ticket,
                    args=(ticket,),
                    name=f"server-slot-{ticket.job_id}",
                    daemon=True,
                ).start()
            if self._runtime is not None and not self._draining.is_set():
                self._maybe_preempt()
            with self._wake:
                if (
                    not granted
                    and not self._pending
                    and not self._closing.is_set()
                ):
                    self._wake.wait(timeout=0.5)
                self._pending = False

    def _maybe_preempt(self) -> None:
        """Fair-share preemption, cluster backend only.

        The kernel decides *who* (policy: most over-share tenant's
        youngest running job); the coordinator executes *how*
        (checkpoint at the next wire-batch boundary).  The threaded
        backend never reaches here — an in-process engine cannot be
        stopped mid-fold, so the kernel is never asked.
        """
        for ticket in self._kernel.next_preemptions():
            record = self._record(ticket.job_id)
            self.obs.counters.increment("server.preempt.requested")
            self.obs.counters.increment(
                f"server.tenant.{ticket.tenant}.preempted"
            )
            self._runtime.preempt_job(
                record.cluster_job_id or f"srv-{record.job_id}"
            )

    def _run_ticket(self, ticket: Ticket) -> None:
        try:
            record = self._record(ticket.job_id)
        except KeyError:
            self._kernel.release(ticket.job_id)
            return
        resumed = record.state == "preempted"
        record.state = "running"
        self.obs.counters.increment("server.grants")
        self.obs.counters.increment(f"server.tenant.{ticket.tenant}.granted")
        if resumed:
            self.obs.counters.increment("server.preempt.resumed")
        terminal = True
        try:
            result = self._execute(record, resumed)
            record.digest = output_digest(record.spec["app"], result)
            record.state = "done"
            self.obs.counters.increment("server.jobs.completed")
            self.obs.counters.increment(
                f"server.tenant.{ticket.tenant}.completed"
            )
        except JobPreemptedError:
            # Parked, not failed: the coordinator holds the job's map
            # outputs and reduce checkpoints; the kernel requeues the
            # ticket at the head of its tenant's backlog, and the next
            # grant resumes it.
            terminal = False
            record.state = "preempted"
            record.preempted += 1
            self.obs.counters.increment("server.preempt.completed")
        except Exception as exc:  # noqa: BLE001 — recorded, not swallowed
            record.error = f"{type(exc).__name__}: {exc}"
            record.state = "failed"
            self.obs.counters.increment("server.jobs.failed")
            self.obs.counters.increment(
                f"server.tenant.{ticket.tenant}.failed"
            )
        finally:
            if terminal:
                record.finished_at = time.monotonic()
                # Drop the input: a drained soak must not hold 300
                # jobs' pairs alive for the life of the server.
                record.pairs = None
                record.job = None
                record.done.set()
                self._kernel.release(ticket.job_id)
            else:
                self._kernel.confirm_preempt(ticket.job_id)
            with self._wake:
                self._pending = True
                self._wake.notify_all()

    def _execute(self, record: JobRecord, resumed: bool = False) -> JobResult:
        if self._runtime is not None:
            cluster_id = record.cluster_job_id or f"srv-{record.job_id}"
            record.cluster_job_id = cluster_id
            if resumed:
                return self._runtime.resume_job(cluster_id)
            return self._runtime.run_job(
                record.job,
                record.pairs,
                record.spec["num_maps"],
                kill=record.chaos,
                job_id=cluster_id,
            )
        # Threaded backend: a fresh engine per job, with its own obs so
        # concurrent jobs never interleave counters — exactly what a
        # serial differential run constructs, hence byte-identical.
        from repro.engine.threaded import ThreadedEngine

        engine = ThreadedEngine(obs=JobObservability())
        return engine.run(record.job, record.pairs, record.spec["num_maps"])

    # -- RPC plane ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_client,
                args=(conn,),
                name="server-rpc",
                daemon=True,
            ).start()

    def _serve_client(self, conn: socket.socket) -> None:
        """One request, one reply, hang up — every verb is stateless."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            kind, fields = recv_message(conn)
            reply_kind, reply = self._handle_verb(kind, fields)
            send_message(conn, reply_kind, reply)
        except (RpcError, OSError):
            pass
        finally:
            conn.close()

    def _handle_verb(self, kind: str, fields: dict) -> tuple[str, dict]:
        if kind == "submit":
            try:
                job_id = self.submit(
                    str(fields["tenant"]),
                    str(fields["app"]),
                    mode=str(fields.get("mode", "barrierless")),
                    records=int(fields.get("records", 200)),
                    num_maps=int(fields.get("num_maps", 2)),
                    num_reducers=int(fields.get("num_reducers", 2)),
                    seed=int(fields.get("seed", 0)),
                    deadline_s=(
                        float(fields["deadline_s"])
                        if "deadline_s" in fields
                        else None
                    ),
                )
            except BackpressureError as exc:
                # The typed backpressure reply: machine-readable reason
                # plus the retry hint, so clients can back off instead
                # of guessing from a generic failure.
                return "submit-reply", {
                    "ok": False,
                    "error": exc.reason,
                    "retry_after_s": float(exc.retry_after_s),
                }
            except (KeyError, ValueError) as exc:
                return "submit-reply", {"ok": False, "error": str(exc)}
            return "submit-reply", {"ok": True, "job_id": job_id}
        if kind == "job-status":
            try:
                record = self._record(str(fields["job_id"]))
            except KeyError as exc:
                return "job-status-reply", {"ok": False, "error": str(exc)}
            return "job-status-reply", {"ok": True, "job": record.summary()}
        if kind == "cancel":
            try:
                state = self.cancel(str(fields["job_id"]))
            except KeyError as exc:
                return "cancel-reply", {"ok": False, "error": str(exc)}
            return "cancel-reply", {"ok": True, "state": state}
        if kind == "list-jobs":
            tenant = fields.get("tenant")
            return "list-jobs-reply", {
                "jobs": self.jobs(str(tenant) if tenant else None)
            }
        if kind == "status":
            return "status-reply", {"status": self.status()}
        raise RpcError(f"unsupported server verb {kind!r}")

    # -- status plane ------------------------------------------------------

    def status(self) -> dict:
        """One JSON-able snapshot, shaped for ``repro top``.

        Carries the scheduler lane (``server``/``tenants``) alongside
        whatever the backend knows: with the cluster backend the
        coordinator's own snapshot (workers, leases, per-job task
        progress) is merged in, so one ``repro top`` against the server
        port shows tenants, jobs and workers together.
        """
        snapshot = self._kernel.snapshot()
        with self._jobs_lock:
            records = list(self._records.values())
        per_tenant = snapshot.pop("tenants")
        counters = self.obs.counters.as_dict()
        for record in records:
            lane = per_tenant.setdefault(
                record.tenant, {"weight": 1.0, "queued": 0, "running": 0}
            )
            # The kernel snapshot already carries queued/running depths;
            # records only add the terminal states the kernel forgets.
            if record.state in _TERMINAL:
                lane[record.state] = lane.get(record.state, 0) + 1
        for tenant, lane in per_tenant.items():
            for name in (
                "submitted", "granted", "completed", "rejected", "preempted",
            ):
                lane[name] = counters.get(f"server.tenant.{tenant}.{name}", 0)
        status: dict = {
            "wall": time.time(),
            "server": {
                "host": self.host,
                "port": self.port,
                "backend": self.backend,
                "draining": self._draining.is_set(),
                **snapshot,
                "jobs_total": len(records),
                "counters": {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("server.")
                    and not name.startswith("server.tenant.")
                },
            },
            "tenants": dict(sorted(per_tenant.items())),
            "jobs": {
                record.job_id: record.summary()
                for record in records
                if record.state not in _TERMINAL
            },
        }
        if self._runtime is not None:
            cluster = self._runtime.status()
            status["coordinator"] = cluster.get("coordinator", {})
            status["workers"] = cluster.get("workers", {})
        return status

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start_http(self, host: str = "127.0.0.1", port: int = 0):
        """Start the line-JSON HTTP shim; returns its ``(host, port)``."""
        from repro.server.http import make_http_server

        if self._http_server is None:
            self._http_server = make_http_server(self, host, port)
        return self._http_server.server_address

    def drain(self, timeout_s: float = 10.0) -> dict:
        """Graceful shutdown, phase one: park the work, keep the state.

        Flips the server into draining mode (new submissions bounce
        with a typed ``server draining`` :class:`BackpressureError`,
        the dispatcher stops granting), cancels every queued job, asks
        the cluster backend to checkpoint-park every running job, and
        waits up to ``timeout_s`` for the running set to empty.
        Returns a summary dict; idempotent.  :meth:`close` finishes the
        job — drain leaves the sockets up so in-flight status queries
        keep answering.
        """
        self._draining.set()
        with self._wake:
            self._pending = True
            self._wake.notify_all()
        with self._jobs_lock:
            records = list(self._records.values())
        cancelled = 0
        for record in records:
            if record.state == "queued":
                if self.cancel(record.job_id) == "cancelled":
                    cancelled += 1
        preempted = 0
        if self._runtime is not None:
            for record in records:
                if record.state == "running":
                    self.obs.counters.increment("server.preempt.requested")
                    self.obs.counters.increment(
                        f"server.tenant.{record.tenant}.preempted"
                    )
                    self._runtime.preempt_job(
                        record.cluster_job_id or f"srv-{record.job_id}"
                    )
                    preempted += 1
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not any(r.state == "running" for r in records):
                break
            time.sleep(0.02)
        running = sum(1 for r in records if r.state == "running")
        parked = sum(1 for r in records if r.state == "preempted")
        return {
            "cancelled": cancelled,
            "preempt_requested": preempted,
            "parked": parked,
            "still_running": running,
        }

    def close(self) -> None:
        """Stop accepting, fail queued jobs, tear down the backend."""
        self._closing.set()
        with self._wake:
            self._wake.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._http_server is not None:
            self._http_server.shutdown()
            self._http_server.server_close()
            self._http_server = None
        # Unblock every waiter, not just the queued ones: a caller
        # blocked in wait() on a *running* or *preempted* job would
        # otherwise hang until its timeout after the backend (and the
        # job with it) is torn down.
        with self._jobs_lock:
            records = list(self._records.values())
        for record in records:
            if record.done.is_set():
                continue
            if record.state == "queued":
                record.state = "cancelled"
            else:
                record.state = "failed"
                record.error = "server closed while job was running"
            record.finished_at = time.monotonic()
            record.done.set()
        if self._runtime is not None:
            self._runtime.shutdown()
            self._runtime = None

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def output_digest(app: str, result: JobResult) -> str:
    """SHA-256 of the app's normalised output — the comparison currency.

    Stable across engines and concurrency orders for byte-identical
    outputs, and cheap to ship over the status verb (64 hex chars
    instead of the output itself).
    """
    payload = pickle.dumps(
        normalized_output(app, result), protocol=pickle.HIGHEST_PROTOCOL
    )
    return hashlib.sha256(payload).hexdigest()

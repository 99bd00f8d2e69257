"""The worker core: every decision a cluster worker makes, and nothing else.

:class:`WorkerCore` is the worker's side of the control protocol with the
sockets, threads and ``os.kill`` taken out — the twin of
:class:`~repro.cluster.dispatch.Dispatcher`.  One *step* runs to
completion: ``handle`` delivers one coordinator message, ``connected`` /
``disconnected`` report the link, ``task_finished`` an executor's
outcome, ``served`` the shuffle server's batch count, ``tick`` the beat
timer.  What a step decides leaves through the :class:`WorkerShell` the
core was built over.  It has no lock: the shell serialises every call.

The core owns the job table, each job's table of running reduce
attempts, the must-deliver queue and the kill spec; it holds identifiers,
counts and the reports it still owes, never a job spec, a ledger or a
socket.  Its three rules — *register first* (:meth:`WorkerCore.connected`),
*attempt-matched* (``_Job.active``) and the kill-spec table — are spelled
out in docs/cluster.md, "Worker core and shell".
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

__all__ = ["Outcome", "WorkerCore", "WorkerShell", "done", "failed", "preempted"]

#: How a task attempt ended: ``(status, fields)``, status ``ok`` /
#: ``preempted`` / ``failed``, the fields being what its report carries
#: beyond the task's identity, in wire order.
Outcome = tuple[str, dict]


def done(**results) -> Outcome:
    """The attempt completed: ``counters`` (map), ``output, counters`` (reduce)."""
    return "ok", results


def preempted(records: int) -> Outcome:
    """The attempt stopped at a batch boundary after folding ``records``."""
    return "preempted", {"records": records}


def failed(error: str) -> Outcome:
    return "failed", {"error": error}


class WorkerShell(Protocol):
    """What the core needs done for it; ``worker.py`` is the real one."""

    def send(self, kind: str, fields: dict) -> bool:
        """Put one message on the control link; False if it did not go."""

    def open_job(self, job_id: str, fields: dict) -> None:
        """Build the job's context from its ``job`` message."""

    def close_job(self, job_id: str) -> bytes | None:
        """Release the context and held outputs; a last telemetry frame."""

    def start_map(
        self, job_id: str, mapper: int, epoch: int, grant: dict, fail: bool
    ) -> None:
        """Run the granted map task; ``fail`` makes it raise instead."""

    def start_reduce(
        self, job_id: str, reducer: int, attempt: int, grant: dict, fail: bool,
        inject: tuple[str, float] | None,
    ) -> None:
        """Run the granted reduce attempt, under ``inject``: ``("kill", n)``
        (die once n records are folded), ``("delay", s)`` (sleep s per
        record folded) or None."""

    def stop_reduce(self, job_id: str, reducer: int, attempt: int) -> None:
        """Ask a running attempt to stop at its next batch boundary."""

    def locate(
        self, job_id: str, mapper: int, host: str, port: int, epoch: int
    ) -> None:
        """A map output's current address."""

    def beat(self, job_id: str, active: dict[int, int]) -> tuple[dict, bytes | None]:
        """What a heartbeat carries: ``{reducer: {mapper: records folded}}``
        for the ``{reducer: attempt}`` running, and the job's telemetry
        delta since the last one (None when off)."""

    def rollback(self, job_id: str) -> None:
        """The last :meth:`beat`'s telemetry never left: take it back."""

    def die(self) -> None:
        """SIGKILL this process.  Does not return outside tests."""


class _Job:
    """What the core remembers of one job it takes part in."""

    __slots__ = ("kill", "active", "fail_tasks_left", "map_dones")

    def __init__(self, kill: dict) -> None:
        #: The job's kill spec if this worker is its victim, else empty.
        self.kill = kill
        #: reducer -> newest attempt granted here and not yet finished:
        #: advertised at registration, reported on in heartbeats, the
        #: only thing ``preempt-reduce`` can stop.
        self.active: dict[int, int] = {}
        self.fail_tasks_left = 0
        self.map_dones = 0


class WorkerCore:
    """One worker's protocol state, one step at a time."""

    def __init__(
        self, name: str, pid: int, shuffle_host: str, shuffle_port: int,
        shell: WorkerShell,
    ) -> None:
        self.name = name
        self._identity = {
            "worker": name, "pid": pid,
            "shuffle_host": shuffle_host, "shuffle_port": shuffle_port,
        }
        self._shell = shell
        self._jobs: dict[str, _Job] = {}
        self._linked = False
        #: Reports the coordinator must get and has not: sent FIFO behind
        #: the next ``register``.
        self._pending: deque[tuple[str, dict]] = deque()
        self._kill_serves = float("inf")
        #: Set by ``shutdown``: the shell stops serving.
        self.stopped = False

    # -- the link ----------------------------------------------------------

    def connected(self, held: list) -> bool:
        """A fresh link is up.  True once ``register`` and every queued
        report went out on it; False if it broke before that."""
        self._linked = True
        self._transmit(
            "register",
            {
                **self._identity,
                "held": held,
                "active": sorted(
                    (job_id, reducer, attempt)
                    for job_id, job in self._jobs.items()
                    for reducer, attempt in job.active.items()
                ),
            },
        )
        while self._pending and self._transmit(*self._pending[0]):
            self._pending.popleft()
        return self._linked

    def disconnected(self) -> None:
        self._linked = False

    def _transmit(self, kind: str, fields: dict) -> bool:
        if self._linked and not self._shell.send(kind, fields):
            self._linked = False
        return self._linked

    def _beat(self, job_id: str, progress: dict, frame: bytes | None) -> bool:
        """Heartbeats are stale the moment the next one fires: never queued."""
        beat = {"worker": self.name, "job_id": job_id, "progress": progress}
        if frame is not None:
            beat["telemetry"] = frame
        return self._transmit("heartbeat", beat)

    def _report(
        self, job_id: str, kind: str, index: int, attempt: int,
        outcome: Outcome,
    ) -> None:
        """Tell the coordinator how a task ended, now or after reconnecting.
        A map's attempt number is its epoch; its failures go out, as every
        map's trace context does, with attempt 0."""
        status, fields = outcome
        if status == "failed":
            report = "task-failed"
            task = {
                "kind": kind, "index": index,
                "attempt": attempt if kind == "reduce" else 0,
            }
        elif kind == "map":
            report, task = "map-done", {"mapper": index, "epoch": attempt}
        else:
            report = "reduce-done" if status == "ok" else "reduce-preempted"
            task = {"reducer": index, "attempt": attempt}
        message = {"job_id": job_id, **task, "worker": self.name, **fields}
        if not self._transmit(report, message):
            self._pending.append((report, message))

    # -- steps -------------------------------------------------------------

    def handle(self, now: float, kind: str, fields: dict) -> None:
        """Deliver one coordinator message received at ``now`` (unused: no
        rule here times out yet; taken so one harness steps dispatcher and
        workers alike)."""
        if kind == "shutdown":
            self.stopped = True
            return
        job_id = str(fields.get("job_id", ""))
        if kind == "job":
            if job_id not in self._jobs:  # else a re-sync: the context survives
                self._shell.open_job(job_id, fields)
                self._jobs[job_id] = self._arm(fields.get("kill") or {})
            return
        job = self._jobs.get(job_id)
        if job is None:
            return  # stale message for a finished job
        if kind == "assign-map":
            self._shell.start_map(
                job_id, int(fields["mapper"]), int(fields["epoch"]), fields,
                self._fail_next(job),
            )
        elif kind == "assign-reduce":
            reducer, attempt = int(fields["reducer"]), int(fields["attempt"])
            job.active[reducer] = attempt
            self._shell.start_reduce(
                job_id, reducer, attempt, fields, self._fail_next(job),
                _inject_spec(job.kill),
            )
        elif kind == "preempt-reduce":
            reducer, attempt = int(fields["reducer"]), int(fields["attempt"])
            if job.kill.get("trigger") == "preempt-kill":
                self._shell.die()
                return
            running = job.active.get(reducer)
            if running == attempt:
                self._shell.stop_reduce(job_id, reducer, attempt)
            elif running is None:
                # Already finished, or never started here: ack at once so
                # the coordinator's park never waits on a ghost attempt.
                self._report(job_id, "reduce", reducer, attempt, preempted(0))
        elif kind == "location":
            self._shell.locate(
                job_id, int(fields["mapper"]), str(fields["host"]),
                int(fields["port"]), int(fields["epoch"]),
            )
        elif kind == "job-done":
            del self._jobs[job_id]
            frame = self._shell.close_job(job_id)
            if frame is not None:
                self._beat(job_id, {}, frame)

    def task_finished(
        self, job_id: str, kind: str, index: int, attempt: int,
        outcome: Outcome,
    ) -> None:
        """An executor is done with ``(kind, index, attempt)``.  Always
        reported, even when the job has meanwhile closed here: the
        coordinator drops what it no longer wants."""
        self._report(job_id, kind, index, attempt, outcome)
        job = self._jobs.get(job_id)
        if job is None:
            return
        if kind == "reduce":
            if job.active.get(index) == attempt:
                del job.active[index]
        elif outcome[0] == "ok" and job.kill.get("trigger") == "map-done":
            job.map_dones += 1
            if job.map_dones >= int(job.kill.get("count", 1)):
                self._shell.die()

    def served(self, serves: int) -> None:
        """The shuffle server has served ``serves`` batches in all (it
        reports once per ``batch`` reply, which may carry several)."""
        if serves >= self._kill_serves:
            self._shell.die()

    def tick(self, now: float) -> None:
        """Heartbeat: per-job fold progress and telemetry, or one idle
        lease-keeping beat when no job is open.  Nothing while unlinked."""
        if not self._jobs:
            self._beat("", {}, None)
        for job_id, job in self._jobs.items():
            if not self._linked:
                return
            progress, frame = self._shell.beat(job_id, dict(job.active))
            if not self._beat(job_id, progress, frame) and frame is not None:
                self._shell.rollback(job_id)

    # -- the kill spec -----------------------------------------------------

    def _arm(self, kill: dict) -> _Job:
        if kill.get("worker") not in (self.name, "*"):
            return _Job({})
        job = _Job(kill)
        if kill.get("trigger") == "serves":
            self._kill_serves = int(kill.get("count", 1))
        elif kill.get("trigger") == "fail-tasks":
            # Deterministically sick worker: the next N tasks raise.
            job.fail_tasks_left = int(kill.get("count", 1_000_000))
        return job

    def _fail_next(self, job: _Job) -> bool:
        if job.fail_tasks_left <= 0:
            return False
        job.fail_tasks_left -= 1
        return True


def _inject_spec(kill: dict) -> tuple[str, float] | None:
    """The fold-time fault a victim's reduce attempts run under."""
    trigger = kill.get("trigger")
    if trigger == "reduce-records":
        return "kill", int(kill.get("count", 1))
    if trigger == "reduce-delay":
        return "delay", float(kill.get("delay_ms", 1.0)) / 1000.0
    if trigger == "preempt-kill" and kill.get("delay_ms"):
        # Keeps the job mid-reduce until the preempt (and the kill) lands.
        return "delay", float(kill["delay_ms"]) / 1000.0
    return None

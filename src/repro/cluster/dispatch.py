"""The cluster dispatcher: every scheduling decision, and nothing else.

:class:`Dispatcher` is the coordinator's state machine with the sockets,
threads and clock taken out.  One *step* delivers one message and runs to
completion: :meth:`Dispatcher.handle` takes the time the message was
received, its kind and its fields; :meth:`Dispatcher.tick` takes the
current time and sweeps leases, job deadlines and quarantine probation.
What a step decides leaves through four injected callables:

- ``log(kind, fields)`` — one journal record (kinds in
  :data:`repro.cluster.journal.RECORD_KINDS`), always *before* the sends
  it justifies;
- ``send(worker, kind, fields)`` — one control message to one worker;
- ``conclude(job_id, result, error)`` — a job left the dispatcher:
  finished, failed, or parked (:class:`JobPreemptedError`);
- ``lost(worker, gen)`` — a worker connection is dead to the dispatcher
  (EOF reported, or its lease ran out): drop the link.

Time enters only as the ``now`` arguments, so a test or a virtual-clock
harness drives the identical object :class:`~repro.cluster.coordinator.
Coordinator` runs, and checks its invariants after every step.

Every journaled transition changes job state in exactly one place,
:meth:`Dispatcher.apply`.  The live path is ``_commit`` — log the record,
apply it, then send — and crash recovery is :meth:`Dispatcher.replay`,
which applies the same records without logging or sending; the two cannot
drift.  The recovery policy of the paper's §8 sits on three helpers:
``_regrant_map`` (bump the epoch, which drops the stale location, then
grant), ``_regrant_reduce`` (next attempt, granted with the previous
attempt's heartbeat progress as ``prior``) and ``_drain_worker`` (move a
worker's in-flight tasks in every active job) — worker death, quarantine,
task retry and resume placement all go through them.

docs/cluster.md ("Dispatcher and shell") lists the message kinds in, the
record kinds and sends out, and which job state is replayable.
"""

from __future__ import annotations

import pickle
import traceback
from collections import OrderedDict
from typing import Callable, Iterable

from repro.core.types import Counters, JobResult, Record, StageTimes
from repro.engine.base import finish_result
from repro.obs import JobObservability
from repro.cluster.quarantine import QuarantineConfig, QuarantineTracker
from repro.cluster.telemetry import MAX_JOBS_RETAINED, TraceContext

__all__ = [
    "ClusterJobError",
    "ClusterTaskError",
    "DEFAULT_LEASE_S",
    "Dispatcher",
    "JobPreemptedError",
    "PLACEMENTS",
    "RETRY_MODES",
]

#: Placement policies for a fresh job.  ``spread`` round-robins maps and
#: reduces over every worker.  ``maps-first`` keeps map tasks off the
#: *last* worker (when there are at least two), so chaos tests can kill a
#: reduce-only worker and exercise checkpoint resume without the victim's
#: own map outputs going stale.  Workers are ordered by name.
PLACEMENTS = ("spread", "maps-first")

#: Heartbeats arrive every ~50ms; a worker silent for this long is
#: treated as dead even while its socket stays connected (SIGSTOP,
#: livelock).  Generous enough that scheduler jitter on a loaded host
#: cannot expire a healthy worker.
DEFAULT_LEASE_S = 2.0

#: Per-job task-failure handling.  ``fail_fast`` fails the whole job on
#: the first task failure; ``degrade`` retries the failed task on a
#: different eligible worker up to the job's ``task_retries`` budget,
#: then fails the job with a typed :class:`ClusterTaskError`.
RETRY_MODES = ("fail_fast", "degrade")


class ClusterJobError(RuntimeError):
    """A cluster job failed: task error, no workers, or deadline."""


class ClusterTaskError(ClusterJobError):
    """One task exhausted its retry budget; the job fails typed.

    Distinguishes a *poisoned task* (deterministic failure that no
    retry budget can fix) from infrastructure failures, so callers can
    tell "your reducer crashes on this input" apart from "the cluster
    misbehaved".
    """

    def __init__(self, message: str, *, kind: str, index: int, worker: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.index = index
        self.worker = worker


class JobPreemptedError(ClusterJobError):
    """Raised to the submitter when its job checkpoint-parks.

    Not a failure: the job's map outputs stay held on workers, its
    reduce checkpoints are on disk, and resuming continues it from
    exactly where it stopped.  Derives from :class:`ClusterJobError` so
    callers that do not speak preemption still see a typed cluster error.
    """

    def __init__(self, job_id: str) -> None:
        super().__init__(
            f"{job_id} preempted (checkpoint-parked; resume to continue)"
        )
        self.job_id = job_id


class _Worker:
    """What the dispatcher knows about one registered worker connection."""

    __slots__ = (
        "name", "gen", "pid", "shuffle_host", "shuffle_port", "alive",
        "last_heartbeat", "held", "active_reduces",
    )

    def __init__(self, now: float, fields: dict) -> None:
        self.name = str(fields["worker"])
        #: Registration generation: each (re)connection of a name gets a
        #: fresh one, so a stale connection's death cannot be mistaken
        #: for the death of its successor.
        self.gen = int(fields["gen"])
        self.pid = int(fields.get("pid", 0))
        self.shuffle_host = str(fields["shuffle_host"])
        self.shuffle_port = int(fields["shuffle_port"])
        self.alive = True
        #: Receipt time of the last heartbeat (registration counts).
        self.last_heartbeat = now
        #: Map outputs the worker holds, {(job_id, mapper, epoch)}:
        #: re-advertised at registration, extended by every accepted
        #: ``map-done``; resume reuses only what is listed here.
        self.held: set[tuple[str, int, int]] = {
            (str(j), int(m), int(e)) for j, m, e in fields.get("held", [])
        }
        #: Reduce attempts the worker reported as still running at
        #: registration, {(job_id, reducer, attempt)}: resume awaits these.
        self.active_reduces: set[tuple[str, int, int]] = {
            (str(j), int(r), int(a)) for j, r, a in fields.get("active", [])
        }


class _JobState:
    """Everything the dispatcher must remember to finish one job.

    Built by :meth:`Dispatcher.apply` from a ``job-submit`` record,
    live or replayed.  The first block of fields is journal-replayable
    (:attr:`REPLAYABLE` names the part that changes after submission);
    the second exists only for the in-flight run and is rebuilt from
    live workers after a crash.
    """

    #: What a journal prefix determines: equal prefixes, equal values.
    REPLAYABLE = (
        "map_owner", "map_epoch", "reduce_owner", "reduce_attempt",
        "map_locations", "merged_maps", "output", "counters",
        "preempt_count", "done",
    )

    def __init__(self, fields: dict) -> None:
        self.job_id = str(fields["job_id"])
        #: The pickled spec exactly as journaled; forwarded to workers.
        self.pickled = {k: fields[k] for k in ("job", "wire", "recovery")}
        self.job = pickle.loads(fields["job"])
        #: One pickle per map split, made once at submit and forwarded
        #: to each map's worker as is: the dispatcher never unpickles
        #: job input.
        self.splits: list[bytes] = fields["splits"]
        #: Why this submission cannot run, or ``""``.  A ``job-submit``
        #: journaled before splits were pickled one per map holds a single
        #: pickle of the whole list; indexed, its bytes would grant one
        #: map per byte, each an int that fails only inside the map task.
        self.invalid = ""
        if not isinstance(self.splits, list) or not all(
            isinstance(split, bytes) for split in self.splits
        ):
            self.invalid = (
                "splits must be a list of bytes, one pickle per map split; "
                f"got {type(self.splits).__name__}"
            )
            self.splits = []
        self.num_maps = len(self.splits)
        self.checkpoint_root = str(fields.get("checkpoint_root", ""))
        self.placement = str(fields.get("placement", "spread"))
        self.deadline_s = float(fields.get("deadline_s", 60.0))
        self.task_retries = int(fields.get("task_retries", 0))
        self.fail_fast = str(fields.get("retry_mode", "fail_fast")) != "degrade"
        self.map_owner: dict[int, str] = {}
        self.map_epoch: dict[int, int] = {m: 0 for m in range(self.num_maps)}
        self.reduce_owner: dict[int, str] = {}
        self.reduce_attempt: dict[int, int] = {
            r: 0 for r in range(self.job.num_reducers)
        }
        #: mapper -> (worker, epoch) of the last accepted completion.
        self.map_locations: dict[int, tuple[str, int]] = {}
        self.merged_maps: set[int] = set()
        self.output: dict[int, list[Record]] = {}
        self.counters = Counters()
        self.preempt_count = 0
        self.done = False
        # -- volatile: this run only, never journaled ----------------------
        #: reducer -> {mapper: records folded}, from owner heartbeats.
        self.progress: dict[int, dict[int, int]] = {}
        self.kill: dict = {}
        #: (kind, index) -> retries already spent of ``task_retries``.
        self.retry_used: dict[tuple[str, int], int] = {}
        #: Preemption lifecycle: ``preempting`` while stop requests are
        #: out, ``parked`` once every attempt acked and the slot is free.
        self.preempting = False
        self.preempt_pending: set[int] = set()
        self.parked = False
        self.resuming = False
        #: Shown in status once the job has been started at least once.
        self.begun = False
        #: The submitter has been answered (done, failed or parked) and
        #: nothing more is decided for the job until it is resumed.
        self.concluded = False
        self.result: JobResult | None = None
        self.deadline = 0.0
        #: The job span of the current run; it stays on the state once
        #: closed, for the shell to read the run's stage times under.
        self.span = None
        #: Every run's job span, the current one last: what the shell
        #: drops from its tracer once the job is no longer reported.
        self.run_spans: list = []

    def spec_message(self) -> dict:
        """The ``job`` message: what a worker needs to take part."""
        return {
            "job_id": self.job_id,
            **self.pickled,
            "checkpoint_root": self.checkpoint_root,
            "kill": self.kill,
        }


class Dispatcher:
    """Multi-job scheduling over one worker pool, one step at a time."""

    def __init__(
        self,
        obs: JobObservability,
        *,
        log: Callable[[str, dict], None],
        send: Callable[[str, str, dict], None],
        conclude: Callable[[str, "JobResult | None", "ClusterJobError | None"], None],
        lost: Callable[[str, int], None],
        lease_s: float | None = DEFAULT_LEASE_S,
        quarantine: QuarantineConfig | None = None,
    ) -> None:
        self.obs = obs
        self._log = log
        self._send = send
        self._concluded = conclude
        self._lost = lost
        self._lease_s = lease_s
        #: Per-worker task-failure budget and the quarantined set.
        self._quarantine = QuarantineTracker(quarantine)
        self._workers: dict[str, _Worker] = {}
        #: Worker generations whose death has already been handled, so an
        #: EOF and a lease expiry for the same connection drain it once.
        self._handled_gens: set[int] = set()
        #: Every job submitted or replayed and not yet dropped: running,
        #: parked, or among the retained concluded ones.
        self._jobs: dict[str, _JobState] = {}
        #: The retained concluded jobs, oldest first.  Past
        #: :data:`MAX_JOBS_RETAINED` the oldest is dropped from
        #: :attr:`_jobs` whole, output and result included.
        self._retained: OrderedDict[str, None] = OrderedDict()
        #: Every dropped job id, so a reused id is still refused.
        self._dropped: set[str] = set()
        #: Jobs currently in flight.
        self._active: dict[str, _JobState] = {}
        #: Jobs checkpoint-parked by preemption.  They still accept
        #: map-done / reduce-done (late completions keep accruing) but
        #: get no new grants until resumed.
        self._parked: dict[str, _JobState] = {}
        #: Ids of the jobs :meth:`replay` rebuilt from a journal.
        self._recovered: list[str] = []
        #: The latest frame :meth:`handle` could not process, for status.
        self._last_error: dict | None = None

    # -- the journal: one function per record kind -------------------------

    def apply(self, kind: str, fields: dict) -> None:
        """Fold one journal record into job state — live and replay alike."""
        if kind == "job-submit":
            state = _JobState(fields)
            self._jobs[state.job_id] = state
            return
        state = self._jobs.get(str(fields.get("job_id", "")))
        if state is None:
            return  # a record for a submission lost to the torn tail
        if kind == "map-grant":
            mapper = int(fields["mapper"])
            state.map_owner[mapper] = str(fields["worker"])
            state.map_epoch[mapper] = int(fields["epoch"])
        elif kind == "epoch-bump":
            # The outputs of every earlier epoch are invalid from here
            # on: in-flight fetch streams see the new epoch and restart.
            mapper = int(fields["mapper"])
            state.map_epoch[mapper] = int(fields["epoch"])
            held = state.map_locations.get(mapper)
            if held is not None and held[1] < state.map_epoch[mapper]:
                del state.map_locations[mapper]
        elif kind == "reduce-grant":
            reducer = int(fields["reducer"])
            state.reduce_owner[reducer] = str(fields["worker"])
            state.reduce_attempt[reducer] = int(fields["attempt"])
        elif kind == "map-location":
            mapper, epoch = int(fields["mapper"]), int(fields["epoch"])
            if epoch == state.map_epoch.get(mapper):
                state.map_locations[mapper] = (str(fields["worker"]), epoch)
            if fields.get("first") and mapper not in state.merged_maps:
                # First completion of this map task: merge its counters
                # once (re-executions repeat the work but must not double
                # the record totals).
                state.merged_maps.add(mapper)
                self._merge_task(state, "map.tasks", fields)
        elif kind == "reduce-commit":
            reducer = int(fields["reducer"])
            if reducer not in state.output:  # first attempt to commit wins
                state.output[reducer] = pickle.loads(fields["output"])
                self._merge_task(state, "reduce.tasks", fields)
        elif kind == "job-preempt":
            # A job parked before a crash replays as a non-done job, and
            # resuming restarts every non-done job on surviving worker
            # state — held outputs and checkpoints do the rest.
            state.preempt_count += 1
        elif kind == "job-done":
            state.done = True
            state.splits = []  # its own copy of the input; nothing left to grant
        # "job-resume" carries no replayable state: see "job-preempt".

    def _merge_task(self, state: _JobState, tally: str, fields: dict) -> None:
        task_counters = dict(fields.get("counters", {}))
        state.counters.merge(Counters(task_counters))
        state.counters.increment(tally)
        self.obs.counters.merge_dict(task_counters)
        self.obs.counters.increment(tally)

    def _commit(self, kind: str, fields: dict) -> None:
        """Write-ahead: journal a transition, then make it true."""
        self._log(kind, fields)
        self.apply(kind, fields)

    def replay(self, records: Iterable[tuple[str, dict]]) -> None:
        """Rebuild job state from a journal prefix; sends and logs nothing."""
        for kind, fields in records:
            self.apply(kind, fields)
        self._recovered = list(self._jobs)
        # Replayed done jobs count as concluded; the next live conclusion
        # drops any past the bound.
        self._retained.update(
            (job_id, None) for job_id in self._recovered
            if self._jobs[job_id].done
        )

    # -- read-only views for the shell -------------------------------------

    def job(self, job_id: str) -> _JobState | None:
        return self._jobs.get(job_id)

    def known(self, job_id: str) -> bool:
        """Whether ``job_id`` was ever submitted or replayed, dropped or not."""
        return job_id in self._jobs or job_id in self._dropped

    def worker_count(self) -> int:
        """Workers that ever registered (dead ones included)."""
        return len(self._workers)

    def recovered(self) -> dict[str, bool]:
        """Replayed job id -> whether its ``job-done`` made the journal
        (jobs dropped since are left out)."""
        return {
            job_id: self._jobs[job_id].done
            for job_id in self._recovered if job_id in self._jobs
        }

    def status(self, now: float) -> dict:
        """The control-plane half of :meth:`Coordinator.status`."""
        workers = {
            name: {
                "pid": w.pid,
                "alive": w.alive,
                "heartbeat_age_s": round(now - w.last_heartbeat, 3),
                "held_outputs": len(w.held),
                "active_reduces": len(w.active_reduces),
                "quarantined": self._quarantine.is_quarantined(name, now),
            }
            for name, w in sorted(dict(self._workers).items())
        }
        jobs = {
            job_id: {
                "name": state.job.name,
                "mode": state.job.mode.value,
                "num_maps": state.num_maps,
                "maps_done": len(state.merged_maps),
                "num_reducers": state.job.num_reducers,
                "reduces_done": len(state.output),
                "map_epochs": {
                    str(m): e for m, e in sorted(state.map_epoch.items())
                },
                "reduce_attempts": {
                    str(r): a for r, a in sorted(state.reduce_attempt.items())
                },
                "done": state.done,
                "parked": state.parked,
                "preempt_count": state.preempt_count,
            }
            for job_id, state in sorted(dict(self._jobs).items())
            if state.begun
        }
        return {
            "workers": workers,
            "jobs": jobs,
            "active_jobs": len(self._active),
            "parked_jobs": len(self._parked),
            "quarantined_workers": self._quarantine.quarantined(now),
            "last_dispatch_error": self._last_error,
        }

    # -- workers -----------------------------------------------------------

    def _alive(self) -> list[_Worker]:
        return sorted(
            (w for w in self._workers.values() if w.alive),
            key=lambda w: w.name,
        )

    def _eligible(self, now: float) -> list[_Worker]:
        """Alive workers that may receive grants (not quarantined)."""
        return [
            w for w in self._alive()
            if not self._quarantine.is_quarantined(w.name, now)
        ]

    def _broadcast(self, kind: str, fields: dict) -> None:
        for worker in self._alive():
            self._send(worker.name, kind, fields)

    # -- steps -------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Sweep leases, job deadlines and quarantine probation."""
        if self._lease_s is not None:
            for worker in self._alive():
                idle = now - worker.last_heartbeat
                if idle <= self._lease_s:
                    continue
                # Wedged but connected: treat silence as death.  Dropping
                # the link makes the worker reconnect and re-register if
                # it ever wakes up (SIGCONT).
                self.obs.counters.increment("cluster.lease.expired")
                self._worker_dead(now, worker.name, worker.gen)
        for state in list(self._active.values()):
            if now >= state.deadline:
                self._conclude(
                    state,
                    ClusterJobError(
                        f"{state.job_id} missed its {state.deadline_s}s "
                        f"deadline ({len(state.output)}"
                        f"/{state.job.num_reducers} reducers done)"
                    ),
                )
        for name in self._quarantine.sweep(now):
            self.obs.counters.increment("cluster.quarantine.rejoined")

    def handle(self, now: float, kind: str, fields: dict) -> None:
        """Deliver one message received at ``now``."""
        try:
            self._route(now, kind, fields)
        except Exception as exc:  # noqa: BLE001
            # One malformed frame (bad pickle, out-of-range index) must
            # not take the dispatcher down — that would hang every active
            # and future job.  Fail the affected job if the frame names
            # one; otherwise drop the frame.  Either way the latest
            # error, traceback included, is kept for status.
            self.obs.counters.increment("cluster.dispatch.errors")
            job_id = fields.get("job_id") if isinstance(fields, dict) else None
            self._last_error = {
                "message": kind,
                "job": None if job_id is None else str(job_id),
                "error": type(exc).__name__,
                "detail": str(exc),
                "traceback": traceback.format_exc(),
            }
            try:
                state = self._active.get(str(fields.get("job_id", "")))
                if state is not None:
                    self._conclude(
                        state,
                        ClusterJobError(
                            f"{state.job_id}: dispatcher error on {kind!r}: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                    )
            except Exception:  # noqa: BLE001 — keep dispatching
                pass

    def _route(self, now: float, kind: str, fields: dict) -> None:
        if kind == "heartbeat":
            self._heartbeat(now, fields)
        elif kind == "worker-joined":
            self._worker_joined(now, fields)
        elif kind == "worker-dead":
            self._worker_dead(
                now, str(fields["worker"]), int(fields.get("gen", 0))
            )
        elif kind == "job-start":
            self._start_job(now, fields)
        elif kind == "job-recover":
            self.obs.counters.increment("cluster.resume.jobs")
            state = self._jobs[str(fields["job_id"])]
            state.resuming = True
            state.concluded = False
            self._begin_job(now, state)
        elif kind == "job-resume":
            self._resume_parked(now, str(fields["job_id"]))
        elif kind == "preempt-job":
            self._preempt(str(fields.get("job_id", "")))
        else:
            self._task_message(now, kind, fields)

    def _task_message(self, now: float, kind: str, fields: dict) -> None:
        job_id = str(fields.get("job_id", ""))
        state = self._active.get(job_id)
        if state is None and kind in (
            "map-done", "reduce-done", "reduce-preempted"
        ):
            # Parked jobs keep accepting late completions: a map or
            # reduce that finishes during the park shrinks the work the
            # resume must re-grant.
            state = self._parked.get(job_id)
        if state is None:
            return  # stale message for a finished or unknown job
        if kind in ("reduce-done", "reduce-preempted"):
            reducer = int(fields["reducer"])
            if int(fields["attempt"]) != state.reduce_attempt[reducer]:
                return  # a superseded attempt finishing or acking late
        if kind == "map-done":
            self._map_done(now, state, fields)
        elif kind == "reduce-done":
            if reducer not in state.output:  # else it lost the race
                self._commit(
                    "reduce-commit",
                    {
                        "job_id": job_id,
                        "reducer": reducer,
                        "attempt": int(fields["attempt"]),
                        "output": bytes(fields["output"]),
                        "counters": dict(fields.get("counters", {})),
                    },
                )
            state.preempt_pending.discard(reducer)
            self._maybe_finish(state)
            self._maybe_park(state)
        elif kind == "reduce-preempted":
            self.obs.counters.increment("cluster.preempt.acks")
            self._abandon_reduce(state, reducer)
            self._maybe_park(state)
        elif kind == "task-failed":
            task, index = str(fields.get("kind", "")), int(fields.get("index", 0))
            attempt = int(fields.get("attempt", 0))
            if task == "reduce" and attempt != state.reduce_attempt[index]:
                return  # a superseded attempt failing late
            self._task_failed(
                now, state, task, index, attempt,
                str(fields.get("worker", "")), str(fields.get("error", "")),
            )

    def _heartbeat(self, now: float, fields: dict) -> None:
        self.obs.counters.increment("cluster.heartbeats")
        worker = self._workers.get(str(fields.get("worker", "")))
        if worker is not None:
            worker.last_heartbeat = max(worker.last_heartbeat, now)
        state = self._active.get(str(fields.get("job_id", "")))
        if state is None:
            return
        for reducer, folded in dict(fields.get("progress", {})).items():
            snapshot = state.progress.setdefault(int(reducer), {})
            for mapper, count in dict(folded).items():
                mapper = int(mapper)
                if int(count) > snapshot.get(mapper, 0):
                    snapshot[mapper] = int(count)

    def _worker_joined(self, now: float, fields: dict) -> None:
        worker = _Worker(now, fields)
        if worker.name in self._workers:
            self.obs.counters.increment("cluster.workers.rejoined")
        else:
            self.obs.counters.increment("cluster.workers")
        self._workers[worker.name] = worker
        # A worker that (re)connected mid-job gets everything it needs to
        # take part in every active job: the job spec (ignored if it
        # already holds the context) and every current output location.
        for state in list(self._active.values()):
            self._send(worker.name, "job", state.spec_message())
            for mapper in list(state.map_locations):
                self._publish(state, mapper, [worker])

    def _worker_dead(self, now: float, name: str, gen: int) -> None:
        if gen in self._handled_gens:
            return
        self._handled_gens.add(gen)
        worker = self._workers.get(name)
        if worker is not None and worker.gen == gen:
            worker.alive = False
        self.obs.counters.increment("cluster.workers.lost")
        self._lost(name, gen)
        # The dead worker's map outputs died with its shuffle server, so
        # completed maps move too, not only in-flight tasks.
        self._drain_worker(
            now, name, "died", keep_served=False,
            counter="cluster.tasks.reassigned",
        )

    # -- job lifecycle -----------------------------------------------------

    def _start_job(self, now: float, fields: dict) -> None:
        """``job-start`` is the ``job-submit`` record to journal plus the
        chaos spec, which is for this run only."""
        fields = dict(fields)
        kill = fields.pop("kill", None) or {}
        self._commit("job-submit", fields)
        state = self._jobs[str(fields["job_id"])]
        state.kill = kill
        self._begin_job(now, state)

    def _begin_job(self, now: float, state: _JobState) -> None:
        state.span = None  # a resumed job's last run span is closed
        if state.invalid:
            self._conclude(
                state,
                ClusterJobError(
                    f"{state.job_id}: dispatcher error on 'job-submit': "
                    f"{state.invalid}"
                ),
            )
            return
        workers = self._eligible(now)
        if not workers:
            quarantined = self._quarantine.quarantined(now)
            self._conclude(
                state,
                ClusterJobError(
                    "no eligible workers"
                    + (f" ({len(quarantined)} quarantined)" if quarantined else "")
                ),
            )
            return
        if not state.begun:
            state.begun = True
            self.obs.counters.increment("cluster.jobs")
        self._active[state.job_id] = state
        state.deadline = now + state.deadline_s
        state.span = self.obs.tracer.open(
            state.job.name, "job", mode=state.job.mode.value,
            engine="cluster", resumed=state.resuming,
        )
        state.run_spans.append(state.span)
        self._broadcast("job", state.spec_message())
        if state.resuming:
            self._place_resumed(state, workers)
        else:
            self._place_fresh(state, workers)
        # A resumed job whose every reduce-commit survived in the journal
        # (only the job-done record was torn) is already complete.
        self._maybe_finish(state)

    def _place_fresh(self, state: _JobState, workers: list[_Worker]) -> None:
        map_pool = reduce_pool = workers
        if state.placement == "maps-first" and len(workers) > 1:
            map_pool, reduce_pool = workers[:-1], workers[::-1]
        for mapper in range(state.num_maps):
            self._grant_map(state, mapper, map_pool[mapper % len(map_pool)])
        for reducer in range(state.job.num_reducers):
            self._grant_reduce(
                state, reducer, reduce_pool[reducer % len(reduce_pool)], 0, {}
            )

    def _place_resumed(self, state: _JobState, targets: list[_Worker]) -> None:
        """Resume placement: reuse surviving work, re-grant the rest.

        A map output counts as surviving when its journaled location's
        owner is alive and holds exactly that (job, mapper, epoch);
        anything less forces a re-execution under a bumped epoch — resume
        must never fabricate a location nobody serves.  An uncommitted
        reduce attempt is left alone when its owner reported it still
        running at registration (its reduce-done will arrive over the
        new connection); otherwise it is re-granted at the next attempt
        number, superseding the orphan.
        """
        job_id = state.job_id
        moved = reused = 0
        for mapper in range(state.num_maps):
            held = state.map_locations.get(mapper)
            owner = self._workers.get(held[0]) if held is not None else None
            if (
                owner is not None
                and owner.alive
                and (job_id, mapper, held[1]) in owner.held
            ):
                self._publish(state, mapper)
                reused += 1
                continue
            self._regrant_map(state, mapper, targets[moved % len(targets)])
            moved += 1
        for reducer in range(state.job.num_reducers):
            if reducer in state.output:
                continue
            owner = self._workers.get(state.reduce_owner.get(reducer, ""))
            if (
                owner is not None
                and owner.alive
                and (job_id, reducer, state.reduce_attempt[reducer])
                in owner.active_reduces
            ):
                continue
            self._regrant_reduce(state, reducer, targets[moved % len(targets)])
            moved += 1
        self.obs.counters.increment("cluster.resume.maps.reused", reused)
        self.obs.counters.increment("cluster.resume.tasks.reassigned", moved)

    def _maybe_finish(self, state: _JobState) -> None:
        if state.concluded or len(state.output) < state.job.num_reducers:
            return
        self._commit("job-done", {"job_id": state.job_id})
        # Stage times are the shell's to read off the merged spans.
        state.result = finish_result(
            state.job, state.output, state.counters, StageTimes()
        )
        self._conclude(state, None)

    def _conclude(self, state: _JobState, error: ClusterJobError | None) -> None:
        """Common tail of success and failure: release, notify, unblock."""
        if state.concluded:
            return  # answered already; a second verdict changes nothing
        self._active.pop(state.job_id, None)
        self._parked.pop(state.job_id, None)
        self._broadcast("job-done", {"job_id": state.job_id})
        # The job-done broadcast makes workers drop the job's held map
        # outputs; mirror that here so a later resume of some *other*
        # job cannot trust a stale entry.
        for worker in self._alive():
            worker.held = {key for key in worker.held if key[0] != state.job_id}
        self._answer(state, error)
        self._retained.pop(state.job_id, None)
        self._retained[state.job_id] = None
        while len(self._retained) > MAX_JOBS_RETAINED:
            old_id, _ = self._retained.popitem(last=False)
            self._dropped.add(old_id)  # before the pop: never unknown
            self._jobs.pop(old_id, None)

    def _answer(self, state: _JobState, error: ClusterJobError | None) -> None:
        self.obs.tracer.close(state.span)
        state.concluded = True
        self._concluded(state.job_id, None if error else state.result, error)

    # -- grants ------------------------------------------------------------

    def _grant_map(self, state: _JobState, mapper: int, target: _Worker) -> None:
        epoch = state.map_epoch[mapper]
        self._commit(
            "map-grant",
            {
                "job_id": state.job_id, "mapper": mapper,
                "epoch": epoch, "worker": target.name,
            },
        )
        self._send(
            target.name,
            "assign-map",
            {
                "job_id": state.job_id,
                "mapper": mapper,
                "epoch": epoch,
                "split": state.splits[mapper],
                "ctx": TraceContext(
                    job_id=state.job_id, task_id=f"map-{mapper}",
                    attempt=0, epoch=epoch,
                ).as_fields(),
            },
        )

    def _regrant_map(self, state: _JobState, mapper: int, target: _Worker) -> None:
        """Re-execute a map under a new epoch: whatever the old epoch
        produced is unreachable or untrusted, and in-flight fetch streams
        that observe the bump restart from sequence 0 (ledger dedup
        applies)."""
        self._commit(
            "epoch-bump",
            {
                "job_id": state.job_id, "mapper": mapper,
                "epoch": state.map_epoch[mapper] + 1,
            },
        )
        self._grant_map(state, mapper, target)

    def _grant_reduce(
        self, state: _JobState, reducer: int, target: _Worker,
        attempt: int, prior: dict,
    ) -> None:
        self._commit(
            "reduce-grant",
            {
                "job_id": state.job_id, "reducer": reducer,
                "attempt": attempt, "worker": target.name,
            },
        )
        self._send(
            target.name,
            "assign-reduce",
            {
                "job_id": state.job_id,
                "reducer": reducer,
                "attempt": attempt,
                "num_maps": state.num_maps,
                "prior": {int(m): int(c) for m, c in prior.items()},
                "ctx": TraceContext(
                    job_id=state.job_id, task_id=f"reduce-{reducer}",
                    attempt=attempt, epoch=0,
                ).as_fields(),
            },
        )

    def _regrant_reduce(
        self, state: _JobState, reducer: int, target: _Worker
    ) -> None:
        """Supersede a reduce attempt: the next attempt number, with the
        old attempt's last heartbeat progress as ``prior`` so the
        replacement classifies re-done records (replayed after a
        checkpoint restore, refolded otherwise)."""
        self._grant_reduce(
            state, reducer, target, state.reduce_attempt[reducer] + 1,
            state.progress.get(reducer, {}),
        )

    def _abandon_reduce(self, state: _JobState, reducer: int) -> None:
        """A preempting job's attempt runs nowhere any more (acked, or its
        worker is gone): no ack is owed, and the resume re-grants the
        reducer from its checkpoint at the next attempt number."""
        state.preempt_pending.discard(reducer)
        state.reduce_owner.pop(reducer, None)

    def _drain_worker(
        self, now: float, name: str, why: str, *, keep_served: bool,
        counter: str,
    ) -> None:
        """Move ``name``'s tasks, in every active job, to eligible workers.

        ``keep_served`` leaves completed maps whose current-epoch output
        the worker still serves where they are (quarantine stops grants,
        not serving).  A job that has something to move and nowhere to
        move it fails.
        """
        targets = self._eligible(now)
        for state in list(self._active.values()):
            tasks = [
                ("map", mapper)
                for mapper, owner in state.map_owner.items()
                if owner == name
                and not (keep_served and self._is_served(state, mapper))
            ] + [
                ("reduce", reducer)
                for reducer, owner in state.reduce_owner.items()
                if owner == name and reducer not in state.output
            ]
            moved = 0
            for task, index in tasks:
                if task == "reduce" and state.preempting:
                    self._abandon_reduce(state, index)
                    continue
                if not targets:
                    self._conclude(
                        state,
                        ClusterJobError(
                            f"worker {name} {why} and no eligible "
                            f"workers remain"
                        ),
                    )
                    break
                target = targets[moved % len(targets)]
                if task == "map":
                    self._regrant_map(state, index, target)
                else:
                    self._regrant_reduce(state, index, target)
                moved += 1
            self._maybe_park(state)
            if moved:
                self.obs.counters.increment(counter, moved)

    # -- completions -------------------------------------------------------

    def _is_served(self, state: _JobState, mapper: int) -> bool:
        held = state.map_locations.get(mapper)
        return held is not None and held[1] == state.map_epoch[mapper]

    def _publish(
        self, state: _JobState, mapper: int, to: list[_Worker] | None = None
    ) -> None:
        """Tell workers (default: every live one) where a map's current
        output is served."""
        held = state.map_locations.get(mapper)
        owner = self._workers.get(held[0]) if held is not None else None
        if owner is None:
            return
        location = {
            "job_id": state.job_id,
            "mapper": mapper,
            "epoch": held[1],
            "host": owner.shuffle_host,
            "port": owner.shuffle_port,
        }
        for worker in self._alive() if to is None else to:
            self._send(worker.name, "location", location)

    def _map_done(self, now: float, state: _JobState, fields: dict) -> None:
        mapper, epoch = int(fields["mapper"]), int(fields["epoch"])
        if epoch != state.map_epoch[mapper]:
            return  # superseded by a reassignment
        owner = self._workers.get(str(fields["worker"]))
        if owner is None:
            return
        first = mapper not in state.merged_maps
        self._commit(
            "map-location",
            {
                "job_id": state.job_id,
                "mapper": mapper,
                "epoch": epoch,
                "worker": owner.name,
                "counters": dict(fields.get("counters", {})) if first else {},
                "first": first,
            },
        )
        # Registration snapshots go stale the moment new maps finish, and
        # park/resume validates held outputs against this set.
        owner.held.add((state.job_id, mapper, epoch))
        if not first:
            self.obs.counters.increment("map.reexecutions")
        self._publish(state, mapper)

    def _task_failed(
        self, now: float, state: _JobState, kind: str, index: int,
        attempt: int, worker: str, error: str,
    ) -> None:
        self.obs.counters.increment("cluster.tasks.failed")
        known = self._workers.get(worker)
        # The dedup key spans the worker generation so a failure
        # re-reported across a reconnect counts once; recording may newly
        # quarantine the worker, which drops it from the eligible set at
        # once (the retry below already avoids it).
        newly = self._quarantine.record_failure(
            worker,
            (known.gen if known else -1, state.job_id, kind, index, attempt),
            now,
        )
        self._retry_or_fail(now, state, kind, index, attempt, worker, error)
        if newly:
            # Drained *after* the failing task was handled: by now that
            # task is owned elsewhere (or its job failed), so the drain
            # moves only the worker's other in-flight work.
            self.obs.counters.increment("cluster.quarantine.workers")
            self._drain_worker(
                now, worker, "quarantined", keep_served=True,
                counter="cluster.quarantine.reassigned",
            )

    def _retry_or_fail(
        self, now: float, state: _JobState, kind: str, index: int,
        attempt: int, worker: str, error: str,
    ) -> None:
        if state.concluded:
            return
        if state.fail_fast:
            self._conclude(
                state,
                ClusterJobError(f"{kind} task {index} failed on {worker}: {error}"),
            )
            return
        used = state.retry_used.get((kind, index), 0)
        if used >= state.task_retries:
            self._conclude(
                state,
                ClusterTaskError(
                    f"{kind} task {index} failed on {worker} after {used} "
                    f"retr{'y' if used == 1 else 'ies'}: {error}",
                    kind=kind, index=index, worker=worker,
                ),
            )
            return
        eligible = self._eligible(now)
        # Prefer any worker other than the one that just failed the
        # task; with a one-worker pool the same worker is retried.
        targets = [w for w in eligible if w.name != worker] or eligible
        if not targets:
            self._conclude(
                state,
                ClusterJobError(
                    f"{kind} task {index} failed on {worker} and no "
                    f"eligible workers remain to retry it"
                ),
            )
            return
        state.retry_used[(kind, index)] = used + 1
        self.obs.counters.increment("cluster.tasks.retried")
        target = targets[(index + used) % len(targets)]
        if kind == "map":
            self._regrant_map(state, index, target)
        else:
            self._regrant_reduce(state, index, target)

    # -- preemption --------------------------------------------------------

    def _preempt(self, job_id: str) -> None:
        state = self._active.get(job_id)
        if state is None or state.concluded or state.preempting:
            return  # unknown, finished, parked or already parking: no-op
        # Write-ahead: the intent is journaled before any stop request
        # goes out.  A crash between this record and the acks replays
        # into a non-done job, which recovery finishes from held outputs
        # and whatever checkpoints the stop requests managed to cut.
        self._commit("job-preempt", {"job_id": job_id})
        state.preempting = True
        self.obs.counters.increment("cluster.preempt.jobs")
        # Ask every uncommitted reduce attempt to stop at its next
        # wire-batch boundary; an attempt whose owner is gone has nothing
        # running and owes no ack.
        for reducer, owner in sorted(state.reduce_owner.items()):
            if reducer in state.output:
                continue
            worker = self._workers.get(owner)
            if worker is None or not worker.alive:
                self._abandon_reduce(state, reducer)
                continue
            state.preempt_pending.add(reducer)
            self._send(
                owner,
                "preempt-reduce",
                {
                    "job_id": job_id, "reducer": reducer,
                    "attempt": state.reduce_attempt[reducer],
                },
            )
            self.obs.counters.increment("cluster.preempt.reduces")
        self._maybe_park(state)

    def _maybe_park(self, state: _JobState) -> None:
        """Park once every stop request is acked (or raced a commit)."""
        if not state.preempting or state.concluded or state.preempt_pending:
            return
        state.preempting = False
        state.parked = True
        self._active.pop(state.job_id, None)
        self._parked[state.job_id] = state
        self.obs.counters.increment("cluster.preempt.parked")
        # Deliberately NOT :meth:`_conclude`: no job-done broadcast, so
        # workers keep the job context, their held map outputs and the
        # location table — exactly the state the resume reuses.
        self._answer(state, JobPreemptedError(state.job_id))

    def _resume_parked(self, now: float, job_id: str) -> None:
        state = self._parked.pop(job_id, None)
        if state is None:
            return  # not parked (any more): the running job answers
        state.parked = False
        state.concluded = False
        self._commit("job-resume", {"job_id": job_id})
        self.obs.counters.increment("cluster.preempt.resumed")
        state.resuming = True
        self._begin_job(now, state)

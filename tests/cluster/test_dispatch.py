"""The pure dispatcher, driven step by step with no sockets and no clock.

:class:`~repro.cluster.dispatch.Dispatcher` takes messages and times in
and gives journal records, sends and job conclusions out, so these tests
run the coordinator's whole recovery policy — epoch bumps, re-grants,
first-wins commits, retry budgets, quarantine, preemption, leases, crash
replay — in one thread, with a counter for a clock and real worker cores
(:class:`~repro.cluster.worker_core.WorkerCore`) over stub executors, and
check its invariants after *every* step rather than after a sleep:

- **journal before send**: a grant, a location or a stop request reaches
  a worker only after the record that justifies it was logged;
- **first-wins commit**: one ``reduce-commit`` per reducer, ever;
- **no grant to the dead**: never an assignment to a worker that was
  killed, whose lease expired, or that is quarantined.

Nothing here sleeps, forks or opens a socket.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.apps.demo import demo_job_and_input
from repro.cluster.dispatch import (
    ClusterJobError,
    ClusterTaskError,
    Dispatcher,
    JobPreemptedError,
)
from repro.cluster.quarantine import QuarantineConfig
from repro.cluster.telemetry import MAX_JOBS_RETAINED
from repro.cluster.worker_core import WorkerCore, done, failed, preempted
from repro.core.job import split_input
from repro.core.types import ExecutionMode
from repro.dfs.wire import WireConfig
from repro.engine.local import LocalEngine
from repro.engine.recovery import RecoveryConfig
from repro.obs import JobObservability

NUM_MAPS = 3
NUM_REDUCERS = 2
STEP_S = 0.01


def _job():
    return demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=150,
        num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS, seed=3,
    )


@pytest.fixture(scope="module")
def oracle():
    """What every run below must output, from the reference engine."""
    job, pairs = _job()
    return LocalEngine().run(job, pairs, num_maps=NUM_MAPS).output


class _RigWorker:
    """One worker: a real :class:`WorkerCore` over stub executors.

    The protocol — which grants it takes, what it reports, how it acks a
    preemption — is the production core's.  Only the task *outcome* is
    made up: a map is done at once, a reduce once the worker knows a
    location for every map of its job (and the rig is not holding
    reduces back), with the oracle's output for that reducer; either
    fails instead while the rig's ``fail_next`` says so.
    """

    def __init__(self, rig, name, gen):
        self.rig, self.name, self.gen = rig, name, gen
        self.locations = {}       # job_id -> {mapper: epoch}
        self.tasks = []           # granted, not finished: (job, kind, index, attempt, n)
        self.stopped = set()      # tasks[:4] of attempts asked to stop
        self.core = WorkerCore(name, 1000 + gen, "10.0.0.1", 9000 + gen, self)

    # -- WorkerShell -------------------------------------------------------

    def send(self, kind, fields):
        if kind == "register":
            # What the coordinator's receiver thread makes of one.
            self.rig.step("worker-joined", {**fields, "gen": self.gen})
        else:
            self.rig.pending.append((self.name, kind, fields))
        return True

    def open_job(self, job_id, fields):
        self.locations[job_id] = {}

    def close_job(self, job_id):
        del self.locations[job_id]
        self.tasks = [task for task in self.tasks if task[0] != job_id]

    def start_map(self, job_id, mapper, epoch, grant, fail):
        records = len(pickle.loads(grant["split"]))
        self.tasks.append((job_id, "map", mapper, epoch, records))

    def start_reduce(self, job_id, reducer, attempt, grant, fail, inject):
        self.tasks.append((job_id, "reduce", reducer, attempt, grant["num_maps"]))

    def stop_reduce(self, job_id, reducer, attempt):
        self.stopped.add((job_id, "reduce", reducer, attempt))

    def locate(self, job_id, mapper, host, port, epoch):
        self.locations[job_id][mapper] = epoch

    # -- the stub executor -------------------------------------------------

    def finish_ready(self):
        for task in list(self.tasks):
            job_id, kind, index, attempt, n = task
            stopped = task[:4] in self.stopped
            if kind == "reduce" and not stopped and (
                self.rig.hold_reduces or len(self.locations[job_id]) < n
            ):
                continue
            self.tasks.remove(task)
            if stopped:
                outcome = preempted(0)
            elif self.rig._should_fail(self.name, kind):
                outcome = failed("scripted")
            elif kind == "map":
                outcome = done(counters={"map.input_records": n})
            else:
                produced = self.rig.oracle[index]
                outcome = done(
                    output=pickle.dumps(produced),
                    counters={"reduce.output_records": len(produced)},
                )
            self.core.task_finished(job_id, kind, index, attempt, outcome)


class Rig:
    """A dispatcher, its recorded effects, and :class:`_RigWorker`s.

    What the workers send queues in :attr:`pending` until :meth:`run`
    delivers it, so a test can interleave a kill, a failure or a
    preemption anywhere.
    """

    def __init__(
        self, oracle, workers=("w0", "w1"), *, records=(), lease_s=2.0,
        quarantine=None,
    ):
        self.oracle = oracle
        self.now = 0.0
        self.gen = 0
        self.gens = {}            # worker -> generation of its connection
        self.journal = list(records)
        self.granted = set()      # what the journal justifies sending
        for kind, fields in records:
            self._note(kind, fields)
        self.commits = {}         # (job, reducer) -> attempt that won
        self.snapshots = []       # replayable state before each append
        self.conclusions = {}     # job_id -> (result, error)
        self.lost = []
        self.alive = set()
        self.workers = {}         # name -> _RigWorker of its current connection
        self.pending = []         # (worker, kind, fields) answers
        self.held_back = set()    # workers whose answers are withheld
        self.hold_reduces = False
        self.fail_next = {}       # (worker, "map"|"reduce") -> count
        self.obs = JobObservability()
        self.dispatcher = Dispatcher(
            self.obs, log=self._log, send=self._send,
            conclude=lambda job_id, result, error: self.conclusions.update(
                {job_id: (result, error)}
            ),
            lost=self._lost, lease_s=lease_s, quarantine=quarantine,
        )
        self.dispatcher.replay(records)
        for name in workers:
            self.join(name)

    # -- effects, each checked as it happens -------------------------------

    def _note(self, kind, fields):
        job = fields.get("job_id")
        if kind == "map-grant":
            self.granted.add(
                ("map", job, fields["mapper"], fields["epoch"], fields["worker"])
            )
        elif kind == "reduce-grant":
            self.granted.add(
                ("reduce", job, fields["reducer"], fields["attempt"],
                 fields["worker"])
            )
        elif kind == "map-location":
            self.granted.add(("location", job, fields["mapper"], fields["epoch"]))
        elif kind == "job-preempt":
            self.granted.add(("preempt", job))

    def _log(self, kind, fields):
        self.snapshots.append(self.replayable(str(fields["job_id"])))
        if kind == "reduce-commit":
            key = (fields["job_id"], fields["reducer"])
            assert key not in self.commits, f"second commit for {key}"
            self.commits[key] = fields["attempt"]
        self.journal.append((kind, dict(fields)))
        self._note(kind, fields)

    def _send(self, worker, kind, fields):
        job = fields.get("job_id")
        if kind in ("assign-map", "assign-reduce"):
            assert worker in self.alive, f"{kind} to dead worker {worker}"
            status = self.dispatcher.status(self.now)
            assert worker not in status["quarantined_workers"], (
                f"{kind} to quarantined worker {worker}"
            )
        if kind == "assign-map":
            justified = ("map", job, fields["mapper"], fields["epoch"], worker)
        elif kind == "assign-reduce":
            justified = (
                "reduce", job, fields["reducer"], fields["attempt"], worker
            )
        elif kind == "location":
            justified = ("location", job, fields["mapper"], fields["epoch"])
        elif kind == "preempt-reduce":
            justified = ("preempt", job)
        else:
            justified = None
        assert justified is None or justified in self.granted, (
            f"{kind} {justified} sent before its journal record"
        )
        if worker in self.alive:
            self.workers[worker].core.handle(self.now, kind, fields)
            self.workers[worker].finish_ready()

    def _lost(self, worker, gen):
        self.lost.append((worker, gen))
        self.alive.discard(worker)

    def _should_fail(self, worker, task):
        left = self.fail_next.get((worker, task), 0)
        self.fail_next[(worker, task)] = max(0, left - 1)
        return left > 0

    # -- driving -----------------------------------------------------------

    def step(self, kind, fields):
        self.now += STEP_S
        self.dispatcher.handle(self.now, kind, fields)

    def tick(self, advance=STEP_S):
        self.now += advance
        self.dispatcher.tick(self.now)

    def join(self, name):
        self.gen += 1
        self.gens[name] = self.gen
        self.alive.add(name)
        self.workers[name] = _RigWorker(self, name, self.gen)
        self.workers[name].core.connected([])

    def kill(self, name):
        """SIGKILL: the worker stops answering and the shell reports EOF."""
        self.alive.discard(name)
        self.pending = [p for p in self.pending if p[0] != name]
        self.step("worker-dead", {"worker": name, "gen": self.gens[name]})

    def submit(self, job_id="job-1", **overrides):
        job, pairs = _job()
        self.step("job-start", {
            "job_id": job_id, "job": pickle.dumps(job),
            "splits": [
                pickle.dumps(split) for split in split_input(pairs, NUM_MAPS)
            ],
            "wire": pickle.dumps(WireConfig()),
            "recovery": pickle.dumps(RecoveryConfig()),
            "checkpoint_root": "", "placement": "spread",
            "deadline_s": 60.0, "task_retries": 0, "retry_mode": "fail_fast",
            "kill": None, **overrides,
        })

    def run(self):
        """Deliver queued answers (and what they trigger) until quiet."""
        while True:
            ready = [p for p in self.pending if p[0] not in self.held_back]
            if not ready:
                return
            self.pending.remove(ready[0])
            worker, kind, fields = ready[0]
            if worker in self.alive:
                self.step(kind, fields)

    def release_reduces(self):
        self.hold_reduces = False
        for name in sorted(self.alive):
            self.workers[name].finish_ready()

    def replayable(self, job_id="job-1"):
        """A copy of the state a journal prefix must determine."""
        state = self.dispatcher.job(job_id)
        return state and {
            name: copy.deepcopy(getattr(state, name))
            for name in state.REPLAYABLE
        }

    def kinds(self):
        return [kind for kind, _fields in self.journal]

    def counter(self, name):
        return self.obs.counters.get(name)

    def result(self, job_id="job-1"):
        result, error = self.conclusions[job_id]
        assert error is None, error
        return result


# -- (i) the recovery policy, one step at a time ----------------------------


def test_clean_job_journals_every_transition_before_acting(oracle):
    rig = Rig(oracle)
    rig.submit()
    rig.run()
    assert rig.result().output == oracle
    assert rig.kinds() == (
        ["job-submit"] + ["map-grant"] * 3 + ["reduce-grant"] * 2
        + ["map-location"] * 3 + ["reduce-commit"] * 2 + ["job-done"]
    )
    assert rig.counter("map.tasks") == 3 and rig.counter("reduce.tasks") == 2
    assert rig.result().counters.get("map.input_records") > 0
    # Spread placement over workers ordered by name.
    owners = [f["worker"] for k, f in rig.journal if k == "map-grant"]
    assert owners == ["w0", "w1", "w0"]
    status = rig.dispatcher.status(rig.now)
    assert status["jobs"]["job-1"]["done"] and status["active_jobs"] == 0


def test_worker_death_mid_map_bumps_epoch_and_ignores_the_stale_answer(oracle):
    rig = Rig(oracle)
    rig.held_back.add("w1")
    rig.submit()
    rig.run()                       # w0's maps land; w1's answer is in flight
    stale = [p for p in rig.pending if p[1] == "map-done"]
    assert [p[2]["mapper"] for p in stale] == [1]
    rig.kill("w1")
    bumps = [f for k, f in rig.journal if k == "epoch-bump"]
    assert [(f["mapper"], f["epoch"]) for f in bumps] == [(1, 1)]
    regrants = [f for k, f in rig.journal if k == "map-grant" and f["epoch"] == 1]
    assert [(f["mapper"], f["worker"]) for f in regrants] == [(1, "w0")]
    assert rig.counter("cluster.tasks.reassigned") == 2   # map 1 + reduce 1
    locations_before = rig.kinds().count("map-location")
    rig.step("map-done", stale[0][2])                     # epoch 0: superseded
    assert rig.kinds().count("map-location") == locations_before
    rig.run()
    assert rig.result().output == oracle
    assert rig.dispatcher.status(rig.now)["jobs"]["job-1"]["map_epochs"] == {
        "0": 0, "1": 1, "2": 0,
    }
    # The same death reported twice (EOF and lease) drains once.
    rig.step("worker-dead", {"worker": "w1", "gen": 2})
    assert rig.counter("cluster.workers.lost") == 1


def test_reduce_failure_under_degrade_spends_the_retry_budget(oracle):
    rig = Rig(oracle)
    rig.fail_next[("w1", "reduce")] = 1
    rig.fail_next[("w0", "reduce")] = 1
    rig.submit(retry_mode="degrade", task_retries=1)
    rig.run()
    # Reducer 1 failed on w1, was retried once on w0 (attempt 1, with the
    # budget spent); reducer 0's first failure on w0 was retried on w1.
    assert rig.counter("cluster.tasks.failed") == 2
    assert rig.counter("cluster.tasks.retried") == 2
    assert rig.result().output == oracle
    assert rig.dispatcher.status(rig.now)["jobs"]["job-1"]["reduce_attempts"] == {
        "0": 1, "1": 1,
    }

    poisoned = Rig(oracle)
    poisoned.fail_next[("w1", "reduce")] = 1
    poisoned.fail_next[("w0", "reduce")] = 2
    poisoned.submit(retry_mode="degrade", task_retries=1)
    poisoned.run()
    _result, error = poisoned.conclusions["job-1"]
    assert isinstance(error, ClusterTaskError)
    assert (error.kind, error.worker) == ("reduce", "w0")
    assert "job-done" not in poisoned.kinds()


def test_quarantine_drains_in_flight_work_but_keeps_served_outputs(oracle):
    rig = Rig(
        oracle, workers=("w0", "w1", "w2"),
        quarantine=QuarantineConfig(max_failures=1, probation_s=30.0),
    )
    rig.hold_reduces = True
    rig.submit(retry_mode="degrade", task_retries=2)
    rig.run()                                   # all three maps are served
    assert rig.kinds().count("map-location") == 3
    rig.fail_next[("w1", "reduce")] = 1
    rig.release_reduces()
    rig.run()
    assert rig.counter("cluster.quarantine.workers") == 1
    assert rig.dispatcher.status(rig.now)["quarantined_workers"] == ["w1"]
    # w1's completed map (mapper 1) is still served: no epoch bump at all.
    assert "epoch-bump" not in rig.kinds()
    assert rig.result().output == oracle
    # A later job gets nothing on w1 (the send check would have tripped)
    # until probation ends.
    rig.submit("job-2")
    rig.run()
    assert rig.result("job-2").output == oracle
    granted = {f["worker"] for k, f in rig.journal if f.get("job_id") == "job-2"
               and k in ("map-grant", "reduce-grant")}
    assert granted == {"w0", "w2"}
    rig.tick(advance=31.0)
    assert rig.counter("cluster.quarantine.rejoined") == 1


def test_preempt_parks_after_every_ack_and_resume_regrants(oracle):
    rig = Rig(oracle)
    rig.hold_reduces = True
    rig.submit()
    rig.run()
    rig.step("preempt-job", {"job_id": "job-1"})
    rig.step("preempt-job", {"job_id": "job-1"})        # idempotent
    assert rig.kinds().count("job-preempt") == 1
    assert "job-1" not in rig.conclusions               # acks still out
    rig.run()
    _result, error = rig.conclusions.pop("job-1")
    assert isinstance(error, JobPreemptedError)
    status = rig.dispatcher.status(rig.now)
    assert status["parked_jobs"] == 1 and status["jobs"]["job-1"]["parked"]
    assert rig.counter("cluster.preempt.acks") == 2
    rig.hold_reduces = False
    rig.step("job-resume", {"job_id": "job-1"})
    rig.run()
    assert rig.result().output == oracle
    assert rig.kinds().count("job-resume") == 1
    # Held map outputs were reused; only the reduces were re-granted.
    assert "epoch-bump" not in rig.kinds()
    assert rig.counter("cluster.resume.maps.reused") == 3
    attempts = [f["attempt"] for k, f in rig.journal if k == "reduce-grant"]
    assert attempts == [0, 0, 1, 1]


def test_lease_expires_on_tick_from_receipt_times(oracle):
    rig = Rig(oracle, lease_s=2.0)
    rig.held_back.add("w1")                             # wedged, not dead
    rig.submit()
    rig.run()
    for _ in range(25):                                 # 2.5 s of w0 beats
        rig.tick(advance=0.1)
        rig.step("heartbeat", {"worker": "w0", "job_id": "job-1", "progress": {}})
    assert rig.lost == [("w1", 2)]
    assert rig.counter("cluster.lease.expired") == 1
    assert rig.counter("cluster.workers.lost") == 1
    rig.run()
    assert rig.result().output == oracle
    # A heartbeat received before the tick is never counted as silence,
    # however late the dispatcher gets round to it.
    late = Rig(oracle, lease_s=2.0)
    late.dispatcher.handle(1.9, "heartbeat", {"worker": "w1", "job_id": ""})
    late.dispatcher.tick(3.0)
    assert late.lost == [("w0", 1)]


def test_malformed_frame_does_not_kill_dispatcher(oracle):
    # One bad frame (here: a gen that fails int()) used to raise out of
    # the lone dispatcher thread, hanging every active and future job.
    # It must be counted and dropped, and the latest one, traceback
    # included, kept for status.
    rig = Rig(oracle)
    assert rig.dispatcher.status(rig.now)["last_dispatch_error"] is None
    rig.step("worker-dead", {"worker": "w0", "gen": "bogus"})
    assert rig.counter("cluster.dispatch.errors") == 1
    first = rig.dispatcher.status(rig.now)["last_dispatch_error"]
    rig.submit()
    # A frame that names a job fails that job, and only that job.
    rig.step("map-done", {"job_id": "job-1", "mapper": 99, "epoch": 0,
                          "worker": "w0"})
    assert rig.counter("cluster.dispatch.errors") == 2
    assert "dispatcher error" in str(rig.conclusions["job-1"][1])
    second = rig.dispatcher.status(rig.now)["last_dispatch_error"]
    assert first["message"] == "worker-dead" and first["job"] is None
    assert first["error"] == "ValueError" and "bogus" in first["detail"]
    assert second["message"] == "map-done" and second["job"] == "job-1"
    for attrs in (first, second):
        assert attrs["traceback"].startswith("Traceback (most recent call last)")
        assert f"{attrs['error']}: {attrs['detail']}" in attrs["traceback"]
        assert "_route" in attrs["traceback"]
    rig.submit("job-2")
    rig.run()
    assert rig.result("job-2").output == oracle


def test_only_the_newest_concluded_jobs_are_retained(oracle):
    # A long-lived coordinator (a cluster-backed job server) must not
    # keep every finished job's state and output: past the bound the
    # oldest concluded job is dropped whole, and its id stays taken.
    rig = Rig(oracle)
    states = {}
    for n in range(1, 41):
        job_id = f"job-{n}"
        rig.submit(job_id)
        states[job_id] = weakref.ref(rig.dispatcher.job(job_id))
        rig.run()
        assert rig.result(job_id).output == oracle
    retained = [j for j in states if rig.dispatcher.job(j) is not None]
    assert len(retained) <= MAX_JOBS_RETAINED == 32
    assert retained == list(states)[-MAX_JOBS_RETAINED:]
    assert sorted(rig.dispatcher.status(rig.now)["jobs"]) == sorted(retained)
    gc.collect()
    for job_id in states.keys() - set(retained):
        assert states[job_id]() is None, f"{job_id}'s state and output held"
        assert rig.dispatcher.known(job_id), f"{job_id} reusable"
    assert not rig.dispatcher.known("job-41")


def test_job_submit_with_one_pickle_of_all_splits_fails_loudly(oracle):
    # A job-submit journaled before splits were pickled one per map holds
    # one pickle of the whole list.  Indexed, its bytes are ints, so the
    # job would fail only later, in its map tasks.  Live or replayed, it
    # must fail before any grant, naming the field, and leave the
    # dispatcher running.
    job, pairs = _job()
    live = Rig(oracle)
    live.submit(splits=pickle.dumps(split_input(pairs, NUM_MAPS)))
    replayed = Rig(oracle, records=live.journal)
    replayed.step("job-recover", {"job_id": "job-1"})
    for rig in (live, replayed):
        result, error = rig.conclusions["job-1"]
        assert result is None and isinstance(error, ClusterJobError)
        assert "dispatcher error" in str(error) and "splits" in str(error)
        assert rig.kinds() == ["job-submit"]
    live.submit("job-2")
    live.run()
    assert live.result("job-2").output == oracle


def test_result_output_is_in_reducer_order_and_not_dispatcher_state(oracle):
    # Reduces held until every map is done, then w1 (reducer 1) finishes
    # before w0 (reducer 0).  The result is keyed in reducer order and is
    # a copy: the dispatcher's output dict is journal-replayable state.
    rig = Rig(oracle)
    rig.hold_reduces = True
    rig.submit()
    rig.run()
    rig.hold_reduces = False
    for name in ("w1", "w0"):
        rig.workers[name].finish_ready()
        rig.run()
    state = rig.dispatcher.job("job-1")
    assert list(state.output) == [1, 0]
    output = rig.result().output
    assert list(output) == [0, 1] and output == oracle
    assert output is not state.output


# -- (ii) crash at every journal append --------------------------------------


def test_replay_of_every_journal_prefix_matches_live_state_and_finishes(oracle):
    live = Rig(oracle)
    live.submit()
    live.run()
    live.snapshots.append(live.replayable())
    assert len(live.snapshots) == len(live.journal) + 1

    for crash_at in range(len(live.journal) + 1):
        # The coordinator died with exactly this prefix on disk; its
        # successor starts from the journal and from workers that kept
        # nothing (every map re-executes, every reduce is re-granted).
        rebuilt = Rig(oracle, workers=(), records=live.journal[:crash_at])
        state = rebuilt.dispatcher.job("job-1")
        if crash_at == 0:
            assert state is None
            continue
        assert rebuilt.replayable() == live.snapshots[crash_at], crash_at
        rebuilt.join("w0")
        rebuilt.join("w1")
        assert rebuilt.dispatcher.recovered() == {"job-1": state.done}
        unfinished = [] if state.done else ["job-1"]
        for job_id in unfinished:
            rebuilt.step("job-recover", {"job_id": job_id})
        rebuilt.run()
        if unfinished:
            assert rebuilt.result().output == oracle, crash_at
            assert rebuilt.kinds()[-1] == "job-done"
        # Counters merged once per task, however often it re-ran.
        final = rebuilt.replayable()
        assert final["counters"] == live.snapshots[-1]["counters"], crash_at
        assert final["output"] == oracle


# -- the split itself ---------------------------------------------------------


def _module_ast(name):
    import ast
    import importlib.util

    with open(importlib.util.find_spec(name).origin) as fh:
        return ast.parse(fh.read())


#: What a pure core may not import (worker_core's test adds ``signal``).
IO_MODULES = {
    "socket", "threading", "queue", "time", "select", "os",
    "subprocess", "multiprocessing",
}


def imported_modules(name):
    """Top-level package of every import in module ``name``."""
    import ast

    imported = set()
    for node in ast.walk(_module_ast(name)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    return imported


def written_attributes(name):
    """Every attribute module ``name`` assigns, augments or deletes:
    x.map_epoch = ..., x.map_epoch[m] += 1, del x.output[r], ..."""
    import ast

    written = set()
    for node in ast.walk(_module_ast(name)):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute):
                written.add(target.attr)
    return written


def test_dispatcher_module_imports_no_io_clock_or_threads():
    imported = imported_modules("repro.cluster.dispatch")
    assert not imported & IO_MODULES, sorted(imported & IO_MODULES)


def test_coordinator_shell_makes_no_scheduling_decision():
    scheduling_state = {
        "map_epoch", "reduce_attempt", "map_owner", "reduce_owner",
        "map_locations", "output",
    }
    written = written_attributes("repro.cluster.coordinator")
    assert not written & scheduling_state, sorted(written & scheduling_state)

"""The pure worker core, driven step by step with no sockets and no clock.

:class:`~repro.cluster.worker_core.WorkerCore` takes coordinator
messages, link events, task outcomes, serve counts and ticks in, and
gives sends, task starts and stops, job opens and closes and ``die``
out.  These tests run the worker's whole protocol — register-first
redelivery, the attempt-matched preempt table, the job table, the kill
spec — against a recording shell, and then a whole cluster (one real
:class:`~repro.cluster.dispatch.Dispatcher`, two cores, in-memory
shuffle stores, a FIFO for a network) in one thread, with a worker
dropped at every delivery index and the invariants checked at every
delivery.

Nothing here sleeps, forks, opens a socket or reads a clock.
"""

from __future__ import annotations

import ast
import itertools
import pickle
from collections import deque

import pytest

from repro.apps.demo import demo_job_and_input
from repro.cluster.dispatch import Dispatcher
from repro.cluster.shuffle import ShuffleStore
from repro.cluster.worker_core import WorkerCore, done, failed, preempted
from repro.core.job import split_input
from repro.core.types import Counters, ExecutionMode
from repro.dfs.wire import WireConfig, decode_batches
from repro.engine.base import (
    barrier_merge_sort,
    interleave_arrival,
    run_map_task_encoded,
    run_reduce_task,
)
from repro.engine.local import LocalEngine
from repro.engine.recovery import RecoveryConfig
from repro.obs import JobObservability
from tests.cluster.test_dispatch import (
    IO_MODULES,
    _module_ast,
    imported_modules,
    written_attributes,
)

STEP_S = 0.01
REPORTS = ("map-done", "reduce-done", "reduce-preempted", "task-failed")


class RecordingShell:
    """A :class:`WorkerShell` that writes down what the core asked for.

    ``fail_sends`` holds the indices (counted over every send attempted)
    at which the link breaks; ``wire`` is what reached the other side.
    """

    def __init__(self, fail_sends=()):
        self.fail_sends = set(fail_sends)
        self.up = False           # False from a failed send until a redial
        self.attempted = []       # (kind, fields, went out?)
        self.wire = []            # (kind, fields) that went out, in order
        self.calls = []           # every other effect, (name, *args)
        self.frames = 0
        self.rolled_back = []
        self.last_frame = {}
        self.final_frame = None   # what close_job returns

    def send(self, kind, fields):
        ok = len(self.attempted) not in self.fail_sends
        self.attempted.append((kind, fields, ok))
        if ok:
            self.wire.append((kind, fields))
        else:
            self.up = False
        return ok

    def open_job(self, job_id, fields):
        self.calls.append(("open_job", job_id))

    def close_job(self, job_id):
        self.calls.append(("close_job", job_id))
        return self.final_frame

    def start_map(self, job_id, mapper, epoch, grant, fail):
        self.calls.append(("start_map", job_id, mapper, epoch, fail))

    def start_reduce(self, job_id, reducer, attempt, grant, fail, inject):
        self.calls.append(
            ("start_reduce", job_id, reducer, attempt, fail, inject)
        )

    def stop_reduce(self, job_id, reducer, attempt):
        self.calls.append(("stop_reduce", job_id, reducer, attempt))

    def locate(self, job_id, mapper, host, port, epoch):
        self.calls.append(("locate", job_id, mapper, host, port, epoch))

    def beat(self, job_id, active):
        self.frames += 1
        self.last_frame[job_id] = b"frame-%d" % self.frames
        progress = {r: {0: 10 * r + attempt} for r, attempt in active.items()}
        return progress, self.last_frame[job_id]

    def rollback(self, job_id):
        self.rolled_back.append(self.last_frame[job_id])

    def die(self):
        self.calls.append(("die",))

    def named(self, name):
        return [call for call in self.calls if call[0] == name]


def _core(shell, name="w0"):
    return WorkerCore(name, 4242, "10.0.0.7", 9007, shell)


def _job_message(job_id="job-1", kill=None):
    return {
        "job_id": job_id, "job": b"", "wire": b"", "recovery": b"",
        "checkpoint_root": "", "kill": kill,
    }


def _assign_map(mapper, epoch=0, job_id="job-1"):
    return "assign-map", {
        "job_id": job_id, "mapper": mapper, "epoch": epoch, "split": b"",
    }


def _assign_reduce(reducer, attempt=0, job_id="job-1"):
    return "assign-reduce", {
        "job_id": job_id, "reducer": reducer, "attempt": attempt,
        "num_maps": 3, "prior": {},
    }


def _preempt(reducer, attempt, job_id="job-1"):
    return "preempt-reduce", {
        "job_id": job_id, "reducer": reducer, "attempt": attempt,
    }


# -- (i) the link: register first, reports exactly once, beats never queued --

#: A 3-map, 2-reducer job as one worker lives it: every report kind, a
#: re-granted reducer, beats with and without a job.  ``("finish", ...)``
#: is an executor reporting; everything else is a coordinator message.
SCRIPT = (
    [("tick",), ("handle", "job", _job_message())]
    + [("handle", *_assign_map(m)) for m in range(3)]
    + [("handle", *_assign_reduce(r)) for r in range(2)]
    + [("tick",)]
    + [("finish", "map", m, 0, done(counters={"m": m})) for m in range(3)]
    + [("handle", "location", {"job_id": "job-1", "mapper": m, "epoch": 0,
                                "host": "10.0.0.7", "port": 9007})
       for m in range(3)]
    + [
        ("tick",),
        ("finish", "reduce", 0, 0, done(output=b"out-0", counters={"r": 0})),
        ("handle", *_preempt(1, 0)),
        ("finish", "reduce", 1, 0, preempted(7)),
        ("handle", *_preempt(1, 0)),             # nothing runs: acked at once
        ("handle", *_assign_reduce(1, attempt=1)),
        ("handle", *_assign_map(1, epoch=1)),
        ("tick",),
        ("finish", "map", 1, 1, failed("Boom: map")),
        ("finish", "reduce", 1, 1, failed("Boom: reduce")),
        ("tick",),
        ("handle", "job-done", {"job_id": "job-1"}),
        ("tick",),
    ]
)
HELD = [("job-1", 0, 0)]


def _play(fail_sends=(), reconnect=True, script=SCRIPT):
    """Run SCRIPT; redial (as the shell does) whenever the link is down.

    Returns the shell and, for each ``connected()``, the index of its
    first send and the reduce attempts that were running at the time.
    """
    shell = RecordingShell(fail_sends)
    shell.final_frame = b"last-frame"
    core = _core(shell)
    running = {}              # reducer -> attempt, kept by the test itself
    dials = []

    def dial():
        dials.append((len(shell.attempted), sorted(
            ("job-1", reducer, attempt) for reducer, attempt in running.items()
        )))
        shell.up = True
        return core.connected(HELD)

    now = 0.0
    dial()
    while reconnect and not shell.up:
        dial()
    for step in script:
        now += STEP_S
        if step[0] == "tick":
            core.tick(now)
        elif step[0] == "handle":
            _op, kind, fields = step
            if kind == "assign-reduce":
                running[fields["reducer"]] = fields["attempt"]
            core.handle(now, kind, fields)
        else:
            _op, kind, index, attempt, outcome = step
            if kind == "reduce" and running.get(index) == attempt:
                del running[index]
            core.task_finished("job-1", kind, index, attempt, outcome)
        while reconnect and not shell.up:         # the shell's redial loop
            dial()
    return shell, core, dials


def _reports(shell):
    return [(kind, fields) for kind, fields in shell.wire if kind in REPORTS]


def _check_link_rules(shell, dials, clean_reports):
    # Register is the first frame of every link, and says what is held
    # and what is running.
    for first_send, running in dials:
        kind, fields, _ok = shell.attempted[first_send]
        assert kind == "register"
        assert fields["held"] == HELD and fields["active"] == running
        assert (fields["worker"], fields["pid"]) == ("w0", 4242)
        assert (fields["shuffle_host"], fields["shuffle_port"]) == ("10.0.0.7", 9007)
    assert sum(kind == "register" for kind, _f, _ok in shell.attempted) == len(dials)
    # Every report arrives exactly once, in the order it was produced.
    assert _reports(shell) == clean_reports
    # No heartbeat is replayed; a beat that failed handed its delta back
    # exactly once and that frame never reached the wire.
    beats = [fields["telemetry"] for kind, fields in shell.wire
             if kind == "heartbeat" and "telemetry" in fields]
    assert len(beats) == len(set(beats))
    failed_beats = [fields["telemetry"] for kind, fields, ok in shell.attempted
                    if kind == "heartbeat" and not ok and "telemetry" in fields
                    and fields["telemetry"] != b"last-frame"]
    assert shell.rolled_back == failed_beats
    assert not set(failed_beats) & set(beats)


def test_clean_script_sends_each_message_kind_once_per_event():
    shell, core, dials = _play()
    assert len(dials) == 1 and not core._pending
    kinds = [kind for kind, _fields in shell.wire]
    assert kinds[0] == "register"
    assert [k for k in kinds if k in REPORTS] == (
        ["map-done"] * 3 + ["reduce-done", "reduce-preempted", "reduce-preempted",
                            "task-failed", "task-failed"]
    )
    reports = dict(enumerate(_reports(shell)))
    assert reports[0][1] == {
        "job_id": "job-1", "mapper": 0, "epoch": 0, "worker": "w0",
        "counters": {"m": 0},
    }
    assert reports[3][1] == {
        "job_id": "job-1", "reducer": 0, "attempt": 0, "worker": "w0",
        "output": b"out-0", "counters": {"r": 0},
    }
    assert reports[4][1]["records"] == 7 and reports[5][1]["records"] == 0
    assert reports[6][1] == {
        "job_id": "job-1", "kind": "map", "index": 1, "attempt": 0,
        "worker": "w0", "error": "Boom: map",
    }
    assert reports[7][1]["attempt"] == 1
    # Beats: idle before the job and after it, per-job progress between,
    # and the closing job's last telemetry frame.
    beats = [fields for kind, fields in shell.wire if kind == "heartbeat"]
    assert beats[0] == {"worker": "w0", "job_id": "", "progress": {}}
    assert beats[1]["progress"] == {0: {0: 0}, 1: {0: 10}}
    assert beats[-2] == {"worker": "w0", "job_id": "job-1", "progress": {},
                         "telemetry": b"last-frame"}
    assert beats[-1] == beats[0]
    assert shell.rolled_back == []


def test_link_dropped_at_every_send_index_loses_and_repeats_nothing():
    clean, _core_, _dials = _play()
    clean_reports = _reports(clean)
    assert len(clean_reports) == 8
    for index in range(len(clean.attempted)):
        shell, core, dials = _play(fail_sends={index})
        assert len(dials) == 2, index
        _check_link_rules(shell, dials, clean_reports)
        assert not core._pending


def test_flush_failing_at_every_queue_position_keeps_the_unsent_suffix():
    clean_reports = _reports(_play()[0])
    # The link is down for the whole job: every report queues, no beat
    # is even collected.
    shell, core, dials = _play(fail_sends={0}, reconnect=False)
    assert shell.wire == [] and shell.frames == 0 and shell.rolled_back == []
    assert [(k, f) for k, f in core._pending] == clean_reports
    for position in range(len(clean_reports) + 1):
        shell, core, dials = _play(fail_sends={0}, reconnect=False)
        # Redial: register goes out, then the flush breaks at `position`
        # (send 0 was the failed first register, send 1 the new one).
        shell.fail_sends = {2 + position}
        linked = core.connected(HELD)
        assert linked == (position == len(clean_reports))
        assert _reports(shell) == clean_reports[:position]
        assert [(k, f) for k, f in core._pending] == clean_reports[position:]
        if not linked:
            assert core.connected(HELD)
        assert _reports(shell) == clean_reports and not core._pending
        assert [k for k, _f in shell.wire].count("register") == 2 - linked


def test_two_drops_in_one_run():
    clean_reports = _reports(_play()[0])
    sends = len(_play()[0].attempted)
    for first, second in itertools.combinations(range(0, sends, 3), 2):
        shell, _core_, dials = _play(fail_sends={first, second})
        _check_link_rules(shell, dials, clean_reports)


# -- (ii) the attempt table ---------------------------------------------------


def _open(kill=None, name="w0"):
    shell = RecordingShell()
    core = _core(shell, name)
    assert core.connected([])
    core.handle(0.0, "job", _job_message(kill=kill))
    return shell, core


def test_preempt_stops_exactly_the_running_attempt():
    shell, core = _open()
    core.handle(0.1, *_assign_reduce(0, attempt=2))
    core.handle(0.2, *_preempt(0, 2))
    assert shell.named("stop_reduce") == [("stop_reduce", "job-1", 0, 2)]
    assert _reports(shell) == []                 # the attempt acks, not the core
    core.task_finished("job-1", "reduce", 0, 2, preempted(40))
    assert _reports(shell)[-1][1]["records"] == 40


def test_preempt_for_an_attempt_that_is_gone_is_acked_at_once():
    shell, core = _open()
    core.handle(0.1, *_preempt(1, 0))            # never started here
    core.handle(0.2, *_assign_reduce(0))
    core.task_finished("job-1", "reduce", 0, 0, done(output=b"", counters={}))
    core.handle(0.3, *_preempt(0, 0))            # already finished
    acks = [f for k, f in _reports(shell) if k == "reduce-preempted"]
    assert acks == [
        {"job_id": "job-1", "reducer": 1, "attempt": 0, "worker": "w0", "records": 0},
        {"job_id": "job-1", "reducer": 0, "attempt": 0, "worker": "w0", "records": 0},
    ]
    assert shell.named("stop_reduce") == []


def test_stale_preempt_is_ignored_while_a_newer_attempt_runs():
    shell, core = _open()
    core.handle(0.1, *_assign_reduce(0, attempt=0))
    core.handle(0.2, *_assign_reduce(0, attempt=1))
    core.handle(0.3, *_preempt(0, 0))
    assert shell.named("stop_reduce") == [] and _reports(shell) == []


def test_late_finish_of_an_old_attempt_never_clears_the_new_one():
    shell, core = _open()
    core.handle(0.1, *_assign_reduce(0, attempt=0))
    core.handle(0.2, *_assign_reduce(0, attempt=1))
    core.task_finished("job-1", "reduce", 0, 0, failed("late"))
    shell.wire.clear()
    core.connected([])
    assert shell.wire[0][1]["active"] == [("job-1", 0, 1)]
    core.handle(0.3, *_preempt(0, 1))            # still stoppable
    assert shell.named("stop_reduce") == [("stop_reduce", "job-1", 0, 1)]
    core.task_finished("job-1", "reduce", 0, 1, preempted(3))
    shell.wire.clear()
    core.connected([])
    assert shell.wire[0][1]["active"] == []


# -- (iii) the job table ------------------------------------------------------


def test_duplicate_job_keeps_the_context():
    shell, core = _open()
    core.handle(0.1, *_assign_reduce(0))
    core.handle(0.2, "job", _job_message())      # the re-sync after a rejoin
    assert shell.named("open_job") == [("open_job", "job-1")]
    shell.wire.clear()
    core.connected([])
    assert shell.wire[0][1]["active"] == [("job-1", 0, 0)]


def test_messages_for_an_unknown_job_are_dropped():
    shell = RecordingShell()
    core = _core(shell)
    core.connected([])
    for message in (_assign_map(0), _assign_reduce(0), _preempt(0, 0),
                    ("location", {"job_id": "job-1", "mapper": 0, "epoch": 0,
                                  "host": "h", "port": 1}),
                    ("job-done", {"job_id": "job-1"})):
        core.handle(0.1, *message)
    assert shell.calls == [] and [k for k, _f in shell.wire] == ["register"]


def test_job_done_then_stragglers():
    shell, core = _open()
    core.handle(0.1, *_assign_map(0))
    core.handle(0.2, *_assign_reduce(0))
    core.handle(0.3, "job-done", {"job_id": "job-1"})
    assert shell.named("close_job") == [("close_job", "job-1")]
    calls = list(shell.calls)
    core.handle(0.4, *_assign_map(1))            # late grant: dropped
    core.handle(0.5, "job-done", {"job_id": "job-1"})
    assert shell.calls == calls
    # Executors that were still running report all the same; the
    # coordinator drops what it no longer wants.
    core.task_finished("job-1", "map", 0, 0, done(counters={}))
    core.task_finished("job-1", "reduce", 0, 0, failed("gone"))
    assert [k for k, _f in _reports(shell)] == ["map-done", "task-failed"]
    core.tick(0.6)
    assert shell.wire[-1] == (
        "heartbeat", {"worker": "w0", "job_id": "", "progress": {}}
    )
    # Two jobs, one closes: the other keeps beating.
    core.handle(0.7, "job", _job_message("job-2"))
    core.handle(0.8, "job", _job_message("job-3"))
    core.handle(0.9, "job-done", {"job_id": "job-2"})
    shell.wire.clear()
    core.tick(1.0)
    assert [f["job_id"] for _k, f in shell.wire] == ["job-3"]


def test_shutdown_stops_the_core():
    shell, core = _open()
    assert not core.stopped
    core.handle(0.1, "shutdown", {})
    assert core.stopped


# -- (iv) the kill spec: every trigger x every victim -------------------------

VICTIMS = {"own name": "w0", "any": "*", "another worker": "w9", "absent": None}


def _spec(trigger, victim, **extra):
    spec = {"trigger": trigger, **extra}
    if victim is not None:
        spec["worker"] = victim
    return spec


def _died(shell):
    return bool(shell.named("die"))


@pytest.mark.parametrize("victim", VICTIMS)
def test_kill_spec_decision_table(victim):
    armed = VICTIMS[victim] in ("w0", "*")

    # serves: die once the shuffle server has served `count` batches.
    shell, core = _open(_spec("serves", VICTIMS[victim], count=3))
    core.served(2)
    assert not _died(shell)
    core.served(3)
    assert _died(shell) == armed

    # reduce-records: reduce attempts run under a kill-after-N injector.
    shell, core = _open(_spec("reduce-records", VICTIMS[victim], count=25))
    core.handle(0.1, *_assign_reduce(0))
    assert shell.named("start_reduce")[0][-1] == (("kill", 25) if armed else None)

    # map-done: die after reporting the Nth completed map (failures and
    # reduces do not count).
    shell, core = _open(_spec("map-done", VICTIMS[victim], count=2))
    core.task_finished("job-1", "map", 0, 0, done(counters={}))
    core.task_finished("job-1", "map", 1, 0, failed("x"))
    core.task_finished("job-1", "reduce", 0, 0, done(output=b"", counters={}))
    assert not _died(shell)
    core.task_finished("job-1", "map", 2, 0, done(counters={}))
    assert _died(shell) == armed
    assert [k for k, _f in _reports(shell)].count("map-done") == 2  # sent first

    # preempt-kill: die on a stop request, before it can be acked; with
    # delay_ms, folds are throttled so the request lands mid-reduce.
    shell, core = _open(_spec("preempt-kill", VICTIMS[victim], delay_ms=4))
    core.handle(0.1, *_assign_reduce(0))
    assert shell.named("start_reduce")[0][-1] == (("delay", 0.004) if armed else None)
    core.handle(0.2, *_preempt(0, 0))
    assert _died(shell) == armed
    assert bool(shell.named("stop_reduce")) == (not armed)
    shell, core = _open(_spec("preempt-kill", VICTIMS[victim]))
    core.handle(0.1, *_assign_reduce(0))
    assert shell.named("start_reduce")[0][-1] is None

    # fail-tasks: the next `count` tasks raise, maps and reduces alike.
    shell, core = _open(_spec("fail-tasks", VICTIMS[victim], count=2))
    core.handle(0.1, *_assign_map(0))
    core.handle(0.2, *_assign_reduce(0))
    core.handle(0.3, *_assign_map(1))
    fails = [call[4] for call in shell.calls if call[0].startswith("start_")]
    assert fails == ([True, True, False] if armed else [False] * 3)
    shell, core = _open(_spec("fail-tasks", VICTIMS[victim]))     # every task
    for mapper in range(5):
        core.handle(0.1, *_assign_map(mapper))
    assert [call[4] for call in shell.named("start_map")] == [armed] * 5

    # reduce-delay: throttle only.
    shell, core = _open(_spec("reduce-delay", VICTIMS[victim], delay_ms=2.5))
    core.handle(0.1, *_assign_reduce(0))
    assert shell.named("start_reduce")[0][-1] == (("delay", 0.0025) if armed else None)
    core.handle(0.2, *_preempt(0, 0))
    assert not _died(shell)


def test_no_kill_spec_arms_nothing():
    shell, core = _open(kill=None)
    core.served(10**6)
    core.handle(0.1, *_assign_reduce(0))
    core.handle(0.2, *_assign_map(0))
    core.task_finished("job-1", "map", 0, 0, done(counters={}))
    assert not _died(shell)
    assert shell.named("start_reduce")[0][-2:] == (False, None)


# -- (v) a whole cluster in one thread ----------------------------------------

NUM_MAPS = 3
NUM_REDUCERS = 2
WIRE = WireConfig(max_batch_records=8)


class SimWorker:
    """A worker whose executors run synchronously on an in-memory store.

    A map runs the moment it is granted; a reduce runs once this worker
    knows, for every map of the job, a location whose store still holds
    that output at that epoch.  ``conn`` counts its control links.
    """

    def __init__(self, cluster, name, port):
        self.cluster, self.name = cluster, name
        self.store = ShuffleStore()
        self.address = (name, port)
        self.jobs = {}            # job_id -> {"job", "locations"}
        self.waiting = []         # granted reduces: (job_id, reducer, attempt, grant)
        self.conn = 0
        self.dead = False
        self.core = WorkerCore(name, 1000 + port, name, port, self)

    def dial(self):
        self.conn += 1
        assert self.core.connected(self.store.held())

    # -- WorkerShell -------------------------------------------------------

    def send(self, kind, fields):
        self.cluster.net.append(("coord", self.name, self.conn, kind, fields))
        return True

    def open_job(self, job_id, fields):
        self.jobs[job_id] = {"job": pickle.loads(fields["job"]), "locations": {}}

    def close_job(self, job_id):
        del self.jobs[job_id]
        self.store.drop_job(job_id)
        self.waiting = [task for task in self.waiting if task[0] != job_id]
        return None

    def start_map(self, job_id, mapper, epoch, grant, fail):
        job = self.jobs[job_id]["job"]
        counters = Counters()
        self.store.publish(job_id, mapper, epoch, run_map_task_encoded(
            job, pickle.loads(grant["split"]), counters, WIRE
        ))
        self.core.task_finished(
            job_id, "map", mapper, epoch, done(counters=counters.as_dict())
        )

    def start_reduce(self, job_id, reducer, attempt, grant, fail, inject):
        assert inject is None and not fail
        self.waiting.append((job_id, reducer, attempt, grant))

    def stop_reduce(self, job_id, reducer, attempt):
        raise AssertionError("nothing preempts here")

    def locate(self, job_id, mapper, host, port, epoch):
        self.jobs[job_id]["locations"][mapper] = (host, port, epoch)

    def beat(self, job_id, active):
        return {reducer: {} for reducer in active}, None

    def die(self):
        raise AssertionError("no kill spec here")

    # -- the reduce executor -----------------------------------------------

    def _fetch(self, job_id, reducer, num_maps):
        """Every map's output for ``reducer``, or None if any is out of reach."""
        locations = self.jobs[job_id]["locations"]
        outputs = []
        for mapper in range(num_maps):
            if mapper not in locations:
                return None
            host, port, epoch = locations[mapper]
            peer = self.cluster.stores.get((host, port))
            frames = []
            while True:
                held = peer and peer.read(job_id, mapper, reducer, len(frames))
                if not held or held[0] != epoch:
                    return None       # dead peer, dropped or superseded output
                if held[1] is None:
                    break
                frames.append(held[1])
            outputs.append(frames)
        return [decode_batches(frames, WIRE) for frames in outputs]

    def run_ready(self):
        for task in list(self.waiting):
            job_id, reducer, attempt, grant = task
            outputs = self._fetch(job_id, reducer, grant["num_maps"])
            if outputs is None:
                continue
            self.waiting.remove(task)
            job = self.jobs[job_id]["job"]
            merge = (barrier_merge_sort if job.mode is ExecutionMode.BARRIER
                     else interleave_arrival)
            counters = Counters()
            produced = run_reduce_task(job, merge(outputs), counters)
            self.core.task_finished(job_id, "reduce", reducer, attempt, done(
                output=pickle.dumps(produced), counters=counters.as_dict()
            ))


class SimCluster:
    """One dispatcher, N worker cores and a FIFO of messages in flight.

    The FIFO stands in for every control link at once (global FIFO is
    per-link FIFO).  A message carries the link it was sent on and is
    dropped on delivery if that link has been reset since.  Invariants
    are checked at every delivery.
    """

    def __init__(self, workers=("w0", "w1")):
        self.now = 0.0
        self.net = deque()        # (to, worker, conn, kind, fields)
        self.journal = []
        self.conclusions = {}
        self.gen = 0
        self.gens = {}            # (worker, conn) -> coordinator-side generation
        self.links = {}           # worker -> the conn the coordinator writes to
        self.known_dead = set()   # deaths the dispatcher has been told of
        self.delivered = 0
        self.dispatcher = Dispatcher(
            JobObservability(), log=lambda kind, fields: self.journal.append(
                (kind, dict(fields))
            ),
            send=self._send,
            conclude=lambda job_id, result, error: self.conclusions.update(
                {job_id: (result, error)}
            ),
            lost=lambda worker, gen: None,
        )
        self.workers = {
            name: SimWorker(self, name, 9000 + i) for i, name in enumerate(workers)
        }
        self.stores = {w.address: w.store for w in self.workers.values()}
        for worker in self.workers.values():
            worker.dial()
        self.run(until=lambda: len(self.gens) == len(workers))

    def _send(self, worker, kind, fields):
        if kind in ("assign-map", "assign-reduce"):
            assert worker not in self.known_dead, f"{kind} to dead {worker}"
        self.net.append(("worker", worker, self.links[worker], kind, fields))

    def submit(self, job, pairs, job_id="job-1"):
        self.net.append(("coord", None, None, "job-start", {
            "job_id": job_id, "job": pickle.dumps(job),
            "splits": pickle.dumps(split_input(pairs, NUM_MAPS)),
            "wire": pickle.dumps(WIRE),
            "recovery": pickle.dumps(RecoveryConfig()),
            "checkpoint_root": "", "placement": "spread", "deadline_s": 60.0,
            "task_retries": 0, "retry_mode": "fail_fast", "kill": None,
        }))

    def _deliver(self):
        to, name, conn, kind, fields = self.net.popleft()
        self.now += STEP_S
        self.delivered += 1
        worker = self.workers.get(name)
        if worker is not None and (worker.dead or conn != worker.conn):
            return                                # sent on a link since reset
        if to == "worker":
            worker.core.handle(self.now, kind, fields)
        elif kind == "register":
            # What the coordinator's receiver thread does with one.
            self.gen += 1
            self.gens[name, conn] = self.gen
            self.links[name] = conn
            self.known_dead.discard(name)
            self.dispatcher.handle(
                self.now, "worker-joined", {**fields, "gen": self.gen}
            )
        else:
            assert worker is None or (name, conn) in self.gens, (
                f"{kind} from {name} before its register"
            )
            if kind == "worker-dead":
                self.known_dead.add(fields["worker"])
            self.dispatcher.handle(self.now, kind, fields)
        for worker in self.workers.values():
            if not worker.dead:
                worker.run_ready()
        if self.delivered % 4 == 0:
            for worker in self.workers.values():
                if not worker.dead:
                    worker.core.tick(self.now)
            self.dispatcher.tick(self.now)
        self._check()

    def _check(self):
        commits = [(f["job_id"], f["reducer"]) for k, f in self.journal
                   if k == "reduce-commit"]
        assert len(commits) == len(set(commits)), "a reducer committed twice"
        for worker in self.workers.values():
            assert not worker.core._pending       # the sim's sends never fail
        assert not self.dispatcher.obs.counters.get("cluster.dispatch.errors")

    def _hang_up(self, name):
        """The coordinator's receiver sees EOF on the worker's link."""
        worker = self.workers[name]
        self.net.append(("coord", None, None, "worker-dead", {
            "worker": name, "gen": self.gens.get((name, worker.conn), 0),
        }))

    def kill(self, name):
        """SIGKILL: the process, its store and everything in flight go."""
        self._hang_up(name)
        worker = self.workers[name]
        worker.dead = True
        del self.stores[worker.address]

    def reset_link(self, name):
        """The control link drops; the worker survives and redials."""
        self._hang_up(name)
        worker = self.workers[name]
        worker.core.disconnected()
        worker.dial()

    def run(self, until, fault=None, at=None):
        for _ in range(2000):
            if until():
                return
            if self.delivered == at:
                fault()
                at = None
            assert self.net, "the cluster went quiet before the job finished"
            self._deliver()
        raise AssertionError("no conclusion after 2000 deliveries")


def _sim_job(app, mode):
    job, pairs = demo_job_and_input(
        app, mode, records=100, num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS,
        seed=4,
    )
    oracle = LocalEngine().run(job, pairs, num_maps=NUM_MAPS).output
    return job, pairs, {r: pickle.dumps(oracle[r]) for r in oracle}


def _run_sim(job, pairs, fault=None, at=None):
    cluster = SimCluster()
    cluster.submit(job, pairs)
    start = cluster.delivered
    cluster.run(
        until=lambda: "job-1" in cluster.conclusions,
        fault=fault and (lambda: getattr(cluster, fault)("w1")),
        at=None if at is None else start + at,
    )
    result, error = cluster.conclusions["job-1"]
    assert error is None, error
    return cluster, {r: pickle.dumps(out) for r, out in result.output.items()}


@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("app", ["wc", "sort"])
def test_one_thread_cluster_matches_the_oracle_under_every_drop(app, mode):
    job, pairs, oracle = _sim_job(app, mode)
    clean, output = _run_sim(job, pairs)
    assert output == oracle
    maps = clean.dispatcher.job("job-1").num_maps
    assert maps > 1 and [k for k, _f in clean.journal].count("map-grant") == maps
    assert clean.dispatcher.obs.counters.get("cluster.heartbeats") > 0
    deliveries = clean.delivered
    for fault in ("kill", "reset_link"):
        moved = 0
        for at in range(deliveries):
            cluster, output = _run_sim(job, pairs, fault=fault, at=at)
            assert output == oracle, (fault, at)
            counters = cluster.dispatcher.obs.counters
            moved += counters.get("cluster.tasks.reassigned")
            if fault == "reset_link":
                assert counters.get("cluster.workers.rejoined") <= 1
        assert moved > 0, fault                   # the faults did land mid-job


# -- (vi) the split itself ----------------------------------------------------


def test_worker_core_imports_no_io_clock_threads_or_signals():
    banned = IO_MODULES | {"signal"}
    imported = imported_modules("repro.cluster.worker_core")
    assert not imported & banned, sorted(imported & banned)


def test_worker_shell_never_writes_the_cores_state():
    core_state = {
        "active", "preempt", "pending", "_pending", "_linked", "kill",
        "fail_tasks_left", "map_dones", "_kill_serves", "stopped",
    }
    written = written_attributes("repro.cluster.worker")
    assert not written & core_state, sorted(written & core_state)
    # One os.kill, and it is the shell's.
    kills = [
        node for name in ("repro.cluster.worker", "repro.cluster.worker_core")
        for node in ast.walk(_module_ast(name))
        if isinstance(node, ast.Attribute) and node.attr == "kill"
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    ]
    assert len(kills) == 1

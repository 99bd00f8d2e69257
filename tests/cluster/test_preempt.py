"""Checkpoint-driven preemption, end to end on the real cluster.

The contract under test: ``preempt`` asks every uncommitted reduce
attempt to stop at its next wire-batch boundary, cutting a checkpoint
when checkpointing is enabled; the job parks (its submitter raises
:class:`JobPreemptedError`) with map outputs still held on workers; and
``resume_job`` re-grants the stopped reduces, which restore from their
checkpoints and replay only the un-consumed tail — byte-identical
output with strictly fewer refolds than a from-scratch rerun.  The
reconciliation invariant must survive every path::

    restored + replayed + refolded + live == map.output_records

Two chaos rows sharpen the claim: a worker SIGKILLed by the
``preempt-reduce`` directive itself (death mid-preemption-checkpoint),
and a coordinator SIGKILLed between the write-ahead ``job-preempt``
journal record and any worker ack — the crash point where the intent
is durable but nothing has acted on it yet.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import threading
import time

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.cluster import ClusterRuntime, JobPreemptedError
from repro.cluster.coordinator import Coordinator
from repro.cluster.engine import cluster_recovery
from repro.cluster.journal import Journal, replay_journal
from repro.cluster.worker import worker_main
from repro.core.types import ExecutionMode
from repro.dfs.wire import WireConfig
from repro.engine.recovery import CheckpointPolicy
from repro.engine.threaded import ThreadedEngine
from repro.server import JobServer

RECORDS = 2400
NUM_MAPS = 3
NUM_REDUCERS = 2
WIRE = WireConfig(max_batch_records=32)

_CTX = multiprocessing.get_context("fork")

#: Every records-folded bucket a committed reduce attempt reports; the
#: four must sum to the map-side output, whatever mix of checkpoint
#: restore, tail replay, refold and first-time folding produced them.
BUCKETS = (
    "reduce.restored_records",
    "reduce.replayed_records",
    "reduce.refolded_records",
    "reduce.live_records",
)


def _demo(records: int = RECORDS):
    return demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=records,
        num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS,
    )


def _baseline(records: int = RECORDS):
    job, pairs = _demo(records)
    result = ThreadedEngine(map_slots=2, wire=WIRE).run(
        job, pairs, num_maps=NUM_MAPS
    )
    return normalized_output("wc", result)


def _recovery():
    return cluster_recovery(checkpoint=CheckpointPolicy(every_records=50))


def _assert_reconciled(counters) -> dict:
    buckets = {name: counters.get(name) for name in BUCKETS}
    assert sum(buckets.values()) == counters.get("map.output_records"), (
        f"fold accounting leaked: {buckets} vs "
        f"map.output_records={counters.get('map.output_records')}"
    )
    return buckets


def _wait_maps_done(status, job_id: str, timeout_s: float = 30.0) -> None:
    """Poll ``status()`` until every map of ``job_id`` is done."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = status()["jobs"].get(job_id)
        if job is not None and job["maps_done"] == job["num_maps"]:
            return
        time.sleep(0.02)
    raise AssertionError(f"{job_id}: maps not all done within {timeout_s}s")


class _Submitter(threading.Thread):
    """Run submit/run_job in the background, capturing the outcome."""

    def __init__(self, fn):
        super().__init__(daemon=True)
        self._fn = fn
        self.result = None
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self.result = self._fn()
        except BaseException as exc:  # noqa: BLE001 — JobPreemptedError
            self.error = exc

    def outcome(self, timeout: float = 60.0):
        self.join(timeout=timeout)
        assert not self.is_alive(), "submitter never returned"
        return self.result, self.error


class TestPreemptResume:
    def test_preempt_resume_is_byte_identical_and_replays_only_tail(self):
        job, pairs = _demo()
        with ClusterRuntime(2, wire=WIRE, recovery=_recovery()) as runtime:
            submitter = _Submitter(
                lambda: runtime.run_job(
                    job, pairs, num_maps=NUM_MAPS, job_id="pj",
                    kill={
                        "worker": "*", "trigger": "reduce-delay",
                        "delay_ms": 2,
                    },
                )
            )
            submitter.start()
            _wait_maps_done(runtime.status, "pj")  # reduces mid-fold
            runtime.preempt_job("pj")
            result, error = submitter.outcome()
            assert result is None
            assert isinstance(error, JobPreemptedError)

            counters = runtime.obs.counters
            assert counters.get("cluster.preempt.jobs") == 1
            assert counters.get("cluster.preempt.parked") == 1
            assert counters.get("cluster.preempt.reduces") >= 1
            status = runtime.status()
            assert status["jobs"]["pj"]["parked"] is True
            assert status["jobs"]["pj"]["preempt_count"] == 1
            assert status["coordinator"]["parked_jobs"] == 1

            resumed = runtime.resume_job("pj")
            assert normalized_output("wc", resumed) == _baseline()
            assert counters.get("cluster.preempt.resumed") == 1
            # Stage times are the resumed run's own: its maps were
            # reused, not re-run, and its reduces ran inside its span.
            times = resumed.stage_times
            assert times.first_map_done == times.last_map_done == 0.0
            assert 0.0 < times.shuffle_done <= times.reduce_done
            assert times.reduce_done <= times.job_done
            buckets = _assert_reconciled(counters)
            # The park actually cut state and the resume actually used
            # it: some records came back from checkpoints...
            assert buckets["reduce.restored_records"] > 0
            # ...and strictly fewer records were refolded than a
            # from-scratch rerun would refold.
            assert (
                buckets["reduce.refolded_records"]
                < counters.get("map.output_records")
            )

    def test_preempt_after_done_is_noop(self):
        job, pairs = _demo(records=200)
        with ClusterRuntime(2, wire=WIRE, recovery=_recovery()) as runtime:
            result = runtime.run_job(job, pairs, num_maps=NUM_MAPS, job_id="j")
            assert normalized_output("wc", result) == _baseline(200)
            runtime.preempt_job("j")
            time.sleep(0.3)
            assert runtime.obs.counters.get("cluster.preempt.parked") == 0
            # The cached result is still served.
            assert runtime.resume_job("j") is result


class TestThreeTenantServerDemo:
    def test_fair_share_preempts_and_resumes_across_three_tenants(self):
        # The acceptance demo: a cluster-backed server with three
        # tenants; one tenant hogs both slots with slow jobs, the
        # fair-share kernel checkpoint-parks a hog to let the starved
        # tenants run, and every job — preempted ones included — ends
        # byte-identical to its serial run.
        with JobServer(
            "cluster", slots=2, workers=2,
            tenants={"a": 1.0, "b": 1.0, "c": 1.0},
            recovery=_recovery(), job_deadline_s=120.0,
        ) as server:
            chaos = {"worker": "*", "trigger": "reduce-delay", "delay_ms": 2}
            heavy = [
                server.submit(
                    "a", "wc", records=1200, seed=seed, chaos=chaos
                )
                for seed in (1, 2)
            ]
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if all(
                    server._record(j).state == "running" for j in heavy
                ):
                    break
                time.sleep(0.02)
            light = [
                server.submit(tenant, "wc", records=200, seed=3)
                for tenant in ("b", "c")
            ]
            for job_id in heavy + light:
                record = server.wait(job_id, timeout=120.0)
                assert record.state == "done", record.error

            def serial(records: int, seed: int) -> str:
                from repro.server import output_digest

                job, pairs = demo_job_and_input(
                    "wc", ExecutionMode.BARRIERLESS, records=records,
                    num_reducers=2, num_maps=2, seed=seed,
                )
                result = ThreadedEngine().run(job, pairs, 2)
                return output_digest("wc", result)

            for job_id, seed in zip(heavy, (1, 2)):
                assert server._record(job_id).digest == serial(1200, seed)
            for job_id in light:
                assert server._record(job_id).digest == serial(200, 3)

            counters = server.obs.counters
            assert counters.get("server.preempt.requested") >= 1
            assert counters.get("server.preempt.completed") >= 1
            assert counters.get("server.preempt.resumed") >= 1
            # The slot-hogging tenant was victimised at least once.
            # (Light jobs may be preempted too: occupancy shares are
            # instantaneous, so once the hogs park, the roles flip and
            # the running light jobs become the over-share occupants.)
            assert sum(server._record(j).preempted for j in heavy) >= 1


class TestPreemptChaos:
    def test_worker_sigkilled_mid_preemption_checkpoint(self):
        # w0 SIGKILLs itself the instant the preempt-reduce directive
        # arrives — death mid-preemption, before its cut can ack.  The
        # park must complete anyway (the dead worker's ack is waived by
        # worker-dead handling) and the resume must still be
        # byte-identical with reconciled fold accounting.
        job, pairs = _demo()
        with ClusterRuntime(2, wire=WIRE, recovery=_recovery()) as runtime:
            submitter = _Submitter(
                lambda: runtime.run_job(
                    job, pairs, num_maps=NUM_MAPS, job_id="pk",
                    kill={
                        "worker": "w0", "trigger": "preempt-kill",
                        "delay_ms": 2,
                    },
                )
            )
            submitter.start()
            _wait_maps_done(runtime.status, "pk")
            runtime.preempt_job("pk")
            result, error = submitter.outcome()
            assert result is None
            assert isinstance(error, JobPreemptedError)
            counters = runtime.obs.counters
            assert counters.get("cluster.preempt.parked") == 1
            assert counters.get("cluster.workers.lost") >= 1

            resumed = runtime.resume_job("pk")
            assert normalized_output("wc", resumed) == _baseline()
            _assert_reconciled(counters)


# -- coordinator SIGKILL between journal record and worker ack ----------


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class _PreemptSuicidalJournal(Journal):
    """SIGKILLs the owning process right after a ``job-preempt`` append.

    The record is durably on disk but the coordinator dies before
    sending a single ``preempt-reduce`` — the sharpest write-ahead
    crash point of the preemption protocol: intent recorded, nothing
    acted on, no worker ever acked.
    """

    def append(self, kind: str, fields: dict) -> int:
        written = super().append(kind, fields)
        if kind == "job-preempt":
            os.kill(os.getpid(), signal.SIGKILL)
        return written


def _doomed_preempting_coordinator(
    port: int, journal_path: str, checkpoint_root: str
) -> None:
    """Child 1: submit, preempt mid-reduce; the journal kills us."""
    coordinator = Coordinator(
        port=port, journal=_PreemptSuicidalJournal(journal_path)
    )
    coordinator.wait_for_workers(2, timeout=20.0)
    job, pairs = _demo()
    submitter = threading.Thread(
        target=lambda: coordinator.submit(
            job, pairs, NUM_MAPS,
            wire=WIRE, recovery=_recovery(),
            checkpoint_root=checkpoint_root, deadline_s=60.0,
            kill={"worker": "*", "trigger": "reduce-delay", "delay_ms": 2},
        ),
        daemon=True,
    )
    submitter.start()
    _wait_maps_done(coordinator.status, "job-1")  # reduces mid-fold
    coordinator.preempt("job-1")
    time.sleep(30.0)  # unreachable: the journal append SIGKILLs first
    os._exit(1)


def _resuming_preempt_coordinator(
    port: int, journal_path: str, out_path: str
) -> None:
    """Child 2: replay the journal (preempt intent included), finish."""
    coordinator = Coordinator(port=port, journal=Journal(journal_path))
    try:
        coordinator.wait_for_workers(2, timeout=25.0)
        results = coordinator.resume()
        payload = {
            "results": results,
            "counters": coordinator.obs.counters.as_dict(),
        }
    finally:
        coordinator.shutdown()
    with open(out_path, "wb") as fh:
        pickle.dump(payload, fh)


def test_coordinator_sigkill_between_preempt_record_and_ack(tmp_path):
    journal_path = str(tmp_path / "coordinator.journal")
    out_path = str(tmp_path / "resume.pickle")
    checkpoint_root = str(tmp_path / "checkpoints")
    os.makedirs(checkpoint_root, exist_ok=True)
    port = _free_port()

    workers = [
        _CTX.Process(
            target=worker_main, args=(f"w{i}", "127.0.0.1", port), daemon=True
        )
        for i in range(2)
    ]
    for process in workers:
        process.start()
    try:
        doomed = _CTX.Process(
            target=_doomed_preempting_coordinator,
            args=(port, journal_path, checkpoint_root),
        )
        doomed.start()
        doomed.join(timeout=30.0)
        assert doomed.exitcode == -signal.SIGKILL

        # The preempt intent is durable — the last decodable record.
        records, _stats = replay_journal(journal_path)
        assert ("job-preempt", {"job_id": "job-1"}) in [
            (kind, {"job_id": fields.get("job_id")})
            for kind, fields in records
            if kind == "job-preempt"
        ]

        resumed = _CTX.Process(
            target=_resuming_preempt_coordinator,
            args=(port, journal_path, out_path),
        )
        resumed.start()
        resumed.join(timeout=90.0)
        assert resumed.exitcode == 0, "resume coordinator failed"

        with open(out_path, "rb") as fh:
            payload = pickle.load(fh)
        results = payload["results"]
        counters = payload["counters"]

        assert list(results) == ["job-1"]
        assert normalized_output("wc", results["job-1"]) == _baseline()
        assert counters.get("cluster.journal.replayed", 0) > 0
        assert counters.get("cluster.resume.jobs") == 1
        # Fold accounting reconciles across the crash splice: every
        # map-side record lands in exactly one bucket of exactly one
        # committed attempt.
        buckets = {name: counters.get(name, 0) for name in BUCKETS}
        assert sum(buckets.values()) == counters.get("map.output_records")
        assert counters.get("map.tasks") == NUM_MAPS
    finally:
        for process in workers:
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)


def test_preempt_storm_soak():
    """Many preempt/resume rounds against one server; scaled by env.

    ``REPRO_SERVER_SOAK_JOBS`` bounds the number of heavy jobs (each
    heavy job is one preempt/resume round candidate); the default keeps
    the tier-2 run short while the CI soak step turns it up.
    """
    rounds = max(2, int(os.environ.get("REPRO_SERVER_SOAK_JOBS", "4")) // 2)
    with JobServer(
        "cluster", slots=2, workers=2,
        tenants={"a": 1.0, "b": 1.0, "c": 1.0},
        recovery=_recovery(), job_deadline_s=120.0,
    ) as server:
        chaos = {"worker": "*", "trigger": "reduce-delay", "delay_ms": 2}
        for round_no in range(rounds):
            heavy = [
                server.submit(
                    "a", "wc", records=900, seed=round_no, chaos=chaos
                )
                for _ in range(2)
            ]
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if any(
                    server._record(j).state == "running" for j in heavy
                ):
                    break
                time.sleep(0.02)
            light = [
                server.submit(t, "wc", records=150, seed=round_no)
                for t in ("b", "c")
            ]
            for job_id in heavy + light:
                record = server.wait(job_id, timeout=120.0)
                assert record.state == "done", record.error
        # No leaked slots or bytes after the storm.
        snapshot = server._kernel.snapshot()
        assert snapshot["running"] == 0
        assert snapshot["queued"] == 0
        assert snapshot["live_bytes"] == 0 and snapshot["queued_bytes"] == 0
        assert server.obs.counters.get("server.preempt.requested") >= 1

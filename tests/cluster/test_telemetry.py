"""Cluster telemetry plane: propagation, shipping, merging, status.

The telemetry path is deliberately *presentation-only* — completion
messages remain the single authoritative counter source — so the first
thing these tests pin down is that the coordinator-merged counters of a
cluster run still match the threaded engine exactly, for every bundled
app, with telemetry enabled.  The rest covers the plane itself: the
frame codec round-trips and rejects corruption, the merged Chrome trace
is structurally valid (every process present, spans nested, timestamps
monotone per lane, propagated context on every task span), a SIGKILLed
worker's telemetry is truncated-but-valid rather than fabricated, and
the ``status`` RPC verb serves the same snapshot remotely that the
runtime reports locally.
"""

from __future__ import annotations

import json
import pickle
import socket
import threading
import time

import pytest

from repro.apps.demo import APP_CHOICES, demo_job_and_input, normalized_output
from repro.cluster import (
    ClusterRuntime,
    JobPreemptedError,
    TraceContext,
    cluster_recovery,
    decode_telemetry,
    request_status,
)
from repro.cluster.coordinator import Coordinator
from repro.cluster.rpc import send_message
from repro.cluster import telemetry as telemetry_module
from repro.cluster.telemetry import (
    MAX_JOBS_RETAINED,
    TELEMETRY_SCHEMA_VERSION,
    ClusterTelemetry,
    TelemetryBuffer,
)
from repro.core.types import ExecutionMode, Record
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import WireConfig, encode_frame
from repro.engine.threaded import ThreadedEngine
from repro.memory.checkpoint import CheckpointPolicy
from repro.obs import JobObservability, stage_times, validate_span_nesting
from repro.obs.export import spans_from_chrome_trace

RECORDS = 200
NUM_MAPS = 3
NUM_REDUCERS = 2
WIRE = WireConfig(max_batch_records=32)

#: Counters that must be byte-identical between engines on a clean run.
#: (Retry/backoff/timing counters are legitimately nondeterministic.)
DETERMINISTIC_COUNTERS = (
    "map.tasks",
    "map.input_records",
    "map.output_records",
    "reduce.tasks",
    "reduce.output_records",
)

_runtimes: dict = {}


def _demo(app: str, mode: ExecutionMode = ExecutionMode.BARRIERLESS):
    return demo_job_and_input(
        app, mode, records=RECORDS,
        num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS,
    )


@pytest.fixture(scope="module")
def runtime():
    """Lazily started, module-shared 2-worker runtime (telemetry on)."""
    if "shared" not in _runtimes:
        _runtimes["shared"] = ClusterRuntime(2, wire=WIRE)
    yield _runtimes["shared"]
    while _runtimes:
        _runtimes.popitem()[1].shutdown()


def _wait_for(predicate, timeout_s: float = 5.0) -> bool:
    """Poll for an async condition (job-done frames land post-return)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def _loaded_obs() -> JobObservability:
    obs = JobObservability()
    span = obs.tracer.open("map-0", "task", worker="w0")
    obs.events.emit("task.start", task="map-0")
    obs.counters.increment("map.output_records", 7)
    obs.metrics.sample("store.bytes", 123.0, unit="bytes")
    obs.metrics.sample("store.bytes", 456.0, unit="bytes")
    obs.tracer.close(span)
    return obs


def test_trace_context_round_trips_over_rpc_fields():
    ctx = TraceContext(job_id="job-1", task_id="reduce-1", attempt=2, epoch=0)
    assert TraceContext.from_fields(ctx.as_fields()) == ctx
    assert TraceContext.from_fields(None) is None
    assert TraceContext.from_fields({}) is None


def test_telemetry_frame_round_trips():
    obs = _loaded_obs()
    buffer = TelemetryBuffer(obs, job_id="job-1", worker="w0", pid=4242)
    payload = decode_telemetry(buffer.collect())
    assert payload["v"] == TELEMETRY_SCHEMA_VERSION
    assert payload["worker"] == "w0"
    assert payload["pid"] == 4242
    assert payload["counters"]["map.output_records"] == 7
    assert [s["name"] for s in payload["spans"]] == ["map-0"]
    series = payload["series"]["store.bytes"]
    assert series["unit"] == "bytes"
    assert [v for _t, v in series["points"]] == [123.0, 456.0]
    # A second collect with nothing new ships an empty delta.
    empty = decode_telemetry(buffer.collect())
    assert not empty["spans"]
    assert not empty["counters"] and not empty["series"]


def test_corrupt_telemetry_frame_raises():
    frame = TelemetryBuffer(
        _loaded_obs(), job_id="job-1", worker="w0", pid=1
    ).collect()
    flipped = bytearray(frame)
    flipped[len(flipped) // 2] ^= 0xFF
    with pytest.raises(SerializationError):
        decode_telemetry(bytes(flipped))
    with pytest.raises(SerializationError):
        decode_telemetry(frame + b"\x00")
    with pytest.raises(SerializationError):
        decode_telemetry(frame[: len(frame) - 3])


def _sealed(value) -> bytes:
    """A telemetry-shaped frame with a valid CRC around ``value``."""
    return encode_frame(
        [Record("telemetry", value)], WireConfig(compress=False)
    ).frame


#: Frames whose CRC holds but whose payload is no telemetry delta: not a
#: pickle, a pickled non-dict, a pickle that names a class, a typed dict
#: where pickled bytes belong, and a delta whose second span is malformed
#: after a well-formed first one.
_UNDECODABLE = {
    "garbage": _sealed(b"\x80\x05not a pickle"),
    "non-dict": _sealed(pickle.dumps([1, 2, 3])),
    "names-a-class": _sealed(pickle.dumps({"ctx": TraceContext("j", "t", 0, 0)})),
    "typed-dict": _sealed({"worker": "w9"}),
    "malformed-span": _sealed(pickle.dumps({
        "v": TELEMETRY_SCHEMA_VERSION, "worker": "w9", "job_id": "job-1",
        "pid": 9, "counters": {"map.tasks": 1},
        "spans": [{"id": 1, "name": "map-0"}, {"name": "no-id"}],
    })),
}


@pytest.mark.parametrize("case", sorted(_UNDECODABLE))
def test_undecodable_telemetry_payload_is_dropped_whole(case):
    frame = _UNDECODABLE[case]
    if case != "malformed-span":
        with pytest.raises(SerializationError):
            decode_telemetry(frame)
    merged = ClusterTelemetry(JobObservability())
    assert merged.ingest(frame) is False
    assert merged.obs.counters.get("cluster.telemetry.dropped") == 1
    assert merged.obs.counters.get("cluster.telemetry.frames") == 0
    assert merged.status_snapshot() == {} and merged.job_spans("job-1") == []
    # The next good frame merges as if the bad one never came.
    good = TelemetryBuffer(_loaded_obs(), job_id="job-1", worker="w0", pid=7)
    assert merged.ingest(good.collect()) is True
    assert [s.name for s in merged.job_spans("job-1")] == ["map-0"]
    assert merged.status_snapshot()["w0"]["frames"] == 1


def test_receiver_thread_survives_undecodable_telemetry():
    """A worker link keeps being served after frames it cannot merge."""
    coordinator = Coordinator()
    try:
        with socket.create_connection(
            (coordinator.host, coordinator.port), timeout=5.0
        ) as conn:
            send_message(conn, "register", {
                "worker": "w9", "pid": 9, "shuffle_host": "127.0.0.1",
                "shuffle_port": 1, "held": [], "active": [],
            })
            for frame in _UNDECODABLE.values():
                send_message(conn, "heartbeat", {
                    "worker": "w9", "job_id": "", "progress": {},
                    "telemetry": frame,
                })
            good = TelemetryBuffer(
                _loaded_obs(), job_id="job-1", worker="w9", pid=9
            )
            send_message(conn, "heartbeat", {
                "worker": "w9", "job_id": "", "progress": {},
                "telemetry": good.collect(),
            })
            counters = coordinator.obs.counters
            assert _wait_for(
                lambda: counters.get("cluster.telemetry.frames") == 1
            )
            assert counters.get("cluster.telemetry.dropped") == len(
                _UNDECODABLE
            )
            assert coordinator.status()["workers"]["w9"]["frames"] == 1
    finally:
        coordinator.shutdown()


def test_rollback_reships_an_unsent_delta():
    obs = _loaded_obs()
    buffer = TelemetryBuffer(obs, job_id="job-1", worker="w0", pid=1)
    first = decode_telemetry(buffer.collect())
    assert first["counters"]
    buffer.rollback()  # the frame "never made it onto the wire"
    again = decode_telemetry(buffer.collect())
    assert again["counters"] == first["counters"]
    assert [s["id"] for s in again["spans"]] == [
        s["id"] for s in first["spans"]
    ]
    # Rollback only undoes the most recent collect; the second call is
    # a no-op rather than unwinding further.
    buffer.rollback()
    buffer.rollback()
    reshipped = decode_telemetry(buffer.collect())
    assert reshipped["counters"] == first["counters"]
    assert not decode_telemetry(buffer.collect())["counters"]


# ---------------------------------------------------------------------------
# Differential: telemetry must not perturb the authoritative counters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", APP_CHOICES)
def test_merged_counters_match_threaded_engine(runtime, app):
    job, pairs = _demo(app)
    cluster_result = runtime.run_job(job, pairs, num_maps=NUM_MAPS)
    job, pairs = _demo(app)
    threaded_result = ThreadedEngine(map_slots=2, wire=WIRE).run(
        job, pairs, num_maps=NUM_MAPS
    )
    assert normalized_output(app, cluster_result) == normalized_output(
        app, threaded_result
    )
    for name in DETERMINISTIC_COUNTERS:
        assert cluster_result.counters.get(name) == threaded_result.counters.get(
            name
        ), name
    # The engines name the consumption counter differently (the cluster
    # path counts at the fetch-stream consumer), but the totals agree.
    assert cluster_result.counters.get(
        "shuffle.records.consumed"
    ) == threaded_result.counters.get("shuffle.records")


# ---------------------------------------------------------------------------
# Merged trace schema
# ---------------------------------------------------------------------------


def test_merged_trace_schema(runtime):
    job, pairs = _demo("wc")
    runtime.run_job(job, pairs, num_maps=NUM_MAPS)
    trace = json.loads(json.dumps(runtime.telemetry.chrome_trace()))
    events = trace["traceEvents"]

    # Every process is present: coordinator pid 0 plus each worker's
    # OS pid, named by the "M" metadata events.
    names = {
        event["pid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    assert 0 in names and "coordinator" in names[0]
    for pid in runtime.worker_pids:
        assert pid in names, f"worker pid {pid} missing from trace"

    # The round-tripped span set is structurally valid as one whole.
    spans = spans_from_chrome_trace(trace)
    assert spans
    assert validate_span_nesting(spans) == []

    # File order is timestamp order within each (pid, tid) lane.
    last_ts: dict = {}
    for event in events:
        if event["ph"] != "X":
            continue
        lane = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(lane, float("-inf")), lane
        last_ts[lane] = event["ts"]

    # Worker task spans carry the propagated grant context.
    worker_tasks = [
        event for event in events
        if event["ph"] == "X" and event["pid"] != 0
        and event["args"]["kind"] == "task"
    ]
    assert worker_tasks
    for event in worker_tasks:
        args = event["args"]
        for field in ("job_id", "task_id", "attempt", "epoch",
                      "worker", "pid"):
            assert field in args, (event["name"], field)
        assert args["pid"] == event["pid"]


# ---------------------------------------------------------------------------
# Status plane
# ---------------------------------------------------------------------------


def test_status_verb_matches_local_snapshot(runtime):
    job, pairs = _demo("wc")
    runtime.run_job(job, pairs, num_maps=NUM_MAPS)
    assert _wait_for(  # job-done flush frames land asynchronously
        lambda: all(
            entry.get("series")
            for entry in runtime.status()["workers"].values()
        )
    )
    local = runtime.status()
    remote = request_status(*runtime.coordinator_address)
    assert remote["coordinator"]["pid"] == local["coordinator"]["pid"]
    assert set(remote["workers"]) == set(local["workers"])
    assert set(remote["jobs"]) == set(local["jobs"])
    for name, entry in remote["workers"].items():
        assert entry["pid"] == local["workers"][name]["pid"]
        assert entry["alive"] is True
        assert entry["frames"] > 0
        assert entry["series"], name
        assert entry["gauges"], name
    assert all(job["done"] for job in remote["jobs"].values())


def test_status_renders_as_dashboard(runtime):
    from repro.cli.server import _render_cluster_status

    job, pairs = _demo("wc")
    runtime.run_job(job, pairs, num_maps=NUM_MAPS)
    text = _render_cluster_status(runtime.status())
    assert "coordinator" in text
    assert "jobs (" in text and "workers (" in text
    for name in runtime.status()["workers"]:
        assert name in text


# ---------------------------------------------------------------------------
# SIGKILL: truncated-but-valid
# ---------------------------------------------------------------------------


def test_sigkill_leaves_truncated_but_valid_telemetry():
    """A SIGKILLed worker's telemetry stops cleanly at its last frame.

    Same chaos shape as the checkpoint-resume kill test (maps-first so
    the victim only holds a reduce); with telemetry shipping enabled the
    job must still produce baseline output, the victim must be flagged
    truncated (never fabricated-to-completion), the merged trace must
    still validate, and the authoritative counters must still reconcile
    every partition record exactly once.

    A clean job runs first on the same runtime: its completion flushes
    guarantee the victim has shipped frames before it dies, so "partial
    telemetry retained" is testable without racing the heartbeat timer.
    """
    recovery = cluster_recovery(
        checkpoint=CheckpointPolicy(every_records=20)
    )
    job, pairs = _demo("wc")
    baseline = normalized_output(
        "wc",
        ThreadedEngine(map_slots=2, wire=WIRE).run(
            job, pairs, num_maps=NUM_MAPS
        ),
    )
    with ClusterRuntime(
        2, wire=WIRE, recovery=recovery, placement="maps-first"
    ) as chaos_runtime:
        obs = chaos_runtime.obs
        job, pairs = _demo("wc")
        clean = chaos_runtime.run_job(job, pairs, num_maps=NUM_MAPS)
        assert normalized_output("wc", clean) == baseline
        before = obs.counters.as_dict()
        job, pairs = _demo("wc")
        result = chaos_runtime.run_job(
            job, pairs, num_maps=NUM_MAPS,
            kill={"worker": "w1", "trigger": "reduce-records", "count": 60},
        )
        assert normalized_output("wc", result) == baseline
        assert obs.counters.get("cluster.workers.lost") == 1
        assert chaos_runtime.telemetry.truncated_workers() == ["w1"]
        assert obs.counters.get("cluster.telemetry.truncated") == 1

        status = chaos_runtime.status()
        assert status["workers"]["w1"]["truncated"] is True
        assert status["workers"]["w1"]["alive"] is False
        assert status["workers"]["w0"]["truncated"] is False

        # The victim's partial telemetry is retained, not discarded …
        assert status["workers"]["w1"]["frames"] > 0
        # … and the merged trace (with the truncated process labelled)
        # still round-trips and validates as a whole.
        trace = json.loads(
            json.dumps(chaos_runtime.telemetry.chrome_trace())
        )
        labels = [
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        ]
        assert any("(truncated)" in label for label in labels)
        assert validate_span_nesting(spans_from_chrome_trace(trace)) == []

        # Authoritative accounting is untouched by the telemetry path:
        # within the chaos job (delta over the clean warm-up job), the
        # four-way classification covers every partition record once.
        buckets = {
            name: obs.counters.get(f"reduce.{name}_records")
            - before.get(f"reduce.{name}_records", 0)
            for name in ("restored", "replayed", "refolded", "live")
        }
        assert buckets["restored"] > 0
        assert sum(buckets.values()) == obs.counters.get(
            "map.output_records"
        ) - before.get("map.output_records", 0)


# ---------------------------------------------------------------------------
# Retention: a long-lived coordinator keeps the last jobs, not every job
# ---------------------------------------------------------------------------


def _job_events(trace: dict, job_id: str) -> list[tuple]:
    """One job's worker events, span ids left out (they are rebased per
    trace, so they move when older spans are dropped)."""
    return sorted(
        (event["name"], event["ts"], event["dur"], event["pid"], event["tid"],
         tuple(sorted(
             (key, repr(value)) for key, value in event["args"].items()
             if key not in ("span_id", "parent_id")
         )))
        for event in trace["traceEvents"]
        if event["ph"] == "X" and event["pid"] != 0
        and event["args"].get("job_id") == job_id
    )


def test_retained_telemetry_is_bounded_by_the_last_jobs(monkeypatch):
    # Every frame the coordinator merges is also kept, to be replayed
    # into a merge that drops nothing.
    ingested: list[tuple[bytes, float]] = []
    ingest = ClusterTelemetry.ingest

    def teed(self, frame, recv_wall=None):
        recv_wall = time.time() if recv_wall is None else recv_wall
        ingested.append((frame, recv_wall))
        return ingest(self, frame, recv_wall)

    monkeypatch.setattr(ClusterTelemetry, "ingest", teed)
    jobs = 100
    with ClusterRuntime(2, wire=WIRE) as runtime:
        for index in range(jobs):
            job, pairs = _demo("wc")
            result = runtime.run_job(
                job, pairs, num_maps=NUM_MAPS, job_id=f"wc-{index}"
            )
        telemetry = runtime.telemetry
        coordinator = runtime.coordinator
    # Read once the workers are gone, so no frame lands in between.
    last = f"wc-{jobs - 1}"
    coordinator_spans = coordinator.obs.tracer.spans()
    trace = telemetry.chrome_trace()
    retained = {
        name: sorted(wt.spans) for name, wt in telemetry._workers.items()
    }
    id_maps = len(telemetry._id_maps)
    last_spans = telemetry.job_spans(last)

    # The coordinator's own spans are one job span per retained job.
    assert len(coordinator_spans) == MAX_JOBS_RETAINED
    assert {span.kind for span in coordinator_spans} == {"job"}
    assert len(retained) == 2
    for jobs_kept in retained.values():
        assert len(jobs_kept) <= MAX_JOBS_RETAINED and last in jobs_kept
    assert id_maps <= 2 * MAX_JOBS_RETAINED

    monkeypatch.setattr(telemetry_module, "MAX_JOBS_RETAINED", jobs)
    unbounded = ClusterTelemetry(JobObservability())
    unbounded.obs.epoch = telemetry.obs.epoch
    for frame, recv_wall in ingested:
        ingest(unbounded, frame, recv_wall)
    assert sum(
        len(wt.spans) for wt in unbounded._workers.values()
    ) == 2 * jobs
    assert last_spans == unbounded.job_spans(last) != []
    job_span = coordinator_spans[-1]
    assert result.stage_times == stage_times([job_span] + [
        span for span in unbounded.job_spans(last) if span.end >= job_span.start
    ])
    assert _job_events(trace, last) == _job_events(
        unbounded.chrome_trace(), last
    ) != []


def test_spans_for_a_dropped_job_are_not_merged_again():
    merged = ClusterTelemetry(JobObservability())

    def ship(job_id: str) -> None:
        buffer = TelemetryBuffer(
            _loaded_obs(), job_id=job_id, worker="w0", pid=7
        )
        assert merged.ingest(buffer.collect()) is True

    for index in range(MAX_JOBS_RETAINED + 1):
        ship(f"job-{index}")
        if index == 1:
            # As stored: the read-side shift moves as the skew refines.
            kept = list(merged._workers["w0"].spans["job-1"])
        merged.job_concluded(f"job-{index}", [])
    assert merged.job_spans("job-0") == []
    assert merged._workers["w0"].spans["job-1"] == kept != []
    # A frame that arrives after its job was dropped counts, but its
    # spans are not merged: nothing of the job comes back.
    ship("job-0")
    assert merged.job_spans("job-0") == []
    assert merged.status_snapshot()["w0"]["frames"] == MAX_JOBS_RETAINED + 2
    assert len(merged._id_maps) == MAX_JOBS_RETAINED
    # A job that is still running is never dropped for others' sake.
    ship("running")
    for index in range(MAX_JOBS_RETAINED + 1, 2 * MAX_JOBS_RETAINED + 2):
        merged.job_concluded(f"job-{index}", [])
    assert [s.name for s in merged.job_spans("running")] == ["map-0"]
    # However many drops ago its job went, a late frame merges nothing.
    for index in range(2 * MAX_JOBS_RETAINED + 2, 4 * MAX_JOBS_RETAINED):
        merged.job_concluded(f"job-{index}", [])
    for late in ("job-0", "job-1", f"job-{MAX_JOBS_RETAINED}"):
        ship(late)
        assert merged.job_spans(late) == []
    assert all(job_id == "running" for _name, job_id in merged._id_maps)


def test_a_preempted_job_leaves_no_span_behind(monkeypatch):
    # Keep one concluded job, so the next job drops the resumed one.
    monkeypatch.setattr(telemetry_module, "MAX_JOBS_RETAINED", 1)
    job, pairs = demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=2400,
        num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS,
    )
    recovery = cluster_recovery(checkpoint=CheckpointPolicy(every_records=50))
    with ClusterRuntime(2, wire=WIRE, recovery=recovery) as runtime:
        outcome: list[BaseException] = []

        def submit() -> None:
            try:
                runtime.run_job(
                    job, pairs, num_maps=NUM_MAPS, job_id="pj",
                    kill={
                        "worker": "*", "trigger": "reduce-delay",
                        "delay_ms": 2,
                    },
                )
            except JobPreemptedError as exc:
                outcome.append(exc)

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        time.sleep(1.2)  # maps done, reduces mid-fold
        runtime.preempt_job("pj")
        submitter.join(timeout=60)
        assert not submitter.is_alive() and len(outcome) == 1
        runtime.resume_job("pj")
        tracer = runtime.coordinator.obs.tracer
        assert [span.attrs["resumed"] for span in tracer.spans()] == [
            False, True
        ]
        small, small_pairs = _demo("wc")
        runtime.run_job(small, small_pairs, num_maps=NUM_MAPS, job_id="next")
        assert [span.attrs["resumed"] for span in tracer.spans()] == [False]
        assert runtime.telemetry.job_spans("pj") == []

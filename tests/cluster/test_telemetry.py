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
import time

import pytest

from repro.apps.demo import APP_CHOICES, demo_job_and_input, normalized_output
from repro.cluster import (
    ClusterRuntime,
    TraceContext,
    cluster_recovery,
    decode_telemetry,
    request_status,
)
from repro.cluster.telemetry import TELEMETRY_SCHEMA_VERSION, TelemetryBuffer
from repro.core.types import ExecutionMode
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import WireConfig
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability, validate_span_nesting
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
    assert [e["kind"] for e in payload["events"]] == ["task.start"]
    series = payload["series"]["store.bytes"]
    assert series["unit"] == "bytes"
    assert [v for _t, v in series["points"]] == [123.0, 456.0]
    # A second collect with nothing new ships an empty delta.
    empty = decode_telemetry(buffer.collect())
    assert not empty["spans"] and not empty["events"]
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
    from repro.memory.checkpoint import CheckpointPolicy

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

"""Differential equivalence: the wire codec must be invisible.

The framed shuffle wire format (repro.dfs.wire) sits on the hot path of
every engine; these tests run the full app matrix with the codec on and
off and assert the data plane is bit-for-bit unaffected — identical
outputs, identical counters (minus the wire's own byte accounting) — and
that the new counters reconcile with the record counts.
"""

from __future__ import annotations

import pytest

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.apps.registry import REGISTRY
from repro.cluster import ClusterEngine
from repro.core.types import ExecutionMode
from repro.dfs.wire import (
    BATCHES_COUNTER,
    RAW_BYTES_COUNTER,
    WIRE_BYTES_COUNTER,
    WireConfig,
)
from repro.engine.streaming import StreamingEngine
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability

APPS = [descriptor.short_name for descriptor in REGISTRY]
MODES = [ExecutionMode.BARRIER, ExecutionMode.BARRIERLESS]

#: Counters allowed to differ between wire on and off: the wire's own
#: accounting (absent with the codec off) and the spill byte totals,
#: whose on-disk representation is codec-dependent by design.
_WIRE_ONLY = {
    RAW_BYTES_COUNTER,
    WIRE_BYTES_COUNTER,
    BATCHES_COUNTER,
    "map.spill_bytes",
    "map.spill_bytes.raw",
    "map.spill_bytes.wire",
}

WIRE_ON = WireConfig()
WIRE_OFF = WireConfig(codec="off")


def _strip_wire(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k not in _WIRE_ONLY}


def _check_reconciliation(counters, config: WireConfig) -> None:
    """The acceptance inequalities: raw >= wire, batches bound records."""
    raw = counters.get(RAW_BYTES_COUNTER)
    wire = counters.get(WIRE_BYTES_COUNTER)
    batches = counters.get(BATCHES_COUNTER)
    records = counters.get("shuffle.records")
    assert raw >= wire, f"compression grew the payload: {raw} < {wire}"
    assert batches * config.max_batch_records >= records
    if records:
        assert batches > 0 and raw > 0


def _run_threaded(app, mode, wire):
    obs = JobObservability()
    engine = ThreadedEngine(map_slots=2, obs=obs, wire=wire)
    job, pairs = demo_job_and_input(app, mode, records=300, seed=5)
    result = engine.run(job, pairs, num_maps=3)
    return normalized_output(app, result), obs.counters.as_dict()


def _run_cluster(app, mode, wire):
    obs = JobObservability()
    engine = ClusterEngine(workers=2, obs=obs, wire=wire)
    job, pairs = demo_job_and_input(app, mode, records=300, seed=5)
    result = engine.run(job, pairs, num_maps=3)
    return normalized_output(app, result), obs.counters.as_dict()


def _run_streaming(app, wire):
    job, pairs = demo_job_and_input(
        app, ExecutionMode.BARRIERLESS, records=300, seed=5
    )
    engine = StreamingEngine(job, obs=JobObservability(), wire=wire)
    for start in range(0, len(pairs), 100):
        engine.push(pairs[start : start + 100])
    result = engine.close()
    return normalized_output(app, result), engine.obs.counters.as_dict()


@pytest.mark.parametrize("mode", MODES, ids=[mode.value for mode in MODES])
@pytest.mark.parametrize("app", APPS)
def test_threaded_wire_on_off_equivalent(app, mode):
    on_output, on_counters = _run_threaded(app, mode, WIRE_ON)
    off_output, off_counters = _run_threaded(app, mode, WIRE_OFF)
    assert on_output == off_output, f"{app}/{mode.value}: outputs diverged"
    assert _strip_wire(on_counters) == _strip_wire(off_counters)
    for name in (RAW_BYTES_COUNTER, WIRE_BYTES_COUNTER, BATCHES_COUNTER):
        assert name in on_counters
        assert name not in off_counters
    _check_reconciliation(
        JobObservabilityCounters(on_counters), WIRE_ON
    )


@pytest.mark.parametrize("app", APPS)
def test_streaming_wire_on_off_equivalent(app):
    on_output, on_counters = _run_streaming(app, WIRE_ON)
    off_output, off_counters = _run_streaming(app, WIRE_OFF)
    assert on_output == off_output, f"{app}: streaming outputs diverged"
    assert _strip_wire(on_counters) == _strip_wire(off_counters)
    _check_reconciliation(
        JobObservabilityCounters(on_counters), WIRE_ON
    )


@pytest.mark.parametrize("app", ["wc", "knn"])
def test_wire_counters_identical_across_engines(app):
    """The wire's byte accounting is engine-invariant, not just present."""
    _, threaded = _run_threaded(app, ExecutionMode.BARRIERLESS, WIRE_ON)
    _, cluster = _run_cluster(app, ExecutionMode.BARRIERLESS, WIRE_ON)
    for name in (RAW_BYTES_COUNTER, WIRE_BYTES_COUNTER, BATCHES_COUNTER):
        assert threaded[name] == cluster[name], name


class JobObservabilityCounters:
    """Dict adapter exposing the tiny counter read API the checks use."""

    def __init__(self, values: dict):
        self._values = values

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

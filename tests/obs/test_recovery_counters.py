"""Recovery observability: every recovered fault must reconcile.

The recovery counters are not decorative — they obey arithmetic
identities that make silent data loss or double-consumption impossible
to miss:

- ``task.attempts == map.tasks + reduce.tasks + task.retries`` (every
  extra attempt is a counted retry, including map re-executions);
- ``shuffle.records.fetched == consumed + deduped`` (the fetch ledger
  classifies every delivered record exactly once);
- fetch streams appear as ``op`` spans with their retry/timeout totals,
  and the trace stays well-nested through crashes and re-executions.
"""

from __future__ import annotations

import pytest

from repro.apps.demo import demo_job_and_input
from repro.core.types import ExecutionMode
from repro.engine.faults import FaultInjector
from repro.engine.recovery import FetchFaultInjector
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability, validate_span_nesting


def _run_threaded(mode, fault_injector=None, fetch_injector=None):
    obs = JobObservability()
    job, pairs = demo_job_and_input("wc", mode, records=400)
    engine = ThreadedEngine(
        map_slots=2,
        fault_injector=fault_injector,
        fetch_injector=fetch_injector,
        obs=obs,
    )
    engine.run(job, pairs, num_maps=3)
    return obs


def _assert_attempts_reconcile(counters):
    assert counters.get("task.attempts") == (
        counters.get("map.tasks")
        + counters.get("reduce.tasks")
        + counters.get("task.retries")
    )


def _assert_ledger_reconciles(counters):
    assert counters.get("shuffle.records.fetched") == (
        counters.get("shuffle.records.consumed")
        + counters.get("shuffle.records.deduped")
    )


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_clean_run_reconciles_with_zero_recovery(mode):
    counters = _run_threaded(mode).counters
    _assert_attempts_reconcile(counters)
    _assert_ledger_reconciles(counters)
    assert counters.get("task.retries") == 0
    assert counters.get("shuffle.records.deduped") == 0
    assert counters.get("shuffle.records.fetched") == counters.get(
        "shuffle.records"
    )
    # Fault-only counters are never materialised on a clean run, so the
    # cross-engine counter-dict equality of the clean suite still holds.
    as_dict = counters.as_dict()
    for name in (
        "shuffle.fetch.retries",
        "shuffle.fetch.timeouts",
        "shuffle.fetch.drops",
        "shuffle.epoch_restarts",
        "shuffle.map_output_lost",
        "map.reexecutions",
        "reduce.restarts",
    ):
        assert name not in as_dict


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_task_retries_equal_extra_attempts_under_faults(mode):
    counters = _run_threaded(
        mode,
        fault_injector=FaultInjector(failure_probability=0.3, seed=4),
        fetch_injector=FetchFaultInjector(crash_reducer_after={0: 5}),
    ).counters
    assert counters.get("task.retries") >= 1
    _assert_attempts_reconcile(counters)


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_deduped_equals_fetched_minus_consumed_after_lost_output(mode):
    counters = _run_threaded(
        mode, fetch_injector=FetchFaultInjector(lose_output_after={0: 1})
    ).counters
    assert counters.get("shuffle.records.deduped") >= 1
    _assert_ledger_reconciles(counters)
    _assert_attempts_reconcile(counters)
    # The re-execution is a counted retry but not a second map task.
    assert counters.get("map.reexecutions") == 1
    assert counters.get("map.tasks") == 3


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_fetch_spans_carry_retry_totals(mode):
    obs = _run_threaded(
        mode,
        fetch_injector=FetchFaultInjector(
            fail_first_fetch_of=frozenset({(0, 0)})
        ),
    )
    fetch_spans = [
        span for span in obs.tracer.spans(kind="op")
        if span.name.startswith("fetch-")
    ]
    # One stream per (reducer, mapper): 4 reducers x 3 mappers.
    assert len(fetch_spans) == 12
    assert sum(span.attrs["retries"] for span in fetch_spans) == (
        obs.counters.get("shuffle.fetch.retries")
    )
    assert validate_span_nesting(obs.tracer.spans()) == []


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_trace_stays_nested_through_recovery(mode):
    obs = _run_threaded(
        mode,
        fault_injector=FaultInjector(
            fail_first_attempt_of=frozenset({"reduce-1"})
        ),
        fetch_injector=FetchFaultInjector(lose_output_after={0: 1}),
    )
    assert validate_span_nesting(obs.tracer.spans()) == []
    # The re-executed map appears as its own task span.
    reexec = [
        span for span in obs.tracer.spans(kind="task")
        if span.name.endswith("-reexec")
    ]
    assert len(reexec) == 1
    crashed = [
        span for span in obs.tracer.spans(kind="attempt")
        if span.attrs.get("crashed")
    ]
    assert {span.name for span in crashed} == {"reduce-1/attempt-0"}

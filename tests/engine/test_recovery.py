"""Differential chaos suite for the shuffle recovery subsystem.

The contract under test is the paper's §8 claim made concrete: under any
single injected mapper, reducer or fetch failure, both execution modes
must produce output identical to a fault-free run — recovery changes
*when* work happens, never *what* is computed.  The suite drives every
bundled application through the :class:`ThreadedEngine` (the engine that
actually runs the epoch-tagged fetch protocol) under each failure class,
plus seeded multi-failure soaks, and unit-tests the recovery primitives
(:class:`BackoffPolicy`, :class:`FetchLedger`, :class:`MapOutputService`,
:class:`FetchFaultInjector`) directly.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.demo import APP_CHOICES, demo_job_and_input, normalized_output
from repro.core.types import ExecutionMode, Record
from repro.engine.faults import FaultInjector
from repro.engine.local import LocalEngine
from repro.engine.recovery import (
    BackoffPolicy,
    FetchAttemptError,
    FetchFaultInjector,
    FetchLedger,
    FetchPermanentlyFailedError,
    FetchTimeoutError,
    MapOutputLostError,
    MapOutputService,
    RecoveryConfig,
    ReducerCrashError,
    stable_fraction,
)
from repro.engine.streaming import StreamingEngine
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability

RECORDS = 300
NUM_MAPS = 3
NUM_REDUCERS = 2

#: Fast-failing recovery tuning so injected stalls cost milliseconds.
FAST = RecoveryConfig(
    fetch_timeout_s=0.02,
    straggler_threshold_s=0.02,
    backoff=BackoffPolicy(base_s=0.0005, cap_s=0.005),
)

#: name -> injector factory for one targeted failure of that class.
FAILURE_CLASSES = {
    "fetch-failure": lambda: FetchFaultInjector(
        fail_first_fetch_of=frozenset({(0, 0)})
    ),
    "fetch-stall": lambda: FetchFaultInjector(
        stall_first_fetch_of=frozenset({(0, 0)}), stall_seconds=0.05
    ),
    "fetch-drop": lambda: FetchFaultInjector(
        drop_first_fetch_of=frozenset({(0, 0)})
    ),
    "lost-map-output": lambda: FetchFaultInjector(lose_output_after={0: 1}),
    "reducer-crash": lambda: FetchFaultInjector(crash_reducer_after={0: 2}),
}

_baselines: dict[tuple[str, ExecutionMode], object] = {}


def _demo(app: str, mode: ExecutionMode):
    return demo_job_and_input(
        app, mode, records=RECORDS, num_reducers=NUM_REDUCERS,
        num_maps=NUM_MAPS,
    )


def _baseline(app: str, mode: ExecutionMode):
    """Fault-free normalized output, computed once per (app, mode)."""
    key = (app, mode)
    if key not in _baselines:
        job, pairs = _demo(app, mode)
        result = ThreadedEngine(map_slots=2).run(job, pairs, num_maps=NUM_MAPS)
        _baselines[key] = normalized_output(app, result)
    return _baselines[key]


# ---------------------------------------------------------------------------
# the differential matrix: every app x mode x single-failure class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("failure", sorted(FAILURE_CLASSES))
@pytest.mark.parametrize("mode", list(ExecutionMode))
@pytest.mark.parametrize("app", APP_CHOICES)
def test_single_failure_output_identical(app, mode, failure):
    job, pairs = _demo(app, mode)
    injector = FAILURE_CLASSES[failure]()
    engine = ThreadedEngine(
        map_slots=2, fetch_injector=injector, recovery=FAST
    )
    result = engine.run(job, pairs, num_maps=NUM_MAPS)
    assert normalized_output(app, result) == _baseline(app, mode)


@pytest.mark.parametrize("mode", list(ExecutionMode))
@pytest.mark.parametrize("seed", range(4))
def test_multi_failure_soak(mode, seed):
    """Seeded probabilistic task + fetch + reducer faults, together."""
    job, pairs = _demo("wc", mode)
    injector = FetchFaultInjector(
        fetch_failure_probability=0.2,
        drop_probability=0.1,
        crash_reducer_after={0: 5},
        lose_output_after={1: 1},
        seed=seed,
    )
    engine = ThreadedEngine(
        map_slots=2,
        fault_injector=FaultInjector(failure_probability=0.2, seed=seed),
        fetch_injector=injector,
        recovery=FAST,
    )
    result = engine.run(job, pairs, num_maps=NUM_MAPS)
    assert normalized_output("wc", result) == _baseline("wc", mode)
    assert injector.injected > 0


# ---------------------------------------------------------------------------
# recovery visibility: each class leaves its counter trail (dense app)
# ---------------------------------------------------------------------------


def _run_wc(mode, injector, recovery=FAST):
    obs = JobObservability()
    job, pairs = _demo("wc", mode)
    engine = ThreadedEngine(
        map_slots=2, fetch_injector=injector, recovery=recovery, obs=obs
    )
    result = engine.run(job, pairs, num_maps=NUM_MAPS)
    assert normalized_output("wc", result) == _baseline("wc", mode)
    return obs


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_fetch_failure_counts_retries(mode):
    obs = _run_wc(mode, FAILURE_CLASSES["fetch-failure"]())
    assert obs.counters.get("shuffle.fetch.retries") >= 1


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_fetch_stall_counts_timeouts(mode):
    # Speculation off: with it on, a backup fetch can win the race
    # before the stalled primary's timeout is ever observed.
    no_speculation = RecoveryConfig(
        fetch_timeout_s=0.02,
        speculative_fetch=False,
        backoff=BackoffPolicy(base_s=0.0005, cap_s=0.005),
    )
    obs = _run_wc(
        mode, FAILURE_CLASSES["fetch-stall"](), recovery=no_speculation
    )
    assert obs.counters.get("shuffle.fetch.timeouts") >= 1


def test_stalled_fetch_gets_speculative_backup():
    # The stall (0.2s) is far past the straggler threshold but inside
    # the fetch timeout, so the only way the stream progresses promptly
    # is a backup fetch racing — and beating — the stalled primary.
    injector = FetchFaultInjector(
        stall_first_fetch_of=frozenset({(0, 0)}), stall_seconds=0.2
    )
    obs = _run_wc(
        ExecutionMode.BARRIERLESS,
        injector,
        recovery=RecoveryConfig(
            fetch_timeout_s=1.0, straggler_threshold_s=0.02
        ),
    )
    assert obs.counters.get("speculative.fetches") >= 1
    assert obs.counters.get("speculative.fetch_wins") >= 1


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_fetch_drop_counts_drops(mode):
    obs = _run_wc(mode, FAILURE_CLASSES["fetch-drop"]())
    assert obs.counters.get("shuffle.fetch.drops") >= 1


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_lost_output_reexecutes_and_dedups(mode):
    obs = _run_wc(mode, FAILURE_CLASSES["lost-map-output"]())
    counters = obs.counters
    assert counters.get("shuffle.map_output_lost") == 1
    assert counters.get("map.reexecutions") == 1
    assert counters.get("shuffle.epoch_restarts") >= 1
    # Re-fetched duplicates were discarded, not double-consumed.
    assert counters.get("shuffle.records.deduped") >= 1


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_reducer_crash_restarts(mode):
    obs = _run_wc(mode, FAILURE_CLASSES["reducer-crash"]())
    assert obs.counters.get("reduce.restarts") == 1
    if mode is ExecutionMode.BARRIERLESS:
        # The barrier-less reducer is store-backed; its partial store
        # died with the crashed attempt and was rebuilt.
        assert obs.counters.get("store.resets") == 1


def test_straggling_reducer_gets_speculative_backup():
    injector = FetchFaultInjector(stall_reducer_seconds={0: 0.3})
    obs = _run_wc(
        ExecutionMode.BARRIERLESS,
        injector,
        recovery=RecoveryConfig(straggler_threshold_s=0.03),
    )
    assert obs.counters.get("speculative.reduces") >= 1


def test_fetch_budget_exhaustion_fails_the_job():
    injector = FetchFaultInjector(fail_first_fetch_of=frozenset({(0, 0)}))
    tight = RecoveryConfig(
        max_fetch_attempts=1, backoff=BackoffPolicy(base_s=0.0, cap_s=0.0)
    )
    job, pairs = _demo("wc", ExecutionMode.BARRIERLESS)
    engine = ThreadedEngine(map_slots=2, fetch_injector=injector, recovery=tight)
    with pytest.raises(FetchPermanentlyFailedError):
        engine.run(job, pairs, num_maps=NUM_MAPS)


# ---------------------------------------------------------------------------
# streaming engine: crash mid-stream, journal replay, stream continues
# ---------------------------------------------------------------------------


def test_streaming_reducer_crash_is_replayed():
    from repro.apps import wordcount
    from repro.workloads.text import generate_documents

    corpus = generate_documents(12, words_per_doc=20, vocab_size=40, seed=3)
    job = wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=2)
    obs = JobObservability()
    engine = StreamingEngine(
        job, obs=obs,
        fault_injector=FetchFaultInjector(crash_reducer_after={0: 7}),
    )
    for start in range(0, len(corpus), 4):
        engine.push(corpus[start : start + 4])
    snapshot = engine.snapshot()  # must survive a crashed reducer
    result = engine.close()
    assert result.output_as_dict() == wordcount.reference_output(corpus)
    assert snapshot.keys() <= set(result.output_as_dict())
    assert obs.counters.get("reduce.restarts") >= 1
    assert obs.counters.get("store.resets") >= 1


# ---------------------------------------------------------------------------
# unit tests: the recovery primitives
# ---------------------------------------------------------------------------


class TestStableFraction:
    def test_range_and_determinism(self):
        values = [stable_fraction(0, "k", i) for i in range(50)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [stable_fraction(0, "k", i) for i in range(50)]

    def test_sensitive_to_every_part(self):
        base = stable_fraction(1, "fetch", 2, 3)
        assert stable_fraction(2, "fetch", 2, 3) != base
        assert stable_fraction(1, "fetch", 2, 4) != base


class TestBackoffPolicy:
    def test_grows_and_caps(self):
        policy = BackoffPolicy(base_s=0.001, cap_s=0.008, multiplier=2.0)
        delays = [policy.delay("k", attempt) for attempt in range(10)]
        assert all(d <= 0.008 for d in delays)
        # The capped ceiling is reached despite jitter.
        assert max(delays) > 0.004

    def test_jitter_band(self):
        policy = BackoffPolicy(base_s=0.01, cap_s=0.01, multiplier=1.0)
        for attempt in range(20):
            assert 0.005 <= policy.delay("k", attempt) < 0.01

    def test_deterministic_but_desynchronised(self):
        policy = BackoffPolicy()
        assert policy.delay("a", 3) == policy.delay("a", 3)
        assert policy.delay("a", 3) != policy.delay("b", 3)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=0.1, cap_s=0.01)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)


def _records(n, mapper=0):
    return [Record(key=f"k{i}", value=mapper) for i in range(n)]


class TestFetchLedger:
    def test_in_order_admission_consumes(self):
        ledger = FetchLedger()
        assert ledger.admit(0, 0, _records(3)) is not None
        assert ledger.admit(0, 1, _records(2)) is not None
        assert ledger.fetched == 5
        assert ledger.consumed == 5
        assert ledger.deduped == 0

    def test_refetched_batch_is_deduped(self):
        ledger = FetchLedger()
        ledger.admit(0, 0, _records(3))
        assert ledger.admit(0, 0, _records(3)) is None
        assert ledger.fetched == 6
        assert ledger.consumed == 3
        assert ledger.deduped == 3
        assert ledger.fetched == ledger.consumed + ledger.deduped

    def test_gap_is_a_protocol_violation(self):
        ledger = FetchLedger()
        with pytest.raises(RuntimeError):
            ledger.admit(0, 2, _records(1))

    def test_barrier_reset_then_seal(self):
        ledger = FetchLedger(consume_on_admit=False)
        ledger.admit(0, 0, _records(4))
        ledger.reset(0, discarded_records=4)  # epoch changed: buffer cleared
        ledger.admit(0, 0, _records(4))  # clean re-fetch accepted again
        ledger.seal(4)
        assert ledger.fetched == 8
        assert ledger.consumed == 4
        assert ledger.deduped == 4
        assert ledger.fetched == ledger.consumed + ledger.deduped


class TestMapOutputService:
    def test_publish_read_roundtrip(self):
        service = MapOutputService(num_maps=1, num_reducers=1)
        assert service.epoch_of(0) == -1
        records = _records(5)
        assert service.publish(0, {0: [records[:2], records[2:4], records[4:]]}) == 0
        batches = []
        seq = 0
        while True:
            epoch, batch = service.read(0, 0, seq)
            assert epoch == 0
            if batch is None:
                break
            batches.append(batch)
            seq += 1
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_lost_output_regenerates_under_new_epoch(self):
        service = MapOutputService(num_maps=1, num_reducers=1)
        calls = []

        def regenerate(mapper):
            calls.append(mapper)
            return {0: [_records(3)]}

        service.regenerator = regenerate
        service.publish(0, {0: [_records(3)]})
        service.lose_output(0)
        epoch, batch = service.read(0, 0, 0)
        assert epoch == 1
        assert len(batch) == 3
        assert calls == [0]

    def test_lost_output_without_regenerator_is_fatal(self):
        service = MapOutputService(num_maps=1, num_reducers=1)
        service.publish(0, {0: [_records(2)]})
        service.lose_output(0)
        with pytest.raises(MapOutputLostError):
            service.read(0, 0, 0)

    def test_wait_available_times_out(self):
        service = MapOutputService(num_maps=1, num_reducers=1)
        with pytest.raises(FetchTimeoutError):
            service.wait_available(0, timeout=0.03)

    def test_wait_available_honours_cancellation(self):
        service = MapOutputService(num_maps=1, num_reducers=1)
        cancelled = threading.Event()
        cancelled.set()
        service.wait_available(0, timeout=10.0, cancelled=cancelled)  # no hang


class TestFetchFaultInjector:
    def test_targeted_failure_fires_on_first_attempt_only(self):
        injector = FetchFaultInjector(fail_first_fetch_of=frozenset({(0, 1)}))
        with pytest.raises(FetchAttemptError):
            injector.check_fetch(0, 1, seq=0, attempt=0)
        injector.check_fetch(0, 1, seq=0, attempt=1)  # retry succeeds
        injector.check_fetch(0, 1, seq=1, attempt=0)  # later batches clean
        injector.check_fetch(1, 1, seq=0, attempt=0)  # other streams clean
        assert injector.counts == {"fetch.failures": 1}
        assert injector.injected == 1

    def test_probabilistic_decisions_are_schedule_independent(self):
        a = FetchFaultInjector(fetch_failure_probability=0.5, seed=9)
        b = FetchFaultInjector(fetch_failure_probability=0.5, seed=9)
        outcomes = []
        for injector in (a, b):
            seen = []
            for seq in range(20):
                try:
                    injector.check_fetch(0, 0, seq, attempt=0)
                    seen.append(False)
                except FetchAttemptError:
                    seen.append(True)
            outcomes.append(seen)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_probabilistic_faults_stop_after_attempt_budget(self):
        injector = FetchFaultInjector(
            fetch_failure_probability=0.999999, max_injected_attempts=2
        )
        for seq in range(5):
            injector.check_fetch(0, 0, seq, attempt=2)  # never raises

    def test_reducer_crash_fires_exactly_once(self):
        injector = FetchFaultInjector(crash_reducer_after={1: 3})
        injector.check_reduce(1, consumed=2)
        with pytest.raises(ReducerCrashError):
            injector.check_reduce(1, consumed=3)
        injector.check_reduce(1, consumed=5)  # the restart runs clean
        assert injector.counts == {"reducer.crashes": 1}

    def test_lose_output_fires_exactly_once(self):
        injector = FetchFaultInjector(lose_output_after={0: 2})
        assert not injector.should_lose_output(0, serves=1)
        assert injector.should_lose_output(0, serves=2)
        assert not injector.should_lose_output(0, serves=3)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FetchFaultInjector(fetch_failure_probability=1.0)


# ---------------------------------------------------------------------------
# wire format on the fault paths: the ledger invariant holds over frames
# ---------------------------------------------------------------------------


class TestWireFaultPaths:
    """The batched wire format must not bend the recovery accounting.

    With the wire codec on (the default), the fetch protocol moves
    :class:`~repro.dfs.wire.WireBatch` frames instead of record lists;
    ``FetchLedger``'s ``fetched == consumed + deduped`` invariant and the
    epoch-restart dedup must hold unchanged, frame by frame.
    """

    def _assert_ledger_reconciles(self, obs):
        counters = obs.counters
        fetched = counters.get("shuffle.records.fetched")
        consumed = counters.get("shuffle.records.consumed")
        deduped = counters.get("shuffle.records.deduped")
        assert fetched == consumed + deduped, (
            f"ledger diverged: {fetched} != {consumed} + {deduped}"
        )
        # The run really went over the wire.
        assert counters.get("shuffle.batches") > 0
        assert (
            counters.get("shuffle.bytes.raw")
            >= counters.get("shuffle.bytes.wire")
            > 0
        )

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_ledger_invariant_under_drops(self, mode):
        obs = _run_wc(
            mode, FetchFaultInjector(drop_probability=0.3, seed=11)
        )
        assert obs.counters.get("shuffle.fetch.drops") >= 1
        self._assert_ledger_reconciles(obs)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_ledger_invariant_under_timeouts(self, mode):
        no_speculation = RecoveryConfig(
            fetch_timeout_s=0.02,
            speculative_fetch=False,
            backoff=BackoffPolicy(base_s=0.0005, cap_s=0.005),
        )
        obs = _run_wc(
            mode,
            FetchFaultInjector(
                stall_first_fetch_of=frozenset({(0, 0)}),
                stall_seconds=0.05,
            ),
            recovery=no_speculation,
        )
        assert obs.counters.get("shuffle.fetch.timeouts") >= 1
        self._assert_ledger_reconciles(obs)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_ledger_invariant_under_epoch_restart(self, mode):
        obs = _run_wc(mode, FetchFaultInjector(lose_output_after={0: 1}))
        counters = obs.counters
        assert counters.get("shuffle.epoch_restarts") >= 1
        # The restarted stream re-served whole frames; every duplicate
        # record arrived inside a frame and was discarded by the ledger.
        assert counters.get("shuffle.records.deduped") >= 1
        self._assert_ledger_reconciles(obs)

    def test_service_serves_wire_frames(self):
        from repro.dfs.wire import (
            WireBatch,
            WireConfig,
            decode_batch,
            encode_record_batches,
        )

        wire = WireConfig(max_batch_records=2)
        service = MapOutputService(
            num_maps=1, num_reducers=1, wire=wire
        )
        service.publish(0, {0: encode_record_batches(_records(5), wire)})
        frames = []
        seq = 0
        while True:
            epoch, batch = service.read(0, 0, seq)
            assert epoch == 0
            if batch is None:
                break
            assert isinstance(batch, WireBatch)
            frames.append(batch)
            seq += 1
        assert [len(frame) for frame in frames] == [2, 2, 1]
        decoded = [
            record for frame in frames for record in decode_batch(frame, wire)
        ]
        assert decoded == _records(5)

    def test_ledger_invariant_over_frames(self):
        from repro.dfs.wire import WireConfig, encode_record_batches

        wire = WireConfig(max_batch_records=2)
        frames = encode_record_batches(_records(5), wire)
        ledger = FetchLedger()
        for seq, frame in enumerate(frames):
            assert ledger.admit(0, seq, frame) is not None
        # A re-fetched frame (same mapper, same seq) is deduped whole.
        assert ledger.admit(0, 0, frames[0]) is None
        assert ledger.fetched == 5 + len(frames[0])
        assert ledger.consumed == 5
        assert ledger.deduped == len(frames[0])
        assert ledger.fetched == ledger.consumed + ledger.deduped

    def test_barrier_reset_then_seal_over_frames(self):
        from repro.dfs.wire import WireConfig, encode_record_batches

        wire = WireConfig(max_batch_records=4)
        frames = encode_record_batches(_records(4), wire)
        ledger = FetchLedger(consume_on_admit=False)
        ledger.admit(0, 0, frames[0])
        ledger.reset(0, discarded_records=len(frames[0]))
        ledger.admit(0, 0, frames[0])  # clean re-fetch after the epoch bump
        ledger.seal(4)
        assert ledger.fetched == 8
        assert ledger.consumed == 4
        assert ledger.deduped == 4
        assert ledger.fetched == ledger.consumed + ledger.deduped

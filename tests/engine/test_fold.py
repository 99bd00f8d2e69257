"""The fold ledger, driven with scripted batches: no threads, no sleeps.

``ReduceTaskRecovery`` is a state machine, so this suite steps it the way
the cluster dispatcher's is stepped (``tests/cluster/test_dispatch.py``):
scripted sources, a counter clock, a store that records what is asked of
it — and the conservation invariant checked at *every* batch boundary,
with the first attempt killed (or preempted) at every boundary in turn.

- after every ``folded()``: ``restored + replayed + refolded + live``
  equals the records folded so far, and at the end the partition size;
- a snapshot is only ever cut at a boundary, right after the flush, and
  its progress map describes exactly what the store holds;
- a stale or torn snapshot is never restored;
- a resumed attempt folds every batch exactly once (the store says so);
- a streaming session's mapping (one source, validity by journal
  length) classifies like the runtime's (validity by epoch).

The last section is the exception to "no threads": it runs the local,
threaded and streaming engines end to end, because what it pins —
grouped input is invisible to output, store and spill files, and frames
reach the reducer as plain pairs — is a property of the engines' wiring.
"""

from __future__ import annotations

import ast
import importlib.util
import itertools
import os

import pytest

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.apps.registry import REGISTRY
from repro.core.types import Counters, ExecutionMode, Record
from repro.dfs.wire import WireConfig
from repro.engine import base
from repro.engine.fold import (
    ReducePreemptedError,
    ReduceTaskRecovery,
    fold_batches,
)
from repro.engine.local import LocalEngine
from repro.engine.streaming import StreamingEngine
from repro.engine.threaded import ThreadedEngine
from repro.memory import make_store
from repro.memory.checkpoint import (
    PREEMPT_META_KEY,
    CheckpointPolicy,
    checkpoint_path,
    read_checkpoint,
    write_checkpoint,
)
from repro.obs import JobObservability

#: source -> record count of each of its batches, in sequence order.
SCRIPTS = {
    "one-source": {0: [5, 3, 4, 1, 6, 2, 4]},
    "two-sources": {0: [4, 4, 2, 5], 1: [3, 6, 1]},
    "three-sources": {0: [2, 5, 3], 1: [4, 1], 2: [3, 3, 2, 1]},
}

#: The counter clock ticks once per boundary, so ``interval_s=3`` is
#: "every third batch" and ``every_records=1`` is "every batch".
CADENCES = {
    "off": None,
    "every-batch": CheckpointPolicy(every_records=1),
    "every-3rd": CheckpointPolicy(interval_s=3.0),
}

SCENARIOS = ("crash", "stale-epoch", "torn-snapshot", "preempt")


class Crash(Exception):
    """The first attempt dies here; its store dies with it."""


class ScriptedStore:
    """Counts each batch folded into it; snapshots are real files."""

    def __init__(self) -> None:
        self.batches: dict[tuple[int, int], int] = {}
        self.calls: list[str] = []

    def fold(self, source: int, seq: int, count: int) -> None:
        key = (source, seq)
        self.batches[key] = self.batches.get(key, 0) + count
        self.calls.append("fold")

    def flush(self) -> None:
        self.calls.append("flush")

    def checkpoint(self, directory, *, meta=None):
        # Only ever at a boundary: the write-back was flushed just now,
        # and the progress map accounts for every record in the store.
        assert self.calls[-1] == "flush"
        self.calls.append("checkpoint")
        assert sum(
            records for _seq, _epoch, records in meta["progress"].values()
        ) == sum(self.batches.values())
        entries = [(f"{s}/{q}", n) for (s, q), n in sorted(self.batches.items())]
        return write_checkpoint(directory, entries, meta=meta)

    def restore(self, directory):
        self.calls.append("restore")
        meta, entries = read_checkpoint(directory)
        for key, count in entries:
            source, seq = key.split("/")
            self.batches[int(source), int(seq)] = count
        return meta


def _arrival_order(script):
    """Round-robin interleaving of the sources' batches."""
    streams = [[(s, q) for q in range(len(sizes))] for s, sizes in script.items()]
    return [
        item
        for group in itertools.zip_longest(*streams)
        for item in group
        if item is not None
    ]


def _attempt(
    rec, script, obs, clock, still_valid, *, epoch=0, die_after=None, stop_after=None
):
    """One attempt over ``script``; returns its store and final buckets.

    Streams start where ``begin`` says, like fetch streams do.  The
    invariant is asserted after every boundary.
    """
    store = ScriptedStore()
    cursors = rec.begin(store, still_valid, obs, next(clock))
    expected = rec.records_folded
    assert sum(rec.buckets.values()) == expected
    boundaries = 0
    for source, seq in _arrival_order(script):
        if seq < cursors.get(source, (0, None))[0]:
            continue  # in the restored snapshot
        if die_after == boundaries:
            raise Crash
        count = script[source][seq]
        store.fold(source, seq, count)
        expected += count
        try:
            rec.folded(
                source, seq, epoch, count, 8 * count, next(clock),
                stop_after == boundaries,
            )
        finally:
            assert sum(rec.buckets.values()) == expected == rec.records_folded
        boundaries += 1
    if die_after is not None:
        raise Crash  # killed after the last boundary, before ``finish``
    return store, rec.buckets


def _by_epoch(epochs):
    return lambda source, epoch, _records: epochs[source] == epoch


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("cadence", CADENCES)
@pytest.mark.parametrize("script_name", SCRIPTS)
def test_kill_at_every_boundary_then_recover(
    tmp_path, script_name, cadence, scenario
):
    script = SCRIPTS[script_name]
    total = sum(map(sum, script.values()))
    boundaries = sum(map(len, script.values()))
    for cut in range(boundaries + (scenario != "preempt")):
        root = tmp_path / f"cut-{cut}"
        clock = itertools.count()
        obs = JobObservability(clock=lambda: 0.0)
        rec = ReduceTaskRecovery(CADENCES[cadence], str(root), 0)
        epochs = dict.fromkeys(script, 0)

        # -- the first attempt, killed after ``cut`` boundaries ---------
        if scenario == "preempt":
            with pytest.raises(ReducePreemptedError) as stopped:
                _attempt(
                    rec, script, obs, clock, _by_epoch(epochs), stop_after=cut
                )
            assert stopped.value.records == rec.records_folded
        else:
            with pytest.raises(Crash):
                _attempt(
                    rec, script, obs, clock, _by_epoch(epochs), die_after=cut
                )
        done = dict(rec.prior_records)  # the dead attempt's high-water mark
        assert sum(done.values()) == rec.records_folded
        snapshot = None
        if rec.can_checkpoint and os.path.exists(checkpoint_path(rec.directory)):
            snapshot, _entries = read_checkpoint(rec.directory)
        assert (snapshot is None) == (
            obs.counters.get("reduce.checkpoint.writes") == 0
        )
        if scenario == "preempt" and cadence != "off":
            assert snapshot[PREEMPT_META_KEY] is True

        # -- what happened to the snapshot in between -------------------
        usable = snapshot is not None
        if scenario == "stale-epoch":
            epochs = dict.fromkeys(script, 1)  # every mapper re-executed
            usable = False
        elif scenario == "torn-snapshot" and snapshot is not None:
            path = checkpoint_path(rec.directory)
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) - 3)
            usable = False

        # -- the second attempt runs to completion ----------------------
        store, buckets = _attempt(
            rec, script, obs, clock, _by_epoch(epochs),
            epoch=epochs[0],
        )
        assert ("restore" in store.calls) == usable
        restored = (
            sum(state[2] for state in snapshot["progress"].values())
            if usable
            else 0
        )
        assert buckets == {
            "restored": restored,
            "replayed": sum(done.values()) - restored if usable else 0,
            "refolded": 0 if usable else sum(done.values()),
            "live": total - sum(done.values()),
        }
        if scenario == "preempt" and usable:
            assert buckets["replayed"] == 0  # the cut was the last boundary
        # Every batch is in the store exactly once, restored or folded.
        assert store.batches == {
            (source, seq): count
            for source, sizes in script.items()
            for seq, count in enumerate(sizes)
        }
        counters = Counters()
        rec.finish(counters)
        if cadence == "off" and not sum(done.values()):
            assert counters.as_dict() == {}  # a clean run materialises nothing
        else:
            assert sum(counters.as_dict().values()) == total
        if snapshot is not None and not usable:
            kind = "stale" if scenario == "stale-epoch" else "invalid"
            assert obs.counters.get(f"reduce.checkpoint.{kind}") == 1
            assert obs.counters.get("reduce.checkpoint.restores") == 0


@pytest.mark.parametrize("cadence", ["off", "every-3rd"])
def test_a_preempt_is_recorded_on_the_task_span(tmp_path, cadence):
    # Besides the host's ack, the task span is where a stop is recorded:
    # what the attempt had folded, and whether its final cut is on disk.
    obs = JobObservability(clock=lambda: 0.0)
    span = obs.tracer.open("reduce-0", "task")
    rec = ReduceTaskRecovery(CADENCES[cadence], str(tmp_path), 0)
    store = ScriptedStore()
    rec.begin(store, _by_epoch({0: 0}), obs, 0.0, span)
    store.fold(0, 0, 5)
    rec.folded(0, 0, 0, 5, 40, 1.0)
    assert "preempted_records" not in span.attrs
    store.fold(0, 1, 3)
    with pytest.raises(ReducePreemptedError):
        rec.folded(0, 1, 0, 3, 24, 2.0, stop=True)
    assert span.attrs == {
        "preempted_records": 8, "checkpointed": cadence != "off",
    }



def test_streaming_mapping_classifies_like_the_runtime_mapping(tmp_path):
    script = SCRIPTS["one-source"]
    journal = sum(script[0])
    for cut in range(len(script[0]) + 1):
        outcomes = []
        for name, still_valid in (
            ("runtime", lambda source, epoch, _records: epoch == 0),
            ("streaming", lambda source, _epoch, n: source == 0 and n <= journal),
        ):
            rec = ReduceTaskRecovery(
                CADENCES["every-3rd"], str(tmp_path / f"{name}-{cut}"), 0
            )
            obs = JobObservability(clock=lambda: 0.0)
            clock = itertools.count()
            with pytest.raises(Crash):
                _attempt(rec, script, obs, clock, still_valid, die_after=cut)
            _store, buckets = _attempt(rec, script, obs, clock, still_valid)
            outcomes.append(buckets)
        assert outcomes[0] == outcomes[1], cut


def test_snapshot_longer_than_the_journal_is_stale_and_never_restored(tmp_path):
    rec = ReduceTaskRecovery(CADENCES["every-batch"], str(tmp_path), 0)
    obs = JobObservability(clock=lambda: 0.0)
    write_checkpoint(
        rec.directory, [("0/0", 10**9)], meta={"progress": {0: (4, 0, 50)}}
    )
    store = ScriptedStore()
    cursors = rec.begin(
        store, lambda source, _epoch, n: source == 0 and n <= 49, obs, 0.0
    )
    assert cursors == {} and "restore" not in store.calls
    assert obs.counters.get("reduce.checkpoint.stale") == 1
    assert not os.path.exists(checkpoint_path(rec.directory))


def test_snapshot_in_the_old_streaming_layout_fails_closed(tmp_path):
    rec = ReduceTaskRecovery(CADENCES["every-batch"], str(tmp_path), 0)
    obs = JobObservability(clock=lambda: 0.0)
    write_checkpoint(rec.directory, [("0/0", 10**9)], meta={"records": 12})
    store = ScriptedStore()
    assert rec.begin(store, lambda *_: True, obs, 0.0) == {}
    assert "restore" not in store.calls
    assert obs.counters.get("reduce.checkpoint.invalid") == 1
    assert not os.path.exists(checkpoint_path(rec.directory))


def test_fold_batches_pays_the_boundary_before_pulling_the_next_item():
    trace = []

    def items():
        for name in "ab":
            trace.append(f"pull {name}")
            yield [name], name.upper()

    for batch in fold_batches(items(), lambda b, tag: trace.append(f"paid {tag}")):
        trace.append(f"fold {batch[0]}")
    assert trace == [
        "pull a", "fold a", "paid A", "pull b", "fold b", "paid B",
    ]


def test_fold_module_imports_no_threads_queues_sockets_or_clock():
    banned = {
        "socket", "threading", "queue", "time", "select",
        "subprocess", "multiprocessing",
    }
    with open(importlib.util.find_spec("repro.engine.fold").origin) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert not imported & banned, sorted(imported & banned)


# ---------------------------------------------------------------------------
# Grouped barrier-less input, through the real engines: grouping a batch
# by key must change nothing a store, a spill file or the output can see,
# and the decoded frames must reach ``Reducer.run`` as plain pairs.
# ---------------------------------------------------------------------------

APPS = [descriptor.short_name for descriptor in REGISTRY]
GROUPED_APPS = {"wc", "knn", "pp"}
STORES = ("inmemory", "spillmerge", "kvstore")
ENGINES = ("local", "threaded", "streaming")
PUSH_RECORDS = 100
#: Small frames, so every reducer folds several batches and a key's
#: values split across them.
BATCH = 32
WIRE = WireConfig(max_batch_records=BATCH)


class CountingStore:
    """Counts the puts that reach the real store; notes its size at the end."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.puts = 0
        self.final: tuple | None = None

    def put(self, key, value) -> None:
        self.puts += 1
        self._inner.put(key, value)

    def finalize(self) -> None:
        self._inner.finalize()
        inner = self._inner
        self.final = (
            self.puts,
            len(inner),
            getattr(inner, "num_spill_files", 0),
            getattr(inner, "spill_bytes_written", 0),
            getattr(inner, "bytes_written", 0),
        )

    def __getattr__(self, name):
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)


def _counted_job(app, store):
    job, pairs = demo_job_and_input(
        app, ExecutionMode.BARRIERLESS, records=240, store=store, seed=7
    )
    # Small enough that both disk-backed stores spill several times.
    job.memory.spill_threshold_bytes = 2048
    job.memory.kv_cache_bytes = 2048
    built: list[CountingStore] = []

    def factory():
        built.append(CountingStore(make_store(job.memory, merge_fn=job.merge_fn)))
        return built[-1]

    job.store_factory = factory
    return job, pairs, built


def _run(engine, job, pairs):
    if engine == "local":
        return LocalEngine().run(job, pairs, num_maps=2)
    if engine == "threaded":
        # One map task: each reducer has one fetch stream, so the arrival
        # order (and with it every spill point) is deterministic.
        return ThreadedEngine(map_slots=1, wire=WIRE).run(job, pairs, num_maps=1)
    stream = StreamingEngine(job, wire=WIRE)
    for start in range(0, len(pairs), PUSH_RECORDS):
        stream.push(pairs[start : start + PUSH_RECORDS])
    return stream.close()


def _observed(app, engine, store):
    job, pairs, built = _counted_job(app, store)
    result = _run(engine, job, pairs)
    store_counters = {
        name: value
        for name, value in result.counters.as_dict().items()
        if name.startswith(("store.", "memory."))
    }
    # A store never finalized (identity: nothing is swept) reports puts.
    stats = sorted(store.final or (store.puts,) for store in built)
    return normalized_output(app, result), store_counters, stats


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("app", APPS)
def test_grouped_fold_is_invisible_to_output_store_and_spills(
    monkeypatch, app, store, engine
):
    monkeypatch.setattr(base, "BATCH_RECORDS", BATCH)  # LocalEngine's slices
    grouped = _observed(app, engine, store)
    monkeypatch.setattr(base, "GROUPED_CLASSES", frozenset())
    ungrouped = _observed(app, engine, store)
    assert grouped == ungrouped
    output, _counters, stats = grouped
    assert output
    if store != "inmemory" and app in GROUPED_APPS | {"sort"}:
        # puts, entries, spill files, spill bytes, kvstore log bytes.
        assert any(files for _p, _e, files, _b, _l in stats) or any(
            log for *_rest, log in stats
        ), stats


@pytest.mark.parametrize("app", APPS)
def test_only_aggregation_selection_and_post_reduction_are_grouped(app):
    job, _pairs = demo_job_and_input(app, ExecutionMode.BARRIERLESS, records=10)
    reducer = base.prepare_reducer(job)
    try:
        batches = [[("k", 1), ("k", 2)]]
        context = base.make_reduce_context(job, reducer, batches, Counters())
        assert context.next_key()
        values = list(context.current_values())
        assert values == ([1, 2] if app in GROUPED_APPS else [1])
        # An ``on_record`` hook makes every step one record again.
        hooked = base.make_reduce_context(
            job, reducer, batches, Counters(), on_record=lambda: None
        )
        assert hooked.next_key() and list(hooked.current_values()) == [1]
    finally:
        base.close_store(reducer)


def test_a_not_checkpointable_reducer_is_never_grouped():
    job, _pairs = demo_job_and_input("wc", ExecutionMode.BARRIERLESS, records=10)
    reducer = base.prepare_reducer(job)
    reducer.checkpointable = False
    context = base.make_reduce_context(
        job, reducer, [[("k", 1), ("k", 2)]], Counters()
    )
    assert context.next_key() and list(context.current_values()) == [1]


@pytest.mark.parametrize("app", sorted(GROUPED_APPS | {"sort"}))
def test_threaded_barrierless_reduce_builds_no_record_before_run(
    monkeypatch, app
):
    """Frames decode straight to pairs: the only ``Record`` objects a
    threaded barrier-less job builds are the ones the reducer writes."""
    job, pairs = demo_job_and_input(app, ExecutionMode.BARRIERLESS, records=300)
    built = itertools.count()
    original = Record.__init__

    def counting_init(self, key, value):
        next(built)
        original(self, key, value)

    monkeypatch.setattr(Record, "__init__", counting_init)
    result = ThreadedEngine().run(job, pairs)
    monkeypatch.undo()
    written = result.counters.get("reduce.output_records")
    assert written == len(result.all_output()) > 0
    assert next(built) == written

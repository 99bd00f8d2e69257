"""Serialise at collect: the one-pass map side against the three-pass oracle.

``run_map_task_encoded`` is the map side of every engine that publishes
frames (threaded, cluster, streaming).  ``LocalEngine`` and stagebench's
walk keep the public three-pass composition — ``run_map_task``, then
``partition_records``, then ``encode_record_batches`` — and this file
pins the collector to it frame for frame and counter for counter, pins
where frames are cut, and pins what the hash-partition memo may and may
not remember.  ``make mapside`` runs it with ``test_mapside.py`` and the
wire golden digest.
"""

from __future__ import annotations

import hashlib
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.apps import wordcount
from repro.apps.demo import demo_job_and_input, normalized_output
from repro.cluster import ClusterRuntime
from repro.cluster.shuffle import ShuffleStore
from repro.cluster.worker import _Worker
from repro.core.api import FunctionCombiner
from repro.core.job import split_input
from repro.core.types import Counters, ExecutionMode, Record, default_partition
from repro.dfs.wire import WireConfig, decode_batches, encode_record_batches
from repro.engine import mapside
from repro.engine.base import (
    BATCH_RECORDS,
    partition_records,
    run_map_task,
    run_map_task_encoded,
    run_map_task_partitioned,
)
from repro.engine.local import LocalEngine
from repro.engine.mapside import MapOutputCollector
from repro.engine.recovery import FetchFaultInjector, MapOutputService
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability
from repro.workloads.text import generate_documents
from tests.dfs.test_wire_golden import _CONFIGS, corpus

APPS = ("grep", "sort", "wc", "knn", "pp", "ga", "bs")
NUM_MAPS = 3
WIRE = WireConfig()


def _stream_digests(batches: dict[int, list]) -> dict[int, tuple[int, str]]:
    """Per reducer: how many frames, and the sha256 of their bytes."""
    return {
        reducer: (
            len(stream),
            hashlib.sha256(b"".join(b.frame for b in stream)).hexdigest(),
        )
        for reducer, stream in batches.items()
    }


def _assert_same_as_three_pass(job, pairs, three_pass, wire=WIRE) -> None:
    for split in split_input(pairs, NUM_MAPS):
        want_counters, got_counters = Counters(), Counters()
        want = {
            reducer: encode_record_batches(part, wire)
            for reducer, part in three_pass(job, split, want_counters).items()
        }
        got = run_map_task_encoded(job, split, got_counters, wire)
        assert _stream_digests(got) == _stream_digests(want)
        assert got == want  # counts and raw-byte accounting ride along
        assert got_counters.as_dict() == want_counters.as_dict()


# ---------------------------------------------------------------------------
# differential: collector == encode(partition(map))
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(ExecutionMode))
@pytest.mark.parametrize("app", APPS)
def test_every_app_publishes_the_three_pass_frames(app, mode):
    job, pairs = demo_job_and_input(app, mode, records=1200, num_maps=NUM_MAPS)
    _assert_same_as_three_pass(
        job, pairs,
        lambda job, split, counters: partition_records(
            job, run_map_task(job, split, counters)
        ),
    )


def test_combiner_output_feeds_the_same_collector():
    job = wordcount.make_job(ExecutionMode.BARRIER, num_reducers=3)
    job.combiner_factory = lambda: FunctionCombiner(lambda a, b: a + b)
    pairs = generate_documents(12, words_per_doc=40, vocab_size=30, seed=3)
    _assert_same_as_three_pass(job, pairs, run_map_task_partitioned)
    counters = Counters()
    run_map_task_encoded(job, pairs, counters, WIRE)
    assert 0 < counters.get("combine.output_records") < counters.get(
        "map.output_records"
    )


@pytest.mark.parametrize("codec", ("wire", "off"))
def test_sort_and_spill_buffer_feeds_the_same_collector(tmp_path, codec):
    job = wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=3)
    job.map_output_buffer_bytes = 2048  # tiny: every split spills
    job.memory.spill_dir = str(tmp_path)
    pairs = generate_documents(12, words_per_doc=40, vocab_size=30, seed=3)
    spill_codec = WireConfig(codec=codec)
    for split in split_input(pairs, NUM_MAPS):
        want_counters, got_counters = Counters(), Counters()
        parts = run_map_task_partitioned(job, split, want_counters, spill_codec)
        got = run_map_task_encoded(job, split, got_counters, spill_codec)
        if codec == "off":
            assert got == {
                reducer: [part[i : i + BATCH_RECORDS]
                          for i in range(0, len(part), BATCH_RECORDS)]
                for reducer, part in parts.items()
            }
        else:
            assert got == {
                reducer: encode_record_batches(part, spill_codec)
                for reducer, part in parts.items()
            }
        assert got_counters.as_dict() == want_counters.as_dict()
        assert got_counters.get("map.output_spills") > 0
    assert list(tmp_path.iterdir()) == []


def test_wire_off_streams_are_record_lists_of_the_batch_size():
    job, pairs = demo_job_and_input("sort", ExecutionMode.BARRIER, records=1500)
    counters = Counters()
    streams = run_map_task_encoded(job, pairs, counters, None)
    want = partition_records(job, run_map_task(job, pairs, Counters()))
    assert sorted(streams) == list(range(job.num_reducers))
    for reducer, stream in streams.items():
        assert [len(batch) for batch in stream[:-1]] == [BATCH_RECORDS] * (
            len(stream) - 1
        )
        assert [r for batch in stream for r in batch] == want[reducer]
    assert counters.get("map.output_records") == 1500
    off = WireConfig(codec="off")
    assert run_map_task_encoded(job, pairs, Counters(), off) == streams


def test_an_empty_split_counts_nothing_and_publishes_every_stream():
    job, _pairs = demo_job_and_input("wc", ExecutionMode.BARRIERLESS)
    counters = Counters()
    batches = run_map_task_encoded(job, [], counters, WIRE)
    assert batches == {reducer: [] for reducer in range(job.num_reducers)}
    three_pass = Counters()
    run_map_task(job, [], three_pass)
    assert counters.as_dict() == three_pass.as_dict() == {}


# ---------------------------------------------------------------------------
# cut points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", _CONFIGS)
def test_golden_corpus_through_the_collector(config):
    """The corpus whose digest ``test_wire_golden`` pins, cut the same way."""
    collector = MapOutputCollector(1, lambda key, n: 0, config)
    for key, value in corpus():
        collector.collect(key, value)
    assert collector.finish() == {0: encode_record_batches(corpus(), config)}


def _by_length(key, num_partitions: int) -> int:
    return len(key) % num_partitions


@given(
    max_records=st.integers(1, 6),
    max_bytes=st.integers(8, 96),
    compress=st.booleans(),
    partitions=st.integers(1, 3),
    # Encoded sizes run from 4 bytes to past ``max_bytes``, record
    # counts from none to several ``max_records``.
    records=st.lists(
        st.tuples(st.text("ab", max_size=100), st.integers(0, 1 << 40)),
        max_size=40,
    ),
)
def test_frames_are_cut_where_encode_record_batches_cuts(
    max_records, max_bytes, compress, partitions, records
):
    config = WireConfig(
        max_batch_records=max_records, max_batch_bytes=max_bytes,
        compress=compress, compress_min_bytes=0,
    )
    collector = MapOutputCollector(partitions, _by_length, config)
    want: dict[int, list[Record]] = {p: [] for p in range(partitions)}
    for key, value in records:
        collector.collect(key, value)
        want[_by_length(key, partitions)].append(Record(key, value))
    got = collector.finish()
    assert got == {
        p: encode_record_batches(part, config) for p, part in want.items()
    }
    for stream in got.values():
        for batch in stream:
            assert batch.count <= max_records
            assert batch.count == 1 or batch.raw_bytes <= max_bytes


# ---------------------------------------------------------------------------
# the hash-partition memo
# ---------------------------------------------------------------------------

#: Enough partitions that the keys below land apart.
_WIDE = 97


class Loud(str):
    """Equal to, and hashed like, the ``str`` it wraps; repr'd otherwise."""

    def __repr__(self) -> str:
        return "LOUD"


def _placed(collector: MapOutputCollector) -> dict[int, list]:
    """``{partition: [value, ...]}`` of the non-empty partitions."""
    return {
        partition: [r.value for r in decode_batches(stream, WIRE)]
        for partition, stream in collector.finish().items()
        if stream
    }


def test_only_exact_str_keys_are_remembered():
    # Equal as dict keys, different under repr(): a memo keyed on any of
    # them would send the others to the wrong reducer.
    keys = ["1", 1, 1.0, True, (1, 2), (1.0, 2), Loud("1"), "1", Loud("1"), 1]
    homes = [default_partition(key, _WIDE) for key in keys]
    assert len(set(homes)) == 7  # one per distinct repr
    collector = MapOutputCollector(_WIDE, default_partition, WIRE)
    want: dict[int, list] = {}
    for index, (key, home) in enumerate(zip(keys, homes)):
        collector.collect(key, index)
        want.setdefault(home, []).append(index)
    assert list(collector._memo) == ["1"]
    assert type(next(iter(collector._memo))) is str
    assert _placed(collector) == want


def test_a_user_partitioner_is_called_for_every_record():
    calls = []

    def counting(key, num_partitions):
        calls.append(key)
        return len(calls) % num_partitions

    collector = MapOutputCollector(2, counting, WIRE)
    for index in range(10):
        collector.collect("same", index)
    assert calls == ["same"] * 10
    assert collector._memo is None
    assert _placed(collector) == {1: [0, 2, 4, 6, 8], 0: [1, 3, 5, 7, 9]}


def test_the_memo_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(mapside, "PARTITION_MEMO_KEYS", 8)
    collector = MapOutputCollector(_WIDE, default_partition, WIRE)
    keys = [f"k{i}" for i in range(20)] * 2
    want: dict[int, list] = {}
    for index, key in enumerate(keys):
        collector.collect(key, index)
        want.setdefault(default_partition(key, _WIDE), []).append(index)
    assert list(collector._memo) == keys[:8]
    assert _placed(collector) == want


# ---------------------------------------------------------------------------
# re-execution: same frames under the bumped epoch, nothing counted twice
# ---------------------------------------------------------------------------


def _wc():
    job, pairs = demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=300, num_reducers=2,
        num_maps=NUM_MAPS,
    )
    return job, pairs, LocalEngine().run(job, pairs, NUM_MAPS)


def test_threaded_regeneration_republishes_the_first_epochs_frames(monkeypatch):
    job, pairs, oracle = _wc()
    published = []
    publish = MapOutputService.publish

    def recording(self, mapper, batches):
        epoch = publish(self, mapper, batches)
        published.append((mapper, epoch, batches))
        return epoch

    monkeypatch.setattr(MapOutputService, "publish", recording)
    obs = JobObservability()
    result = ThreadedEngine(
        map_slots=2, obs=obs, wire=WIRE,
        fetch_injector=FetchFaultInjector(lose_output_after={0: 1}),
    ).run(job, pairs, NUM_MAPS)
    assert normalized_output("wc", result) == normalized_output("wc", oracle)
    epochs = {epoch: batches for mapper, epoch, batches in published if mapper == 0}
    assert sorted(epochs) == [0, 1] and obs.counters.get("map.reexecutions") == 1
    assert epochs[1] == epochs[0] and any(epochs[0].values())
    emitted = oracle.counters.get("map.output_records")
    assert result.counters.get("map.output_records") == emitted
    assert obs.counters.get("map.output_records") == emitted


def test_cluster_map_reexecution_publishes_the_first_epochs_frames():
    job, pairs, _oracle = _wc()
    split = split_input(pairs, NUM_MAPS)[0]
    worker = SimpleNamespace(store=ShuffleStore())
    ctx = SimpleNamespace(
        job=job, job_id="job-1", wire=WIRE, obs=JobObservability()
    )
    grant = {"split": pickle.dumps(split)}
    expected = {
        reducer: encode_record_batches(part, WIRE)
        for reducer, part in run_map_task_partitioned(job, split, Counters()).items()
    }
    want = Counters()
    run_map_task(job, split, want)
    for epoch in (0, 1):
        status, fields = _Worker._map(worker, ctx, 0, epoch, grant)
        for reducer, stream in expected.items():
            for seq, batch in enumerate([*stream, None]):
                assert worker.store.read("job-1", 0, reducer, seq) == (epoch, batch)
        # Each execution reports its own counters (the coordinator merges
        # the first report only), so neither may hold the other's records.
        assert status == "ok"
        assert fields["counters"]["map.output_records"] == want.get(
            "map.output_records"
        )


def test_cluster_map_reexecution_does_not_count_output_twice():
    job, pairs, oracle = _wc()
    with ClusterRuntime(2, wire=WIRE) as runtime:
        result = runtime.run_job(
            job, pairs, num_maps=NUM_MAPS,
            kill={"worker": "w1", "trigger": "map-done", "count": 1},
        )
        assert runtime.obs.counters.get("map.reexecutions") >= 1
    assert normalized_output("wc", result) == normalized_output("wc", oracle)
    for name in ("map.input_records", "map.output_records"):
        assert result.counters.get(name) == oracle.counters.get(name)

"""Micro-benchmarks of the real substrates (not simulated).

These quantify, on this machine, the mechanisms the paper's timing story
rests on: red-black insertion vs the builtin sort (why barrier-less Sort
loses, §6.1.1), the spill-and-merge store's overhead vs pure in-memory
folding (§5.1 vs Figure 5), and the KV store's read-modify-update
throughput — the analog of the "about 30,000 inserts per second" §6.3
measured for BerkeleyDB.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit_timed
from repro.memory.kvstore import SpillingKVStore
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore
from repro.memory.treemap import TreeMap

N_KEYS = 3_000


def _keys(seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(k) for k in rng.integers(0, 1_000_000, size=N_KEYS)]


def test_treemap_insert(benchmark):
    keys = _keys()

    def insert_all():
        tree = TreeMap()
        for key in keys:
            tree.put(key, key)
        return tree

    tree = benchmark(insert_all)
    assert len(tree) == len(set(keys))
    emit_timed(benchmark, lambda mean: f"TreeMap inserts: {N_KEYS / mean:,.0f} ops/s")


def test_builtin_sort_baseline(benchmark):
    """The merge-sort side of §6.1.1's 'competition between two sorting
    mechanisms' — Timsort over the same keys."""
    keys = _keys()
    result = benchmark(lambda: sorted(keys))
    assert len(result) == N_KEYS
    emit_timed(
        benchmark,
        lambda mean: f"builtin sort of {N_KEYS} keys: "
        f"{mean * 1e3:.2f} ms per run "
        "(red-black insertion above is the slower mechanism, as §6.1.1 found)",
    )


def test_spillmerge_insert_and_drain(benchmark):
    """The spill store at `sort`'s shape, next to the tree it replaced as
    a buffer: 20,000 distinct keys, the demo job's 256 KiB threshold,
    then the merge.  Comparable with ``TreeMap inserts`` above."""
    rng = np.random.default_rng(4)
    keys = [int(k) for k in rng.permutation(1_000_000)[:20_000]]

    def insert_and_drain():
        store = SpillMergeStore(lambda a, b: a + b, spill_threshold_bytes=256 << 10)
        for key in keys:
            store.put(key, 1)
        store.finalize()
        drained = sum(1 for _ in store.items())
        spills = store.spill_count
        store.close()
        return drained, spills

    drained, spills = benchmark(insert_and_drain)
    assert drained == 20_000 and spills >= 2
    emit_timed(
        benchmark,
        lambda mean: f"SpillMergeStore insert+drain, 20,000 distinct keys at "
        f"256 KiB ({spills} runs): {20_000 / mean:,.0f} ops/s",
    )


def test_treemapstore_fold(benchmark):
    keys = _keys(1)

    def fold():
        store = TreeMapStore()
        for key in keys:
            store.put(key, store.get(key, 0) + 1)
        return store

    store = benchmark(fold)
    assert len(store) == len(set(keys))
    emit_timed(
        benchmark,
        lambda mean: f"TreeMapStore read-modify-update: {N_KEYS / mean:,.0f} ops/s",
    )


def test_spillmerge_fold(benchmark):
    keys = _keys(2)

    def fold():
        store = SpillMergeStore(lambda a, b: a + b, spill_threshold_bytes=64 << 10)
        for key in keys:
            store.put(key, store.get(key, 0) + 1)
        store.finalize()
        merged = sum(1 for _ in store.items())
        store.close()
        return merged

    merged = benchmark(fold)
    assert merged == len(set(keys))
    emit_timed(
        benchmark,
        lambda mean: f"SpillMergeStore fold+merge: {N_KEYS / mean:,.0f} ops/s",
    )


def test_kvstore_read_modify_update(benchmark):
    """The §6.3 measurement, re-run against our BerkeleyDB stand-in."""
    keys = _keys(3)

    def fold():
        store = SpillingKVStore(cache_bytes=32 << 10, write_buffer_bytes=8 << 10)
        for key in keys:
            store.put(key, store.get(key, 0) + 1)
        total = len(store)
        store.close()
        return total

    total = benchmark(fold)
    assert total == len(set(keys))
    emit_timed(
        benchmark,
        lambda mean: f"SpillingKVStore read-modify-update: {N_KEYS / mean:,.0f} "
        "ops/s (paper measured ~30,000 inserts/s for BerkeleyDB JE)",
    )


@pytest.mark.parametrize("path", ("three-pass", "collector"))
@pytest.mark.parametrize("app, records", (("wc", 25_000), ("sort", 20_000)))
def test_map_side_collector_vs_three_pass(benchmark, app, records, path):
    """One map-side pass against three, at stagebench's two job shapes.

    ``three-pass`` is the codec-free reference and what the stagebench
    walk does (``run_map_task``, ``partition_records``,
    ``encode_record_batches``); ``collector`` is ``run_map_task_encoded``,
    what every engine publishes.  Same frames either way
    (``tests/engine/test_collector.py``); ``wc`` has ~500 distinct ``str``
    keys under the hash partitioner (the memo's case), ``sort`` distinct
    ``int`` keys under a range partitioner (fusion only).
    """
    from repro.apps.demo import demo_job_and_input
    from repro.core.job import split_input
    from repro.core.types import Counters, ExecutionMode
    from repro.dfs.wire import WireConfig, encode_record_batches
    from repro.engine.base import (
        partition_records,
        run_map_task,
        run_map_task_encoded,
    )

    wire = WireConfig()
    job, pairs = demo_job_and_input(app, ExecutionMode.BARRIERLESS, records)
    splits = split_input(pairs, 4)

    def three_pass(split):
        parts = partition_records(job, run_map_task(job, split, Counters()))
        return {r: encode_record_batches(p, wire) for r, p in parts.items()}

    def collector(split):
        return run_map_task_encoded(job, split, Counters(), wire)

    run_split = collector if path == "collector" else three_pass
    published = benchmark(lambda: [run_split(split) for split in splits])
    emitted = sum(len(b) for out in published for s in out.values() for b in s)
    assert emitted == records
    emit_timed(
        benchmark,
        lambda mean: f"map side, {path}, {emitted:,} {app} records: "
        f"{emitted / mean:,.0f} ops/s",
    )


#: 256-pair batches (one frame at ``WireConfig()``) in the shapes the
#: shuffle moves most: ``wc``'s words and counts, ``sort``'s int keys.
_BATCHES = {
    "str-int": ([f"w{i % 500}" for i in range(256)], [1] * 256),
    "int-int": (
        [i * 7919 % 100_003 for i in range(256)],
        [i % 1000 for i in range(256)],
    ),
}


@pytest.mark.parametrize("op", ("seal", "decode"))
@pytest.mark.parametrize("shape", sorted(_BATCHES))
def test_columnar_frame(benchmark, shape, op):
    """One 256-pair batch sealed into a columnar frame, or decoded back
    into ``(key, value)`` tuples the barrier-less fold reads."""
    from repro.dfs.wire import (
        FLAG_COLUMNAR,
        WireConfig,
        decode_frame,
        entry_pair,
        seal_pairs,
    )

    keys, values = _BATCHES[shape]
    wire = WireConfig()
    batch = seal_pairs(keys, values, wire)
    assert batch.count == 256 and batch.frame[0] & FLAG_COLUMNAR
    if op == "seal":
        assert benchmark(lambda: seal_pairs(keys, values, wire)) == batch
    else:
        decoded, end = benchmark(lambda: decode_frame(batch.frame, make=entry_pair))
        assert decoded == list(zip(keys, values)) and end == len(batch.frame)
    emit_timed(
        benchmark,
        lambda mean: f"{op} 256 {shape} pairs ({len(batch.frame)} B frame): "
        f"{mean * 1e6:.1f} us",
    )


def _int64_frame_bytes(keys: list, values: list) -> int:
    """Wire bytes of the same pairs with every int column written at
    8 bytes an item (``array('q')``), deflated the way the codec would."""
    from array import array
    import zlib

    from repro.dfs.serialization import encode_varint
    from repro.dfs.wire import FLAG_COLUMNAR, FLAG_COMPRESSED, seal_frame

    def column(items: list) -> bytes:
        if type(items[0]) is str:
            return b"\x06" + "\0".join(items).encode("utf-8")
        return b"\x03" + array("q", items).tobytes()

    key_column = column(keys)
    payload = encode_varint(len(key_column)) + key_column + column(values)
    deflated = zlib.compress(payload)
    if len(deflated) < len(payload):
        frame = seal_frame(FLAG_COLUMNAR | FLAG_COMPRESSED, len(keys),
                           deflated, len(payload))
    else:
        frame = seal_frame(FLAG_COLUMNAR, len(keys), payload, len(payload))
    return len(frame.frame)


def _app_shapes() -> dict[str, tuple[list, list]]:
    """256 pairs as ``sort`` shuffles them (random int keys below 10**6,
    each its own value) and as ``wc`` does (words, each counted once)."""
    from repro.workloads.ints import generate_sort_records

    sort_pairs = generate_sort_records(256, seed=1)
    return {
        "sort": ([k for k, _ in sort_pairs], [v for _, v in sort_pairs]),
        "wc": ([f"w{i % 500}" for i in range(256)], [1] * 256),
    }


@pytest.mark.parametrize("op", ("seal", "decode"))
@pytest.mark.parametrize("shape", ("sort", "wc"))
def test_narrow_int_columns(benchmark, shape, op):
    """A 256-pair frame in an app's shape, its int columns at their
    narrowest width as byte planes: the round trip, and wire bytes no
    larger than the same frame with int64 columns."""
    from repro.dfs.wire import (
        FLAG_COLUMNAR,
        WireConfig,
        decode_frame,
        entry_pair,
        seal_pairs,
    )

    keys, values = _app_shapes()[shape]
    wire = WireConfig()
    batch = seal_pairs(keys, values, wire)
    assert batch.count == 256 and batch.frame[0] & FLAG_COLUMNAR
    int64_bytes = _int64_frame_bytes(keys, values)
    assert batch.wire_bytes <= int64_bytes
    if op == "seal":
        assert benchmark(lambda: seal_pairs(keys, values, wire)) == batch
    else:
        decoded, end = benchmark(
            lambda: decode_frame(batch.frame, make=entry_pair)
        )
        assert decoded == list(zip(keys, values)) and end == len(batch.frame)
    emit_timed(
        benchmark,
        lambda mean: f"{op} 256 {shape} pairs: {mean * 1e6:.1f} us, "
        f"{batch.raw_bytes} B raw, {batch.wire_bytes} B frame "
        f"(int64 columns: {int64_bytes} B)",
    )


def test_reduce_output_pickle_round_trip(benchmark):
    """One cluster reducer's output on the control plane: the worker
    pickles its ``Record`` list into ``reduce-done`` and the dispatcher
    unpickles it at ``reduce-commit``.  1,000 of ``sort``'s Records."""
    import pickle

    from repro.apps.demo import demo_job_and_input
    from repro.core.types import ExecutionMode
    from repro.engine import LocalEngine

    job, pairs = demo_job_and_input(
        "sort", ExecutionMode.BARRIERLESS, 2_000, num_reducers=2, num_maps=2
    )
    records = LocalEngine().run(job, pairs, num_maps=2).output[1][:1_000]
    assert len(records) == 1_000

    loaded = benchmark(lambda: pickle.loads(pickle.dumps(records)))
    assert loaded == records
    emit_timed(
        benchmark,
        lambda mean: f"1,000 Records through pickle.dumps + pickle.loads: "
        f"{mean * 1e3:.2f} ms",
    )


def test_cluster_split_path(benchmark):
    """One job's input on the control plane, at ``server_mix``'s ``pp``
    shape (2,000 listens, 2 maps, 2 reducers): ``Coordinator.submit``'s
    ``splits`` field, the dispatcher's ``job-start`` (journal apply of
    ``job-submit``, then the grants) and the two ``assign-map`` payloads
    a worker unpickles."""
    import pickle

    from repro.apps.demo import demo_job_and_input
    from repro.cluster.dispatch import Dispatcher
    from repro.core.job import split_input
    from repro.core.types import ExecutionMode
    from repro.dfs.wire import WireConfig
    from repro.engine.recovery import RecoveryConfig
    from repro.obs import JobObservability

    job, pairs = demo_job_and_input(
        "pp", ExecutionMode.BARRIERLESS, 2_000, num_reducers=2, num_maps=2
    )
    spec = {
        "job": pickle.dumps(job),
        "wire": pickle.dumps(WireConfig()),
        "recovery": pickle.dumps(RecoveryConfig()),
        "checkpoint_root": "", "placement": "spread", "deadline_s": 60.0,
        "task_retries": 0, "retry_mode": "fail_fast", "kill": None,
    }
    obs = JobObservability()

    def submit():
        splits = [pickle.dumps(split) for split in split_input(pairs, 2)]
        payloads = []

        def send(worker, kind, fields):
            if kind == "assign-map":
                payloads.append(fields["split"])

        dispatcher = Dispatcher(
            obs, log=lambda kind, fields: None, send=send,
            conclude=lambda job_id, result, error: None,
            lost=lambda worker, gen: None,
        )
        for gen, name in enumerate(("w0", "w1")):
            dispatcher.handle(0.0, "worker-joined", {
                "worker": name, "gen": gen, "shuffle_host": "127.0.0.1",
                "shuffle_port": 9000 + gen,
            })
        dispatcher.handle(
            0.0, "job-start", {"job_id": "job-1", "splits": splits, **spec}
        )
        return payloads

    granted = benchmark(submit)
    assert [pickle.loads(split) for split in granted] == split_input(pairs, 2)
    emit_timed(
        benchmark,
        lambda mean: f"pp split path, 2,000 listens in 2 maps: "
        f"{mean * 1e3:.2f} ms per job",
    )


def test_telemetry_delta_round_trip(benchmark):
    """One worker's telemetry delta at a ``server_mix`` reduce's shape,
    what a completion message carries: the task span with its grant tags,
    two fetch ops, ``shuffle+reduce`` and ``output``, five counters and
    eight two-point gauge series.  ``TelemetryBuffer.collect`` on the
    worker, then ``decode_telemetry`` on the coordinator."""
    from repro.cluster.telemetry import TelemetryBuffer, decode_telemetry
    from repro.obs import JobObservability

    obs = JobObservability()
    task = obs.tracer.open(
        "reduce-0", "task", worker="w0", pid=4242, job_id="job-4",
        task_id="reduce-0", attempt=0, epoch=0,
    )
    for name, attrs in (
        ("fetch-0", {"mapper": 0, "retries": 0, "timeouts": 0}),
        ("fetch-1", {"mapper": 1, "retries": 0, "timeouts": 0}),
        ("shuffle+reduce", {}),
        ("output", {}),
    ):
        obs.tracer.close(obs.tracer.open(name, "op", parent=task, **attrs))
    obs.tracer.close(task)
    for name, total in (
        ("shuffle.records.fetched", 1000), ("shuffle.records.consumed", 1000),
        ("shuffle.batches", 8), ("reduce.output_records", 500),
        ("store.puts", 500),
    ):
        obs.counters.increment(name, total)
    for name in (
        "reduce.records_per_s", "shuffle.buffer.depth",
        "shuffle.compress.ratio", "shuffle.fetch.inflight", "store.bytes",
        "worker.fetch.inflight", "worker.records_per_s", "worker.store.bytes",
    ):
        obs.metrics.sample(name, 1.0)
        obs.metrics.sample(name, 2.0)

    def round_trip():
        buffer = TelemetryBuffer(obs, job_id="job-4", worker="w0", pid=4242)
        return decode_telemetry(buffer.collect())

    payload = benchmark(round_trip)
    assert [span["name"] for span in payload["spans"]] == [
        "reduce-0", "fetch-0", "fetch-1", "shuffle+reduce", "output",
    ]
    assert len(payload["counters"]) == 5 and len(payload["series"]) == 8
    emit_timed(
        benchmark,
        lambda mean: f"telemetry delta (5 spans, 5 counters, 8 series) "
        f"encode+decode: {mean * 1e6:.1f} us",
    )


def test_assign_map_message_round_trip(benchmark):
    """One ``assign-map`` grant at ``wc_cluster``'s split size (25,000
    documents in 4 maps): ``encode_message`` on the coordinator's
    dispatch thread, ``decode_message`` on the worker."""
    import pickle

    from repro.apps.demo import demo_job_and_input
    from repro.cluster.rpc import decode_message, encode_message
    from repro.cluster.telemetry import TraceContext
    from repro.core.job import split_input
    from repro.core.types import ExecutionMode

    _job, pairs = demo_job_and_input("wc", ExecutionMode.BARRIERLESS, 25_000)
    fields = {
        "job_id": "job-1", "mapper": 0, "epoch": 0,
        "split": pickle.dumps(split_input(pairs, 4)[0]),
        "ctx": TraceContext("job-1", "map-0", 0, 0).as_fields(),
    }

    kind, decoded = benchmark(lambda: decode_message(encode_message("assign-map", fields)))
    assert kind == "assign-map" and decoded == fields
    emit_timed(
        benchmark,
        lambda mean: f"assign-map, {len(fields['split']):,} B split, "
        f"encode+decode: {mean * 1e3:.3f} ms",
    )


def test_shuffle_fetch_loopback(benchmark):
    """A cluster reducer's data plane alone: ``wc``'s 25,000-record map
    output (4 maps x 4 reducers) published to one ``ShuffleServer`` and
    drained stream by stream through ``RemoteMapOutputSource`` on
    127.0.0.1, one ``fetch`` round trip per window of frames."""
    from repro.apps.demo import demo_job_and_input
    from repro.cluster.shuffle import (
        LocationTable,
        RemoteMapOutputSource,
        ShuffleServer,
        ShuffleStore,
    )
    from repro.core.job import split_input
    from repro.core.types import Counters, ExecutionMode
    from repro.dfs.wire import WireConfig
    from repro.engine.base import run_map_task_encoded

    job, pairs = demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, 25_000, num_reducers=4, num_maps=4
    )
    published = {
        mapper: run_map_task_encoded(job, split, Counters(), WireConfig())
        for mapper, split in enumerate(split_input(pairs, 4))
    }
    store = ShuffleStore()
    server = ShuffleServer(store)
    locations = LocationTable()
    for mapper, streams in published.items():
        store.publish("job-1", mapper, 0, streams)
        locations.update(mapper, server.host, server.port, 0)

    def drain():
        source = RemoteMapOutputSource("job-1", locations, fetch_timeout_s=5.0)
        got = {}
        try:
            for mapper, streams in published.items():
                for reducer in streams:
                    frames = got[mapper, reducer] = []
                    while True:
                        _epoch, batch = source.read(mapper, reducer, len(frames))
                        if batch is None:
                            break
                        frames.append(batch)
        finally:
            source.close()
        return got

    try:
        got = benchmark(drain)
    finally:
        server.close()
    assert got == {
        (mapper, reducer): batches
        for mapper, streams in published.items()
        for reducer, batches in streams.items()
    }
    frames = sum(len(batches) for batches in got.values())
    assert sum(len(b) for batches in got.values() for b in batches) == 25_000
    emit_timed(
        benchmark,
        lambda mean: f"shuffle fetch on loopback, {frames} wc frames in "
        f"{len(got)} streams: {mean * 1e3:.2f} ms per drain",
    )


def test_engine_pipelining_overhead(benchmark, testbed):
    """Threaded pipelined engine vs sequential reference on real data.

    On one core no speedup is possible; this bench bounds the *overhead*
    of the per-mapper fetch threads and FIFO buffer (it must stay within
    a small factor of the sequential engine).
    """
    from repro.apps import wordcount
    from repro.core.types import ExecutionMode
    from repro.engine import LocalEngine, ThreadedEngine
    from repro.workloads import generate_documents

    corpus = generate_documents(40, 60, 300, seed=9)
    job = wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=2)

    def run_threaded():
        return ThreadedEngine(map_slots=2).run(job, corpus, num_maps=4)

    result = benchmark(run_threaded)
    reference = LocalEngine().run(job, corpus, num_maps=4)
    assert result.output_as_dict() == reference.output_as_dict()

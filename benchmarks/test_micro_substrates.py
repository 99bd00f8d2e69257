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

from benchmarks.conftest import emit
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
    rate = N_KEYS / benchmark.stats.stats.mean
    emit(f"TreeMap inserts: {rate:,.0f} ops/s")


def test_builtin_sort_baseline(benchmark):
    """The merge-sort side of §6.1.1's 'competition between two sorting
    mechanisms' — Timsort over the same keys."""
    keys = _keys()
    result = benchmark(lambda: sorted(keys))
    assert len(result) == N_KEYS
    emit(
        f"builtin sort of {N_KEYS} keys: "
        f"{benchmark.stats.stats.mean * 1e3:.2f} ms per run "
        "(red-black insertion above is the slower mechanism, as §6.1.1 found)"
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
    rate = 20_000 / benchmark.stats.stats.mean
    emit(
        f"SpillMergeStore insert+drain, 20,000 distinct keys at 256 KiB "
        f"({spills} runs): {rate:,.0f} ops/s"
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
    rate = N_KEYS / benchmark.stats.stats.mean
    emit(f"TreeMapStore read-modify-update: {rate:,.0f} ops/s")


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
    rate = N_KEYS / benchmark.stats.stats.mean
    emit(f"SpillMergeStore fold+merge: {rate:,.0f} ops/s")


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
    rate = N_KEYS / benchmark.stats.stats.mean
    emit(
        f"SpillingKVStore read-modify-update: {rate:,.0f} ops/s "
        "(paper measured ~30,000 inserts/s for BerkeleyDB JE)"
    )


@pytest.mark.parametrize("path", ("three-pass", "collector"))
@pytest.mark.parametrize("app, records", (("wc", 25_000), ("sort", 20_000)))
def test_map_side_collector_vs_three_pass(benchmark, app, records, path):
    """One map-side pass against three, at stagebench's two job shapes.

    ``three-pass`` is what ``LocalEngine`` and the stagebench walk do
    (``run_map_task``, ``partition_records``, ``encode_record_batches``);
    ``collector`` is ``run_map_task_encoded``, what the threaded, cluster
    and streaming engines publish.  Same frames either way
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
    rate = emitted / benchmark.stats.stats.mean
    emit(f"map side, {path}, {emitted:,} {app} records: {rate:,.0f} ops/s")


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

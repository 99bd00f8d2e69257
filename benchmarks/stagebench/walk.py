"""The layer walk: replay a job through the layers' public functions.

``walk_job`` is this benchmark's own single-threaded driver.  It calls
the same public functions ``LocalEngine.run`` composes, in the same
order, with an in-memory span around every call; a layer's number is its
span's self time.  Layers a ``LocalEngine`` job does not cross (the typed
codec on its own, rpc framing, the socket shuffle, the size estimator,
the red-black tree, the scheduler kernel) are *replayed* afterwards on
the data the walk produced, each under its own root span.

Nothing inside ``src/`` is patched: the store is timed by a proxy handed
in through the public ``JobSpec.store_factory``.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

from repro.cluster.rpc import decode_message, encode_message
from repro.cluster.shuffle import (
    LocationTable,
    RemoteMapOutputSource,
    ShuffleServer,
    ShuffleStore,
)
from repro.core.job import JobSpec, split_input
from repro.core.types import Counters, ExecutionMode, Record, StageTimes
from repro.dfs.serialization import decode_at, encode
from repro.dfs.wire import WireBatch, WireConfig, decode_batches, encode_record_batches
from repro.engine.base import (
    barrier_merge_sort,
    finish_result,
    interleave_arrival,
    partition_records,
    run_map_task,
    run_reduce_task,
)
from repro.engine.local import LocalEngine
from repro.engine.recovery import FetchAttemptError, FetchTimeoutError
from repro.memory import TreeMap, entry_size, make_store
from repro.server import SchedulerKernel, TenantConfig

from benchmarks.stagebench.measure import (
    MODES,
    ServerHarness,
    close_in_background,
    job_and_input,
    open_harness,
    timed_window,
)
from benchmarks.stagebench.spec import (
    FIXED_JOB_RECORDS,
    FIXED_JOBS,
    TRACED_WINDOW_SHARE,
    WALK_REPEATS,
    Workload,
)

BARRIER, BARRIERLESS = MODES
_KERNEL_TICKETS = 1000
_SERVER_REPLAY_RECORDS = 2000
_SERVER_REPLAY_ROUNDS = 4
_REPLAY = "replay"
#: Metrics that are a median over ``WALK_REPEATS`` walks (or local runs).
_WALK_TIMED = (
    "map.busy_s", "partition.busy_s", "wire.encode_s", "wire.decode_s",
    "sort.merge_s", "reduce.barrier_s", "reduce.fold_s", "reduce.user_s",
    "store.put_s", "store.get_s", "store.drain_s",
    "walk.barrier_s", "walk.barrierless_s", "local.job_s", "walk.overhead_ratio",
)


class Tracer:
    """Spans kept in memory: id, name, start, end, parent, job id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, job: str | None = None):
        parent = self._open[-1] if self._open else None
        span = {
            "id": len(self.spans),
            "name": name,
            "job": job if job is not None else parent["job"],
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def aggregate(self, name: str, busy_s: float, count: int) -> None:
        """One child span standing for ``count`` calls that were busy ``busy_s``.

        Per-record calls (store get/put) are summed, not recorded one by
        one, to keep the walk within 10% of an untraced run; ``end -
        start`` of such a span is busy time, not a contiguous interval.
        """
        parent = self._open[-1]
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "job": parent["job"],
            "parent": parent["id"],
            "start": parent["start"],
            "end": parent["start"] + busy_s,
            "count": count,
        })

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per job id: span name -> summed self time in seconds."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            out[span["job"]][span["name"]] += own
        return out

    def document(self) -> list[dict]:
        """Spans with times relative to the first one, for ``trace.json``."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return [
            {**span, "start": span["start"] - origin, "end": span["end"] - origin}
            for span in self.spans
        ]


class TimedStore:
    """Timing proxy around a partial-result store.

    ``put``, ``get`` and the final ``finalize``+``items`` sweep are timed
    and counted; everything else is forwarded.  ``contains`` goes straight
    through: each timed call costs about 0.25 us, and timing that second
    lookup per record as well pushed the walk past its 10% overhead limit,
    so its time stays with the reducer (``reduce.user_s``).  The wrapped
    store is held as ``_inner``, the attribute ``harvest_store_counters``
    already unwraps, so counters are unchanged.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.final_items: list[tuple] = []
        self.contains = inner.contains
        clock = time.perf_counter
        # [put, get, drain] seconds and [put, get] calls; closures over
        # lists keep the per-record cost to two clock reads and two adds.
        busy = self.busy = [0.0, 0.0, 0.0]
        calls = self.calls = [0, 0]
        inner_put, inner_get = inner.put, inner.get

        def put(key, value):
            started = clock()
            inner_put(key, value)
            busy[0] += clock() - started
            calls[0] += 1

        def get(key, default=None):
            started = clock()
            value = inner_get(key, default)
            busy[1] += clock() - started
            calls[1] += 1
            return value

        self.put, self.get = put, get

    def finalize(self) -> None:
        started = time.perf_counter()
        self._inner.finalize()
        self.busy[2] += time.perf_counter() - started

    def items(self):
        clock = time.perf_counter
        started = clock()
        for item in self._inner.items():
            self.busy[2] += clock() - started
            self.final_items.append(item)
            yield item
            started = clock()
        self.busy[2] += clock() - started

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def with_timed_stores(job: JobSpec, stores: list[TimedStore]) -> JobSpec:
    """``job`` with every reduce task's store wrapped and collected."""
    build = job.store_factory or (
        lambda: make_store(job.memory, merge_fn=job.merge_fn)
    )

    def factory():
        store = TimedStore(build())
        stores.append(store)
        return store

    return dataclasses.replace(job, store_factory=factory)


@dataclasses.dataclass
class Walk:
    """What one walked job produced, for verification and the replays."""

    result: object
    seconds: float
    map_records: list[Record]
    published: dict[int, dict[int, list[WireBatch]]]
    stores: list[TimedStore]

    def close(self) -> None:
        """Delete the spill files the walked stores still hold."""
        for store in self.stores:
            close = getattr(store, "close", None)
            if close is not None:
                close()


def walk_job(tracer: Tracer, job_id: str, job: JobSpec, pairs, num_maps: int) -> Walk:
    """Run ``job`` the way ``LocalEngine.run`` does, one span per call."""
    wire = WireConfig()
    counters = Counters()
    stores: list[TimedStore] = []
    traced_job = with_timed_stores(job, stores)
    map_records: list[Record] = []
    published: dict[int, dict[int, list[WireBatch]]] = {}
    arrived: dict[int, list[list[Record]]] = {
        index: [] for index in range(job.num_reducers)
    }
    output: dict[int, list[Record]] = {}
    with tracer.span("job", job=job_id) as job_span:
        for mapper, split in enumerate(split_input(pairs, num_maps)):
            with tracer.span("map"):
                records = run_map_task(job, split, counters)
            with tracer.span("partition"):
                partitions = partition_records(job, records)
            with tracer.span("wire.encode"):
                encoded = {
                    index: encode_record_batches(part, wire)
                    for index, part in partitions.items()
                }
            with tracer.span("wire.decode"):
                for index, batches in encoded.items():
                    arrived[index].append(decode_batches(batches, wire))
            map_records.extend(records)
            published[mapper] = encoded
        for reducer in range(job.num_reducers):
            if job.mode is ExecutionMode.BARRIER:
                with tracer.span("sort.merge"):
                    stream = barrier_merge_sort(arrived[reducer])
                reduce_span = "reduce.barrier"
            else:
                with tracer.span("shuffle.interleave"):
                    stream = interleave_arrival(arrived[reducer])
                reduce_span = "reduce.fold"
            already = len(stores)
            with tracer.span(reduce_span):
                output[reducer] = run_reduce_task(traced_job, stream, counters)
                for store in stores[already:]:
                    tracer.aggregate("store.put", store.busy[0], store.calls[0])
                    tracer.aggregate("store.get", store.busy[1], store.calls[1])
                    tracer.aggregate("store.drain", store.busy[2], 1)
    result = finish_result(job, output, counters, StageTimes())
    return Walk(
        result, job_span["end"] - job_span["start"], map_records, published, stores
    )


# ---------------------------------------------------------------------------
# replays: layers a LocalEngine job does not cross on its own
# ---------------------------------------------------------------------------


def replay_serialization(tracer: Tracer, records: list[Record]) -> int:
    """One ``encode`` and one ``decode_at`` per record; returns raw bytes."""
    with tracer.span("serialization.encode", job=_REPLAY):
        payload = b"".join(encode((r.key, r.value)) for r in records)
    with tracer.span("serialization.decode", job=_REPLAY):
        cursor = 0
        while cursor < len(payload):
            _entry, cursor = decode_at(payload, cursor)
    return len(payload)


def replay_rpc(tracer: Tracer, batches: list[WireBatch]) -> None:
    """Frame and unframe every batch as the ``batch`` reply a fetch gets."""
    with tracer.span("rpc.codec", job=_REPLAY):
        for batch in batches:
            blob = encode_message("batch", {
                "epoch": 0,
                "frame": batch.frame,
                "count": batch.count,
                "raw": batch.raw_bytes,
            })
            decode_message(blob)


def replay_shuffle(tracer: Tracer, published_by_job: dict) -> tuple[int, int]:
    """Publish, serve on loopback and drain; returns (fetched, failed).

    One server and one source per job id, all on 127.0.0.1.
    """
    store = ShuffleStore()
    server = ShuffleServer(store)
    sources = []
    fetched = failed = 0
    try:
        with tracer.span("shuffle.fetch", job=_REPLAY):
            for job_id, published in published_by_job.items():
                locations = LocationTable()
                source = RemoteMapOutputSource(job_id, locations, fetch_timeout_s=5.0)
                sources.append(source)
                for mapper, batches in published.items():
                    store.publish(job_id, mapper, 0, batches)
                    locations.update(mapper, server.host, server.port, 0)
                for mapper, batches in published.items():
                    for reducer in batches:
                        seq = 0
                        while True:
                            try:
                                _epoch, batch = source.read(mapper, reducer, seq)
                            except (FetchAttemptError, FetchTimeoutError):
                                failed += 1
                                break
                            if batch is None:
                                break
                            fetched += 1
                            seq += 1
    finally:
        for source in sources:
            source.close()
        # close() shuts the listener at once, then waits up to 2 s for an
        # accept thread that closing a listener does not wake.  Nothing
        # here needs that wait, so it is left to a daemon thread.
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=0.05)
    return fetched, failed


def replay_store_parts(tracer: Tracer, items: list[tuple], seed: int) -> None:
    """``entry_size`` over the final store items, then the tree alone.

    Keys go into a fresh ``TreeMap`` in a seeded shuffle (the store's
    sweep hands them over sorted, which no reducer ever sees), then once
    more to take the replace path.
    """
    with tracer.span("estimator", job=_REPLAY):
        for key, value in items:
            entry_size(key, value)
    items = list(items)
    random.Random(seed).shuffle(items)
    tree = TreeMap()
    for name in ("treemap.insert", "treemap.update"):
        with tracer.span(name, job=_REPLAY):
            for key, value in items:
                tree.put(key, value)


def replay_kernel(tracer: Tracer) -> None:
    """submit -> next_grants -> release over a thousand tickets."""
    tenants = ("a", "b")
    kernel = SchedulerKernel(
        slots=2, tenants={tenant: TenantConfig() for tenant in tenants}
    )
    with tracer.span("kernel.cycle", job=_REPLAY):
        for index in range(_KERNEL_TICKETS):
            kernel.submit(tenants[index % 2], f"k-{index}", input_bytes=1024)
            for ticket in kernel.next_grants():
                kernel.release(ticket.job_id)


def replay_server(workload: Workload, seed: int) -> tuple[list, list, list]:
    """For a workload with no server in its path: its jobs through one.

    A ``JobServer`` on the threaded backend runs the workload's apps at no
    more than ``server_mix``'s 2,000 records, four rounds of both modes.
    Returns (seconds inside ``submit``, seconds inside ``wait``, errors).
    """
    small = dataclasses.replace(
        workload, records=min(workload.records, _SERVER_REPLAY_RECORDS)
    )
    harness = ServerHarness(small, seed, backend="threaded")
    errors = []
    try:
        harness.expect(small.records)
        for _round in range(_SERVER_REPLAY_ROUNDS):
            for mode in MODES:
                for app in small.apps:
                    if not harness.run(app, mode, small.records):
                        errors.append(f"{app}/{mode.value} server replay: output differs")
    finally:
        harness.close()
    return harness.submit_s, harness.wait_s, errors


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EngineSide:
    """What the workload's own engine told the traced run (raw seconds)."""

    job_s: float
    rounds: int
    fixed_s: list[float]
    submit_s: list[float]
    wait_s: list[float]
    rejected: int


def measure_engine(workload, seed, seconds, harness, attempts: list[str | None]) -> EngineSide:
    """``job_s``, the fixed cost and the server latencies, on a warm engine.

    ``attempts`` gains one entry per verified job: None, or what went wrong.
    """
    harness.warm_up()
    harness.expect(workload.records)
    harness.expect(FIXED_JOB_RECORDS)
    for app in workload.apps:
        harness.run(app, BARRIERLESS, FIXED_JOB_RECORDS, verify=False)
    served = len(getattr(harness, "submit_s", ()))
    window = timed_window(harness, seconds * TRACED_WINDOW_SHARE)
    attempts += [s.error and f"{s.app}/{s.mode}: {s.error}" for s in window.samples]
    if isinstance(harness, ServerHarness):
        submit_s, wait_s = harness.submit_s[served:], harness.wait_s[served:]
    fixed_s = []
    for index in range(FIXED_JOBS):
        app = workload.apps[index % len(workload.apps)]
        started = time.perf_counter()
        ok = harness.run(app, BARRIERLESS, FIXED_JOB_RECORDS)
        fixed_s.append(time.perf_counter() - started)
        attempts.append(None if ok else f"{app}/fixed job: output differs")
    if not isinstance(harness, ServerHarness):
        submit_s, wait_s, errors = replay_server(workload, seed)
        attempts += errors + [None] * (len(submit_s) - len(errors))
    return EngineSide(
        # Raw seconds: the walk and local runs this is set against are raw.
        job_s=median(window.job_seconds(BARRIERLESS, len(workload.apps), calibrated=False)),
        rounds=len(window.rounds),
        fixed_s=fixed_s,
        submit_s=submit_s,
        wait_s=wait_s,
        rejected=harness.obs.counters.get("server.jobs.rejected"),
    )


def traced(workload: Workload, seed: int, seconds: float) -> dict:
    """The ``--trace 1`` run: per-layer metrics, spans and job accounting.

    Returns ``{"metrics", "samples", "spans", "attempted", "errors",
    "checks"}``; ``metrics`` maps every per-layer name to a number and
    ``samples`` gives the sample count where it is not one.
    """
    tracer = Tracer()
    apps, num_maps, records = workload.apps, workload.num_maps, workload.records
    with tracer.span("workloads.generate", job="setup") as generate_span:
        inputs = {
            (app, BARRIERLESS): job_and_input(workload, app, BARRIERLESS, records, seed)
            for app in apps
        }
    for app in apps:
        inputs[(app, BARRIER)] = job_and_input(workload, app, BARRIER, records, seed)

    attempts: list[str | None] = []
    harness = open_harness(workload, seed)
    try:
        engine = measure_engine(workload, seed, seconds, harness, attempts)
    finally:
        closer = close_in_background(harness)

    # -- walks, each barrier-less one back to back with a LocalEngine run --
    walk_s = {BARRIER: [], BARRIERLESS: []}
    local_s: list[float] = []
    first_walks: dict[str, Walk] = {}
    for repeat in range(WALK_REPEATS):
        totals = {BARRIER: 0.0, BARRIERLESS: 0.0}
        local_total = 0.0
        for app in apps:
            for mode in (BARRIERLESS, BARRIER):
                job, pairs = inputs[(app, mode)]
                walk = walk_job(
                    tracer, f"{app}.{mode.value}.{repeat}", job, pairs, num_maps
                )
                totals[mode] += walk.seconds
                ok = harness.matches(app, records, walk.result)
                attempts.append(None if ok else f"{app}/{mode.value} walk: output differs")
                if mode is BARRIERLESS and repeat == 0:
                    first_walks[app] = walk  # kept for the replays
                else:
                    walk.close()
                if mode is BARRIERLESS:
                    started = time.perf_counter()
                    LocalEngine().run(job, pairs, num_maps)
                    local_total += time.perf_counter() - started
        for mode in MODES:
            walk_s[mode].append(totals[mode])
        local_s.append(local_total)

    # -- replays on the first barrier-less walk's data ---------------------
    map_records = [r for walk in first_walks.values() for r in walk.map_records]
    batches = [
        batch
        for walk in first_walks.values()
        for per_reducer in walk.published.values()
        for stream in per_reducer.values()
        for batch in stream
    ]
    raw_payload = replay_serialization(tracer, map_records)
    replay_rpc(tracer, batches)
    fetched, fetch_failed = replay_shuffle(
        tracer, {app: walk.published for app, walk in first_walks.items()}
    )
    final_items = []
    for walk in first_walks.values():  # one tree per app: keys must compare
        items = [item for store in walk.stores for item in store.final_items]
        replay_store_parts(tracer, items, seed)
        final_items += items
    replay_kernel(tracer)
    stores = [store for walk in first_walks.values() for store in walk.stores]
    inner = [store._inner for store in stores]
    store_counts = {
        "store.puts": sum(s.calls[0] for s in stores),
        "store.gets": sum(s.calls[1] for s in stores),
        "store.entries": len(final_items),
        "store.peak_bytes": max(
            (getattr(s, "peak_memory", 0) for s in inner), default=0
        ),
        "spill.files": sum(getattr(s, "num_spill_files", 0) for s in inner),
        "spill.bytes": sum(getattr(s, "spill_bytes_written", 0) for s in inner),
    }
    for walk in first_walks.values():
        walk.close()
    closer.join()

    # -- self times: median over the repeats of the sum over apps ----------
    own = tracer.self_times()

    def layer(name: str, mode=BARRIERLESS) -> float:
        return median(
            sum(own[f"{app}.{mode.value}.{r}"][name] for app in apps)
            for r in range(WALK_REPEATS)
        )

    attributed = min(
        1.0 - names["job"] / sum(names.values())
        for job_id, names in own.items()
        if job_id not in ("setup", _REPLAY)
    )
    replay = own[_REPLAY]
    per_item_us = 1e6 / len(final_items) if final_items else 0.0
    local_job_s = median(local_s)
    fixed_job_s = median(engine.fixed_s)
    store_s = layer("store.put") + layer("store.get") + layer("store.drain")
    metrics = {
        "workloads.generate_s": generate_span["end"] - generate_span["start"],
        "map.busy_s": layer("map"),
        "map.records_out": len(map_records),
        "partition.busy_s": layer("partition"),
        "serialization.encode_s": replay["serialization.encode"],
        "serialization.decode_s": replay["serialization.decode"],
        "serialization.raw_bytes_per_record": raw_payload / len(map_records),
        "wire.encode_s": layer("wire.encode"),
        "wire.decode_s": layer("wire.decode"),
        "wire.raw_bytes": sum(b.raw_bytes for b in batches),
        "wire.wire_bytes": sum(b.wire_bytes for b in batches),
        "wire.batches": len(batches),
        "rpc.codec_s": replay["rpc.codec"],
        "shuffle.fetch_s": replay["shuffle.fetch"],
        "shuffle.fetch_batches": fetched,
        "shuffle.fetch_failed": fetch_failed,
        "sort.merge_s": layer("sort.merge", BARRIER),
        "reduce.barrier_s": layer("reduce.barrier", BARRIER),
        "reduce.fold_s": layer("reduce.fold") + store_s,
        "reduce.user_s": layer("reduce.fold"),
        "store.put_s": layer("store.put"),
        "store.get_s": layer("store.get"),
        "store.drain_s": layer("store.drain"),
        **store_counts,
        "estimator.call_us": replay["estimator"] * per_item_us,
        "treemap.insert_us": replay["treemap.insert"] * per_item_us,
        "treemap.update_us": replay["treemap.update"] * per_item_us,
        "walk.barrier_s": median(walk_s[BARRIER]),
        "walk.barrierless_s": median(walk_s[BARRIERLESS]),
        "local.job_s": local_job_s,
        # Fastest over fastest: both are single-threaded and repeat the
        # same work, so each one's floor is its cost without neighbours.
        "walk.overhead_ratio": min(walk_s[BARRIERLESS]) / min(local_s),
        # job_s is the mean over the apps, local.job_s their sum.
        "engine.overhead_ratio": engine.job_s * len(apps) / local_job_s,
        "engine.fixed_job_s": fixed_job_s,
        "engine.per_record_us": (engine.job_s - fixed_job_s) / records * 1e6,
        "kernel.cycle_us": replay["kernel.cycle"] / _KERNEL_TICKETS * 1e6,
        "server.submit_s_p50": median(engine.submit_s),
        "server.wait_s_p50": median(engine.wait_s),
        "server.rejected": engine.rejected,
    }
    samples = dict.fromkeys(_WALK_TIMED, WALK_REPEATS)
    samples["engine.fixed_job_s"] = FIXED_JOBS
    samples["engine.overhead_ratio"] = samples["engine.per_record_us"] = engine.rounds
    samples["server.submit_s_p50"] = samples["server.wait_s_p50"] = len(engine.submit_s)
    return {
        "metrics": metrics,
        "samples": samples,
        "spans": tracer.document(),
        "attempted": len(attempts),
        "errors": [error for error in attempts if error],
        "checks": {"walk.attributed_share_min": attributed},
    }

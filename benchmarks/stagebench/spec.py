"""What stagebench runs and what it reports: workloads and metric names.

This module is the single place the names live in code; ``BENCHMARK.json``
and ``README.md`` repeat them and ``test_stagebench.py`` checks the three
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: How long one run measures unless ``--seconds`` says otherwise
#: (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 20
#: ``--smoke`` divides record counts by this and shortens the window to half a second.
SMOKE_DIVISOR = 50
#: Set-up is repeated so ``setup_s`` is a median, not one draw.
SETUP_REPEATS = 5
#: ``engine.fixed_job_s``: this many warm jobs of this many records.
FIXED_JOBS = 20
FIXED_JOB_RECORDS = 50
#: The traced run re-measures ``job_s`` on the engine for this share of
#: ``--seconds``; the rest of its time goes to the walks and replays.
TRACED_WINDOW_SHARE = 1 / 3
#: Walks and the untraced ``LocalEngine`` run alternate this many times.
WALK_REPEATS = 7
#: The reference loop ``measure.pace`` times, and its time on a quiet core
#: of the sandbox the benchmark was written on.  The second only sets the
#: scale of calibrated seconds; changing either re-bases every timing.
REFERENCE_ITERATIONS = 120_000
REFERENCE_NOMINAL_S = 0.030


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the engine they run on."""

    name: str
    why: str
    engine: str  # "threaded" | "cluster" | "server"
    apps: tuple[str, ...]
    records: int
    store: str = "inmemory"
    num_maps: int = 4
    num_reducers: int = 4
    clients: int = 1

    def scaled(self, divisor: int) -> "Workload":
        """The same workload on ``records // divisor`` records."""
        return replace(
            self, records=max(FIXED_JOB_RECORDS, self.records // divisor)
        )


# Sizes: the sandbox's shared cores slow down in bursts of seconds, and a
# median only rejects a burst when most samples escape it, so jobs are kept
# to a few tenths of a second and a 20 s window holds 15-30 rounds.  That
# costs the batch workloads some of their "all per-record work" purity:
# fixed cost is 1-2% of job_s threaded but 4-5% on the cluster.
WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "wc_threaded",
        "Aggregation, ~500 hot keys: codec and wire dominate while the store "
        "stays tiny, so a codec change shows here and a transport change must not.",
        engine="threaded", apps=("wc",), records=25_000,
    ),
    Workload(
        "sort_spill",
        "Sorting, every key distinct, spill-merge store: the reduce-side fold "
        "through store, tree, estimator and spill files dominates barrier-less.",
        engine="threaded", apps=("sort",), records=20_000, store="spillmerge",
    ),
    Workload(
        "wc_cluster",
        "wc_threaded's input on two forked workers: adds the socket shuffle, rpc "
        "and coordinator, the only place map and reduce overlap on two cores.",
        engine="cluster", apps=("wc",), records=25_000,
    ),
    Workload(
        "server_mix",
        "Two tenants submit 2,000-record wc/grep/sort/pp jobs to a JobServer: "
        "fixed per-job cost dominates, the control for codec and store changes.",
        engine="server", apps=("wc", "grep", "sort", "pp"), records=2_000,
        num_maps=2, num_reducers=2, clients=2,
    ),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r} (choose from "
        f"{[w.name for w in WORKLOADS]})"
    )


@dataclass(frozen=True)
class Metric:
    """One reported number.

    ``bound`` (end-to-end only) is the share of the parent's median by
    which the metric may worsen before a change counts as a regression.
    ``exact`` marks counts that must repeat bit-for-bit for one seed.
    """

    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None
    exact: bool = False


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", bound=0.25),
    Metric("job_s", "s", bound=0.25),
    Metric("barrier_job_s", "s", bound=0.25),
    Metric("barrierless_ratio", "ratio", bound=0.20),
    Metric("records_per_s", "records/s", better="higher", bound=0.20),
    Metric("job_s_p90", "s", bound=0.25),
    Metric("peak_rss_mb", "MiB", bound=0.10),
    Metric("shuffle_bytes_per_record", "B", bound=0.02, exact=True),
)

PER_LAYER: tuple[Metric, ...] = (
    # workloads
    Metric("workloads.generate_s", "s"),
    # engine.base, map side
    Metric("map.busy_s", "s"),
    Metric("map.records_out", "count", exact=True),
    Metric("partition.busy_s", "s"),
    # dfs.serialization
    Metric("serialization.encode_s", "s"),
    Metric("serialization.decode_s", "s"),
    Metric("serialization.raw_bytes_per_record", "B", exact=True),
    # dfs.wire
    Metric("wire.encode_s", "s"),
    Metric("wire.decode_s", "s"),
    Metric("wire.raw_bytes", "B", exact=True),
    Metric("wire.wire_bytes", "B", exact=True),
    Metric("wire.batches", "count", exact=True),
    # cluster.rpc
    Metric("rpc.codec_s", "s"),
    # cluster.shuffle
    Metric("shuffle.fetch_s", "s"),
    Metric("shuffle.fetch_batches", "count", exact=True),
    Metric("shuffle.fetch_failed", "count", exact=True),
    # engine.base, reduce side
    Metric("sort.merge_s", "s"),
    Metric("reduce.barrier_s", "s"),
    Metric("reduce.fold_s", "s"),
    Metric("reduce.user_s", "s"),
    # memory.store / memory.spill
    Metric("store.put_s", "s"),
    Metric("store.get_s", "s"),
    Metric("store.drain_s", "s"),
    Metric("store.puts", "count", exact=True),
    Metric("store.gets", "count", exact=True),
    Metric("store.entries", "count", exact=True),
    Metric("store.peak_bytes", "B", exact=True),
    Metric("spill.files", "count", exact=True),
    Metric("spill.bytes", "B", exact=True),
    # memory.estimator / memory.treemap
    Metric("estimator.call_us", "us"),
    Metric("treemap.insert_us", "us"),
    Metric("treemap.update_us", "us"),
    # the walk itself
    Metric("walk.barrier_s", "s"),
    Metric("walk.barrierless_s", "s"),
    Metric("local.job_s", "s"),
    Metric("walk.overhead_ratio", "ratio"),
    # engine.threaded / cluster
    Metric("engine.overhead_ratio", "ratio"),
    Metric("engine.fixed_job_s", "s"),
    Metric("engine.per_record_us", "us"),
    # server.kernel / server.server
    Metric("kernel.cycle_us", "us"),
    Metric("server.submit_s_p50", "s"),
    Metric("server.wait_s_p50", "s"),
    Metric("server.rejected", "count", exact=True),
)

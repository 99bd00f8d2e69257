"""Simulated Hadoop: barrier and barrier-less job execution on a cluster.

The simulator executes a :class:`~repro.sim.workload.JobProfile` on a
:class:`~repro.sim.cluster.ClusterSpec` at task/transfer granularity:

- **Map stage** — event-driven scheduling of map tasks onto per-node map
  slots (waves appear naturally when tasks exceed slots); a task's
  duration is chunk read + CPU (divided by the node's heterogeneous speed
  factor) + local write of its map output.
- **Shuffle** — each reducer ingests its partition of every map output
  through an effective per-reducer bandwidth (NIC rate divided by the
  oversubscription factor).  Fetches begin as mappers finish, so the
  shuffle overlaps the map stage in *both* modes, exactly as in Hadoop.
- **Barrier reduce** — reduce work starts only after the last fetch
  *and* the merge sort: ``shuffle → sort → reduce → DFS write`` in series
  (Figure 2).
- **Barrier-less reduce** — reduce CPU (plus the partial-result store's
  read-modify-update cost) is pipelined with arrival: the reducer's CPU
  clock advances chunk by chunk as data lands, then a final sweep emits
  the store contents (Figure 3).  No sort.

Reducer memory follows the job's :class:`MemoryProfile` and the selected
memory-management technique, reproducing the §5 behaviours: in-memory
stores OOM-kill the job at the heap limit; spill-and-merge pays spill
writes and a merge read; the key/value store pays a per-record operation
cost with an LRU hit model (the ~30 k ops/s ceiling of §6.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.types import ExecutionMode, StageTimes
from repro.obs import JobObservability, Tracer, stage_times
from repro.sim.cluster import ClusterSpec, NodeSpec
from repro.sim.dfs import (
    DistributedFileSystem,
    LocalityStats,
    schedule_with_locality,
)
from repro.sim.events import Simulator
from repro.sim.workload import JobProfile, MB


@dataclass(slots=True)
class MemoryTechnique:
    """Reducer-side memory management selection for simulation (§5).

    ``kind`` is one of ``"unbounded"`` (no heap accounting — the paper's
    original-Hadoop reducers), ``"inmemory"``, ``"spillmerge"`` or
    ``"kvstore"``.
    """

    kind: str = "unbounded"
    spill_threshold_mb: float = 240.0  # Figure 5(b)'s threshold
    kv_cache_mb: float = 64.0
    kv_op_seconds: float = 1.0 / 30_000.0  # §6.3: ~30k inserts/s
    kv_miss_penalty_s: float = 2.0e-5  # amortised disk read on cache miss
    #: Temporal-locality exponent of the LRU hit model: Zipf-skewed key
    #: streams give hit ratios far above cache_size/working_set, which is
    #: how BerkeleyDB "can exploit temporal locality" (§5.3).
    kv_locality: float = 0.25
    merge_cpu_s_per_mb: float = 0.01
    #: Fraction of spill-write time hidden behind the fetch pipeline (the
    #: spill runs on an async I/O thread while the reducer keeps folding).
    spill_write_overlap: float = 0.7
    #: Fraction of merge-phase read time hidden behind merge CPU
    #: (readahead across the sorted runs).
    merge_read_overlap: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in {"unbounded", "inmemory", "spillmerge", "kvstore"}:
            raise ValueError(f"unknown memory technique: {self.kind!r}")


@dataclass(frozen=True, slots=True)
class NodeFailure:
    """Kill one slave node at a virtual time during the map stage.

    Models the machine-failure scenario Hadoop's fault tolerance covers:
    the node's running map attempts are lost and its completed map output
    (stored on its local disk) becomes unreadable, forcing re-execution
    on the survivors.  Both execution modes recover identically — the
    paper's §8 claim that barrier removal "preserves the fault tolerance
    of the original MapReduce model".
    """

    node_id: int
    at_time: float


@dataclass(frozen=True, slots=True)
class CheckpointPlan:
    """Periodic partial-store snapshots for barrier-less reducers.

    Every ``interval_s`` of virtual time, a reducer pauses to write its
    partial-result store to local disk (at the node's ``disk_mb_s``), so
    failure-free completion grows with checkpoint frequency.  When a
    :class:`ReducerFailure` strikes, the restart restores the last
    snapshot instead of re-fetching and refolding the whole partition:
    only the arrivals after the snapshot are re-fetched and *replayed*
    (``replayed_records``), and recovery time shrinks as the snapshot
    interval does — the recovery-time-vs-checkpoint-frequency trade-off.
    """

    interval_s: float

    def __post_init__(self) -> None:
        if self.interval_s <= 0.0:
            raise ValueError("interval_s must be positive")


@dataclass(frozen=True, slots=True)
class ReducerFailure:
    """Kill one reduce attempt at a virtual time; it restarts elsewhere.

    Models the reducer-side half of the fault story the paper's §8 claim
    leaves implicit: the attempt's fetched data and partial state die with
    it, so the restarted attempt re-fetches its whole partition from the
    retained map outputs.  What that re-fetch *wastes* differs by mode —
    a barrier reducer that had not yet begun its sort loses only fetch
    time, while a barrier-less reducer has already folded the fetched
    records into its partial store and re-pays the fold CPU for all of
    them (``refolded_records`` on the result).
    """

    reducer_id: int
    at_time: float
    #: Failure-detection + re-scheduling delay before the restart begins.
    restart_overhead_s: float = 5.0


@dataclass(slots=True)
class ReducerTrace:
    """Per-reducer simulation outcome."""

    reducer_id: int
    start: float
    shuffle_done: float
    sort_done: float
    finish: float
    records: float
    spills: int = 0
    heap_samples: list[tuple[float, float]] = field(default_factory=list)
    #: Virtual time each mapper's partition finished arriving.
    arrival_times: list[float] = field(default_factory=list)


@dataclass(slots=True)
class SimJobResult:
    """Outcome of one simulated job execution."""

    profile_name: str
    mode: ExecutionMode
    completion_time: float
    failed: bool
    failure_time: float | None
    failure_reason: str | None
    #: The run's span tree at virtual times (job → map stage → map tasks,
    #: reduce stage → tasks → attempts → ops): the Figure 4 record.
    tracer: Tracer
    map_finish_times: list[float]
    reducers: list[ReducerTrace]
    locality: LocalityStats = field(default_factory=LocalityStats)
    #: Map tasks re-executed due to an injected node failure.
    reexecuted_maps: int = 0
    #: Speculative backup attempts launched / that finished first.
    speculative_attempts: int = 0
    speculative_wins: int = 0
    #: Reduce attempts restarted after an injected reducer failure.
    reducer_restarts: int = 0
    #: Map-output MB the aborted attempts had fetched (re-fetched by the
    #: restarts — identical in both modes: map outputs are retained).
    refetched_mb: float = 0.0
    #: Records the aborted attempts had already reduced whose work is
    #: re-done by the restart — the mode-asymmetric part of the cost
    #: (barrier-less pays it for everything fetched; barrier only for a
    #: failure after its sort completed).
    refolded_records: float = 0.0
    #: The aborted attempts themselves (finish clamped at the failure).
    aborted_reducers: list[ReducerTrace] = field(default_factory=list)
    #: Records re-folded from the last snapshot's tail by a resumed
    #: restart (checkpointing on) — the cheap counterpart of
    #: ``refolded_records``.
    replayed_records: float = 0.0
    #: Records recovered directly from the restored snapshot (neither
    #: re-fetched nor re-folded).
    restored_records: float = 0.0
    #: Snapshot writes performed across all attempts, and their volume.
    checkpoint_writes: int = 0
    checkpoint_mb: float = 0.0
    #: ``(virtual_time, MB)`` per snapshot write, for disk-series export.
    checkpoint_schedule: list[tuple[float, float]] = field(default_factory=list)

    @property
    def stage_times(self) -> StageTimes:
        """Stage boundaries read off :attr:`tracer`, by the same rule as
        every engine's (:func:`repro.obs.stage_times`)."""
        return stage_times(self.tracer.spans())

    @property
    def mapper_slack(self) -> float:
        """First-map-done to shuffle-done interval (§3.2's definition)."""
        return self.stage_times.mapper_slack


def _spill_times(trace: ReducerTrace) -> list[tuple[float, float]]:
    """Reconstruct ``(virtual_time, spilled_mb)`` flushes from a heap trace.

    The reducer model appends a ``(t, 0.0)`` sample immediately after a
    spill empties the buffer, so a drop to zero from a positive value
    marks one flush of that previous value.
    """
    flushes: list[tuple[float, float]] = []
    previous = 0.0
    for at, current in trace.heap_samples:
        if current == 0.0 and previous > 0.0:
            flushes.append((at, previous / MB))
        previous = current
    return flushes


def _arrival_mb(trace: ReducerTrace, record_bytes: float) -> float:
    """MB transferred per mapper-partition arrival at this reducer."""
    per_map = trace.records / max(1, len(trace.arrival_times))
    return per_map * record_bytes / MB


class HadoopSimulator:
    """Simulates barrier and barrier-less executions on one cluster."""

    def __init__(self, cluster: ClusterSpec | None = None):
        self.cluster = cluster if cluster is not None else ClusterSpec()
        self._nodes = self.cluster.nodes()
        self._load_cache: dict[tuple[int, int, float], list[float]] = {}

    def _load_factors(self, profile: JobProfile, num_reducers: int) -> list[float]:
        """Per-reducer partition load multipliers (cached per job shape)."""
        key = (id(profile), num_reducers, profile.partition_skew)
        factors = self._load_cache.get(key)
        if factors is None:
            factors = profile.reducer_load_factors(
                num_reducers, seed=self.cluster.seed
            )
            self._load_cache[key] = factors
        return factors

    # ------------------------------------------------------------------ map

    def _simulate_map_stage(
        self,
        profile: JobProfile,
        failure: "NodeFailure | None" = None,
    ) -> tuple[
        list[tuple[str, float, float]],
        list[float],
        LocalityStats,
        int,
        dict[str, int],
    ]:
        """Run map tasks on per-node slots with HDFS chunk locality.

        The job input is placed on the DFS (one chunk per map task); each
        free slot prefers a data-local pending chunk, else steals a remote
        one and pays a network read instead of a disk read.

        An optional :class:`NodeFailure` kills one node at a virtual time:
        its in-flight map tasks are lost AND its *completed* tasks must
        re-execute (map output lives on the failed node's local disk —
        the write-local design the paper builds on), all on the surviving
        nodes.  Returns (completed map intervals, sorted finish times,
        locality stats, number of re-executed tasks, speculation stats).
        The intervals are ``(task, start, end)`` ordered by time, one per
        attempt that finished first, including those whose output the
        failure later lost; the finish times cover surviving outputs only.
        """
        sim = Simulator()
        cluster = self.cluster
        nodes = self._nodes
        dfs = DistributedFileSystem(
            num_nodes=cluster.num_slaves,
            replication=cluster.replication,
            seed=cluster.seed,
        )
        chunk_mb = max(profile.map_input_mb_per_task, 1e-6)
        layout = dfs.write_file(profile.num_maps * chunk_mb, chunk_mb)
        pending: set[int] = {chunk.chunk_id for chunk in layout.chunks}
        locality = LocalityStats()
        remote_read_rate = cluster.shuffle_mb_s
        dead: set[int] = set()
        completed: dict[int, tuple[int, float]] = {}  # chunk -> (node, time)
        intervals: list[tuple[str, float, float]] = []
        running: dict[int, set[int]] = {n.node_id: set() for n in nodes}
        epoch: dict[int, int] = {n.node_id: 0 for n in nodes}
        reexecuted = 0
        # Speculative-execution bookkeeping: expected finish per in-flight
        # attempt, chunks that already have a backup, and win statistics.
        expected_finish: dict[tuple[int, int], float] = {}
        speculated: set[int] = set()
        spec_stats = {"launched": 0, "wins": 0}

        def task_duration(node: NodeSpec, is_local: bool) -> float:
            read_rate = node.disk_mb_s if is_local else remote_read_rate
            read = profile.map_input_mb_per_task / read_rate
            cpu = profile.map_cpu_s_per_task / node.speed_factor
            write = profile.map_output_mb_per_task / node.disk_mb_s
            return read + cpu + write

        def pick_speculation(node: NodeSpec) -> tuple[int, bool] | None:
            """LATE-style candidate: the running chunk expected to finish
            last, if a backup here would beat it."""
            candidates = [
                (finish_estimate, chunk)
                for (holder, chunk), finish_estimate in expected_finish.items()
                if chunk not in completed
                and chunk not in speculated
                and holder != node.node_id
            ]
            if not candidates:
                return None
            worst_finish, chunk = max(candidates)
            is_local = layout.chunks[chunk].is_local_to(node.node_id)
            backup_finish = sim.now + task_duration(node, is_local)
            if backup_finish >= worst_finish:
                return None
            return chunk, is_local

        def start_next_on(node: NodeSpec) -> None:
            if node.node_id in dead:
                return
            speculative = False
            if cluster.locality_aware:
                chunk_id, is_local = schedule_with_locality(
                    layout, node.node_id, pending
                )
            elif pending:
                chunk_id = min(pending)
                is_local = layout.chunks[chunk_id].is_local_to(node.node_id)
            else:
                chunk_id, is_local = None, False
            if chunk_id is None and cluster.speculative_execution:
                candidate = pick_speculation(node)
                if candidate is not None:
                    chunk_id, is_local = candidate
                    speculative = True
                    speculated.add(chunk_id)
                    spec_stats["launched"] += 1
            if chunk_id is None:
                return
            pending.discard(chunk_id)
            running[node.node_id].add(chunk_id)
            if is_local:
                locality.local += 1
            else:
                locality.remote += 1
            start = sim.now
            my_epoch = epoch[node.node_id]
            duration = task_duration(node, is_local)
            expected_finish[(node.node_id, chunk_id)] = start + duration

            def finish() -> None:
                if node.node_id in dead or epoch[node.node_id] != my_epoch:
                    return  # the node died mid-task; attempt discarded
                running[node.node_id].discard(chunk_id)
                expected_finish.pop((node.node_id, chunk_id), None)
                if chunk_id in completed:
                    # The other attempt won; this one is discarded.
                    start_next_on(node)
                    return
                if speculative:
                    spec_stats["wins"] += 1
                completed[chunk_id] = (node.node_id, sim.now)
                intervals.append((f"map-{chunk_id}", start, sim.now))
                start_next_on(node)

            sim.schedule(duration, finish)

        if failure is not None:
            if not 0 <= failure.node_id < len(nodes):
                raise ValueError(f"no node {failure.node_id}")

            def fail_node() -> None:
                nonlocal reexecuted
                node_id = failure.node_id
                dead.add(node_id)
                epoch[node_id] += 1
                # In-flight attempts are lost.
                lost_running = set(running[node_id])
                running[node_id].clear()
                for key in [k for k in expected_finish if k[0] == node_id]:
                    del expected_finish[key]
                # Completed map output on the node's local disk is lost too.
                lost_completed = {
                    chunk
                    for chunk, (holder, _t) in completed.items()
                    if holder == node_id
                }
                for chunk in lost_completed:
                    del completed[chunk]
                reexecuted += len(lost_completed) + len(lost_running)
                pending.update(lost_running | lost_completed)
                # Wake every surviving node's free slots.
                for node in nodes:
                    if node.node_id in dead:
                        continue
                    free = cluster.map_slots_per_node - len(running[node.node_id])
                    for _slot in range(free):
                        if pending:
                            start_next_on(node)

            sim.at(failure.at_time, fail_node)

        for node in nodes:
            for _slot in range(cluster.map_slots_per_node):
                if pending:
                    start_next_on(node)
        sim.run()
        finish_times = sorted(t for _node, t in completed.values())
        intervals.sort(key=lambda task: (task[1], task[2]))
        return intervals, finish_times, locality, reexecuted, spec_stats

    # -------------------------------------------------------------- reducers

    def _simulate_reducer(
        self,
        profile: JobProfile,
        mode: ExecutionMode,
        technique: MemoryTechnique,
        reducer_id: int,
        start: float,
        node: NodeSpec,
        map_finish_times: list[float],
        num_reducers: int,
    ) -> ReducerTrace:
        """Timing (and heap trace) for one reducer."""
        cluster = self.cluster
        load = self._load_factors(profile, num_reducers)[reducer_id]
        bytes_per_map_mb = load * profile.map_output_mb_per_task / num_reducers
        ingest_rate = cluster.shuffle_mb_s  # MB/s into this reducer
        records_per_map = bytes_per_map_mb * MB / profile.record_bytes
        total_mb = bytes_per_map_mb * len(map_finish_times)
        output_mb = profile.final_output_mb / num_reducers
        # DFS writes push replication copies through the pipeline; charge
        # the write at disk rate divided by a pipeline factor.
        dfs_write_rate = node.disk_mb_s / max(1.0, cluster.replication - 1.0)
        speed = node.speed_factor
        heap_limit_bytes = cluster.heap_limit_mb * MB

        # Wire-format knobs: frames crossing the network carry
        # ``wire_compress_ratio`` of the raw bytes, and the reducer pays
        # a decode cost per batch frame it opens.
        wire_mb_per_map = bytes_per_map_mb * profile.wire_compress_ratio
        batches_per_map = math.ceil(
            max(0.0, records_per_map) / profile.wire_batch_records
        )
        decode_cpu_per_map = batches_per_map * profile.wire_batch_cpu_s / speed

        # Arrival schedule: fetch each finished mapper's partition through
        # the reducer's ingest pipe, FIFO.  Transfer time is charged on
        # the *wire* bytes — compression buys shuffle bandwidth.
        ingest_busy = start
        arrivals: list[float] = []
        for map_done in map_finish_times:
            fetch_start = max(map_done, ingest_busy)
            ingest_busy = (
                fetch_start
                + cluster.fetch_latency_s
                + wire_mb_per_map / ingest_rate
            )
            arrivals.append(ingest_busy)
        shuffle_done = arrivals[-1] if arrivals else start

        trace = ReducerTrace(
            reducer_id=reducer_id,
            start=start,
            shuffle_done=shuffle_done,
            sort_done=shuffle_done,
            finish=shuffle_done,
            records=records_per_map * len(map_finish_times),
            arrival_times=list(arrivals),
        )

        if mode is ExecutionMode.BARRIER:
            # Every fetched frame is decoded before the merge sort runs.
            decode_cpu = decode_cpu_per_map * len(map_finish_times)
            sort_time = profile.sort_cpu_s_per_mb * total_mb / speed
            trace.sort_done = shuffle_done + decode_cpu + sort_time
            reduce_cpu = profile.reduce_cpu_s_per_mb * total_mb / speed
            write_time = output_mb / dfs_write_rate
            trace.finish = trace.sort_done + reduce_cpu + write_time
            return trace

        # ---- barrier-less: pipelined consume ------------------------------
        mem = profile.memory
        cpu_busy = start
        records_consumed = 0.0
        spill_base_records = 0.0
        spilled_mb = 0.0
        failed_at: float | None = None
        per_mb_cost = (profile.reduce_cpu_s_per_mb + profile.store_cpu_s_per_mb) / speed
        if technique.kind == "kvstore":
            # Every record pays the store's op cost (a get + a put), plus a
            # miss penalty scaled by the LRU hit model.
            distinct = max(1.0, mem.distinct_keys(trace.records))
            cache_entries = technique.kv_cache_mb * MB / max(1.0, mem.entry_bytes)
            raw_ratio = min(1.0, cache_entries / distinct)
            hit_ratio = raw_ratio**technique.kv_locality
            per_record = technique.kv_op_seconds + (
                (1.0 - hit_ratio) * technique.kv_miss_penalty_s
            )
            per_mb_cost = (
                profile.reduce_cpu_s_per_mb / speed
                + per_record * (MB / profile.record_bytes) / speed
            )

        for arrival in arrivals:
            begin = max(arrival, cpu_busy)
            cpu_busy = begin + per_mb_cost * bytes_per_map_mb + decode_cpu_per_map
            records_consumed += records_per_map
            if technique.kind in {"inmemory", "spillmerge"}:
                current = mem.bytes_at(records_consumed - spill_base_records)
                trace.heap_samples.append((cpu_busy, current))
                if technique.kind == "inmemory" and current > heap_limit_bytes:
                    failed_at = cpu_busy
                    break
                if (
                    technique.kind == "spillmerge"
                    and current >= technique.spill_threshold_mb * MB
                ):
                    spill_mb = current / MB
                    cpu_busy += (
                        (1.0 - technique.spill_write_overlap)
                        * spill_mb
                        / node.disk_mb_s
                    )
                    spilled_mb += spill_mb
                    spill_base_records = records_consumed
                    trace.spills += 1
                    trace.heap_samples.append((cpu_busy, 0.0))
            elif technique.kind == "kvstore":
                trace.heap_samples.append(
                    (cpu_busy, min(technique.kv_cache_mb * MB,
                                   mem.bytes_at(records_consumed)))
                )
            else:  # unbounded
                trace.heap_samples.append(
                    (cpu_busy, mem.bytes_at(records_consumed))
                )

        if failed_at is not None:
            trace.finish = failed_at
            trace.sort_done = failed_at
            trace.records = records_consumed
            trace.spills = -1  # sentinel consumed by the caller
            return trace

        # Final sweep + merge + DFS write.
        finish = cpu_busy
        if technique.kind == "spillmerge" and spilled_mb > 0.0:
            residual_mb = mem.bytes_at(records_consumed - spill_base_records) / MB
            merge_read = (
                (1.0 - technique.merge_read_overlap) * spilled_mb / node.disk_mb_s
            )
            merge_cpu = technique.merge_cpu_s_per_mb * (spilled_mb + residual_mb) / speed
            finish += merge_read + merge_cpu
        finish += profile.sweep_s_per_mb * output_mb / speed
        finish += output_mb / dfs_write_rate
        trace.finish = finish
        trace.sort_done = shuffle_done  # no sort stage exists
        return trace

    # ------------------------------------------------------------------ run

    def run(
        self,
        profile: JobProfile,
        num_reducers: int,
        mode: ExecutionMode,
        technique: MemoryTechnique | None = None,
        failure: NodeFailure | None = None,
        reducer_failure: ReducerFailure | None = None,
        checkpoint: CheckpointPlan | None = None,
        obs: JobObservability | None = None,
    ) -> SimJobResult:
        """Simulate one job; returns timings, traces and failure state.

        ``failure`` optionally kills one node during the map stage;
        ``reducer_failure`` optionally kills one reduce attempt, which
        restarts on another node and re-fetches its partition from the
        retained map outputs.  The job still completes in both modes.
        ``checkpoint`` adds periodic partial-store snapshots (barrier-less
        mode only): snapshot writes are charged as disk time on the
        folding reducer, and a killed reducer resumes from its last
        snapshot instead of refolding.  ``obs`` receives the execution as
        *virtual-time* spans and counters in the same schema the real
        engines emit, which makes simulated and measured traces directly
        diffable.
        """
        if num_reducers <= 0:
            raise ValueError("num_reducers must be positive")
        if reducer_failure is not None and not (
            0 <= reducer_failure.reducer_id < num_reducers
        ):
            raise ValueError(f"no reducer {reducer_failure.reducer_id}")
        if technique is None:
            technique = MemoryTechnique()
        map_tasks, map_finish_times, locality, reexecuted, spec_stats = (
            self._simulate_map_stage(profile, failure)
        )
        dead_nodes = {failure.node_id} if failure is not None else set()

        slots = self.cluster.total_reduce_slots
        waves = math.ceil(num_reducers / slots)
        wave_start = [0.0] * waves
        reducers: list[ReducerTrace] = []
        aborted_attempts: list[ReducerTrace] = []
        reducer_restarts = 0
        refetched_mb = 0.0
        refolded_records = 0.0
        replayed_records = 0.0
        restored_records = 0.0
        checkpoint_writes = 0
        checkpoint_mb = 0.0
        checkpoint_schedule: list[tuple[float, float]] = []
        failed = False
        failure_time: float | None = None
        failure_reason: str | None = None
        plan = checkpoint if mode is ExecutionMode.BARRIERLESS else None

        def surviving_node(slot_index: int) -> NodeSpec:
            node = self._nodes[slot_index % len(self._nodes)]
            while node.node_id in dead_nodes:
                slot_index += 1
                node = self._nodes[slot_index % len(self._nodes)]
            return node

        def fold_window(trace: ReducerTrace) -> tuple[float, float]:
            """The pipelined consume interval of a barrier-less attempt."""
            boundary = min(max(trace.start, trace.shuffle_done), trace.finish)
            return trace.start, boundary

        def consumed_at(trace: ReducerTrace, t: float) -> float:
            lo, hi = fold_window(trace)
            if t <= lo:
                return 0.0
            if t >= hi or hi <= lo:
                return trace.records
            return trace.records * (t - lo) / (hi - lo)

        def store_mb_at(trace: ReducerTrace, t: float) -> float:
            return consumed_at(trace, t) * profile.record_bytes / MB

        def snapshot_instants(
            trace: ReducerTrace, until: float | None = None
        ) -> list[float]:
            """Virtual times this attempt cuts snapshots (fold phase only)."""
            lo, hi = fold_window(trace)
            if until is not None:
                hi = min(hi, until)
            instants: list[float] = []
            k = 1
            while lo + k * plan.interval_s < hi:
                instants.append(lo + k * plan.interval_s)
                k += 1
            return instants

        def charge_snapshots(
            trace: ReducerTrace, node: NodeSpec, until: float | None = None
        ) -> float:
            """Record an attempt's snapshot writes; returns their disk time."""
            nonlocal checkpoint_writes, checkpoint_mb
            cost = 0.0
            for at in snapshot_instants(trace, until):
                mb = store_mb_at(trace, at)
                checkpoint_writes += 1
                checkpoint_mb += mb
                checkpoint_schedule.append((at, mb))
                cost += mb / node.disk_mb_s
            return cost

        for wave in range(waves):
            lo = wave * slots
            hi = min(num_reducers, (wave + 1) * slots)
            start = wave_start[wave]
            wave_traces: list[ReducerTrace] = []
            for reducer_id in range(lo, hi):
                # Reducers scheduled for a failed node land on the next
                # surviving one.
                node = surviving_node(reducer_id)
                trace = self._simulate_reducer(
                    profile,
                    mode,
                    technique,
                    reducer_id,
                    start,
                    node,
                    map_finish_times,
                    num_reducers,
                )
                rf = reducer_failure
                attempt_node = node
                if (
                    rf is not None
                    and rf.reducer_id == reducer_id
                    and trace.spills != -1
                    and trace.start <= rf.at_time < trace.finish
                ):
                    # The attempt dies at at_time; everything it fetched
                    # (and, barrier-less, folded) is lost with it — unless
                    # a snapshot survives on disk.
                    load = self._load_factors(profile, num_reducers)[reducer_id]
                    per_map_mb = (
                        load * profile.map_output_mb_per_task / num_reducers
                    )
                    fetched_maps = sum(
                        1 for a in trace.arrival_times if a <= rf.at_time
                    )
                    records_per_map = per_map_mb * MB / profile.record_bytes
                    saved_s = 0.0
                    restore_read_s = 0.0
                    if mode is ExecutionMode.BARRIER:
                        refetched_mb += per_map_mb * fetched_maps
                        # Reduce work only starts after the sort; a failure
                        # before that loses fetch time alone.
                        if rf.at_time > trace.sort_done and (
                            trace.finish > trace.sort_done
                        ):
                            frac = (rf.at_time - trace.sort_done) / (
                                trace.finish - trace.sort_done
                            )
                            refolded_records += trace.records * min(1.0, frac)
                    elif plan is not None:
                        # The dead attempt wrote snapshots until it died;
                        # the restart resumes from the last one.
                        charge_snapshots(trace, attempt_node, until=rf.at_time)
                        instants = snapshot_instants(trace, until=rf.at_time)
                        last_snap = instants[-1] if instants else None
                        covered_maps = (
                            sum(1 for a in trace.arrival_times if a <= last_snap)
                            if last_snap is not None
                            else 0
                        )
                        refetched_mb += per_map_mb * (fetched_maps - covered_maps)
                        restored_records += records_per_map * covered_maps
                        # Arrivals after the snapshot were folded by the
                        # dead attempt and must be re-consumed: the tail
                        # replay, the cheap half of the trade-off.
                        replayed_records += records_per_map * (
                            fetched_maps - covered_maps
                        )
                        if last_snap is not None:
                            saved_s = last_snap - trace.start
                            restore_read_s = store_mb_at(
                                trace, last_snap
                            ) / surviving_node(reducer_id + 1).disk_mb_s
                    else:
                        refetched_mb += per_map_mb * fetched_maps
                        # Pipelined consume: every arrived partition was
                        # already folded into the partial store.
                        refolded_records += records_per_map * fetched_maps
                    trace.finish = rf.at_time
                    trace.shuffle_done = min(trace.shuffle_done, rf.at_time)
                    trace.sort_done = min(trace.sort_done, rf.at_time)
                    aborted_attempts.append(trace)
                    reducer_restarts += 1
                    # Restart elsewhere after the detection delay: a clean
                    # re-fetch — map outputs are retained, so no map
                    # re-executes.  With a restored snapshot the covered
                    # prefix of the pipeline is skipped instead of redone.
                    restart_node = surviving_node(reducer_id + 1)
                    attempt_node = restart_node
                    trace = self._simulate_reducer(
                        profile,
                        mode,
                        technique,
                        reducer_id,
                        rf.at_time + rf.restart_overhead_s,
                        restart_node,
                        map_finish_times,
                        num_reducers,
                    )
                    if trace.spills != -1 and saved_s > 0.0:
                        trace.shuffle_done = max(
                            trace.start, trace.shuffle_done - saved_s
                        )
                        trace.sort_done = max(
                            trace.start, trace.sort_done - saved_s
                        )
                        trace.finish = max(
                            trace.shuffle_done,
                            trace.finish - saved_s + restore_read_s,
                        )
                if plan is not None and trace.spills != -1:
                    # Failure-free cost of the committing attempt's own
                    # snapshots: periodic store writes at disk rate.
                    trace.finish += charge_snapshots(trace, attempt_node)
                wave_traces.append(trace)
                if trace.spills == -1:
                    failed = True
                    if failure_time is None or trace.finish < failure_time:
                        failure_time = trace.finish
                    failure_reason = (
                        f"reducer {reducer_id} exceeded "
                        f"{self.cluster.heap_limit_mb:.0f} MB heap"
                    )
            reducers.extend(wave_traces)
            if wave + 1 < waves:
                # Next wave's reducers take slots as this wave finishes; the
                # earliest finisher frees the first slot.
                wave_start[wave + 1] = min(t.finish for t in wave_traces)

        completion = (
            failure_time
            if failed and failure_time is not None
            else max((t.finish for t in reducers), default=0.0)
        )
        result = SimJobResult(
            profile_name=profile.name,
            mode=mode,
            completion_time=completion,
            failed=failed,
            failure_time=failure_time if failed else None,
            failure_reason=failure_reason if failed else None,
            tracer=Tracer(),
            map_finish_times=map_finish_times,
            reducers=reducers,
            locality=locality,
            reexecuted_maps=reexecuted,
            speculative_attempts=spec_stats["launched"],
            speculative_wins=spec_stats["wins"],
            reducer_restarts=reducer_restarts,
            refetched_mb=refetched_mb,
            refolded_records=refolded_records,
            aborted_reducers=aborted_attempts,
            replayed_records=replayed_records,
            restored_records=restored_records,
            checkpoint_writes=checkpoint_writes,
            checkpoint_mb=checkpoint_mb,
            checkpoint_schedule=sorted(checkpoint_schedule),
        )
        self._record_spans(profile, mode, result, map_tasks, result.tracer)
        if obs is not None and obs.enabled:
            self._record_spans(profile, mode, result, map_tasks, obs.tracer)
            self._export_observability(profile, mode, result, obs)
        return result

    def _record_spans(
        self,
        profile: JobProfile,
        mode: ExecutionMode,
        result: SimJobResult,
        map_tasks: list[tuple[str, float, float]],
        tracer: Tracer,
    ) -> None:
        """Record one simulated execution's span tree into ``tracer``.

        Spans carry *virtual* times via :meth:`~repro.obs.Tracer.record`
        but use the same job → stage → task (→ op) hierarchy and the same
        stage names as the real engines.
        """
        reducers = result.reducers
        job_end = max(
            result.completion_time,
            max((t.finish for t in reducers), default=0.0),
            max((end for _task, _start, end in map_tasks), default=0.0),
        )
        job_span = tracer.record(
            profile.name, "job", 0.0, job_end, mode=mode.value, engine="sim"
        )
        if map_tasks:
            map_stage = tracer.record(
                "map",
                "stage",
                min(start for _task, start, _end in map_tasks),
                max(end for _task, _start, end in map_tasks),
                parent=job_span,
            )
            for task, start, end in map_tasks:
                tracer.record(task, "task", start, end, parent=map_stage)
        if reducers:
            # Aborted attempts started before their restarts; the stage
            # span must cover them for the nesting invariant to hold.
            all_attempts = reducers + result.aborted_reducers
            reduce_stage = tracer.record(
                "reduce",
                "stage",
                min(t.start for t in all_attempts),
                max(t.finish for t in all_attempts),
                parent=job_span,
            )
            for trace in result.aborted_reducers:
                tracer.record(
                    f"reduce-{trace.reducer_id}/attempt-0",
                    "attempt",
                    trace.start,
                    trace.finish,
                    parent=reduce_stage,
                    crashed=True,
                )
            restarted_ids = {t.reducer_id for t in result.aborted_reducers}
            for trace in reducers:
                task_span = tracer.record(
                    f"reduce-{trace.reducer_id}",
                    "task",
                    trace.start,
                    trace.finish,
                    parent=reduce_stage,
                    oom_killed=trace.spills == -1,
                )
                if trace.reducer_id in restarted_ids:
                    tracer.record(
                        f"reduce-{trace.reducer_id}/attempt-1",
                        "attempt",
                        trace.start,
                        trace.finish,
                        parent=task_span,
                        crashed=False,
                    )
                if mode is ExecutionMode.BARRIER:
                    tracer.record(
                        "shuffle", "op", trace.start, trace.shuffle_done,
                        parent=task_span,
                    )
                    tracer.record(
                        "sort", "op", trace.shuffle_done, trace.sort_done,
                        parent=task_span,
                    )
                    tracer.record(
                        "reduce", "op", trace.sort_done, trace.finish,
                        parent=task_span,
                    )
                else:
                    # A reducer killed mid-pipeline (OOM) ends before its
                    # shuffle would have completed; clamp the boundary.
                    boundary = min(
                        max(trace.start, trace.shuffle_done), trace.finish
                    )
                    tracer.record(
                        "shuffle+reduce", "op", trace.start, boundary,
                        parent=task_span,
                    )
                    tracer.record(
                        "output", "op", boundary, trace.finish,
                        parent=task_span,
                    )

    def _export_observability(
        self,
        profile: JobProfile,
        mode: ExecutionMode,
        result: SimJobResult,
        obs: JobObservability,
    ) -> None:
        """Mirror one simulated execution's counters and series.

        Same names as the real engines; the spans come from
        :meth:`_record_spans`.
        """
        reducers = result.reducers
        counters = obs.counters
        maps_completed = len(result.map_finish_times)
        counters.increment("map.tasks", maps_completed)
        counters.increment("reduce.tasks", len(reducers))
        counters.increment(
            "shuffle.records", int(round(sum(t.records for t in reducers)))
        )
        # Wire-format byte accounting, same names as the live engines
        # (repro.dfs.wire): raw = records x record size, wire = raw after
        # per-batch compression, batches = per-arrival frame count (each
        # arrival rounds up, so batches x batch size >= records).
        raw_bytes = sum(t.records for t in reducers) * profile.record_bytes
        total_batches = 0
        for trace in reducers:
            per_map = trace.records / max(1, len(trace.arrival_times))
            total_batches += len(trace.arrival_times) * math.ceil(
                max(0.0, per_map) / profile.wire_batch_records
            )
        counters.increment("shuffle.bytes.raw", int(round(raw_bytes)))
        counters.increment(
            "shuffle.bytes.wire",
            int(round(raw_bytes * profile.wire_compress_ratio)),
        )
        counters.increment("shuffle.batches", total_batches)
        counters.increment(
            "task.attempts.map", maps_completed + result.reexecuted_maps
        )
        counters.increment(
            "task.attempts.reduce", len(reducers) + result.reducer_restarts
        )
        counters.increment(
            "task.attempts",
            maps_completed
            + result.reexecuted_maps
            + len(reducers)
            + result.reducer_restarts,
        )
        counters.increment(
            "task.retries", result.reexecuted_maps + result.reducer_restarts
        )
        counters.increment(
            "store.spills", sum(t.spills for t in reducers if t.spills > 0)
        )
        counters.increment("sim.reexecuted_maps", result.reexecuted_maps)
        counters.increment("sim.speculative_attempts", result.speculative_attempts)
        counters.increment("sim.speculative_wins", result.speculative_wins)
        if result.reducer_restarts:
            counters.increment("reduce.restarts", result.reducer_restarts)
            counters.increment("task.failed_attempts", result.reducer_restarts)
        counters.increment("sim.reducer_restarts", result.reducer_restarts)
        counters.increment("sim.refetched_mb", int(round(result.refetched_mb)))
        counters.increment(
            "sim.refolded_records", int(round(result.refolded_records))
        )
        counters.increment(
            "sim.replayed_records", int(round(result.replayed_records))
        )
        counters.increment(
            "sim.restored_records", int(round(result.restored_records))
        )
        counters.increment("sim.checkpoint_writes", result.checkpoint_writes)
        counters.increment(
            "sim.disk.checkpoint_mb", int(round(result.checkpoint_mb))
        )
        self._export_metrics(
            mode,
            result,
            obs,
            record_bytes=profile.record_bytes,
            wire_ratio=profile.wire_compress_ratio,
        )

    def _export_metrics(
        self,
        mode: ExecutionMode,
        result: SimJobResult,
        obs: JobObservability,
        record_bytes: float = 100.0,
        ticks: int = 64,
        wire_ratio: float = 1.0,
    ) -> None:
        """Sample the simulated trajectories at evenly spaced virtual times.

        Same series names, units and schema as the live engines' ticker —
        ``shuffle.fetch.inflight``, ``shuffle.buffer.depth``,
        ``store.bytes``, ``reduce.records_per_s`` — plus the
        simulator-only ``sim.network.mb_per_s`` (shuffle ingest, *wire*
        bytes: arrivals scaled by ``wire_ratio`` so the series reflects
        what actually crossed the network) and ``sim.disk.spilled_mb``
        (cumulative spill volume).  Everything is a pure function of the
        result, so two identical runs produce bit-identical series.
        """
        metrics = obs.metrics
        reducers = result.reducers
        horizon = max(
            result.completion_time,
            max((t.finish for t in reducers), default=0.0),
        )
        if horizon <= 0.0 or not reducers:
            return
        times = [horizon * i / (ticks - 1) for i in range(ticks)]

        def per_map_records(trace: ReducerTrace) -> float:
            return trace.records / max(1, len(trace.arrival_times))

        def consume_boundary(trace: ReducerTrace) -> float:
            return min(max(trace.start, trace.shuffle_done), trace.finish)

        def buffer_depth(trace: ReducerTrace, t: float) -> float:
            """Records sitting fetched-but-not-reduced at virtual ``t``."""
            arrived = per_map_records(trace) * sum(
                1 for a in trace.arrival_times if a <= t
            )
            if mode is ExecutionMode.BARRIER:
                # The whole partition buffers until the sort drains it.
                return arrived if t < trace.sort_done else 0.0
            boundary = consume_boundary(trace)
            if t >= boundary:
                return 0.0
            span = boundary - trace.start
            progress = (t - trace.start) / span if span > 0 else 1.0
            return max(0.0, arrived - trace.records * min(1.0, max(0.0, progress)))

        def consumed(trace: ReducerTrace, t: float) -> float:
            """Records folded into the reduce path by virtual ``t``."""
            if mode is ExecutionMode.BARRIER:
                lo, hi = trace.sort_done, trace.finish
            else:
                lo, hi = trace.start, consume_boundary(trace)
            if t <= lo:
                return 0.0
            if t >= hi or hi <= lo:
                return trace.records
            return trace.records * (t - lo) / (hi - lo)

        def store_bytes(trace: ReducerTrace, t: float) -> float:
            value = 0.0
            for at, current in trace.heap_samples:
                if at > t:
                    break
                value = current
            return value

        spill_schedule = sorted(
            (at, mb) for trace in reducers for at, mb in _spill_times(trace)
        )
        checkpoint_schedule = result.checkpoint_schedule
        previous_t: float | None = None
        previous_consumed = 0.0
        for t in times:
            inflight = sum(
                1 for trace in reducers if trace.start <= t < trace.shuffle_done
            )
            depth = sum(buffer_depth(trace, t) for trace in reducers)
            metrics.sample("shuffle.fetch.inflight", inflight, t=t, unit="streams")
            metrics.sample("shuffle.buffer.depth", depth, t=t, unit="records")
            metrics.sample(
                "store.bytes",
                sum(store_bytes(trace, t) for trace in reducers),
                t=t,
                unit="bytes",
            )
            metrics.sample(
                "sim.disk.spilled_mb",
                sum(mb for at, mb in spill_schedule if at <= t),
                t=t,
                unit="MB",
            )
            if checkpoint_schedule:
                metrics.sample(
                    "sim.disk.checkpoint_mb",
                    sum(mb for at, mb in checkpoint_schedule if at <= t),
                    t=t,
                    unit="MB",
                )
            total_consumed = sum(consumed(trace, t) for trace in reducers)
            if previous_t is not None and t > previous_t:
                dt = t - previous_t
                metrics.sample(
                    "reduce.records_per_s",
                    (total_consumed - previous_consumed) / dt,
                    t=t,
                    unit="records/s",
                )
                metrics.sample(
                    "sim.network.mb_per_s",
                    wire_ratio
                    * sum(
                        _arrival_mb(trace, record_bytes)
                        * sum(1 for a in trace.arrival_times if previous_t < a <= t)
                        for trace in reducers
                    )
                    / dt,
                    t=t,
                    unit="MB/s",
                )
            previous_t = t
            previous_consumed = total_consumed
        # Exact high-water mark: buffer depth peaks at arrival instants,
        # which a fixed tick grid can straddle.
        for trace in reducers:
            for arrival in trace.arrival_times:
                metrics.observe_max(
                    "shuffle.buffer.hwm", buffer_depth(trace, arrival)
                )


def improvement_percent(barrier_time: float, barrierless_time: float) -> float:
    """Job-completion improvement of barrier-less over barrier, in %."""
    if barrier_time <= 0:
        raise ValueError("barrier_time must be positive")
    return 100.0 * (barrier_time - barrierless_time) / barrier_time

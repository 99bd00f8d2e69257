"""Fault-tolerance checks: ``chaos`` and ``cluster`` diff faulted runs
against clean ones (the paper's §8 claim), one table row per run."""

from __future__ import annotations

from repro.apps.demo import APP_CHOICES, normalized_output
from repro.cli import add_checkpoint_args, add_workload_args, build_workload
from repro.core.types import ExecutionMode

# Table columns: (header, counter, width).  ``injected`` is the fault
# injectors' own tally, not a counter.
_CHAOS_COLUMNS = (
    ("injected", "injected", 8),
    ("retries", "task.retries", 8),
    ("f.retries", "shuffle.fetch.retries", 9),
    ("timeouts", "shuffle.fetch.timeouts", 8),
    ("restarts", "reduce.restarts", 8),
    ("deduped", "shuffle.records.deduped", 8),
    ("reexec", "map.reexecutions", 6),
)
_CHECKPOINT_COLUMNS = (
    ("ckpts", "reduce.checkpoint.writes", 6),
    ("resumes", "reduce.checkpoint.restores", 7),
    ("replayed", "reduce.replayed_records", 8),
)
_CLUSTER_COLUMNS = (
    ("lost", "cluster.workers.lost", 4),
    ("reassigned", "cluster.tasks.reassigned", 10),
    ("f.retries", "shuffle.fetch.retries", 9),
    ("restored", "reduce.restored_records", 8),
    ("replayed", "reduce.replayed_records", 8),
    ("refolded", "reduce.refolded_records", 8),
    ("corrupt", "netchaos.corrupted_bytes", 7),
)


def add_commands(sub) -> None:
    chaos = sub.add_parser(
        "chaos",
        help="run apps under a seeded failure mix and verify recovery",
    )
    add_workload_args(chaos, 400, 2, 3, mode=False, all_apps=True,
                      records_help="synthetic input size per app",
                      seed_help="base seed for every injection decision")
    chaos.add_argument("--task-failure-p", type=float, default=0.15,
                       help="probability each map/reduce attempt crashes")
    chaos.add_argument("--fetch-failure-p", type=float, default=0.1,
                       help="probability each fetch attempt fails")
    chaos.add_argument("--drop-p", type=float, default=0.05,
                       help="probability a served batch is lost in flight")
    chaos.add_argument("--crash-reducer-after", type=int, default=8,
                       help="crash reducer 0 after N consumed records "
                            "(-1 disables)")
    chaos.add_argument("--lose-map-output", action="store_true",
                       help="lose mapper 0's output after its first serve "
                            "(forces re-execution + epoch re-fetch)")
    add_checkpoint_args(chaos, "enable partial-result checkpointing: crashed "
                               "reducers resume from their last snapshot, and "
                               "each barrier-less app also runs a streaming "
                               "kill/resume scenario")
    chaos.set_defaults(func=_chaos)

    cluster = sub.add_parser(
        "cluster",
        help="run apps on the networked multi-process cluster runtime",
    )
    add_workload_args(cluster, 300, 2, 3, all_apps=True,
                      records_help="synthetic input size per app",
                      nargs="?", default="wc",
                      help="application to run (default: wc)")
    cluster.add_argument("--workers", type=int, default=2,
                         help="worker processes to fork")
    cluster.add_argument("--chaos", nargs="?", const="kill", default=None,
                         choices=["kill", "net", "all"],
                         help="add failure scenarios: 'kill' SIGKILLs a "
                              "worker mid-shuffle and mid-reduce, 'net' "
                              "degrades the links (latency, partition, "
                              "corruption) through a chaos proxy, 'all' "
                              "runs both; bare --chaos means 'kill'")
    add_checkpoint_args(cluster, "enable partial-result checkpointing so a "
                                 "killed reducer resumes from its snapshot")
    cluster.add_argument("--deadline", type=float, default=60.0,
                         help="per-job completion deadline in seconds")
    cluster.add_argument("--trace", metavar="FILE",
                         help="write the coordinator-merged multi-process "
                              "Chrome trace (clean rows) to FILE")
    cluster.add_argument("--metrics-out", metavar="FILE",
                         help="write merged coordinator+worker time-series "
                              "metrics JSON (render with 'repro metrics "
                              "--file')")
    cluster.add_argument("--status-json", metavar="FILE",
                         help="write the final live-status snapshot (render "
                              "with 'repro top --file')")
    cluster.set_defaults(func=_cluster)


def _apps(choice: str) -> tuple[str, ...]:
    return APP_CHOICES if choice == "all" else (choice,)


def _expected(args, app: str, mode: ExecutionMode):
    """A clean threaded run's normalised output: what every row must match."""
    from repro.engine import ThreadedEngine

    job, pairs = build_workload(args, app, mode)
    return normalized_output(
        app, ThreadedEngine(map_slots=2).run(job, pairs, num_maps=args.maps)
    )


class _Table:
    """A scenario matrix: one ``(header, counter, width)`` list prints the
    header up front, then one row per run as it finishes."""

    def __init__(self, label: str, width: int, columns, gave_up) -> None:
        self.width, self.columns, self.gave_up = width, columns, gave_up
        self.failures = 0
        header = self._line("app", label, [name for name, _, _ in columns],
                            "output")
        print(header)
        print("-" * len(header))

    def _line(self, app, label, cells, tail) -> str:
        cols = " ".join(
            f"{cell:>{w}}" for cell, (_, _, w) in zip(cells, self.columns)
        )
        return f"{app:<5} {label:<{self.width}} {cols}  {tail}"

    def run(self, app, label, expected, execute, obs, injectors=()) -> None:
        """Judge ``execute()`` against ``expected`` and print its row: the
        counters ``obs`` gained, plus what ``injectors`` injected."""
        before = obs.counters.as_dict()
        try:
            result = execute()
        except self.gave_up:
            # The injected failures exhausted a bounded attempt budget —
            # a legitimate chaos outcome, reported per row.
            verdict = "GAVE-UP"
        else:
            verdict = (
                "ok" if normalized_output(app, result) == expected
                else "DIVERGED"
            )
        after = obs.counters.as_dict()
        after["injected"] = sum(injector.injected for injector in injectors)
        cells = [after.get(c, 0) - before.get(c, 0) for _, c, _ in self.columns]
        print(self._line(app, label, cells, verdict))
        self.failures += verdict != "ok"

    def exit_code(self, budget: str, reference: str) -> int:
        if self.failures:
            print(f"{self.failures} run(s) diverged or exhausted their "
                  f"{budget} budget")
            return 1
        print(f"all outputs identical to {reference}")
        return 0


def _chaos(args) -> int:
    """Seeded chaos runs: inject failures, assert byte-identical output.

    For every selected app and both execution modes, a clean threaded run
    establishes the expected output; the same input is then re-run under
    the configured failure mix (task crashes, fetch failures, in-flight
    drops, a reducer crash, optionally a lost map output) and the outputs
    must match exactly — recovery visible in the counters, invisible in
    the result.  With ``--checkpoint``, crashed reducers resume from
    periodic store snapshots instead of refolding, and every barrier-less
    app gains a streaming kill/resume row driven by the same policy.
    Exits non-zero on any divergence or exhausted attempt budget.
    """
    from repro.dfs.wire import WireConfig
    from repro.engine import (
        FaultInjector,
        FetchFaultInjector,
        FetchPermanentlyFailedError,
        TaskPermanentlyFailedError,
        ThreadedEngine,
    )
    from repro.engine.recovery import RecoveryConfig
    from repro.engine.streaming import StreamingEngine
    from repro.memory.checkpoint import CheckpointPolicy
    from repro.obs import JobObservability

    recovery = wire = None
    columns = _CHAOS_COLUMNS
    if args.checkpoint:
        recovery = RecoveryConfig(
            checkpoint=CheckpointPolicy(every_records=args.checkpoint_every)
        )
        # Snapshots are cut at wire-batch boundaries; small batches keep
        # the policy's record trigger meaningful at chaos input sizes.
        wire = WireConfig(max_batch_records=16)
        columns += _CHECKPOINT_COLUMNS
    print(
        f"chaos: seed={args.seed} task-p={args.task_failure_p} "
        f"fetch-p={args.fetch_failure_p} drop-p={args.drop_p} "
        f"crash-reducer-after={args.crash_reducer_after} "
        f"lose-map-output={args.lose_map_output}"
        + (
            f" checkpoint-every={args.checkpoint_every}"
            if args.checkpoint
            else ""
        )
    )
    table = _Table(
        "mode", 12, columns,
        (TaskPermanentlyFailedError, FetchPermanentlyFailedError),
    )
    crash = (
        {0: args.crash_reducer_after} if args.crash_reducer_after >= 0 else {}
    )
    for index, app in enumerate(_apps(args.app)):
        for mode in ExecutionMode:
            # Seeds vary per (app, mode) so hash-derived decisions differ
            # across rows instead of hitting the same task ids every time.
            seed = args.seed + 13 * index + (7 if mode is ExecutionMode.BARRIER else 0)
            expected = _expected(args, app, mode)
            injector = FaultInjector(
                failure_probability=args.task_failure_p, seed=seed
            )
            fetch_injector = FetchFaultInjector(
                fetch_failure_probability=args.fetch_failure_p,
                drop_probability=args.drop_p,
                crash_reducer_after=crash,
                lose_output_after={0: 1} if args.lose_map_output else {},
                seed=seed,
            )
            obs = JobObservability()
            engine = ThreadedEngine(
                map_slots=2,
                fault_injector=injector,
                fetch_injector=fetch_injector,
                obs=obs,
                recovery=recovery,
                wire=wire,
            )
            table.run(
                app, mode.value, expected,
                lambda: engine.run(*build_workload(args, app, mode), num_maps=args.maps),
                obs, (injector, fetch_injector),
            )

            if not (args.checkpoint and mode is ExecutionMode.BARRIERLESS):
                continue
            # Streaming kill/resume: same crash, same policy, pushed as
            # micro-batches; the resumed stream must close to the same
            # bytes the uninterrupted batch run produced.
            stream_injector = FetchFaultInjector(
                crash_reducer_after=crash, seed=seed
            )
            stream_obs = JobObservability()

            def stream():
                job, pairs = build_workload(args, app, mode)
                streaming = StreamingEngine(
                    job,
                    obs=stream_obs,
                    fault_injector=stream_injector,
                    recovery=recovery,
                    wire=wire,
                )
                step = max(1, len(pairs) // 10)
                for at in range(0, len(pairs), step):
                    streaming.push(pairs[at : at + step])
                return streaming.close()

            table.run(app, "streaming", expected, stream, stream_obs,
                      (stream_injector,))
    return table.exit_code("attempt", "fault-free runs")


def _cluster(args) -> int:
    """Run apps on the real multi-process cluster and verify the output.

    For every selected app a clean threaded run establishes the expected
    output; the same input then runs on ``--workers`` forked worker
    processes shuffling over TCP, and the outputs must match exactly.
    With ``--chaos kill`` two more rows run per app: a worker SIGKILLed
    mid-shuffle (its map outputs die with its shuffle server, forcing
    re-execution under a new epoch) and one SIGKILLed mid-reduce (the
    reduce attempt is reassigned; with ``--checkpoint`` it resumes from
    the dead attempt's last snapshot instead of refolding).  With
    ``--chaos net`` three rows degrade the network instead, through the
    seedable chaos proxy: added latency + a bandwidth cap, a transient
    black-hole partition on the shuffle links, and per-chunk bit
    corruption — which must surface as CRC errors and fetch retries,
    never as divergent output.  ``--chaos all`` runs both families.
    Exits non-zero on any divergence or exhausted retry budget.

    All *clean* rows share one long-lived runtime, whose coordinator
    accumulates the merged telemetry plane: ``--trace`` dumps the
    multi-process Chrome trace, ``--metrics-out`` the combined
    coordinator+worker time-series, ``--status-json`` the final live
    status snapshot (the same dict the RPC ``status`` verb serves).
    Chaos rows keep a fresh runtime each — they kill workers or
    interpose proxies, and must not poison the shared one.
    """
    import json

    from repro.cluster import (
        ChaosPolicy,
        ClusterJobError,
        ClusterRuntime,
        NetChaosConfig,
        cluster_recovery,
    )
    from repro.dfs.wire import WireConfig
    from repro.memory.checkpoint import CheckpointPolicy
    from repro.obs import JobObservability, ensure_parent

    recovery = cluster_recovery(
        checkpoint=(
            CheckpointPolicy(every_records=args.checkpoint_every)
            if args.checkpoint
            else None
        ),
    )
    # Snapshots (and kill triggers) land at wire-batch boundaries; small
    # batches keep both meaningful at demo input sizes.
    wire = WireConfig(max_batch_records=16)
    # (name, kill spec, netchaos config) per scenario row.
    scenarios: list[tuple[str, dict | None, object]] = [("clean", None, None)]
    if args.chaos in ("kill", "all"):
        victim = f"w{args.workers - 1}"
        scenarios += [
            ("kill-shuffle", {"worker": victim, "trigger": "serves",
                              "count": 2}, None),
            ("kill-reduce", {"worker": victim, "trigger": "reduce-records",
                             "count": args.records // 4 or 1}, None),
        ]
    if args.chaos in ("net", "all"):
        scenarios += [
            ("net-latency", None, NetChaosConfig(
                shuffle=ChaosPolicy(
                    latency_s=0.002, bandwidth_bytes_per_s=2_000_000,
                    seed=args.seed,
                ),
                rpc=ChaosPolicy(latency_s=0.001, seed=args.seed),
            )),
            ("net-partition", None, NetChaosConfig(
                shuffle=ChaosPolicy(partition_s=0.4, seed=args.seed),
            )),
            ("net-corrupt", None, NetChaosConfig(
                shuffle=ChaosPolicy(corrupt_every_bytes=2048, seed=args.seed),
            )),
        ]
    print(
        f"cluster: workers={args.workers} mode={args.mode.value} "
        f"records={args.records} seed={args.seed} chaos={args.chaos} "
        f"checkpoint={args.checkpoint}"
    )
    table = _Table("scenario", 13, _CLUSTER_COLUMNS, ClusterJobError)
    # All clean rows share one runtime so the coordinator accumulates a
    # single telemetry plane across apps.
    shared_obs = JobObservability()
    with ClusterRuntime(
        args.workers,
        obs=shared_obs,
        wire=wire,
        recovery=recovery,
        deadline_s=args.deadline,
    ) as shared:
        for app in _apps(args.app):
            expected = _expected(args, app, args.mode)
            for scenario, kill, netchaos in scenarios:
                job, pairs = build_workload(args, app)
                obs = shared_obs if scenario == "clean" else JobObservability()

                def execute():
                    if scenario == "clean":
                        return shared.run_job(job, pairs, num_maps=args.maps)
                    # kill-reduce wants the victim reduce-only so its own
                    # map outputs survive the SIGKILL and a checkpoint can
                    # resume.
                    with ClusterRuntime(
                        args.workers,
                        obs=obs,
                        wire=wire,
                        recovery=recovery,
                        placement=(
                            "maps-first"
                            if scenario == "kill-reduce"
                            else "spread"
                        ),
                        deadline_s=args.deadline,
                        netchaos=netchaos,
                    ) as runtime:
                        return runtime.run_job(
                            job, pairs, num_maps=args.maps, kill=kill
                        )

                table.run(app, scenario, expected, execute, obs)
        # Telemetry artifacts come from the shared runtime, captured
        # while it is still alive (status reads live worker handles).
        # (label, path, snapshot, sort keys, what the document holds)
        artefacts = (
            ("trace", args.trace, shared.telemetry.chrome_trace, False,
             lambda doc: f"{len(doc['traceEvents'])} events, pids "
                         f"{sorted({e['pid'] for e in doc['traceEvents']})}"),
            ("metrics", args.metrics_out, shared.telemetry.metrics_snapshot,
             True, lambda doc: f"{len(doc['series'])} series"),
            ("status", args.status_json, shared.status, True,
             lambda doc: f"{len(doc['workers'])} workers, "
                         f"{len(doc['jobs'])} jobs"),
        )
        for label, path, snapshot, sort_keys, summary in artefacts:
            if not path:
                continue
            ensure_parent(path)
            doc = snapshot()
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=sort_keys)
            print(f"{label} -> {path} ({summary(doc)})")
    return table.exit_code("retry", "the threaded engine")

"""Command-line interface: run apps, regenerate figures, inspect tables.

Usage (after ``pip install -e .``)::

    python -m repro.cli classify                    # Table 1
    python -m repro.cli effort                      # Table 2
    python -m repro.cli run wc --mode barrierless --records 5000
    python -m repro.cli trace wc -o wc.trace.json   # Chrome trace_event JSON
    python -m repro.cli counters wc --diff          # barrier vs barrier-less
    python -m repro.cli compare wc --size-gb 8      # simulated A/B
    python -m repro.cli figure fig6 fig7            # regenerate figures

Every command prints to stdout and exits non-zero on failure, so the CLI
can drive scripts and CI checks.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.types import ExecutionMode


def _mode(value: str) -> ExecutionMode:
    try:
        return ExecutionMode(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mode must be 'barrier' or 'barrierless', got {value!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Barrier-less MapReduce (CLUSTER 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", help="print Table 1 (Reduce classification)")
    sub.add_parser("effort", help="print Table 2 (programmer effort, LoC)")

    def add_execution_args(command):
        command.add_argument(
            "app", choices=["grep", "sort", "wc", "knn", "pp", "ga", "bs"]
        )
        command.add_argument("--mode", type=_mode, default=ExecutionMode.BARRIERLESS)
        command.add_argument("--records", type=int, default=2000,
                             help="synthetic input size (records/documents/listens)")
        command.add_argument("--reducers", type=int, default=4)
        command.add_argument("--maps", type=int, default=4)
        command.add_argument("--engine", choices=["local", "threaded"],
                             default="local")
        command.add_argument("--store",
                             choices=["inmemory", "spillmerge", "kvstore"],
                             default="inmemory")
        command.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="execute one application locally")
    add_execution_args(run)
    run.add_argument("--top", type=int, default=10,
                     help="print at most this many output records")

    trace = sub.add_parser(
        "trace",
        help="execute one application and emit a Chrome trace_event JSON",
    )
    add_execution_args(trace)
    trace.add_argument("-o", "--output", metavar="FILE",
                       help="trace JSON path (default: <app>.trace.json)")
    trace.add_argument("--summary", action="store_true",
                       help="also print the span tree to stdout")

    counters_cmd = sub.add_parser(
        "counters", help="execute one application and print its job counters"
    )
    add_execution_args(counters_cmd)
    counters_cmd.add_argument(
        "--diff", action="store_true",
        help="run both execution modes and print a counter diff table",
    )

    compare = sub.add_parser(
        "compare", help="simulate barrier vs barrier-less for one app"
    )
    compare.add_argument("app", choices=["sort", "wc", "knn", "pp", "ga", "bs"])
    compare.add_argument("--size-gb", type=float, default=8.0)
    compare.add_argument("--mappers", type=int, default=100,
                         help="mapper count for ga/bs profiles")
    compare.add_argument("--reducers", type=int, default=40)

    figure = sub.add_parser("figure", help="regenerate paper figures")
    figure.add_argument(
        "names",
        nargs="+",
        choices=["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"],
    )
    figure.add_argument(
        "--csv",
        metavar="DIR",
        help="also export every experiment's raw series as CSV into DIR",
    )

    export = sub.add_parser(
        "export", help="write all experiment series as CSV files"
    )
    export.add_argument("directory")

    chaos = sub.add_parser(
        "chaos",
        help="run apps under a seeded failure mix and verify recovery",
    )
    chaos.add_argument(
        "app", choices=["grep", "sort", "wc", "knn", "pp", "ga", "bs", "all"]
    )
    chaos.add_argument("--records", type=int, default=400,
                       help="synthetic input size per app")
    chaos.add_argument("--reducers", type=int, default=2)
    chaos.add_argument("--maps", type=int, default=3)
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed for every injection decision")
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
    chaos.add_argument("--checkpoint", action="store_true",
                       help="enable partial-result checkpointing: crashed "
                            "reducers resume from their last snapshot, and "
                            "each barrier-less app also runs a streaming "
                            "kill/resume scenario")
    chaos.add_argument("--checkpoint-every", type=int, default=25,
                       help="snapshot the reducer store every N folded "
                            "records (with --checkpoint)")

    cluster = sub.add_parser(
        "cluster",
        help="run apps on the networked multi-process cluster runtime",
    )
    cluster.add_argument(
        "app", nargs="?", default="wc",
        choices=["grep", "sort", "wc", "knn", "pp", "ga", "bs", "all"],
        help="application to run (default: wc)",
    )
    cluster.add_argument("--workers", type=int, default=2,
                         help="worker processes to fork")
    cluster.add_argument("--mode", type=_mode, default=ExecutionMode.BARRIERLESS)
    cluster.add_argument("--records", type=int, default=300,
                         help="synthetic input size per app")
    cluster.add_argument("--reducers", type=int, default=2)
    cluster.add_argument("--maps", type=int, default=3)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--chaos", nargs="?", const="kill", default=None,
                         choices=["kill", "net", "all"],
                         help="add failure scenarios: 'kill' SIGKILLs a "
                              "worker mid-shuffle and mid-reduce, 'net' "
                              "degrades the links (latency, partition, "
                              "corruption) through a chaos proxy, 'all' "
                              "runs both; bare --chaos means 'kill'")
    cluster.add_argument("--checkpoint", action="store_true",
                         help="enable partial-result checkpointing so a "
                              "killed reducer resumes from its snapshot")
    cluster.add_argument("--checkpoint-every", type=int, default=25,
                         help="snapshot the reducer store every N folded "
                              "records (with --checkpoint)")
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

    top = sub.add_parser(
        "top",
        help="ASCII dashboard over a cluster's live status plane",
    )
    top.add_argument("target", nargs="?", metavar="HOST:PORT",
                     help="coordinator control address to poll over the "
                          "RPC status verb (omit when using --file)")
    top.add_argument("--file", metavar="FILE",
                     help="render a status snapshot JSON (e.g. from "
                          "'repro cluster --status-json') instead of "
                          "polling a live coordinator")
    top.add_argument("--once", action="store_true",
                     help="print a single snapshot and exit (default "
                          "refreshes every --interval seconds)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds (default: 1.0)")
    top.add_argument("--width", type=int, default=40,
                     help="sparkline width (default: 40)")

    pipeline = sub.add_parser(
        "pipeline", help="run a multi-job application pipeline"
    )
    pipeline.add_argument("app", choices=["similarity", "smt"])
    pipeline.add_argument("--mode", type=_mode, default=ExecutionMode.BARRIERLESS)
    pipeline.add_argument("--size", type=int, default=200,
                          help="documents (similarity) or sentences (smt)")
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument("--top", type=int, default=10)

    metrics_cmd = sub.add_parser(
        "metrics",
        help="record a run's time-series metrics and print sparklines",
    )
    metrics_cmd.add_argument(
        "app", nargs="?",
        choices=["grep", "sort", "wc", "knn", "pp", "ga", "bs"],
        help="application to run (omit when using --file)",
    )
    metrics_cmd.add_argument("--file", metavar="FILE",
                             help="render an existing metrics JSON instead "
                                  "of running an app")
    metrics_cmd.add_argument("--mode", type=_mode,
                             default=ExecutionMode.BARRIERLESS)
    metrics_cmd.add_argument("--records", type=int, default=2000)
    metrics_cmd.add_argument("--reducers", type=int, default=4)
    metrics_cmd.add_argument("--maps", type=int, default=4)
    metrics_cmd.add_argument("--store",
                             choices=["inmemory", "spillmerge", "kvstore"],
                             default="inmemory")
    metrics_cmd.add_argument("--seed", type=int, default=0)
    metrics_cmd.add_argument("--width", type=int, default=40,
                             help="sparkline width in columns")
    metrics_cmd.add_argument("--events", action="store_true",
                             help="also print structured event counts")
    metrics_cmd.add_argument("-o", "--output", metavar="FILE",
                             help="also write the metrics snapshot JSON")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant job server in the foreground",
    )
    serve.add_argument("--backend", choices=["threaded", "cluster"],
                       default="threaded",
                       help="execution backend: per-job threaded engines "
                            "or one shared worker cluster")
    serve.add_argument("--workers", type=int, default=2,
                       help="forked workers (cluster backend only)")
    serve.add_argument("--slots", type=int, default=4,
                       help="concurrent job slots in the scheduler pool")
    serve.add_argument("--policy", choices=["fair", "fifo", "deadline"],
                       default="fair",
                       help="scheduling policy (default: fair share)")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NAME[:WEIGHT]", dest="tenants",
                       help="declare a tenant and its fair-share weight "
                            "(repeatable; unknown tenants get weight 1)")
    serve.add_argument("--port", type=int, default=7077,
                       help="framed-RPC submission port (default: 7077)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="also serve the line-JSON HTTP shim here")
    serve.add_argument("--max-queued-jobs", type=int, default=0,
                       help="admission: global queued-job ceiling (0 = off)")
    serve.add_argument("--max-queued-bytes", type=int, default=0,
                       help="admission: queued input bytes high-water mark "
                            "(0 = off)")
    serve.add_argument("--max-live-bytes", type=int, default=0,
                       help="admission: live bytes high-water mark (0 = off)")
    serve.add_argument("--deadline", type=float, default=60.0,
                       help="per-job completion deadline in seconds")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="graceful-drain budget on SIGTERM/SIGINT: "
                            "checkpoint-park running jobs, reject queued "
                            "ones, exit within this many seconds")

    submit = sub.add_parser(
        "submit", help="submit one job to a running job server"
    )
    submit.add_argument("app", choices=["grep", "sort", "wc", "knn", "pp",
                                        "ga", "bs"])
    submit.add_argument("--server", metavar="HOST:PORT",
                        default="127.0.0.1:7077",
                        help="job server RPC address (default: "
                             "127.0.0.1:7077)")
    submit.add_argument("--tenant", default="default",
                        help="submitting tenant (default: 'default')")
    submit.add_argument("--mode", type=_mode, default=ExecutionMode.BARRIERLESS)
    submit.add_argument("--records", type=int, default=300)
    submit.add_argument("--reducers", type=int, default=2)
    submit.add_argument("--maps", type=int, default=2)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--deadline", type=float, default=None,
                        help="deadline hint for the 'deadline' policy")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "final record")

    jobs_cmd = sub.add_parser(
        "jobs", help="list a running job server's jobs"
    )
    jobs_cmd.add_argument("--server", metavar="HOST:PORT",
                          default="127.0.0.1:7077",
                          help="job server RPC address")
    jobs_cmd.add_argument("--tenant", default=None,
                          help="only this tenant's jobs")
    jobs_cmd.add_argument("--json", action="store_true",
                          help="print raw JSON records instead of a table")
    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_classify() -> int:
    from repro.core.classify import format_table_1

    print(format_table_1())
    return 0


def _cmd_effort() -> int:
    from repro.analysis.loc import format_table_2

    print(format_table_2())
    return 0


def _make_app_job_and_input(args, mode: ExecutionMode | None = None):
    """Build (job, input pairs) for the run/trace/counters commands."""
    from repro.apps.demo import demo_job_and_input

    return demo_job_and_input(
        args.app,
        mode if mode is not None else args.mode,
        records=args.records,
        num_reducers=args.reducers,
        num_maps=args.maps,
        store=args.store,
        seed=args.seed,
    )


def _make_engine(name: str, obs=None):
    from repro.engine import LocalEngine, ThreadedEngine

    if name == "local":
        return LocalEngine(obs=obs)
    if name == "threaded":
        return ThreadedEngine(obs=obs)
    raise AssertionError(name)


def _cmd_run(args) -> int:
    job, pairs = _make_app_job_and_input(args)
    engine = _make_engine(args.engine)
    result = engine.run(job, pairs, num_maps=args.maps)
    print(
        f"{job.name}: mode={args.mode.value} engine={args.engine} "
        f"store={args.store} input={len(pairs)} pairs"
    )
    counters = result.counters
    print(
        f"  map tasks={counters.get('map.tasks')}  "
        f"reduce tasks={counters.get('reduce.tasks')}  "
        f"intermediate records={counters.get('map.output_records')}  "
        f"output records={counters.get('reduce.output_records')}"
    )
    for record in result.all_output()[: args.top]:
        print(f"  {record.key!r}\t{record.value!r}")
    remaining = len(result.all_output()) - args.top
    if remaining > 0:
        print(f"  ... and {remaining} more")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import JobObservability, write_chrome_trace

    obs = JobObservability()
    job, pairs = _make_app_job_and_input(args)
    engine = _make_engine(args.engine, obs=obs)
    engine.run(job, pairs, num_maps=args.maps)
    path = args.output if args.output else f"{args.app}.trace.json"
    write_chrome_trace(path, obs.tracer, counters=obs.counters)
    print(
        f"wrote {path} ({len(obs.tracer)} spans, "
        f"{len(obs.counters)} counters) — open in chrome://tracing or Perfetto"
    )
    if args.summary:
        print(obs.summary())
    return 0


def _cmd_counters(args) -> int:
    from repro.obs import JobObservability, render_counters

    def execute(mode: ExecutionMode) -> dict[str, int]:
        obs = JobObservability()
        job, pairs = _make_app_job_and_input(args, mode=mode)
        _make_engine(args.engine, obs=obs).run(job, pairs, num_maps=args.maps)
        return obs.counters.as_dict()

    if args.diff:
        from repro.analysis.report import render_counter_diff

        left = execute(ExecutionMode.BARRIER)
        right = execute(ExecutionMode.BARRIERLESS)
        print(f"{args.app}: engine={args.engine} input={args.records} records")
        print(render_counter_diff("barrier", left, "barrierless", right))
        return 0

    from repro.obs import CounterRegistry

    registry = CounterRegistry()
    registry.merge_dict(execute(args.mode))
    print(
        render_counters(
            registry,
            title=f"{args.app} [{args.mode.value}] engine={args.engine}",
        )
    )
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.report import render_sweep
    from repro.analysis.sweeps import SweepPoint
    from repro.sim import (
        HadoopSimulator,
        blackscholes_profile,
        genetic_profile,
        knn_profile,
        lastfm_profile,
        sort_profile,
        wordcount_profile,
    )

    builders = {
        "sort": lambda: sort_profile(args.size_gb),
        "wc": lambda: wordcount_profile(args.size_gb),
        "knn": lambda: knn_profile(args.size_gb),
        "pp": lambda: lastfm_profile(args.size_gb),
        "ga": lambda: genetic_profile(args.mappers),
        "bs": lambda: blackscholes_profile(args.mappers),
    }
    profile = builders[args.app]()
    reducers = 1 if args.app == "bs" else args.reducers
    sim = HadoopSimulator()
    barrier = sim.run(profile, reducers, ExecutionMode.BARRIER)
    barrierless = sim.run(profile, reducers, ExecutionMode.BARRIERLESS)
    point = SweepPoint(
        args.mappers if args.app in ("ga", "bs") else args.size_gb,
        barrier.completion_time,
        barrierless.completion_time,
    )
    x_label = "Mappers" if args.app in ("ga", "bs") else "Input (GB)"
    print(render_sweep(f"{profile.name} ({reducers} reducers)", x_label, [point]))
    return 0


def _cmd_chaos(args) -> int:
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
    from repro.apps.demo import demo_job_and_input, normalized_output
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

    apps = (
        ["grep", "sort", "wc", "knn", "pp", "ga", "bs"]
        if args.app == "all"
        else [args.app]
    )
    checkpointing = args.checkpoint
    recovery = (
        RecoveryConfig(
            checkpoint=CheckpointPolicy(every_records=args.checkpoint_every)
        )
        if checkpointing
        else None
    )
    # Snapshots are cut at wire-batch boundaries; small batches keep the
    # policy's record trigger meaningful at chaos input sizes.
    wire = WireConfig(max_batch_records=16) if checkpointing else None
    header = (
        f"{'app':<5} {'mode':<12} {'injected':>8} {'retries':>8} "
        f"{'f.retries':>9} {'timeouts':>8} {'restarts':>8} {'deduped':>8} "
        f"{'reexec':>6}"
    )
    if checkpointing:
        header += f" {'ckpts':>6} {'resumes':>7} {'replayed':>8}"
    header += "  output"
    print(
        f"chaos: seed={args.seed} task-p={args.task_failure_p} "
        f"fetch-p={args.fetch_failure_p} drop-p={args.drop_p} "
        f"crash-reducer-after={args.crash_reducer_after} "
        f"lose-map-output={args.lose_map_output}"
        + (
            f" checkpoint-every={args.checkpoint_every}"
            if checkpointing
            else ""
        )
    )
    print(header)
    print("-" * len(header))
    failures = 0

    def report(app, label, injected, obs, verdict):
        counters = obs.counters.as_dict()
        row = (
            f"{app:<5} {label:<12} "
            f"{injected:>8} "
            f"{counters.get('task.retries', 0):>8} "
            f"{counters.get('shuffle.fetch.retries', 0):>9} "
            f"{counters.get('shuffle.fetch.timeouts', 0):>8} "
            f"{counters.get('reduce.restarts', 0):>8} "
            f"{counters.get('shuffle.records.deduped', 0):>8} "
            f"{counters.get('map.reexecutions', 0):>6}"
        )
        if checkpointing:
            row += (
                f" {counters.get('reduce.checkpoint.writes', 0):>6}"
                f" {counters.get('reduce.checkpoint.restores', 0):>7}"
                f" {counters.get('reduce.replayed_records', 0):>8}"
            )
        print(row + f"  {verdict}")
        return verdict != "ok"

    for index, app in enumerate(apps):
        for mode in ExecutionMode:
            # Seeds vary per (app, mode) so hash-derived decisions differ
            # across rows instead of hitting the same task ids every time.
            seed = args.seed + 13 * index + (7 if mode is ExecutionMode.BARRIER else 0)

            def build():
                return demo_job_and_input(
                    app,
                    mode,
                    records=args.records,
                    num_reducers=args.reducers,
                    num_maps=args.maps,
                    seed=args.seed,
                )

            job, pairs = build()
            baseline = normalized_output(
                app,
                ThreadedEngine(map_slots=2).run(job, pairs, num_maps=args.maps),
            )

            injector = FaultInjector(
                failure_probability=args.task_failure_p, seed=seed
            )
            fetch_injector = FetchFaultInjector(
                fetch_failure_probability=args.fetch_failure_p,
                drop_probability=args.drop_p,
                crash_reducer_after=(
                    {0: args.crash_reducer_after}
                    if args.crash_reducer_after >= 0
                    else {}
                ),
                lose_output_after={0: 1} if args.lose_map_output else {},
                seed=seed,
            )
            obs = JobObservability()
            job, pairs = build()
            engine = ThreadedEngine(
                map_slots=2,
                fault_injector=injector,
                fetch_injector=fetch_injector,
                obs=obs,
                **(
                    {"recovery": recovery, "wire": wire}
                    if checkpointing
                    else {}
                ),
            )
            try:
                result = engine.run(job, pairs, num_maps=args.maps)
            except (TaskPermanentlyFailedError, FetchPermanentlyFailedError):
                # The injected failure rate exhausted a bounded attempt
                # budget — a legitimate chaos outcome, reported per row.
                verdict = "GAVE-UP"
            else:
                verdict = (
                    "ok"
                    if normalized_output(app, result) == baseline
                    else "DIVERGED"
                )
            if report(
                app, mode.value, injector.injected + fetch_injector.injected,
                obs, verdict,
            ):
                failures += 1

            if not (checkpointing and mode is ExecutionMode.BARRIERLESS):
                continue
            # Streaming kill/resume: same crash, same policy, pushed as
            # micro-batches; the resumed stream must close to the same
            # bytes the uninterrupted batch run produced.
            stream_injector = FetchFaultInjector(
                crash_reducer_after=(
                    {0: args.crash_reducer_after}
                    if args.crash_reducer_after >= 0
                    else {}
                ),
                seed=seed,
            )
            stream_obs = JobObservability()
            job, pairs = build()
            stream = StreamingEngine(
                job,
                obs=stream_obs,
                fault_injector=stream_injector,
                recovery=recovery,
                wire=wire,
            )
            step = max(1, len(pairs) // 10)
            for at in range(0, len(pairs), step):
                stream.push(pairs[at : at + step])
            stream_result = stream.close()
            verdict = (
                "ok"
                if normalized_output(app, stream_result) == baseline
                else "DIVERGED"
            )
            if report(
                app, "streaming", stream_injector.injected, stream_obs,
                verdict,
            ):
                failures += 1
    if failures:
        print(f"{failures} run(s) diverged or exhausted their attempt budget")
        return 1
    print("all outputs identical to fault-free runs")
    return 0


def _cmd_cluster(args) -> int:
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

    from repro.apps.demo import demo_job_and_input, normalized_output
    from repro.cluster import (
        ChaosPolicy,
        ClusterJobError,
        ClusterRuntime,
        NetChaosConfig,
        cluster_recovery,
    )
    from repro.dfs.wire import WireConfig
    from repro.engine import ThreadedEngine
    from repro.memory.checkpoint import CheckpointPolicy
    from repro.obs import JobObservability

    apps = (
        ["grep", "sort", "wc", "knn", "pp", "ga", "bs"]
        if args.app == "all"
        else [args.app]
    )
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
    header = (
        f"{'app':<5} {'scenario':<13} {'lost':>4} {'reassigned':>10} "
        f"{'f.retries':>9} {'restored':>8} {'replayed':>8} {'refolded':>8} "
        f"{'corrupt':>7}  output"
    )
    print(
        f"cluster: workers={args.workers} mode={args.mode.value} "
        f"records={args.records} seed={args.seed} chaos={args.chaos} "
        f"checkpoint={args.checkpoint}"
    )
    print(header)
    print("-" * len(header))
    failures = 0
    # All clean rows share one runtime so the coordinator accumulates a
    # single telemetry plane across apps; built lazily, torn down last.
    shared_obs = JobObservability()
    shared_runtime: "ClusterRuntime | None" = None

    def clean_runtime() -> "ClusterRuntime":
        nonlocal shared_runtime
        if shared_runtime is None:
            shared_runtime = ClusterRuntime(
                args.workers,
                obs=shared_obs,
                wire=wire,
                recovery=recovery,
                deadline_s=args.deadline,
            )
        return shared_runtime

    try:
        for app in apps:
            job, pairs = demo_job_and_input(
                app, args.mode, records=args.records, seed=args.seed,
                num_reducers=args.reducers, num_maps=args.maps,
            )
            expected = normalized_output(
                app, ThreadedEngine().run(job, pairs, num_maps=args.maps)
            )
            for scenario, kill, netchaos in scenarios:
                job, pairs = demo_job_and_input(
                    app, args.mode, records=args.records, seed=args.seed,
                    num_reducers=args.reducers, num_maps=args.maps,
                )
                verdict = "ok"
                if scenario == "clean":
                    obs = shared_obs
                    before = obs.counters.as_dict()
                    try:
                        result = clean_runtime().run_job(
                            job, pairs, num_maps=args.maps
                        )
                        if normalized_output(app, result) != expected:
                            verdict = "DIVERGED"
                    except ClusterJobError:
                        verdict = "GAVE-UP"
                    counters = {
                        name: total - before.get(name, 0)
                        for name, total in obs.counters.as_dict().items()
                    }
                else:
                    obs = JobObservability()
                    try:
                        # kill-reduce wants the victim reduce-only so its
                        # own map outputs survive the SIGKILL and a
                        # checkpoint can resume.
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
                            result = runtime.run_job(
                                job, pairs, num_maps=args.maps, kill=kill
                            )
                        if normalized_output(app, result) != expected:
                            verdict = "DIVERGED"
                    except ClusterJobError:
                        verdict = "GAVE-UP"
                    counters = obs.counters.as_dict()
                print(
                    f"{app:<5} {scenario:<13} "
                    f"{counters.get('cluster.workers.lost', 0):>4} "
                    f"{counters.get('cluster.tasks.reassigned', 0):>10} "
                    f"{counters.get('shuffle.fetch.retries', 0):>9} "
                    f"{counters.get('reduce.restored_records', 0):>8} "
                    f"{counters.get('reduce.replayed_records', 0):>8} "
                    f"{counters.get('reduce.refolded_records', 0):>8} "
                    f"{counters.get('netchaos.corrupted_bytes', 0):>7}"
                    f"  {verdict}"
                )
                if verdict != "ok":
                    failures += 1
        # Telemetry artifacts come from the shared runtime, captured
        # while it is still alive (status reads live worker handles).
        if shared_runtime is not None:
            from repro.obs import ensure_parent

            if args.trace:
                ensure_parent(args.trace)
                trace = shared_runtime.telemetry.chrome_trace()
                with open(args.trace, "w", encoding="utf-8") as fh:
                    json.dump(trace, fh, indent=1)
                pids = sorted(
                    {event["pid"] for event in trace["traceEvents"]}
                )
                print(
                    f"trace -> {args.trace} "
                    f"({len(trace['traceEvents'])} events, pids {pids})"
                )
            if args.metrics_out:
                ensure_parent(args.metrics_out)
                snapshot = shared_runtime.telemetry.metrics_snapshot()
                with open(args.metrics_out, "w", encoding="utf-8") as fh:
                    json.dump(snapshot, fh, indent=1, sort_keys=True)
                print(
                    f"metrics -> {args.metrics_out} "
                    f"({len(snapshot['series'])} series)"
                )
            if args.status_json:
                ensure_parent(args.status_json)
                status = shared_runtime.status()
                with open(args.status_json, "w", encoding="utf-8") as fh:
                    json.dump(status, fh, indent=1, sort_keys=True)
                print(
                    f"status -> {args.status_json} "
                    f"({len(status['workers'])} workers, "
                    f"{len(status['jobs'])} jobs)"
                )
    finally:
        if shared_runtime is not None:
            shared_runtime.shutdown()
    if failures:
        print(f"{failures} run(s) diverged or exhausted their retry budget")
        return 1
    print("all outputs identical to the threaded engine")
    return 0


def _cmd_pipeline(args) -> int:
    from repro.engine import LocalEngine

    engine = LocalEngine()
    if args.app == "similarity":
        from repro.apps.similarity import pairwise_similarity
        from repro.workloads import generate_documents

        docs = generate_documents(
            max(2, args.size // 5), 40, 100, seed=args.seed
        )
        table = pairwise_similarity(docs, engine, args.mode)
        print(f"{len(docs)} documents, {len(table)} similar pairs")
        for pair, score in sorted(table.items(), key=lambda kv: -kv[1])[: args.top]:
            print(f"  {pair[0]} ~ {pair[1]}\t{score}")
        return 0
    if args.app == "smt":
        from repro.apps.translation import build_translation_table
        from repro.workloads import generate_bitext

        corpus = generate_bitext(args.size, seed=args.seed)
        table = build_translation_table(corpus, engine, args.mode)
        print(f"{len(corpus)} sentences, {len(table)} source words")
        for src_word in sorted(table)[: args.top]:
            target, probability = table[src_word][0]
            print(f"  {src_word} -> {target}\t{probability:.3f}")
        return 0
    raise AssertionError(args.app)


def _cmd_figure(names: list[str]) -> int:
    from repro.analysis import (
        ascii_boxplot,
        ascii_heap_plot,
        ascii_timeline,
        figure6_series,
        figure7_samples,
        figure8_series,
        figure9_series,
        figure10_series,
        five_number_summary,
        heap_trace,
        render_memory_sweep,
        render_sweep,
        timeline,
    )
    from repro.sim import (
        HadoopSimulator,
        MemoryTechnique,
        paper_testbed,
        wordcount_profile,
    )

    for name in names:
        print(f"===== {name} =====")
        if name == "fig4":
            sim = HadoopSimulator(paper_testbed())
            for mode in ExecutionMode:
                result = sim.run(wordcount_profile(3.0), 40, mode)
                print(f"-- {mode.value} --")
                print(ascii_timeline(timeline(result)))
        elif name == "fig5":
            sim = HadoopSimulator(paper_testbed())
            for technique, label in (
                (MemoryTechnique("inmemory"), "(a) in-memory"),
                (
                    MemoryTechnique("spillmerge", spill_threshold_mb=240.0),
                    "(b) spill and merge",
                ),
            ):
                result = sim.run(
                    wordcount_profile(16.0), 10, ExecutionMode.BARRIERLESS, technique
                )
                print(label)
                print(ascii_heap_plot(heap_trace(result, 0)))
        elif name == "fig6":
            for app, series in figure6_series().items():
                x = "Mappers" if app in ("ga", "bs") else "Input (GB)"
                print(render_sweep(f"Figure 6 ({app})", x, series))
        elif name == "fig7":
            samples = figure7_samples()
            stats = [five_number_summary(app, s) for app, s in samples.items()]
            print(ascii_boxplot(stats))
        elif name == "fig8":
            print(render_sweep("Figure 8 (GA)", "Reducers", figure8_series()))
        elif name == "fig9":
            print(
                render_memory_sweep("Figure 9", "Reducers", figure9_series())
            )
        elif name == "fig10":
            print(
                render_memory_sweep("Figure 10", "Input (GB)", figure10_series())
            )
    return 0


def _cmd_metrics(args) -> int:
    from repro.analysis import render_metrics_table
    from repro.obs import load_metrics

    if args.file:
        print(render_metrics_table(load_metrics(args.file), width=args.width))
        return 0
    if not args.app:
        print("metrics: an app name or --file FILE is required",
              file=sys.stderr)
        return 2

    from repro.engine import ThreadedEngine
    from repro.obs import JobObservability

    obs = JobObservability()
    job, pairs = _make_app_job_and_input(args)
    ThreadedEngine(obs=obs).run(job, pairs, num_maps=args.maps)
    print(
        f"{args.app} [{args.mode.value}] engine=threaded "
        f"input={args.records} records"
    )
    print(render_metrics_table(obs.metrics.as_dict(), width=args.width))
    if args.events:
        print()
        print("events:")
        for kind, count in sorted(obs.events.counts().items()):
            print(f"  {kind:<20} {count:>6}")
    if args.output:
        obs.write_metrics(args.output)
        print(f"wrote {args.output}")
    return 0


def _render_cluster_status(status: dict, width: int = 40) -> str:
    """ASCII dashboard over one status snapshot.

    Renders both snapshot shapes: a bare coordinator
    (:meth:`Coordinator.status`) and a job server
    (:meth:`JobServer.status`), which adds a scheduler header and a
    per-tenant lane and may embed a coordinator underneath.
    """
    import time as _time

    from repro.analysis.timeline import ascii_sparkline

    wall = float(status.get("wall", 0.0))
    stamp = _time.strftime("%H:%M:%S", _time.localtime(wall)) if wall else "?"
    lines = []
    server = status.get("server")
    if server:
        lines.append(
            f"job server @ {stamp}  "
            f"{server.get('host', '?')}:{server.get('port', '?')} "
            f"backend {server.get('backend', '?')}  "
            f"policy {server.get('policy', '?')}  "
            f"slots {server.get('running', 0)}/{server.get('slots', 0)}  "
            f"queued {server.get('queued', 0)} "
            f"({server.get('queued_bytes', 0):,}B)"
            + ("  DRAINING" if server.get("draining") else "")
        )
    coord = status.get("coordinator", {})
    if coord or not server:
        lines.append(
            f"cluster status @ {stamp}  "
            f"coordinator {coord.get('host', '?')}:{coord.get('port', '?')} "
            f"pid {coord.get('pid', '?')}  lease {coord.get('lease_s', 0.0)}s"
        )
    tenants = status.get("tenants", {})
    if tenants:
        lines.append(f"tenants ({len(tenants)}):")
        name_width = max(len(name) for name in tenants)
        for name, lane in sorted(tenants.items()):
            lines.append(
                f"  {name:<{name_width}} w={lane.get('weight', 1.0):<4g} "
                f"queued {lane.get('queued', 0):>3}  "
                f"running {lane.get('running', 0):>2}  "
                f"granted {lane.get('granted', 0):>4}  "
                f"done {lane.get('completed', 0):>4}  "
                f"rejected {lane.get('rejected', 0):>3}  "
                f"preempted {lane.get('preempted', 0):>3}"
            )
    jobs = status.get("jobs", {})
    lines.append(f"jobs ({len(jobs)}):")
    for job_id, job in sorted(jobs.items()):
        if "state" in job:
            # Server-shape record: tenant-facing lifecycle, no task map.
            lines.append(
                f"  {job_id:<8} {job.get('app', '?'):<6} "
                f"[{job.get('mode', '?')}] "
                f"tenant {job.get('tenant', '?'):<10} "
                f"{job.get('state', '?')}"
            )
            continue
        epochs = sum(int(e) for e in job.get("map_epochs", {}).values())
        attempts = sum(
            int(a) for a in job.get("reduce_attempts", {}).values()
        )
        lines.append(
            f"  {job_id:<8} {job.get('name', '?'):<12} "
            f"[{job.get('mode', '?')}] "
            f"maps {job.get('maps_done', 0)}/{job.get('num_maps', 0)}  "
            f"reduces {job.get('reduces_done', 0)}"
            f"/{job.get('num_reducers', 0)}  "
            f"epoch-bumps {epochs}  re-attempts {attempts}  "
            f"{'done' if job.get('done') else ('parked' if job.get('parked') else 'running')}"
        )
    if not jobs:
        lines.append("  (none)")
    workers = status.get("workers", {})
    lines.append(f"workers ({len(workers)}):")
    name_width = max((len(name) for name in workers), default=4)
    for name, worker in sorted(workers.items()):
        flags = []
        if not worker.get("alive", False):
            flags.append("DEAD")
        if worker.get("quarantined"):
            flags.append("QUARANTINED")
        if worker.get("truncated"):
            flags.append("truncated")
        lines.append(
            f"  {name:<{name_width}} pid {worker.get('pid', 0):<7} "
            f"hb {worker.get('heartbeat_age_s', 0.0):>6.2f}s  "
            f"skew {worker.get('clock_skew_ms', 0.0):>+7.2f}ms  "
            f"frames {worker.get('frames', 0):>4}  "
            f"{' '.join(flags) if flags else 'alive'}"
        )
        series = worker.get("series", {})
        series_width = max((len(s) for s in series), default=0)
        for series_name, entry in sorted(series.items()):
            values = [value for _t, value in entry.get("points", [])]
            if not values:
                continue
            last = values[-1]
            shown = (
                f"{last:,.0f}" if abs(last) >= 10 else f"{last:.2f}"
            )
            lines.append(
                f"    {series_name:<{series_width}} "
                f"{ascii_sparkline(values, width=width)} "
                f"{shown} {entry.get('unit', '')}".rstrip()
            )
    if not workers:
        lines.append("  (none)")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    """Render the live status plane, from a file or over the RPC verb."""
    import json
    import time as _time

    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            status = json.load(fh)
        print(_render_cluster_status(status, width=args.width))
        return 0
    if not args.target or ":" not in args.target:
        print("top: a HOST:PORT target or --file FILE is required",
              file=sys.stderr)
        return 2
    host, _, port_text = args.target.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"top: bad port in target {args.target!r}", file=sys.stderr)
        return 2

    from repro.cluster import RpcError, request_status

    while True:
        try:
            status = request_status(host, port)
        except (OSError, RpcError) as exc:
            print(f"top: {host}:{port} unreachable: {exc}", file=sys.stderr)
            return 1
        print(_render_cluster_status(status, width=args.width))
        if args.once:
            return 0
        _time.sleep(max(args.interval, 0.1))
        print()


def _parse_server_target(target: str) -> tuple[str, int]:
    host, _, port_text = target.rpartition(":")
    return host or "127.0.0.1", int(port_text)


def _cmd_serve(args) -> int:
    """Run the multi-tenant job server until interrupted.

    SIGTERM and SIGINT trigger a graceful drain: queued jobs are
    cancelled, running jobs checkpoint-park on the cluster backend, new
    submissions bounce with the typed ``server draining`` backpressure
    reply, and the process exits within ``--drain-timeout`` seconds.
    """
    import signal
    import threading
    import time

    from repro.server import AdmissionConfig, JobServer, TenantConfig

    tenants: dict[str, TenantConfig] = {}
    for spec in args.tenants:
        name, _, weight = spec.partition(":")
        tenants[name] = TenantConfig(weight=float(weight) if weight else 1.0)
    server = JobServer(
        args.backend,
        slots=args.slots,
        policy=args.policy,
        tenants=tenants,
        admission=AdmissionConfig(
            max_queued_jobs=args.max_queued_jobs,
            max_queued_bytes=args.max_queued_bytes,
            max_live_bytes=args.max_live_bytes,
        ),
        workers=args.workers,
        port=args.port,
        job_deadline_s=args.deadline,
    )
    print(
        f"job server on {server.host}:{server.port} "
        f"(backend {args.backend}, policy {args.policy}, "
        f"slots {args.slots}) — submit with "
        f"'repro submit APP --server {server.host}:{server.port}'"
    )
    if args.http_port is not None:
        host, port = server.start_http(port=args.http_port)
        print(f"http shim on {host}:{port}")
    stop = threading.Event()

    def _on_signal(signum, _frame):
        print(f"received {signal.Signals(signum).name}, draining "
              f"(budget {args.drain_timeout}s)")
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        while not stop.wait(timeout=1.0):
            pass
        summary = server.drain(timeout_s=args.drain_timeout)
        print(
            f"drained: {summary['parked']} parked, "
            f"{summary['cancelled']} cancelled, "
            f"{summary['still_running']} still running"
        )
        print("shutting down")
        return 0 if summary["still_running"] == 0 else 1
    except KeyboardInterrupt:
        # A second Ctrl-C during the drain: exit hard.
        print("shutting down")
        return 0
    finally:
        server.close()


def _cmd_submit(args) -> int:
    """Submit one job over the framed-RPC plane; optionally wait."""
    import json

    from repro.server import ServerClient, SubmitRejected

    host, port = _parse_server_target(args.server)
    client = ServerClient(host, port)
    try:
        job_id = client.submit(
            args.tenant,
            args.app,
            mode=args.mode.value,
            records=args.records,
            num_maps=args.maps,
            num_reducers=args.reducers,
            seed=args.seed,
            deadline_s=args.deadline,
        )
    except SubmitRejected as exc:
        print(
            f"rejected: {exc.reason} (retry after {exc.retry_after_s}s)",
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(f"submit: {host}:{port} unreachable: {exc}", file=sys.stderr)
        return 1
    print(job_id)
    if args.wait:
        record = client.wait(job_id)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0 if record.get("state") == "done" else 1
    return 0


def _cmd_jobs(args) -> int:
    """List a running server's jobs."""
    import json

    from repro.server import ServerClient

    host, port = _parse_server_target(args.server)
    try:
        jobs = ServerClient(host, port).jobs(args.tenant)
    except OSError as exc:
        print(f"jobs: {host}:{port} unreachable: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("(no jobs)")
        return 0
    print(f"{'JOB':<8} {'TENANT':<12} {'APP':<6} {'MODE':<12} "
          f"{'STATE':<10} DIGEST")
    for job in jobs:
        print(
            f"{job.get('job_id', '?'):<8} {job.get('tenant', '?'):<12} "
            f"{job.get('app', '?'):<6} {job.get('mode', '?'):<12} "
            f"{job.get('state', '?'):<10} "
            f"{job.get('digest', '')[:16]}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "classify":
        return _cmd_classify()
    if args.command == "effort":
        return _cmd_effort()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "counters":
        return _cmd_counters(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "figure":
        status = _cmd_figure(args.names)
        if status == 0 and getattr(args, "csv", None):
            from repro.analysis.export import export_all

            for path in export_all(args.csv):
                print(f"wrote {path}")
        return status
    if args.command == "export":
        from repro.analysis.export import export_all

        for path in export_all(args.directory):
            print(f"wrote {path}")
        return 0
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    raise AssertionError(args.command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

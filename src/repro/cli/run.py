"""Live runs of one demo app: run, trace, counters, metrics, pipeline."""

from __future__ import annotations

import sys

from repro.cli import add_mode, add_workload_args, build_workload, existing_file
from repro.core.types import ExecutionMode


def _add_app_args(command, **app) -> None:
    add_workload_args(command, 2000, 4, 4, **app)
    command.add_argument("--store",
                         choices=["inmemory", "spillmerge", "kvstore"],
                         default="inmemory")


def _add_execution_args(command) -> None:
    _add_app_args(command, records_help="synthetic input size "
                                        "(records/documents/listens)")
    command.add_argument("--engine", choices=["local", "threaded"],
                         default="local")


def add_commands(sub) -> None:
    run = sub.add_parser("run", help="execute one application locally")
    _add_execution_args(run)
    run.add_argument("--top", type=int, default=10,
                     help="print at most this many output records")
    run.set_defaults(func=_run)

    trace = sub.add_parser(
        "trace",
        help="execute one application and emit a Chrome trace_event JSON",
    )
    _add_execution_args(trace)
    trace.add_argument("-o", "--output", metavar="FILE",
                       help="trace JSON path (default: <app>.trace.json)")
    trace.add_argument("--summary", action="store_true",
                       help="also print the span tree to stdout")
    trace.set_defaults(func=_trace)

    counters = sub.add_parser(
        "counters", help="execute one application and print its job counters"
    )
    _add_execution_args(counters)
    counters.add_argument(
        "--diff", action="store_true",
        help="run both execution modes and print a counter diff table",
    )
    counters.set_defaults(func=_counters)

    metrics = sub.add_parser(
        "metrics",
        help="record a run's time-series metrics and print sparklines",
    )
    _add_app_args(metrics, nargs="?",
                  help="application to run (omit when using --file)")
    metrics.add_argument("--file", metavar="FILE", type=existing_file,
                         help="render an existing metrics JSON instead "
                              "of running an app")
    metrics.add_argument("--width", type=int, default=40,
                         help="sparkline width in columns")
    metrics.add_argument("-o", "--output", metavar="FILE",
                         help="also write the metrics snapshot JSON")
    metrics.set_defaults(func=_metrics)

    pipeline = sub.add_parser(
        "pipeline", help="run a multi-job application pipeline"
    )
    pipeline.add_argument("app", choices=["similarity", "smt"])
    add_mode(pipeline)
    pipeline.add_argument("--size", type=int, default=200,
                          help="documents (similarity) or sentences (smt)")
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument("--top", type=int, default=10)
    pipeline.set_defaults(func=_pipeline)


def _execute(args, mode: ExecutionMode | None = None, engine: str | None = None):
    """Run the parsed workload once; returns ``(job, pairs, result, obs)``."""
    from repro.engine import LocalEngine, ThreadedEngine
    from repro.obs import JobObservability

    obs = JobObservability()
    job, pairs = build_workload(args, mode=mode)
    engine_cls = {"local": LocalEngine, "threaded": ThreadedEngine}
    result = engine_cls[engine or args.engine](obs=obs).run(
        job, pairs, num_maps=args.maps
    )
    return job, pairs, result, obs


def _run(args) -> int:
    job, pairs, result, _ = _execute(args)
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


def _trace(args) -> int:
    from repro.obs import write_chrome_trace

    obs = _execute(args)[3]
    path = args.output if args.output else f"{args.app}.trace.json"
    write_chrome_trace(path, obs.tracer, counters=obs.counters)
    print(
        f"wrote {path} ({len(obs.tracer)} spans, "
        f"{len(obs.counters)} counters) — open in chrome://tracing or Perfetto"
    )
    if args.summary:
        print(obs.summary())
    return 0


def _counters(args) -> int:
    from repro.obs import render_counters

    if args.diff:
        from repro.analysis.report import render_counter_diff

        left = _execute(args, ExecutionMode.BARRIER)[3].counters.as_dict()
        right = _execute(args, ExecutionMode.BARRIERLESS)[3].counters.as_dict()
        print(f"{args.app}: engine={args.engine} input={args.records} records")
        print(render_counter_diff("barrier", left, "barrierless", right))
        return 0

    print(
        render_counters(
            _execute(args)[3].counters,
            title=f"{args.app} [{args.mode.value}] engine={args.engine}",
        )
    )
    return 0


def _metrics(args) -> int:
    from repro.analysis import render_metrics_table
    from repro.obs import load_metrics

    if args.file:
        print(render_metrics_table(load_metrics(args.file), width=args.width))
        return 0
    if not args.app:
        print("metrics: an app name or --file FILE is required",
              file=sys.stderr)
        return 2

    obs = _execute(args, engine="threaded")[3]
    print(
        f"{args.app} [{args.mode.value}] engine=threaded "
        f"input={args.records} records"
    )
    print(render_metrics_table(obs.metrics.as_dict(), width=args.width))
    if args.output:
        obs.write_metrics(args.output)
        print(f"wrote {args.output}")
    return 0


def _pipeline(args) -> int:
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
    from repro.apps.translation import build_translation_table
    from repro.workloads import generate_bitext

    corpus = generate_bitext(args.size, seed=args.seed)
    table = build_translation_table(corpus, engine, args.mode)
    print(f"{len(corpus)} sentences, {len(table)} source words")
    for src_word in sorted(table)[: args.top]:
        target, probability = table[src_word][0]
        print(f"  {src_word} -> {target}\t{probability:.3f}")
    return 0

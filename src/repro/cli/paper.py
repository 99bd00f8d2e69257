"""The paper's artefacts: Tables 1 and 2, the simulated A/B, Figures 4-10."""

from __future__ import annotations

from repro.analysis.sweeps import FIGURE6_PANELS, MAPPER_SWEPT
from repro.core.types import ExecutionMode


def add_commands(sub) -> None:
    sub.add_parser(
        "classify", help="print Table 1 (Reduce classification)"
    ).set_defaults(func=_classify)
    sub.add_parser(
        "effort", help="print Table 2 (programmer effort, LoC)"
    ).set_defaults(func=_effort)

    compare = sub.add_parser(
        "compare", help="simulate barrier vs barrier-less for one app"
    )
    compare.add_argument("app", choices=list(FIGURE6_PANELS))
    compare.add_argument("--size-gb", type=float, default=8.0)
    compare.add_argument("--mappers", type=int, default=100,
                         help="mapper count for ga/bs profiles")
    compare.add_argument("--reducers", type=int, default=40)
    compare.set_defaults(func=_compare)

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
    figure.set_defaults(func=_figure)

    export = sub.add_parser(
        "export", help="write all experiment series as CSV files"
    )
    export.add_argument("directory")
    export.set_defaults(func=lambda args: _export_csv(args.directory))


def _classify(args) -> int:
    from repro.core.classify import format_table_1

    print(format_table_1())
    return 0


def _effort(args) -> int:
    from repro.analysis.loc import format_table_2

    print(format_table_2())
    return 0


def _x_label(app: str) -> str:
    return "Mappers" if app in MAPPER_SWEPT else "Input (GB)"


def _compare(args) -> int:
    from repro.analysis.report import render_sweep
    from repro.analysis.sweeps import figure6_reducers, mapper_sweep, size_sweep

    build, _ = FIGURE6_PANELS[args.app]
    reducers = figure6_reducers(args.app, args.reducers)
    if args.app in MAPPER_SWEPT:
        x, sweep = args.mappers, mapper_sweep
    else:
        x, sweep = args.size_gb, size_sweep
    title = f"{build(x).name} ({reducers} reducers)"
    print(render_sweep(title, _x_label(args.app), sweep(build, [x], reducers)))
    return 0


def _figure(args) -> int:
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

    sim = HadoopSimulator(paper_testbed())
    for name in args.names:
        print(f"===== {name} =====")
        if name == "fig4":
            for mode in ExecutionMode:
                result = sim.run(wordcount_profile(3.0), 40, mode)
                print(f"-- {mode.value} --")
                print(ascii_timeline(timeline(result)))
        elif name == "fig5":
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
                print(render_sweep(f"Figure 6 ({app})", _x_label(app), series))
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
    return _export_csv(args.csv) if args.csv else 0


def _export_csv(directory: str) -> int:
    from repro.analysis.export import export_all

    for path in export_all(directory):
        print(f"wrote {path}")
    return 0

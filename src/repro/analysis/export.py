"""CSV export of every regenerated figure/table series.

Downstream users plotting with their own tools need the raw series, not
ASCII art.  ``export_all`` writes one CSV per experiment into a directory;
individual writers are exposed for selective export (and are what the
``repro figure --csv`` CLI flag calls).
"""

from __future__ import annotations

import csv
import os
from typing import Sequence

from repro.analysis.loc import table_2
from repro.analysis.stats import five_number_summary
from repro.analysis.sweeps import (
    MAPPER_SWEPT,
    MemorySweepPoint,
    SweepPoint,
    figure6_series,
    figure7_samples,
    figure8_series,
    figure9_series,
    figure10_series,
)
from repro.analysis.timeline import timeline
from repro.core.types import ExecutionMode
from repro.sim.hadoop import HadoopSimulator, SimJobResult
from repro.sim.workload import wordcount_profile


def _write(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_sweep_csv(path: str, x_label: str, points: Sequence[SweepPoint]) -> str:
    """One Figure 6/8 panel: x, barrier, barrier-less, improvement%."""
    rows = [
        (p.x, f"{p.barrier_s:.3f}", f"{p.barrierless_s:.3f}",
         f"{p.improvement_pct:.2f}")
        for p in points
    ]
    return _write(
        path, (x_label, "with_barrier_s", "without_barrier_s", "improvement_pct"),
        rows,
    )


def write_memory_sweep_csv(
    path: str, x_label: str, points: Sequence[MemorySweepPoint]
) -> str:
    """One Figure 9/10 series: four techniques per x, OOM marked empty."""
    rows = []
    for p in points:
        rows.append(
            (
                p.x,
                f"{p.barrier_s:.3f}",
                "" if p.inmemory_s is None else f"{p.inmemory_s:.3f}",
                "" if p.inmemory_failed_at is None else f"{p.inmemory_failed_at:.3f}",
                f"{p.spillmerge_s:.3f}",
                f"{p.kvstore_s:.3f}",
            )
        )
    return _write(
        path,
        (x_label, "barrier_s", "inmemory_s", "inmemory_failed_at_s",
         "spillmerge_s", "kvstore_bdb_s"),
        rows,
    )


def write_timeline_csv(path: str, result: SimJobResult, step: float = 2.0) -> str:
    """One Figure 4 panel: time column + one task-count column per stage."""
    series = timeline(result, step=step)
    header = ["time_s"] + [s.stage for s in series]
    rows = []
    for index, t in enumerate(series[0].times):
        rows.append([t] + [s.counts[index] for s in series])
    return _write(path, header, rows)


def write_boxplot_csv(path: str, samples: dict[str, list[float]]) -> str:
    """Figure 7: five-number summary per application."""
    rows = []
    for app, values in samples.items():
        stats = five_number_summary(app, values)
        rows.append(
            (app, f"{stats.minimum:.2f}", f"{stats.q25:.2f}",
             f"{stats.median:.2f}", f"{stats.q75:.2f}",
             f"{stats.maximum:.2f}", f"{stats.mean:.2f}", stats.n)
        )
    return _write(
        path,
        ("app", "min_pct", "q25_pct", "median_pct", "q75_pct", "max_pct",
         "mean_pct", "n"),
        rows,
    )


def write_table2_csv(path: str) -> str:
    """Table 2: programmer effort per application."""
    rows = [
        (row.application, row.original_loc, row.barrierless_loc,
         f"{row.increase_pct:.1f}")
        for row in table_2()
    ]
    return _write(
        path, ("application", "original_loc", "barrierless_loc", "increase_pct"),
        rows,
    )


def export_all(directory: str) -> list[str]:
    """Write every experiment's CSV into ``directory``; returns the paths."""
    written: list[str] = []

    for app, series in figure6_series().items():
        x = "mappers" if app in MAPPER_SWEPT else "input_gb"
        written.append(
            write_sweep_csv(os.path.join(directory, f"fig6_{app}.csv"), x, series)
        )
    written.append(
        write_boxplot_csv(
            os.path.join(directory, "fig7_boxplot.csv"), figure7_samples()
        )
    )
    written.append(
        write_sweep_csv(
            os.path.join(directory, "fig8_reducers.csv"), "reducers",
            figure8_series(),
        )
    )
    written.append(
        write_memory_sweep_csv(
            os.path.join(directory, "fig9_memory_vs_reducers.csv"), "reducers",
            figure9_series(),
        )
    )
    written.append(
        write_memory_sweep_csv(
            os.path.join(directory, "fig10_memory_vs_size.csv"), "input_gb",
            figure10_series(),
        )
    )
    sim = HadoopSimulator()
    for mode in ExecutionMode:
        result = sim.run(wordcount_profile(3.0), 40, mode)
        written.append(
            write_timeline_csv(
                os.path.join(directory, f"fig4_timeline_{mode.value}.csv"), result
            )
        )
    written.append(write_table2_csv(os.path.join(directory, "table2_loc.csv")))
    return written

"""Parameter-sweep harness regenerating the paper's evaluation series.

Each ``figure6_*``/``figure8_*``/... function runs the simulator over the
same independent variable the paper swept and returns the data series the
corresponding plot shows.  The benchmark suite prints these rows; tests
assert their shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.types import ExecutionMode
from repro.sim.cluster import ClusterSpec
from repro.sim.hadoop import (
    HadoopSimulator,
    MemoryTechnique,
    SimJobResult,
    improvement_percent,
)
from repro.sim.workload import (
    JobProfile,
    blackscholes_profile,
    genetic_profile,
    knn_profile,
    lastfm_profile,
    sort_profile,
    wordcount_profile,
)

#: Input sizes (GB) swept in Figure 6(a)-(d).
SIZE_SWEEP_GB: tuple[float, ...] = (2.0, 4.0, 8.0, 12.0, 16.0)
#: Mapper counts swept in Figure 6(e) (genetic algorithms).
GA_MAPPER_SWEEP: tuple[int, ...] = (50, 100, 150, 200, 250)
#: Mapper counts swept in Figure 6(f) (Black-Scholes).
BS_MAPPER_SWEEP: tuple[int, ...] = (10, 25, 50, 100, 150, 200)
#: Reducer counts swept in Figure 8.
REDUCER_SWEEP: tuple[int, ...] = (30, 40, 50, 60, 70)
#: Reducer counts swept in Figure 9.
MEMORY_REDUCER_SWEEP: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 40, 50, 60, 70)
#: Input sizes swept in Figure 10.
MEMORY_SIZE_SWEEP_GB: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0, 20.0, 25.0)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One x-position of a with/without-barrier comparison plot."""

    x: float
    barrier_s: float
    barrierless_s: float

    @property
    def improvement_pct(self) -> float:
        return improvement_percent(self.barrier_s, self.barrierless_s)


@dataclass(frozen=True, slots=True)
class MemorySweepPoint:
    """One x-position of the Figure 9/10 memory-technique comparison."""

    x: float
    barrier_s: float
    inmemory_s: float | None  # None when the job OOM-failed
    inmemory_failed_at: float | None
    spillmerge_s: float
    kvstore_s: float


def _compare(
    sim: HadoopSimulator, profile: JobProfile, num_reducers: int
) -> tuple[SimJobResult, SimJobResult]:
    barrier = sim.run(profile, num_reducers, ExecutionMode.BARRIER)
    barrierless = sim.run(profile, num_reducers, ExecutionMode.BARRIERLESS)
    return barrier, barrierless


def size_sweep(
    profile_for_gb: Callable[[float], JobProfile],
    sizes_gb: Sequence[float] = SIZE_SWEEP_GB,
    num_reducers: int = 40,
    cluster: ClusterSpec | None = None,
) -> list[SweepPoint]:
    """Completion times vs input size: Figures 6(a)-(d)."""
    sim = HadoopSimulator(cluster)
    points = []
    for gb in sizes_gb:
        barrier, barrierless = _compare(sim, profile_for_gb(gb), num_reducers)
        points.append(
            SweepPoint(gb, barrier.completion_time, barrierless.completion_time)
        )
    return points


def mapper_sweep(
    profile_for_mappers: Callable[[int], JobProfile],
    mapper_counts: Sequence[int],
    num_reducers: int,
    cluster: ClusterSpec | None = None,
) -> list[SweepPoint]:
    """Completion times vs number of mappers: Figures 6(e) and 6(f)."""
    sim = HadoopSimulator(cluster)
    points = []
    for count in mapper_counts:
        barrier, barrierless = _compare(sim, profile_for_mappers(count), num_reducers)
        points.append(
            SweepPoint(count, barrier.completion_time, barrierless.completion_time)
        )
    return points


#: Figure 6's panels, keyed by the paper's abbreviations: each app's
#: profile builder and the x values it is swept over — input GB, or
#: mapper count for the :data:`MAPPER_SWEPT` apps.
FIGURE6_PANELS: dict[str, tuple[Callable, Sequence[float]]] = {
    "sort": (sort_profile, SIZE_SWEEP_GB),
    "wc": (wordcount_profile, SIZE_SWEEP_GB),
    "knn": (knn_profile, SIZE_SWEEP_GB),
    "pp": (lastfm_profile, SIZE_SWEEP_GB),
    "ga": (genetic_profile, GA_MAPPER_SWEEP),
    "bs": (blackscholes_profile, BS_MAPPER_SWEEP),
}
#: The Figure 6 apps swept over mapper count instead of input size.
MAPPER_SWEPT: tuple[str, ...] = ("ga", "bs")


def figure6_reducers(app: str, num_reducers: int = 40) -> int:
    """Reducers a Figure 6 app runs with: Black-Scholes folds one global
    aggregate, so it always runs a single reducer."""
    return 1 if app == "bs" else num_reducers


def figure6_series(cluster: ClusterSpec | None = None) -> dict[str, list[SweepPoint]]:
    """All six Figure 6 panels, keyed by the paper's abbreviations."""
    return {
        app: (mapper_sweep if app in MAPPER_SWEPT else size_sweep)(
            build, xs, figure6_reducers(app), cluster
        )
        for app, (build, xs) in FIGURE6_PANELS.items()
    }


def figure7_samples(cluster: ClusterSpec | None = None) -> dict[str, list[float]]:
    """Per-app improvement samples feeding the Figure 7 box plot."""
    return {
        app: [point.improvement_pct for point in series]
        for app, series in figure6_series(cluster).items()
    }


def figure8_series(
    reducer_counts: Sequence[int] = REDUCER_SWEEP,
    num_mappers: int = 150,
    cluster: ClusterSpec | None = None,
) -> list[SweepPoint]:
    """GA completion times vs reducer count (Figure 8)."""
    sim = HadoopSimulator(cluster)
    profile = genetic_profile(num_mappers)
    points = []
    for count in reducer_counts:
        barrier, barrierless = _compare(sim, profile, count)
        points.append(
            SweepPoint(count, barrier.completion_time, barrierless.completion_time)
        )
    return points


def _memory_point(
    sim: HadoopSimulator,
    profile: JobProfile,
    num_reducers: int,
    spill_threshold_mb: float,
) -> MemorySweepPoint:
    barrier = sim.run(profile, num_reducers, ExecutionMode.BARRIER)
    inmemory = sim.run(
        profile, num_reducers, ExecutionMode.BARRIERLESS, MemoryTechnique("inmemory")
    )
    spill = sim.run(
        profile,
        num_reducers,
        ExecutionMode.BARRIERLESS,
        MemoryTechnique("spillmerge", spill_threshold_mb=spill_threshold_mb),
    )
    kvstore = sim.run(
        profile, num_reducers, ExecutionMode.BARRIERLESS, MemoryTechnique("kvstore")
    )
    return MemorySweepPoint(
        x=float(num_reducers),
        barrier_s=barrier.completion_time,
        inmemory_s=None if inmemory.failed else inmemory.completion_time,
        inmemory_failed_at=inmemory.failure_time if inmemory.failed else None,
        spillmerge_s=spill.completion_time,
        kvstore_s=kvstore.completion_time,
    )


def figure9_series(
    input_gb: float = 16.0,
    reducer_counts: Sequence[int] = MEMORY_REDUCER_SWEEP,
    spill_threshold_mb: float = 240.0,
    cluster: ClusterSpec | None = None,
) -> list[MemorySweepPoint]:
    """WordCount memory-technique comparison vs reducer count (Figure 9)."""
    sim = HadoopSimulator(cluster)
    profile = wordcount_profile(input_gb)
    return [
        _memory_point(sim, profile, count, spill_threshold_mb)
        for count in reducer_counts
    ]


def figure10_series(
    sizes_gb: Sequence[float] = MEMORY_SIZE_SWEEP_GB,
    num_reducers: int = 40,
    spill_threshold_mb: float = 240.0,
    cluster: ClusterSpec | None = None,
) -> list[MemorySweepPoint]:
    """WordCount memory-technique comparison vs dataset size (Figure 10)."""
    sim = HadoopSimulator(cluster)
    points = []
    for gb in sizes_gb:
        point = _memory_point(
            sim, wordcount_profile(gb), num_reducers, spill_threshold_mb
        )
        points.append(
            MemorySweepPoint(
                x=gb,
                barrier_s=point.barrier_s,
                inmemory_s=point.inmemory_s,
                inmemory_failed_at=point.inmemory_failed_at,
                spillmerge_s=point.spillmerge_s,
                kvstore_s=point.kvstore_s,
            )
        )
    return points

"""k-Nearest Neighbors — the Selection class exemplar (§4.4, §6.1.3).

Every training value is compared against every experimental value; for
each experimental value the k closest training values (absolute
difference) are selected.

- **Barrier version**: the mapper emits ``(exp_value, (train_value,
  distance))`` and the reducer, receiving all values for a key at once,
  sorts by distance and keeps the first k.  (The paper implements this
  ordering as a secondary sort in the shuffle; with grouped delivery the
  in-reducer sort is the equivalent formulation.)
- **Barrier-less version**: the reducer maintains a size-k ordered list
  per key — a running top-k updated as tuples arrive — and emits the list
  contents once input ends (§4.4's TreeMap-of-linked-lists).

The experimental set is handed to every mapper at construction time,
standing in for Hadoop's distributed cache.
"""

from __future__ import annotations

import bisect
import functools
import operator

from repro.core.api import MapContext, Mapper, ReduceContext, Reducer
from repro.core.job import JobSpec, MemoryConfig
from repro.core.patterns import BarrierlessReducer
from repro.core.types import ExecutionMode, Key, ReduceClass, Value

DEFAULT_K = 10


class KnnMapper(Mapper):
    """Compare each training value against the full experimental set."""

    def __init__(self, experimental: list[int]):
        self.experimental = experimental

    def map(self, key: Key, value: Value, context: MapContext) -> None:
        train_value = int(value)
        for exp_value in self.experimental:
            distance = abs(exp_value - train_value)
            context.emit(exp_value, (train_value, distance))


class KnnBarrierReducer(Reducer):
    """Barrier reduce without secondary sort: sort in the reducer, keep k."""

    def __init__(self, k: int = DEFAULT_K):
        self.k = k

    def reduce(self, key, values, context) -> None:
        ranked = sorted(values, key=lambda pair: pair[1])
        for train_value, distance in ranked[: self.k]:
            context.write(key, (train_value, distance))


class KnnSecondarySortReducer(Reducer):
    """Barrier reduce with framework secondary sort, as the paper writes it.

    "A secondary sort is performed, sorting by the distance value ... Then,
    in the Reducer, the first k values are emitted" (§4.4).  The job sets
    ``value_sort_key`` so groups arrive distance-ordered; the reducer can
    "finish after having processed only those values scoring highest".
    """

    def __init__(self, k: int = DEFAULT_K):
        self.k = k

    def reduce(self, key, values, context) -> None:
        for emitted, pair in enumerate(values):
            if emitted >= self.k:
                break
            context.write(key, pair)


class KnnBarrierlessReducer(BarrierlessReducer):
    """Barrier-less reduce: running top-k per key in an ordered list.

    Each arriving ``(train_value, distance)`` tuple is inserted into the
    key's size-k list by distance (stable: later arrivals go after equal
    distances), evicting the largest-distance entry on overflow.
    """

    reduce_class = ReduceClass.SELECTION

    def __init__(self, k: int = DEFAULT_K):
        super().__init__()
        self.k = k

    def initial_partial(self, key: Key) -> list[tuple[int, int]]:
        return []

    def fold(
        self, key: Key, partial: list[tuple[int, int]], value: Value
    ) -> list[tuple[int, int]]:
        train_value, distance = value
        position = bisect.bisect_right([d for _, d in partial], distance)
        if position < self.k:
            partial = list(partial)
            partial.insert(position, (train_value, distance))
            del partial[self.k :]
        return partial

    def emit_final(self, key: Key, partial, context: ReduceContext) -> None:
        for train_value, distance in partial:
            context.write(key, (train_value, distance))


def merge_topk(a: list[tuple[int, int]], b: list[tuple[int, int]], k: int = DEFAULT_K):
    """Spill-merge function: merge two per-key top-k lists into one."""
    merged = sorted(a + b, key=lambda pair: pair[1])
    return merged[:k]


def make_job(
    mode: ExecutionMode,
    experimental: list[int],
    k: int = DEFAULT_K,
    num_reducers: int = 4,
    memory: MemoryConfig | None = None,
    secondary_sort: bool = True,
) -> JobSpec:
    """Build the kNN job; map input is the training values only.

    ``secondary_sort`` selects the paper's barrier formulation (framework
    orders each group by distance; reducer emits the first k).  With it
    off, the barrier reducer sorts in user code instead — an ablation of
    where the ordering work lives.  Ignored in barrier-less mode.
    """
    exp = list(experimental)
    # functools.partial / operator.itemgetter keep every factory picklable,
    # which the cluster coordinator needs to ship jobs to its workers.
    if mode is ExecutionMode.BARRIER:
        if secondary_sort:
            reducer_factory = functools.partial(KnnSecondarySortReducer, k)
            value_sort_key = operator.itemgetter(1)
        else:
            reducer_factory = functools.partial(KnnBarrierReducer, k)
            value_sort_key = None
    else:
        reducer_factory = functools.partial(KnnBarrierlessReducer, k)
        value_sort_key = None
    return JobSpec(
        name=f"knn[k={k}]",
        mapper_factory=functools.partial(KnnMapper, exp),
        reducer_factory=reducer_factory,
        num_reducers=num_reducers,
        mode=mode,
        reduce_class=ReduceClass.SELECTION,
        memory=memory if memory is not None else MemoryConfig(),
        merge_fn=functools.partial(merge_topk, k=k),
        value_sort_key=value_sort_key,
    )


def training_pairs(training: list[int]) -> list[tuple[Key, Value]]:
    """Map input: one pair per training value."""
    return [(index, value) for index, value in enumerate(training)]

"""Core value types shared across the barrier-less MapReduce framework.

These types mirror the nouns of the paper (Verma et al., CLUSTER 2010):
*records* are key/value pairs emitted by mappers and consumed by reducers;
a *job* binds a mapper, a reducer, a partitioner and an execution mode
(barrier or barrier-less); *counters* accumulate framework statistics the
way Hadoop counters do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

#: A key may be any hashable, orderable value.  The framework sorts keys in
#: the barrier path, so keys used in one job must be mutually comparable.
Key = Hashable
Value = Any


@dataclass(frozen=True, slots=True)
class Record:
    """A single intermediate key/value record.

    In the paper's barrier-less design the Reduce function is invoked with a
    *single record* rather than a key plus all of its values, so the record
    is the unit of work for the pipelined reduce path.
    """

    key: Key
    value: Value

    def __iter__(self) -> Iterator[Any]:
        # Allows ``k, v = record`` unpacking at call sites; a tuple
        # iterator, not a generator, because the barrier-less reduce
        # context unpacks every record it is handed.
        return iter((self.key, self.value))

    def __reduce__(self) -> tuple[type, tuple[Key, Value]]:
        # Pickle (and copy) as a constructor call, which the C pickler
        # saves without a Python frame; the frozen-slots default goes
        # through ``__getstate__``, calling ``fields()`` once per record.
        # Pickles in that older shape still load via ``__setstate__``.
        return Record, (self.key, self.value)


class ExecutionMode(enum.Enum):
    """Whether the shuffle stage enforces the stage barrier.

    ``BARRIER`` reproduces stock Hadoop 0.20: every reducer buffers all map
    output, merge-sorts it, then invokes ``reduce(key, values)`` once per
    key.  ``BARRIERLESS`` is the paper's contribution: records are reduced
    one-by-one, pipelined with the shuffle (``conf.setIncrementalReduction``
    in the paper's appendix).
    """

    BARRIER = "barrier"
    BARRIERLESS = "barrierless"


class ReduceClass(enum.Enum):
    """The paper's seven-way classification of Reduce operations (§4, Table 1)."""

    IDENTITY = "identity"
    SORTING = "sorting"
    AGGREGATION = "aggregation"
    SELECTION = "selection"
    POST_REDUCTION = "post_reduction_processing"
    CROSS_KEY = "cross_key_operations"
    SINGLE_REDUCER = "single_reducer_aggregation"


#: Memory complexity of the partial results a barrier-less reducer of each
#: class must maintain, exactly as printed in Table 1 of the paper.
PARTIAL_RESULT_COMPLEXITY: dict[ReduceClass, str] = {
    ReduceClass.IDENTITY: "O(1)",
    ReduceClass.SORTING: "O(records)",
    ReduceClass.AGGREGATION: "O(keys)",
    ReduceClass.SELECTION: "O(k * keys)",
    ReduceClass.POST_REDUCTION: "O(records)",
    ReduceClass.CROSS_KEY: "O(window_size)",
    ReduceClass.SINGLE_REDUCER: "O(1)",
}

#: Whether each class requires the framework's sort by key (Table 1).
KEY_SORT_REQUIRED: dict[ReduceClass, bool] = {
    ReduceClass.IDENTITY: False,
    ReduceClass.SORTING: True,
    ReduceClass.AGGREGATION: False,
    ReduceClass.SELECTION: False,
    ReduceClass.POST_REDUCTION: False,
    ReduceClass.CROSS_KEY: False,
    ReduceClass.SINGLE_REDUCER: False,
}


class MapReduceError(Exception):
    """Base class for all framework errors."""


class JobFailedError(MapReduceError):
    """Raised when a job is killed, e.g. a reducer ran out of heap."""


class ReducerOutOfMemoryError(JobFailedError):
    """Raised when a reducer's partial-result store exceeds its heap limit.

    This reproduces the failure mode of Figure 5(a): an in-memory TreeMap of
    partial results grows past the JVM heap and the job is killed.
    """

    def __init__(self, used_bytes: int, limit_bytes: int, message: str | None = None):
        self.used_bytes = used_bytes
        self.limit_bytes = limit_bytes
        super().__init__(
            message
            or f"reducer heap exhausted: {used_bytes} bytes used, limit {limit_bytes}"
        )


class InvalidJobError(MapReduceError):
    """Raised when a job specification is inconsistent."""


@dataclass(slots=True)
class Counters:
    """Framework counters, in the spirit of Hadoop job counters.

    The counters are plain integers keyed by dotted names such as
    ``"map.output_records"``; helpers return 0 for never-incremented keys so
    call sites need no existence checks.
    """

    values: dict[str, int] = field(default_factory=dict)

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.values.get(name, 0)

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one (used across tasks)."""
        for name, amount in other.values.items():
            self.increment(name, amount)

    def as_dict(self) -> dict[str, int]:
        """A snapshot copy of all counters."""
        return dict(self.values)


@dataclass(slots=True)
class StageTimes:
    """Wall-clock stage boundaries observed for one job execution.

    All times are seconds relative to job start.  ``first_map_done`` marks
    the beginning of *mapper slack* — the interval the paper defines between
    the first mapper finishing and the shuffle completing (§3.2).
    """

    map_start: float = 0.0
    first_map_done: float = 0.0
    last_map_done: float = 0.0
    shuffle_done: float = 0.0
    sort_done: float = 0.0
    reduce_done: float = 0.0
    job_done: float = 0.0

    @property
    def mapper_slack(self) -> float:
        """Time between the first map finishing and shuffle completion."""
        return max(0.0, self.shuffle_done - self.first_map_done)

    @property
    def barrier_wait(self) -> float:
        """Time reducers sat idle between last map output and reduce start."""
        return max(0.0, self.sort_done - self.last_map_done)


@dataclass(slots=True)
class JobResult:
    """The outcome of executing a job on any engine.

    ``output`` maps each reducer index to the list of records that reducer
    wrote; ``counters`` aggregates framework statistics; ``stage_times``
    records the coarse stage boundaries used by the analysis layer.
    """

    output: dict[int, list[Record]]
    counters: Counters
    stage_times: StageTimes
    mode: ExecutionMode

    def all_output(self) -> list[Record]:
        """All output records across reducers, in reducer order."""
        records: list[Record] = []
        for reducer_index in sorted(self.output):
            records.extend(self.output[reducer_index])
        return records

    def output_as_dict(self) -> dict[Key, Value]:
        """Output as a key → value mapping (last write wins for dup keys)."""
        return {record.key: record.value for record in self.all_output()}


def make_records(pairs: Iterable[tuple[Key, Value]]) -> list[Record]:
    """Convenience constructor turning ``(key, value)`` pairs into records."""
    return [Record(key, value) for key, value in pairs]


def default_partition(key: Key, num_partitions: int) -> int:
    """Hash partitioner equivalent to Hadoop's ``HashPartitioner``.

    Python's builtin ``hash`` is salted per-process for ``str`` keys, which
    would make partition assignment non-deterministic across runs; we use a
    stable FNV-1a hash over ``repr(key)`` instead so that tests and the
    simulator agree on placement.
    """
    if num_partitions <= 0:
        raise InvalidJobError("num_partitions must be positive")
    if num_partitions == 1:
        return 0
    data = repr(key).encode("utf-8")
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc % num_partitions


PartitionFunction = Callable[[Key, int], int]

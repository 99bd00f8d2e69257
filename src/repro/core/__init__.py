"""Barrier-less MapReduce core: the paper's primary contribution.

Public surface:

- :mod:`repro.core.types` — records, modes, counters, errors.
- :mod:`repro.core.api` — ``Mapper``/``Reducer``/``Combiner`` and contexts.
- :mod:`repro.core.job` — :class:`JobSpec` and :class:`MemoryConfig`.
- :mod:`repro.core.patterns` — per-class barrier-less reducer scaffolds.
- :mod:`repro.core.classify` — the Table 1 taxonomy.
- :mod:`repro.core.partial` — the partial-result store protocol.
"""

from repro.core.api import (
    BatchReduceContext,
    Combiner,
    FunctionCombiner,
    MapContext,
    Mapper,
    Reducer,
    ReduceContext,
    group_sorted_records,
)
from repro.core.classify import TABLE_1, ClassificationEntry, classify, format_table_1
from repro.core.job import JobSpec, MemoryConfig, split_input
from repro.core.memo import (
    MapOutputCache,
    MemoizingEngine,
    merge_job_outputs,
    split_digest,
)
from repro.core.partial import MergeFunction, PartialResultStore, StoreFactory
from repro.core.partitioners import SampledRangePartitioner, sample_keys
from repro.core.pipeline import (
    PipelineResult,
    PipelineStage,
    default_adapter,
    iterate_job,
    run_pipeline,
)
from repro.core.patterns import (
    AggregationReducer,
    BarrierlessReducer,
    CrossKeyWindowReducer,
    IdentityBarrierlessReducer,
    PostReductionReducer,
    RunningAggregateReducer,
    SelectionReducer,
    SortingReducer,
)
from repro.core.types import (
    Counters,
    ExecutionMode,
    InvalidJobError,
    JobFailedError,
    JobResult,
    Key,
    MapReduceError,
    Record,
    ReduceClass,
    ReducerOutOfMemoryError,
    StageTimes,
    Value,
    default_partition,
    make_records,
)

__all__ = [
    "AggregationReducer",
    "BarrierlessReducer",
    "BatchReduceContext",
    "ClassificationEntry",
    "Combiner",
    "Counters",
    "CrossKeyWindowReducer",
    "ExecutionMode",
    "FunctionCombiner",
    "IdentityBarrierlessReducer",
    "InvalidJobError",
    "JobFailedError",
    "JobResult",
    "JobSpec",
    "Key",
    "MapOutputCache",
    "MemoizingEngine",
    "PipelineResult",
    "PipelineStage",
    "MapContext",
    "MapReduceError",
    "Mapper",
    "MemoryConfig",
    "MergeFunction",
    "PartialResultStore",
    "PostReductionReducer",
    "Record",
    "ReduceClass",
    "ReduceContext",
    "Reducer",
    "ReducerOutOfMemoryError",
    "RunningAggregateReducer",
    "SampledRangePartitioner",
    "SelectionReducer",
    "SortingReducer",
    "StageTimes",
    "StoreFactory",
    "TABLE_1",
    "Value",
    "classify",
    "default_adapter",
    "default_partition",
    "iterate_job",
    "merge_job_outputs",
    "run_pipeline",
    "sample_keys",
    "split_digest",
    "format_table_1",
    "group_sorted_records",
    "make_records",
    "split_input",
]

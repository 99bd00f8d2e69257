"""repro — Barrier-less MapReduce.

A from-scratch reproduction of *Breaking the MapReduce Stage Barrier*
(Verma, Zea, Cho, Gupta, Campbell; IEEE CLUSTER 2010): a MapReduce
framework whose shuffle stage can run with or without the stage barrier,
the seven-way classification of Reduce operations, the memory-overflow
management techniques for partial results, and a discrete-event cluster
simulator that regenerates the paper's evaluation.

Subpackages
-----------
- :mod:`repro.core` — the programming model and barrier-less runtime.
- :mod:`repro.engine` — local execution engines (sequential, threaded).
- :mod:`repro.memory` — partial-result stores: in-memory red-black tree,
  disk spill-and-merge, disk-spilling key/value store.
- :mod:`repro.sim` — discrete-event cluster simulator (the testbed
  stand-in).
- :mod:`repro.apps` — the seven application classes, in original and
  barrier-less form.
- :mod:`repro.workloads` — deterministic synthetic dataset generators.
- :mod:`repro.analysis` — timelines, heap traces, sweeps and statistics.
"""

from repro.core import (
    ExecutionMode,
    JobResult,
    JobSpec,
    MemoryConfig,
    Record,
    ReduceClass,
)

__version__ = "1.0.0"

__all__ = [
    "ExecutionMode",
    "JobResult",
    "JobSpec",
    "MemoryConfig",
    "Record",
    "ReduceClass",
    "__version__",
]

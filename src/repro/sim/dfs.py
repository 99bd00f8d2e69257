"""HDFS-like distributed filesystem model: chunks, replicas, locality.

The testbed ran HDFS with 64 MB chunks and a replication factor of 3
(§6).  This module models the piece of HDFS that affects MapReduce
timing: **chunk placement** decides which map tasks can read their input
from a local disk and which must pull it across the network.  The
JobTracker schedules map tasks with locality preference, exactly like
Hadoop's delay-free locality heuristic: when a node has a free slot it
runs a task whose chunk it stores if one is pending, otherwise it steals
a remote task and pays a network read.

Placement follows HDFS's default policy shape: first replica on a
"writer" node chosen round-robin, remaining replicas on distinct random
other nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, slots=True)
class Chunk:
    """One DFS chunk and the nodes holding its replicas."""

    chunk_id: int
    size_mb: float
    replicas: tuple[int, ...]  # node ids

    def is_local_to(self, node_id: int) -> bool:
        """True if the node stores one of this chunk's replicas."""
        return node_id in self.replicas


@dataclass(slots=True)
class FileLayout:
    """All chunks of one input file."""

    chunks: list[Chunk] = field(default_factory=list)

    @property
    def total_mb(self) -> float:
        return sum(chunk.size_mb for chunk in self.chunks)


class DistributedFileSystem:
    """Chunk placement across a cluster, HDFS-default-policy style."""

    def __init__(self, num_nodes: int, replication: int = 3, seed: int = 42):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.num_nodes = num_nodes
        self.replication = min(replication, num_nodes)
        self._rng = np.random.default_rng(seed)
        self._next_writer = 0

    def write_file(self, total_mb: float, chunk_mb: float = 64.0) -> FileLayout:
        """Place a file of ``total_mb`` as chunks across the cluster."""
        if total_mb < 0 or chunk_mb <= 0:
            raise ValueError("sizes must be non-negative / positive")
        layout = FileLayout()
        remaining = total_mb
        chunk_id = 0
        while remaining > 1e-9:
            size = min(chunk_mb, remaining)
            layout.chunks.append(self._place_chunk(chunk_id, size))
            remaining -= size
            chunk_id += 1
        return layout

    def _place_chunk(self, chunk_id: int, size_mb: float) -> Chunk:
        writer = self._next_writer % self.num_nodes
        self._next_writer += 1
        replicas = [writer]
        others = [n for n in range(self.num_nodes) if n != writer]
        extra = self._rng.choice(
            others, size=self.replication - 1, replace=False
        )
        replicas.extend(int(n) for n in extra)
        return Chunk(chunk_id, size_mb, tuple(replicas))


@dataclass(slots=True)
class LocalityStats:
    """How many map tasks ran data-local vs remote."""

    local: int = 0
    remote: int = 0

    @property
    def total(self) -> int:
        return self.local + self.remote

    @property
    def locality_fraction(self) -> float:
        """Fraction of map tasks that read their chunk locally."""
        if self.total == 0:
            return 1.0
        return self.local / self.total


def schedule_with_locality(
    layout: FileLayout, node_id: int, pending: set[int]
) -> tuple[int | None, bool]:
    """Pick the next map task for a node with a free slot.

    Returns ``(chunk_id, is_local)`` — preferring a pending chunk with a
    replica on ``node_id``, else the lowest-numbered pending chunk as a
    remote task; ``(None, False)`` when nothing is pending.
    """
    if not pending:
        return None, False
    for chunk in layout.chunks:
        if chunk.chunk_id in pending and chunk.is_local_to(node_id):
            return chunk.chunk_id, True
    return min(pending), False

"""Tests for the HDFS-like DFS model and locality scheduling."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import ExecutionMode
from repro.sim.cluster import ClusterSpec
from repro.sim.dfs import (
    DistributedFileSystem,
    LocalityStats,
    schedule_with_locality,
)
from repro.sim.hadoop import HadoopSimulator
from repro.sim.workload import wordcount_profile


class TestPlacement:
    def test_chunk_count(self):
        dfs = DistributedFileSystem(10, replication=3, seed=1)
        layout = dfs.write_file(640.0, chunk_mb=64.0)
        assert len(layout.chunks) == 10
        assert layout.total_mb == pytest.approx(640.0)

    def test_partial_last_chunk(self):
        dfs = DistributedFileSystem(5, replication=2, seed=1)
        layout = dfs.write_file(100.0, chunk_mb=64.0)
        assert [c.size_mb for c in layout.chunks] == [64.0, 36.0]

    def test_replicas_distinct_nodes(self):
        dfs = DistributedFileSystem(10, replication=3, seed=2)
        layout = dfs.write_file(64.0 * 50)
        for chunk in layout.chunks:
            assert len(chunk.replicas) == 3
            assert len(set(chunk.replicas)) == 3
            assert all(0 <= n < 10 for n in chunk.replicas)

    def test_replication_capped_by_cluster_size(self):
        dfs = DistributedFileSystem(2, replication=3, seed=1)
        layout = dfs.write_file(64.0)
        assert len(layout.chunks[0].replicas) == 2

    def test_deterministic_under_seed(self):
        a = DistributedFileSystem(8, 3, seed=7).write_file(640.0)
        b = DistributedFileSystem(8, 3, seed=7).write_file(640.0)
        assert [c.replicas for c in a.chunks] == [c.replicas for c in b.chunks]

    def test_placement_reasonably_balanced(self):
        dfs = DistributedFileSystem(15, replication=3, seed=3)
        layout = dfs.write_file(64.0 * 300)
        per_node = Counter(
            node for chunk in layout.chunks for node in chunk.replicas
        )
        mean = sum(per_node.values()) / len(per_node)
        assert max(per_node.values()) / mean < 1.5

    def test_empty_file(self):
        layout = DistributedFileSystem(4, 2).write_file(0.0)
        assert layout.chunks == []

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DistributedFileSystem(0)
        with pytest.raises(ValueError):
            DistributedFileSystem(4, replication=0)
        with pytest.raises(ValueError):
            DistributedFileSystem(4).write_file(-1.0)


class TestLocalityScheduling:
    def test_prefers_local_chunk(self):
        dfs = DistributedFileSystem(4, replication=1, seed=1)
        layout = dfs.write_file(64.0 * 4)
        node = layout.chunks[2].replicas[0]
        chunk_id, is_local = schedule_with_locality(
            layout, node, {2, 3}
        )
        assert is_local
        assert layout.chunks[chunk_id].is_local_to(node)

    def test_steals_remote_when_no_local_pending(self):
        dfs = DistributedFileSystem(4, replication=1, seed=1)
        layout = dfs.write_file(64.0 * 4)
        # Find a node holding none of the pending chunks.
        pending = {0}
        holder = layout.chunks[0].replicas[0]
        other = next(n for n in range(4) if n != holder)
        chunk_id, is_local = schedule_with_locality(layout, other, pending)
        assert chunk_id == 0
        assert not is_local

    def test_empty_pending(self):
        layout = DistributedFileSystem(4, 1).write_file(64.0)
        assert schedule_with_locality(layout, 0, set()) == (None, False)

    @given(st.integers(2, 12), st.integers(1, 30))
    def test_property_all_chunks_schedulable(self, nodes, chunks):
        dfs = DistributedFileSystem(nodes, replication=2, seed=0)
        layout = dfs.write_file(64.0 * chunks)
        pending = {c.chunk_id for c in layout.chunks}
        scheduled = []
        node = 0
        while pending:
            chunk_id, _local = schedule_with_locality(layout, node, pending)
            assert chunk_id is not None
            pending.discard(chunk_id)
            scheduled.append(chunk_id)
            node = (node + 1) % nodes
        assert sorted(scheduled) == list(range(chunks))


class TestLocalityStats:
    def test_fraction(self):
        stats = LocalityStats(local=9, remote=1)
        assert stats.locality_fraction == pytest.approx(0.9)
        assert LocalityStats().locality_fraction == 1.0


class TestSimulatorIntegration:
    def test_high_locality_with_replication_3(self):
        result = HadoopSimulator(ClusterSpec()).run(
            wordcount_profile(8.0), 40, ExecutionMode.BARRIER
        )
        assert result.locality.total == wordcount_profile(8.0).num_maps
        assert result.locality.locality_fraction > 0.75

    def test_replication_1_lowers_locality(self):
        high = HadoopSimulator(ClusterSpec(replication=3)).run(
            wordcount_profile(8.0), 40, ExecutionMode.BARRIER
        )
        low = HadoopSimulator(ClusterSpec(replication=1)).run(
            wordcount_profile(8.0), 40, ExecutionMode.BARRIER
        )
        assert low.locality.locality_fraction <= high.locality.locality_fraction

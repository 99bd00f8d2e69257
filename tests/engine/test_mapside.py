"""Tests for the map-side sort-and-spill buffer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import wordcount
from repro.core.api import Mapper, Reducer
from repro.core.job import JobSpec, MemoryConfig
from repro.core.types import Counters, ExecutionMode, default_partition
from repro.dfs.wire import WireConfig, decode_batches
from repro.engine.base import partition_records, run_map_task, run_map_task_encoded
from repro.engine.local import LocalEngine
from repro.engine import mapside
from repro.engine.mapside import MapOutputBuffer, MapOutputCollector
from repro.memory.spill import MERGE_FAN_IN
from repro.workloads.text import generate_documents


def make_buffer(partitions=3, buffer_bytes=1 << 20):
    return MapOutputBuffer(partitions, default_partition, buffer_bytes)


def published(buffer: MapOutputBuffer) -> dict[int, list]:
    """Every partition's records, as the map task's collector publishes
    the buffer's merge: ``{partition: [Record, ...]}``, all present."""
    collector = MapOutputCollector(buffer.num_partitions, default_partition)
    for entry in buffer.merged():
        collector.add(*entry)
    return {
        partition: decode_batches(stream, WireConfig())
        for partition, stream in collector.finish().items()
    }


class TestMapOutputBuffer:
    def test_small_output_stays_in_memory(self):
        buffer = make_buffer()
        buffer.collect("a", 1)
        buffer.collect("b", 2)
        assert buffer.spill_count == 0
        assert buffer.records_collected == 2
        buffer.close()

    def test_spills_when_full(self):
        buffer = make_buffer(buffer_bytes=512)
        for i in range(50):
            buffer.collect(f"key-{i:03d}", i)
        assert buffer.spill_count > 0
        assert buffer.memory_used() < 512
        buffer.close()

    def test_partitions_complete_and_key_sorted(self):
        buffer = make_buffer(partitions=4, buffer_bytes=400)
        expected: dict[int, list] = {p: [] for p in range(4)}
        for i in range(120):
            key = f"key-{i % 37:03d}"
            buffer.collect(key, i)
            expected[default_partition(key, 4)].append(key)
        total = 0
        for partition, records in published(buffer).items():
            keys = [record.key for record in records]
            assert keys == sorted(keys), partition
            assert sorted(keys) == sorted(expected[partition])
            total += len(records)
        assert total == 120
        buffer.close()

    def test_same_key_single_partition(self):
        buffer = make_buffer(partitions=5, buffer_bytes=300)
        for i in range(60):
            buffer.collect("hot", i)
        partitions = published(buffer)
        assert sorted(partitions) == list(range(5))
        non_empty = [p for p, records in partitions.items() if records]
        assert len(non_empty) == 1
        assert len(partitions[non_empty[0]]) == 60
        buffer.close()

    def test_invalid_partition_rejected(self):
        # A partitioner that answers outside ``range(num_partitions)``
        # fails the merge rather than losing or misrouting the record.
        buffer = MapOutputBuffer(2, lambda key, n: 7, 1 << 20)
        buffer.collect("k", 1)
        with pytest.raises(LookupError):
            published(buffer)
        buffer.close()

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MapOutputBuffer(0, default_partition)
        with pytest.raises(ValueError):
            MapOutputBuffer(1, default_partition, buffer_bytes=0)

    @settings(max_examples=25, deadline=None)
    @given(
        # Spill runs are wire frames: values stay inside the typed
        # codec's 77-bit varint range, like any map output.
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(-(2**77 - 1), 2**77 - 1),
            ),
            max_size=150,
        ),
        st.integers(200, 5000),
        st.integers(1, 6),
    )
    def test_property_conserves_records(self, pairs, buffer_bytes, partitions):
        buffer = MapOutputBuffer(partitions, default_partition, buffer_bytes)
        for key, value in pairs:
            buffer.collect(key, value)
        out = [(key, value) for _partition, key, value in buffer.merged()]
        assert sorted(out) == sorted(pairs)
        buffer.close()


class TestEngineIntegration:
    @pytest.fixture
    def corpus(self):
        return generate_documents(20, words_per_doc=30, vocab_size=80, seed=6)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_spilled_map_output_same_result(self, mode, corpus):
        job = wordcount.make_job(mode, num_reducers=3)
        job.map_output_buffer_bytes = 2048  # tiny: forces spills
        counters = Counters()
        result = LocalEngine().run(job, corpus, num_maps=4)
        assert result.output_as_dict() == wordcount.reference_output(corpus)
        assert result.counters.get("map.output_spills") > 0

    def test_spilled_map_task_matches_in_memory(self, corpus):
        job_memory = wordcount.make_job(ExecutionMode.BARRIER, num_reducers=3)
        job_spill = wordcount.make_job(ExecutionMode.BARRIER, num_reducers=3)
        job_spill.map_output_buffer_bytes = 1024
        split = corpus[:5]
        counters = Counters()
        in_memory = partition_records(
            job_memory, run_map_task(job_memory, split, Counters())
        )
        spilled = run_map_task_encoded(job_spill, split, counters)
        assert counters.get("map.output_spills") > 0
        for partition in range(3):
            # The merge is key-sorted and keeps emission order in a key.
            assert decode_batches(spilled[partition], WireConfig()) == sorted(
                in_memory[partition], key=lambda record: record.key
            )

    def test_validation_rejects_nonpositive_buffer(self):
        job = wordcount.make_job(ExecutionMode.BARRIER)
        job.map_output_buffer_bytes = 0
        with pytest.raises(Exception):
            job.validate()


class TestAllEnginesWithSpilledMapOutput:
    def test_threaded_engine(self, corpus=None):
        from repro.engine.threaded import ThreadedEngine
        from repro.workloads.text import generate_documents

        corpus = generate_documents(15, 25, 60, seed=2)
        job = wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=2)
        job.map_output_buffer_bytes = 1024
        result = ThreadedEngine(map_slots=2).run(job, corpus, num_maps=3)
        assert result.output_as_dict() == wordcount.reference_output(corpus)

    def test_cluster_engine(self):
        from repro.cluster import ClusterEngine
        from repro.workloads.text import generate_documents

        corpus = generate_documents(15, 25, 60, seed=3)
        job = wordcount.make_job(ExecutionMode.BARRIER, num_reducers=2)
        job.map_output_buffer_bytes = 1024
        result = ClusterEngine(workers=2).run(job, corpus, num_maps=3)
        assert result.output_as_dict() == wordcount.reference_output(corpus)
        assert result.counters.get("map.output_spills") > 0


class _ExplodingMapper(Mapper):
    """Emits enough to force spills, then dies mid-task."""

    def map(self, key, value, context):
        for i in range(40):
            context.emit(f"{key}-{i:03d}", i)
        if key >= 2:
            raise RuntimeError("map task failure after spilling")


class TestSpillCleanup:
    """Spill files must never outlive the buffer, success or failure."""

    def _fill(self, buffer, records=80):
        for i in range(records):
            buffer.collect(f"key-{i:03d}", i)

    def test_close_removes_spill_files(self, tmp_path):
        buffer = MapOutputBuffer(
            2, default_partition, buffer_bytes=256, spill_dir=str(tmp_path)
        )
        self._fill(buffer)
        assert buffer.spill_count > 0
        assert any(tmp_path.iterdir())
        buffer.close()
        assert list(tmp_path.iterdir()) == []

    def test_context_manager_cleans_on_raise(self, tmp_path):
        with pytest.raises(RuntimeError, match="mid-spill"):
            with MapOutputBuffer(
                2, default_partition, buffer_bytes=256, spill_dir=str(tmp_path)
            ) as buffer:
                self._fill(buffer)
                assert buffer.spill_count > 0
                raise RuntimeError("failure mid-spill")
        assert list(tmp_path.iterdir()) == []

    def test_partial_write_failure_is_cleaned_up(self, tmp_path):
        """A record the wire codec cannot encode aborts the spill midway;
        the partially written file must still be deleted on close."""
        buffer = MapOutputBuffer(
            1,
            default_partition,
            buffer_bytes=1 << 20,
            spill_dir=str(tmp_path),
            wire=WireConfig(),
        )
        buffer.collect("fine", 1)
        buffer.collect("poison", object())  # unencodable by the typed codec
        with pytest.raises(Exception):
            buffer._spill()
        assert any(tmp_path.iterdir())  # partial file exists pre-close
        buffer.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("wire", [None, WireConfig()], ids=["default", "wire"])
    def test_failed_map_task_leaves_spill_dir_empty(self, tmp_path, wire):
        job = JobSpec(
            name="exploding",
            mapper_factory=_ExplodingMapper,
            reducer_factory=Reducer,
            num_reducers=3,
            map_output_buffer_bytes=512,
            memory=MemoryConfig(spill_dir=str(tmp_path)),
        )
        with pytest.raises(RuntimeError, match="after spilling"):
            run_map_task_encoded(
                job, [(k, "v") for k in range(5)], Counters(), wire
            )
        assert list(tmp_path.iterdir()) == []

    def test_successful_map_task_leaves_spill_dir_empty(self, tmp_path):
        corpus = generate_documents(10, words_per_doc=30, vocab_size=50, seed=9)
        job = wordcount.make_job(ExecutionMode.BARRIER, num_reducers=2)
        job.map_output_buffer_bytes = 512
        job.memory = MemoryConfig(spill_dir=str(tmp_path))
        counters = Counters()
        partitions = run_map_task_encoded(job, corpus, counters, WireConfig())
        assert counters.get("map.output_spills") > 0
        assert sum(len(batch) for s in partitions.values() for batch in s) > 0
        assert list(tmp_path.iterdir()) == []


class TestWireSpillCodec:
    """Spills written with the framed wire codec round-trip correctly."""

    def test_wire_spill_files_and_accounting(self, tmp_path):
        buffer = MapOutputBuffer(
            3,
            default_partition,
            buffer_bytes=300,
            spill_dir=str(tmp_path),
            wire=WireConfig(),
        )
        expected: dict[int, list] = {p: [] for p in range(3)}
        for i in range(90):
            key = f"key-{i % 23:03d}"
            buffer.collect(key, i)
            expected[default_partition(key, 3)].append(key)
        assert buffer.spill_count > 0
        # One directory per buffer under ``spill_dir``, runs inside it.
        suffixes = {path.suffix for path in tmp_path.glob("*/*")}
        assert suffixes == {".wire"}
        assert buffer.raw_bytes_spilled > 0
        assert buffer.wire_bytes_spilled > 0
        total = 0
        for partition, records in published(buffer).items():
            keys = [record.key for record in records]
            assert keys == sorted(keys)
            assert sorted(keys) == sorted(expected[partition])
            total += len(records)
        assert total == 90
        buffer.close()
        assert list(tmp_path.iterdir()) == []


class TestOnePassMerge:
    """The final merge reads every run once, never too many at a time."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every file ``mapside`` opens for reading, as ``(path, handle)``."""
        handles = []

        def recording_open(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            if "r" in mode:
                self.peak = max(
                    self.peak, 1 + sum(not h.closed for _p, h in handles)
                )
                handles.append((path, handle))
            return handle

        self.peak = 0
        monkeypatch.setattr(mapside, "open", recording_open, raising=False)
        return handles

    @staticmethod
    def _expected(entries, partitions):
        # A stable sort by (partition, key) *is* the contract: key order
        # inside a partition, emission order inside a key.
        ordered = sorted(
            entries, key=lambda e: (default_partition(e[0], partitions), e[0])
        )
        out = {p: [] for p in range(partitions)}
        for key, value in ordered:
            out[default_partition(key, partitions)].append((key, value))
        return out

    @pytest.mark.parametrize("wire", (None, WireConfig()))
    def test_each_run_is_opened_once(self, opened, wire):
        entries = [(f"key-{i % 41:03d}", i) for i in range(360)]
        with MapOutputBuffer(8, default_partition, 1200, wire=wire) as buffer:
            for key, value in entries:
                buffer.collect(key, value)
            runs = list(buffer._spills)
            assert 30 <= len(runs) == buffer.spill_count < MERGE_FAN_IN
            got = published(buffer)
        assert sorted(path for path, _handle in opened) == sorted(runs)
        assert all(handle.closed for _path, handle in opened)
        assert {
            p: [(r.key, r.value) for r in records] for p, records in got.items()
        } == self._expected(entries, 8)

    def test_no_more_than_the_fan_in_are_ever_open(self, opened, tmp_path):
        entries = [(f"key-{i % 53:03d}", i) for i in range(3 * MERGE_FAN_IN + 9)]
        with MapOutputBuffer(
            3, default_partition, 1, spill_dir=str(tmp_path), wire=WireConfig()
        ) as buffer:
            for key, value in entries:
                buffer.collect(key, value)  # one record a run
                assert len(buffer._spills) <= MERGE_FAN_IN
            # A compaction is not a spill: the task's counters do not move.
            assert buffer.spill_count == len(entries)
            counters = Counters()
            buffer.count_spills(counters)
            assert counters.get("map.output_spills") == len(entries)
            got = published(buffer)
            assert self.peak <= MERGE_FAN_IN
        assert {
            p: [(r.key, r.value) for r in records] for p, records in got.items()
        } == self._expected(entries, 3)
        assert list(tmp_path.iterdir()) == []

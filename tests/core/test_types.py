"""Unit tests for repro.core.types."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import (
    Counters,
    ExecutionMode,
    InvalidJobError,
    JobResult,
    Record,
    ReducerOutOfMemoryError,
    StageTimes,
    default_partition,
    make_records,
)
from tests.dfs.test_wire_fuzz import _keys, _values

#: ``[Record("a", 1), Record(("k", -3), [1.5, b"x", None]),
#: Record(2**70, {"n": (True, "v")})]`` pickled at protocols 2 and 4
#: while ``Record`` still pickled through the dataclass's
#: ``__getstate__``: the shape of every ``reduce-commit`` output
#: journaled before ``Record.__reduce__``.  Never update these.
_OLD_PICKLES = (
    b"\x80\x02]q\x00(crepro.core.types\nRecord\nq\x01)\x81q\x02]q\x03(X"
    b"\x01\x00\x00\x00aq\x04K\x01ebh\x01)\x81q\x05]q\x06(X\x01\x00\x00\x00kq"
    b"\x07J\xfd\xff\xff\xff\x86q\x08]q\t(G?\xf8\x00\x00\x00\x00\x00\x00c_codecs"
    b"\nencode\nq\nX\x01\x00\x00\x00xq\x0bX\x06\x00\x00\x00latin1q\x0c\x86q\r"
    b"Rq\x0eNeebh\x01)\x81q\x0f]q\x10(\x8a\t\x00\x00\x00\x00\x00\x00\x00\x00@}"
    b"q\x11X\x01\x00\x00\x00nq\x12\x88X\x01\x00\x00\x00vq\x13\x86q\x14sebe.",
    b"\x80\x04\x95{\x00\x00\x00\x00\x00\x00\x00]\x94(\x8c\x10repro.core.types"
    b"\x94\x8c\x06Record\x94\x93\x94)\x81\x94]\x94(\x8c\x01a\x94K\x01ebh\x03)"
    b"\x81\x94]\x94(\x8c\x01k\x94J\xfd\xff\xff\xff\x86\x94]\x94(G?\xf8\x00\x00"
    b"\x00\x00\x00\x00C\x01x\x94Neebh\x03)\x81\x94]\x94(\x8a\t\x00\x00\x00\x00"
    b"\x00\x00\x00\x00@}\x94\x8c\x01n\x94\x88\x8c\x01v\x94\x86\x94sebe.",
)


class TestRecord:
    def test_unpacking(self):
        key, value = Record("a", 1)
        assert key == "a" and value == 1

    def test_equality_and_hash(self):
        assert Record("a", 1) == Record("a", 1)
        assert Record("a", 1) != Record("a", 2)
        assert hash(Record("a", 1)) == hash(Record("a", 1))

    def test_immutability(self):
        record = Record("a", 1)
        with pytest.raises(AttributeError):
            record.key = "b"  # type: ignore[misc]

    def test_make_records(self):
        records = make_records([("a", 1), ("b", 2)])
        assert records == [Record("a", 1), Record("b", 2)]

    def test_reduces_to_a_constructor_call(self):
        assert Record(1, 2).__reduce__() == (Record, (1, 2))

    @given(_keys, _values)
    def test_pickle_and_copy_round_trip(self, key, value):
        record = Record(key, value)
        copies = [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies += [copy.copy(record), copy.deepcopy(record)]
        for other in copies:
            assert type(other) is Record and other == record
        try:
            expected = hash(record)
        except TypeError:  # an unhashable value: a list or dict
            return
        assert all(hash(other) == expected for other in copies)

    @pytest.mark.parametrize("data", _OLD_PICKLES)
    def test_pickles_of_the_dataclass_state_still_load(self, data):
        assert pickle.loads(data) == [
            Record("a", 1),
            Record(("k", -3), [1.5, b"x", None]),
            Record(2**70, {"n": (True, "v")}),
        ]


class TestCounters:
    def test_increment_and_get(self):
        counters = Counters()
        counters.increment("x")
        counters.increment("x", 4)
        assert counters.get("x") == 5

    def test_get_missing_is_zero(self):
        assert Counters().get("nothing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("x", 2)
        b.increment("x", 3)
        b.increment("y", 1)
        a.merge(b)
        assert a.get("x") == 5
        assert a.get("y") == 1

    def test_as_dict_is_snapshot(self):
        counters = Counters()
        counters.increment("x")
        snapshot = counters.as_dict()
        counters.increment("x")
        assert snapshot == {"x": 1}


class TestStageTimes:
    def test_mapper_slack(self):
        times = StageTimes(first_map_done=50.0, shuffle_done=170.0)
        assert times.mapper_slack == pytest.approx(120.0)

    def test_mapper_slack_never_negative(self):
        times = StageTimes(first_map_done=100.0, shuffle_done=50.0)
        assert times.mapper_slack == 0.0

    def test_barrier_wait(self):
        times = StageTimes(last_map_done=155.0, sort_done=170.0)
        assert times.barrier_wait == pytest.approx(15.0)


class TestDefaultPartition:
    def test_single_partition(self):
        assert default_partition("anything", 1) == 0

    def test_range(self):
        for key in ("a", "b", 3, (1, 2), "longer-key"):
            assert 0 <= default_partition(key, 7) < 7

    def test_deterministic_across_calls(self):
        assert default_partition("stable", 13) == default_partition("stable", 13)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidJobError):
            default_partition("k", 0)

    @given(st.integers(), st.integers(min_value=1, max_value=64))
    def test_property_in_range(self, key, n):
        assert 0 <= default_partition(key, n) < n

    def test_spreads_keys(self):
        # 1000 distinct keys over 10 partitions: no partition should be
        # empty and none should hold more than half the keys.
        counts = [0] * 10
        for i in range(1000):
            counts[default_partition(f"key-{i}", 10)] += 1
        assert min(counts) > 0
        assert max(counts) < 500


class TestJobResult:
    def _result(self) -> JobResult:
        return JobResult(
            output={1: [Record("b", 2)], 0: [Record("a", 1)]},
            counters=Counters(),
            stage_times=StageTimes(),
            mode=ExecutionMode.BARRIER,
        )

    def test_all_output_reducer_order(self):
        assert [r.key for r in self._result().all_output()] == ["a", "b"]

    def test_output_as_dict(self):
        assert self._result().output_as_dict() == {"a": 1, "b": 2}


class TestErrors:
    def test_oom_message(self):
        err = ReducerOutOfMemoryError(2048, 1024)
        assert err.used_bytes == 2048
        assert err.limit_bytes == 1024
        assert "2048" in str(err)

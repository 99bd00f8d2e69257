"""Tests for heap-footprint estimation."""

from __future__ import annotations

from hypothesis import given, settings

from repro.memory.estimator import (
    ENTRY_OVERHEAD_BYTES,
    MemoryTracker,
    deep_size,
    entry_size,
    shallow_size,
)

# The value space the shuffle can carry is the value space a store can
# be asked to size: reuse the wire fuzzers' strategies.
from tests.dfs.test_wire_fuzz import _keys, _values


class TestDeepSize:
    def test_scalars_positive(self):
        for obj in (None, True, 3, 2.5, "abc", b"xy"):
            assert deep_size(obj) > 0

    def test_string_grows_with_length(self):
        assert deep_size("x" * 1000) > deep_size("x")

    def test_list_includes_elements(self):
        assert deep_size(["a" * 100]) > deep_size([]) + 90

    def test_dict_includes_keys_and_values(self):
        small = deep_size({})
        big = deep_size({"k" * 50: "v" * 50})
        assert big > small + 90

    def test_nested_structures(self):
        nested = [[["deep" * 10]]]
        assert deep_size(nested) > deep_size("deep" * 10)

    def test_deep_nesting_bounded(self):
        # Pathological nesting must terminate (depth cap).
        obj: list = []
        current = obj
        for _ in range(50):
            inner: list = []
            current.append(inner)
            current = inner
        assert deep_size(obj) > 0

    def test_frozenset(self):
        assert deep_size(frozenset({"user1", "user2"})) > deep_size(frozenset())


class TestEntrySize:
    def test_includes_overhead(self):
        assert entry_size("k", 1) >= ENTRY_OVERHEAD_BYTES

    def test_monotone_in_value_size(self):
        assert entry_size("k", "v" * 1000) > entry_size("k", "v")

    @settings(max_examples=300, deadline=None)
    @given(_keys, _values)
    def test_fast_path_equals_deep_size(self, key, value):
        # Flat scalars skip the recursion but must be charged the very
        # same bytes, or spill points (and memory.spill.*) would move.
        expected = ENTRY_OVERHEAD_BYTES + deep_size(key) + deep_size(value)
        assert entry_size(key, value) == expected
        assert entry_size(value, key) == expected  # sizing never hashes

    def test_scalar_subclasses_take_the_general_path(self):
        class Fat(str):
            def __sizeof__(self):
                return 10_000

        assert entry_size(Fat("k"), 1) == (
            ENTRY_OVERHEAD_BYTES + deep_size(Fat("k")) + deep_size(1)
        )
        assert entry_size(Fat("k"), 1) > 10_000


class TestMemoryTracker:
    def test_charge_discharge(self):
        tracker = MemoryTracker()
        tracker.charge(100)
        tracker.charge(50)
        assert tracker.used == 150
        tracker.discharge(60)
        assert tracker.used == 90

    def test_peak_is_high_water_mark(self):
        tracker = MemoryTracker()
        tracker.charge(200)
        tracker.discharge(150)
        tracker.charge(10)
        assert tracker.peak == 200
        assert tracker.used == 60

    def test_discharge_floors_at_zero(self):
        tracker = MemoryTracker()
        tracker.charge(10)
        tracker.discharge(100)
        assert tracker.used == 0

    def test_reset_preserves_peak(self):
        tracker = MemoryTracker()
        tracker.charge(500)
        tracker.reset()
        assert tracker.used == 0
        assert tracker.peak == 500

    def test_shallow_size_fallback(self):
        assert shallow_size(object()) > 0

"""Unit and property tests for the red-black TreeMap."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.memory.treemap import TreeMap


class TestBasics:
    def test_empty(self):
        tree = TreeMap()
        assert len(tree) == 0
        assert not tree
        assert "x" not in tree
        assert tree.get("x") is None
        assert tree.get("x", 7) == 7

    def test_put_get(self):
        tree = TreeMap()
        tree.put("a", 1)
        assert tree["a"] == 1
        assert "a" in tree
        assert len(tree) == 1

    def test_put_replaces(self):
        tree = TreeMap()
        tree.put("a", 1)
        tree.put("a", 2)
        assert tree["a"] == 2
        assert len(tree) == 1

    def test_setitem_delitem(self):
        tree = TreeMap()
        tree["k"] = 5
        assert tree["k"] == 5
        del tree["k"]
        assert "k" not in tree
        with pytest.raises(KeyError):
            del tree["k"]

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            TreeMap()["missing"]

    def test_setdefault(self):
        tree = TreeMap()
        assert tree.setdefault("a", 1) == 1
        assert tree.setdefault("a", 9) == 1

    def test_remove(self):
        tree = TreeMap()
        tree.put("a", 1)
        assert tree.remove("a")
        assert not tree.remove("a")
        assert len(tree) == 0

    def test_clear(self):
        tree = TreeMap()
        for i in range(10):
            tree.put(i, i)
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []


class TestOrderedAccess:
    def _tree(self):
        tree = TreeMap()
        for key in (5, 1, 9, 3, 7):
            tree.put(key, key * 10)
        return tree

    def test_items_sorted(self):
        assert list(self._tree().keys()) == [1, 3, 5, 7, 9]

    def test_values_in_key_order(self):
        assert list(self._tree().values()) == [10, 30, 50, 70, 90]

    def test_iter_is_keys(self):
        assert list(iter(self._tree())) == [1, 3, 5, 7, 9]

    def test_first_last(self):
        tree = self._tree()
        assert tree.first_key() == 1
        assert tree.last_key() == 9

    def test_first_last_empty_raise(self):
        with pytest.raises(KeyError):
            TreeMap().first_key()
        with pytest.raises(KeyError):
            TreeMap().last_key()

    def test_pop_first_drains_in_order(self):
        tree = self._tree()
        popped = [tree.pop_first() for _ in range(len(tree))]
        assert popped == [(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]
        with pytest.raises(KeyError):
            tree.pop_first()

    def test_floor_ceiling(self):
        tree = self._tree()
        assert tree.floor_key(6) == 5
        assert tree.floor_key(5) == 5
        assert tree.floor_key(0) is None
        assert tree.ceiling_key(6) == 7
        assert tree.ceiling_key(9) == 9
        assert tree.ceiling_key(10) is None


class TestInvariantsUnit:
    def test_sequential_inserts_stay_balanced(self):
        tree = TreeMap()
        for i in range(500):  # sorted insertion is the classic worst case
            tree.put(i, i)
            if i % 50 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert list(tree.keys()) == list(range(500))

    def test_reverse_inserts(self):
        tree = TreeMap()
        for i in reversed(range(300)):
            tree.put(i, i)
        tree.check_invariants()

    def test_delete_half(self):
        tree = TreeMap()
        for i in range(200):
            tree.put(i, i)
        for i in range(0, 200, 2):
            assert tree.remove(i)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(1, 200, 2))


@given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers()), max_size=200))
def test_property_matches_dict(pairs):
    tree = TreeMap()
    model: dict[int, int] = {}
    for key, value in pairs:
        tree.put(key, value)
        model[key] = value
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    tree.check_invariants()


@given(
    st.lists(st.integers(0, 50), max_size=100),
    st.lists(st.integers(0, 50), max_size=100),
)
def test_property_insert_then_delete(inserts, deletes):
    tree = TreeMap()
    model: dict[int, int] = {}
    for key in inserts:
        tree.put(key, key)
        model[key] = key
    for key in deletes:
        assert tree.remove(key) == (key in model)
        model.pop(key, None)
    assert list(tree.items()) == sorted(model.items())
    tree.check_invariants()


class TreeMapMachine(RuleBasedStateMachine):
    """Stateful test: TreeMap behaves exactly like a sorted dict."""

    def __init__(self):
        super().__init__()
        self.tree = TreeMap()
        self.model: dict[int, int] = {}

    @rule(key=st.integers(0, 30), value=st.integers())
    def put(self, key, value):
        self.tree.put(key, value)
        self.model[key] = value

    @rule(key=st.integers(0, 30))
    def remove(self, key):
        assert self.tree.remove(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=st.integers(0, 30))
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule()
    def pop_first(self):
        if self.model:
            expected = min(self.model)
            key, value = self.tree.pop_first()
            assert key == expected and value == self.model.pop(expected)

    @invariant()
    def agrees_with_model(self):
        assert len(self.tree) == len(self.model)
        assert list(self.tree.items()) == sorted(self.model.items())

    @invariant()
    def red_black_invariants_hold(self):
        self.tree.check_invariants()


TestTreeMapStateful = TreeMapMachine.TestCase
TestTreeMapStateful.settings = settings(max_examples=30, stateful_step_count=40)

"""Model-based test of ``WriteBackStore(SpillMergeStore)``.

A hypothesis state machine drives the pair the barrier-less reducer
actually uses — reads, membership tests, folds, batch boundaries,
snapshots restored into a fresh store — against the simplest thing that
could be right: a ``dict`` and the merge function.  Every partial is the
tuple of the serial numbers folded into it and ``merge_fn`` is tuple
concatenation, so the final sweep checks not only that nothing was lost
or counted twice across spills, compactions and restores, but that each
key's partials were merged oldest to newest.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps.demo import demo_job_and_input
from repro.core.api import Mapper
from repro.core.types import ExecutionMode
from repro.engine.local import LocalEngine
from repro.engine.threaded import ThreadedEngine
from repro.memory.checkpoint import read_checkpoint, read_entry_frames
from repro.memory.estimator import entry_size
from repro.memory.spill import SpillMergeStore
from repro.memory.writeback import WriteBackStore


def concat(older: tuple, newer: tuple) -> tuple:
    return older + newer


#: Key families; keys of one family are mutually comparable.  The numeric
#: one holds ``1``, ``1.0`` and ``True``: equal, hashed alike, encoded
#: differently — one entry, whichever spelling arrived first.
_FAMILIES = {
    "numeric": st.one_of(
        st.sampled_from([1, 1.0, True, 0, 0.0, False, -1, 2.5]),
        st.integers(-5, 40),
    ),
    "str": st.sampled_from(["", "a", "b", "ab", "é", "key-10", "key-9", "z" * 40]),
    "tuple": st.tuples(st.integers(0, 3), st.sampled_from(["x", "y", "z"])),
}

#: From "every put spills" to "never spills".
_THRESHOLDS = [1, 200, 600, 2_000, 1 << 30]


def run_keys(path: str) -> list:
    with open(path, "rb") as fh:
        return [
            key
            for entries in read_entry_frames(fh)
            for key, _value in entries
        ]


class WriteBackOverSpillMerge(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model: dict = {}
        self.serial = 0
        self.largest_batch = 0
        self.inner: SpillMergeStore | None = None

    @initialize(
        family=st.sampled_from(sorted(_FAMILIES)),
        threshold=st.sampled_from(_THRESHOLDS),
    )
    def build(self, family, threshold):
        self.keys = _FAMILIES[family]
        self.threshold = threshold
        self.inner = SpillMergeStore(concat, spill_threshold_bytes=threshold)
        self.backed = WriteBackStore(self.inner)

    def teardown(self):
        if self.inner is None:
            return
        try:
            self.check_runs_ascend()
            self.backed.finalize()
            assert list(self.backed.items()) == sorted(self.model.items())
        finally:
            self.inner.close()

    # -- the reducer's calls ---------------------------------------------------

    @rule(data=st.data())
    def fold(self, data):
        """Algorithm 2: contains, then get + put (or a first put)."""
        key = data.draw(self.keys)
        self.serial += 1
        if self.backed.contains(key):
            partial = self.backed.get(key)
            assert partial  # a stored partial is never empty
            self.backed.put(key, partial + (self.serial,))
        else:
            self.backed.put(key, (self.serial,))
        assert self.backed.get(key)[-1] == self.serial
        self.model[key] = self.model.get(key, ()) + (self.serial,)

    @rule(data=st.data())
    def read_only(self, data):
        """A read that is never written back must leave no trace."""
        key = data.draw(self.keys)
        partial = self.backed.get(key, None)
        assert self.backed.contains(key) == (partial is not None)
        if partial is not None:
            # What the buffer holds of a key is a suffix of its history.
            history = self.model[key]
            assert history[len(history) - len(partial):] == partial

    @rule()
    def flush(self):
        batch = sum(
            entry_size(key, value) for key, value in self.backed._cache.items()
        )
        self.largest_batch = max(self.largest_batch, batch)
        self.backed.flush()
        # Spill-before-insert bounds the buffer by the threshold plus what
        # one batch checked out or wrote; nothing older may be pinned.
        assert self.inner.memory_used() <= self.threshold + self.largest_batch
        assert not self.inner._checked_out

    @rule()
    def checkpoint_into_a_fresh_store(self):
        directory = self.inner._dir + "-ckpt"
        self.backed.checkpoint(directory, meta={"serial": self.serial})
        meta, entries = read_checkpoint(directory)
        assert meta == {"serial": self.serial}
        assert entries == sorted(self.model.items())
        fresh = SpillMergeStore(concat, spill_threshold_bytes=self.threshold)
        assert fresh.restore(directory) == meta
        self.inner.close()
        self.inner = fresh
        self.backed = WriteBackStore(fresh)

    @precondition(lambda self: self.inner is not None)
    @invariant()
    def check_runs_ascend(self):
        for path in self.inner._spill_paths:
            keys = run_keys(path)
            assert keys and all(a < b for a, b in zip(keys, keys[1:])), path


TestWriteBackOverSpillMerge = WriteBackOverSpillMerge.TestCase
TestWriteBackOverSpillMerge.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


# -- keys that cannot be ordered ----------------------------------------------


def test_incomparable_keys_raise_where_order_is_needed():
    store = SpillMergeStore(concat, spill_threshold_bytes=1 << 20)
    store.put(1, (1,))
    store.put("a", (2,))  # a hash buffer does not compare on the way in
    with pytest.raises(TypeError):
        list(store.items())
    with pytest.raises(TypeError):
        store._spill()
    store.finalize()
    with pytest.raises(TypeError):
        list(store.items())
    store.close()


class _MixedKeyMapper(Mapper):
    """Emits ``1`` and ``"a"`` for every input record."""

    def map(self, key, value, context):
        context.emit(1, 1)
        context.emit("a", 1)


def _to_reducer_zero(key, num_reducers):
    return 0


@pytest.mark.parametrize(
    "engine",
    [LocalEngine, lambda: ThreadedEngine(map_slots=2)],
    ids=["local", "threaded"],
)
def test_incomparable_keys_fail_the_reduce_task(engine):
    """The ``TypeError`` now surfaces at the first cut or the final merge,
    not at ``put`` — it must still fail the task (and so the job), never
    be swallowed into an unsorted or partial output."""
    job, pairs = demo_job_and_input(
        "sort",
        ExecutionMode.BARRIERLESS,
        records=40,
        num_reducers=1,
        store="spillmerge",
        seed=1,
    )
    job.mapper_factory = _MixedKeyMapper
    job.partition_fn = _to_reducer_zero
    with pytest.raises(TypeError, match="not supported between"):
        engine().run(job, pairs)

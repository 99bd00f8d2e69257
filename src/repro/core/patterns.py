"""Barrier-less reducer scaffolds, one per Reduce class of §4.

The paper converts each of its seven application classes to barrier-less
form by hand (Algorithm 2 shows the WordCount conversion).  This module
factors the recurring conversion patterns into reusable base classes so a
new application only supplies its fold/score/post-process logic — the
"minimal additional programmer effort" claim of the paper, made concrete.

Every scaffold derives from :class:`BarrierlessReducer`, whose ``run``
implements the Algorithm 2 loop: initialise a partial result on first
sight of a key, fold each incoming singleton record into it via the
partial-result store's read-modify-update cycle, and emit final output from
an ordered sweep of the store once input is exhausted.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable

from repro.core.api import ReduceContext, Reducer
from repro.core.partial import PartialResultStore
from repro.core.types import Key, ReduceClass, Value


class BarrierlessReducer(Reducer):
    """Base class for reducers that run without the stage barrier.

    The engine attaches a :class:`PartialResultStore` before calling
    ``run`` (via :meth:`attach_store`); the store technique (in-memory /
    spill-and-merge / KV store) is thereby invisible to application code.
    """

    #: Which of the paper's seven classes this reducer belongs to.
    reduce_class: ReduceClass = ReduceClass.AGGREGATION

    #: Whether the store is the reducer's *complete* state, making
    #: checkpoint/resume sound.  True for the default ``run`` shape (fold
    #: everything, emit only at the end); subclasses that emit output
    #: during folding or keep state outside the store must set False —
    #: restoring their store would silently drop already-written output.
    checkpointable: bool = True

    def __init__(self) -> None:
        self._store: PartialResultStore | None = None

    # -- store plumbing ----------------------------------------------------

    def attach_store(self, store: PartialResultStore) -> None:
        """Give this reducer its partial-result store (engine-called).

        ``self.store`` is a plain instance attribute from here on: every
        application's ``reduce`` reads it twice per record.
        """
        self._store = store
        self.store = store

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails, i.e. for ``store``
        # before ``attach_store``.
        if name == "store":
            raise RuntimeError(
                "no partial-result store attached; engines must call "
                "attach_store() before run()"
            )
        raise AttributeError(name)

    # -- application hooks ---------------------------------------------------

    def initial_partial(self, key: Key) -> Value:
        """Partial result for a key seen for the first time."""
        return None

    @abc.abstractmethod
    def fold(self, key: Key, partial: Value, value: Value) -> Value:
        """Fold one incoming value into the key's partial result."""

    def emit_final(self, key: Key, partial: Value, context: ReduceContext) -> None:
        """Write final output for one key once all input has been seen."""
        context.write(key, partial)

    # -- framework ----------------------------------------------------------

    def reduce(self, key: Key, values: Iterable[Value], context: ReduceContext) -> None:
        """Read-modify-update cycle for one record (or combiner group)."""
        partial = self.store.get(key)
        for value in values:
            partial = self.fold(key, partial, value)
        self.store.put(key, partial)

    def run(self, context: ReduceContext) -> None:
        """Algorithm 2: per-record reduce, then ordered final sweep."""
        self.setup(context)
        store = self.store
        while context.next_key():
            key = context.current_key()
            if not store.contains(key):
                store.put(key, self.initial_partial(key))
            self.reduce(key, context.current_values(), context)
        store.finalize()
        for key, partial in store.items():
            self.emit_final(key, partial, context)
        self.cleanup(context)


class IdentityBarrierlessReducer(BarrierlessReducer):
    """Identity class (§4.1): write records straight through, no state.

    Distributed Grep is the exemplar.  There are no partial results, so
    ``run`` bypasses the store entirely — identical code runs with and
    without the barrier, which is exactly the paper's observation.
    """

    reduce_class = ReduceClass.IDENTITY

    #: Output is written during folding, so a store snapshot does not
    #: capture the reducer's real progress — resume would drop output.
    checkpointable = False

    def fold(self, key: Key, partial: Value, value: Value) -> Value:  # pragma: no cover
        raise AssertionError("identity reducers keep no partial results")

    def run(self, context: ReduceContext) -> None:
        self.setup(context)
        while context.next_key():
            key = context.current_key()
            for value in context.current_values():
                context.write(key, value)
        self.cleanup(context)


class AggregationReducer(BarrierlessReducer):
    """Aggregation class (§4.3): commutative fold per key, O(keys) state."""

    reduce_class = ReduceClass.AGGREGATION

    def __init__(
        self,
        fold_fn: Callable[[Value, Value], Value],
        initial: Value = 0,
    ) -> None:
        super().__init__()
        self._fold_fn = fold_fn
        self._initial = initial

    def initial_partial(self, key: Key) -> Value:
        return self._initial

    def fold(self, key: Key, partial: Value, value: Value) -> Value:
        return self._fold_fn(partial, value)


class SelectionReducer(BarrierlessReducer):
    """Selection class (§4.4): keep the best ``k`` values per key.

    Maintains a size-``k`` ordered list per key (the paper uses a TreeMap of
    linked lists), inserting each arriving value by its score and evicting
    the worst when the list overflows — a running top-k.
    """

    reduce_class = ReduceClass.SELECTION

    def __init__(
        self,
        k: int,
        score: Callable[[Value], Any],
        largest: bool = False,
    ) -> None:
        super().__init__()
        if k <= 0:
            raise ValueError("k must be positive")
        self._k = k
        self._score = score
        self._largest = largest

    def initial_partial(self, key: Key) -> list[Value]:
        return []

    def fold(self, key: Key, partial: list[Value], value: Value) -> list[Value]:
        score = self._score(value)
        if self._largest:
            # Keep the k largest: insert in descending-score order.
            position = 0
            while position < len(partial) and self._score(partial[position]) >= score:
                position += 1
        else:
            position = 0
            while position < len(partial) and self._score(partial[position]) <= score:
                position += 1
        if position < self._k:
            partial = list(partial)
            partial.insert(position, value)
            if len(partial) > self._k:
                partial.pop()
        return partial

    def emit_final(self, key: Key, partial: list[Value], context: ReduceContext) -> None:
        for value in partial:
            context.write(key, value)


class PostReductionReducer(BarrierlessReducer):
    """Post-reduction processing class (§4.5): accumulate, then transform.

    ``accumulate`` builds a temporary structure per key (e.g. a set of user
    ids); ``post_process`` turns the completed structure into the key's
    final output value (e.g. the set's size).
    """

    reduce_class = ReduceClass.POST_REDUCTION

    @abc.abstractmethod
    def make_structure(self, key: Key) -> Any:
        """Fresh temporary data structure for a new key."""

    @abc.abstractmethod
    def accumulate(self, structure: Any, value: Value) -> Any:
        """Fold one value into the temporary structure; return it."""

    @abc.abstractmethod
    def post_process(self, key: Key, structure: Any) -> Value:
        """Compute the final output value from the finished structure."""

    def initial_partial(self, key: Key) -> Any:
        return self.make_structure(key)

    def fold(self, key: Key, partial: Any, value: Value) -> Any:
        return self.accumulate(partial, value)

    def emit_final(self, key: Key, partial: Any, context: ReduceContext) -> None:
        context.write(key, self.post_process(key, partial))


class CrossKeyWindowReducer(BarrierlessReducer):
    """Cross-key class (§4.6): operate over a sliding window of keys.

    Records accumulate into a window of at most ``window_size`` entries;
    when the window fills, :meth:`process_window` consumes it and its
    outputs are written immediately — so partial-result memory stays
    O(window_size) regardless of input size, and identical code runs with
    and without the barrier (the genetic-algorithm case in Table 2 shows a
    zero-line conversion for exactly this reason).
    """

    reduce_class = ReduceClass.CROSS_KEY

    #: Windows are processed (and written) mid-stream and live outside
    #: the store, so a store snapshot misses both — not resumable.
    checkpointable = False

    def __init__(self, window_size: int) -> None:
        super().__init__()
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self._window: list[tuple[Key, Value]] = []

    @abc.abstractmethod
    def process_window(
        self, window: list[tuple[Key, Value]]
    ) -> Iterable[tuple[Key, Value]]:
        """Consume one full window, yielding output records."""

    def fold(self, key: Key, partial: Value, value: Value) -> Value:  # pragma: no cover
        raise AssertionError("cross-key reducers use the window, not the store")

    def run(self, context: ReduceContext) -> None:
        self.setup(context)
        while context.next_key():
            key = context.current_key()
            for value in context.current_values():
                self._window.append((key, value))
                if len(self._window) >= self.window_size:
                    for out_key, out_value in self.process_window(self._window):
                        context.write(out_key, out_value)
                    self._window = []
        if self._window:
            for out_key, out_value in self.process_window(self._window):
                context.write(out_key, out_value)
            self._window = []
        self.cleanup(context)


class RunningAggregateReducer(Reducer):
    """Single-reducer aggregation class (§4.7): O(1) running state.

    Maintains constant-size running sums across *all* records irrespective
    of key (the Black-Scholes mean/standard-deviation computation).  No
    partial-result store is needed, so the same code serves both modes.
    """

    reduce_class = ReduceClass.SINGLE_REDUCER

    @abc.abstractmethod
    def initial_state(self) -> Any:
        """Fresh running state (e.g. zeroed sums)."""

    @abc.abstractmethod
    def update(self, state: Any, key: Key, value: Value) -> Any:
        """Fold one record into the running state; return it."""

    @abc.abstractmethod
    def finish(self, state: Any) -> Iterable[tuple[Key, Value]]:
        """Produce final output records from the completed state."""

    def run(self, context: ReduceContext) -> None:
        self.setup(context)
        state = self.initial_state()
        while context.next_key():
            key = context.current_key()
            for value in context.current_values():
                state = self.update(state, key, value)
        for out_key, out_value in self.finish(state):
            context.write(out_key, out_value)
        self.cleanup(context)


class SortingReducer(BarrierlessReducer):
    """Sorting class (§4.2): re-sort inside the reducer.

    Without the barrier, the framework no longer sorts; the reducer keeps a
    per-key multiplicity count in an ordered store (duplicate values must
    not consume extra memory — §6.1.1) and emits each key ``count`` times in
    key order at the end.
    """

    reduce_class = ReduceClass.SORTING

    def initial_partial(self, key: Key) -> int:
        return 0

    def fold(self, key: Key, partial: int, value: Value) -> int:
        return partial + 1

    def emit_final(self, key: Key, partial: int, context: ReduceContext) -> None:
        for _ in range(partial):
            context.write(key, key)

"""Public programming API: mappers, reducers, combiners and contexts.

The API intentionally mirrors Hadoop 0.20's ``Mapper``/``Reducer`` classes
(which the paper modifies) so that the *delta* between an original and a
barrier-less application is visible in this codebase the same way Table 2
measures it: an application opts into barrier-less execution by overriding
``Reducer.run`` (or by subclassing one of the per-class helpers in
``repro.core.patterns``).
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.types import (
    Counters,
    Key,
    Record,
    Value,
)


class MapContext:
    """Context handed to ``Mapper.map``; collects emitted records.

    Emission is buffered per-context by default; the engine drains
    ``drain()`` after each input split (optionally through a combiner) and
    routes records to partitions.  With a ``sink`` the context's ``emit``
    *is* the sink (a map-output collector or sort-and-spill buffer): no
    ``Record`` is built and no counter touched per emission, and whoever
    owns the sink adds ``map.output_records`` once, when the task ends.
    """

    def __init__(
        self,
        counters: Counters | None = None,
        sink: Callable[[Key, Value], None] | None = None,
    ):
        self.counters = counters if counters is not None else Counters()
        self._emitted: list[Record] = []
        if sink is not None:
            self.emit = sink  # type: ignore[method-assign]

    def emit(self, key: Key, value: Value) -> None:
        """Emit one intermediate record."""
        self._emitted.append(Record(key, value))
        self.counters.increment("map.output_records")

    def drain(self) -> list[Record]:
        """Remove and return everything emitted since the last drain."""
        out = self._emitted
        self._emitted = []
        return out


class ReduceContext:
    """Context handed to ``Reducer``; collects final output records.

    In barrier mode the framework exposes grouped input through
    ``next_key``/``current_key``/``current_values`` exactly like Hadoop's
    ``Context`` (the paper's Algorithm 1/2 pseudo-code drives this
    interface).  Barrier-less input goes through the same interface on
    :class:`BatchReduceContext`.
    """

    def __init__(
        self,
        grouped: Iterable[tuple[Key, Iterable[Value]]],
        counters: Counters | None = None,
    ):
        self.counters = counters if counters is not None else Counters()
        self._grouped = iter(grouped)
        self._current: tuple[Key, Iterable[Value]] | None = None
        self._written: list[Record] = []

    # -- input side -------------------------------------------------------

    def next_key(self) -> bool:
        """Advance to the next key group; False when input is exhausted."""
        try:
            self._current = next(self._grouped)
            return True
        except StopIteration:
            self._current = None
            return False

    def current_key(self) -> Key:
        """Key of the current group (only valid after ``next_key``)."""
        if self._current is None:
            raise RuntimeError("no current key; call next_key() first")
        return self._current[0]

    def current_values(self) -> Iterable[Value]:
        """Values of the current group."""
        if self._current is None:
            raise RuntimeError("no current values; call next_key() first")
        return self._current[1]

    # -- output side ------------------------------------------------------

    def write(self, key: Key, value: Value) -> None:
        """Write one final output record."""
        self._written.append(Record(key, value))
        self.counters.increment("reduce.output_records")

    def drain(self) -> list[Record]:
        """Remove and return all records written so far."""
        out = self._written
        self._written = []
        return out


def group_by_key(
    pairs: Iterable[tuple[Key, Value]],
) -> list[tuple[Key, list[Value]]]:
    """One ``(key, values)`` group per distinct key, in one pass.

    Keys in first-arrival order, values in arrival order within a key:
    what a combiner is handed for one map task's output, and what a
    grouped :class:`BatchReduceContext` presents for one arriving batch.
    ``pairs`` may be ``(key, value)`` tuples or :class:`Record` objects.
    """
    groups: dict[Key, list[Value]] = {}
    for key, value in pairs:
        values = groups.get(key)
        if values is None:
            groups[key] = [value]
        else:
            values.append(value)
    return list(groups.items())


def _one_record_groups(
    pairs: Iterable[tuple[Key, Value]],
) -> list[tuple[Key, list[Value]]]:
    return [(key, [value]) for key, value in pairs]


class BatchReduceContext(ReduceContext):
    """Barrier-less reduce input: whole record batches, folded as they come.

    ``reduce`` is "only passed a single record, as opposed to a key and
    all its corresponding values" (§3.1): by default every record of
    every batch is presented as its own single-value group, in arrival
    order.  With ``grouped`` each batch is presented as one group per
    distinct key (:func:`group_by_key`) — the relaxation a combiner
    already makes, never across a batch, so the batch boundary and
    everything keyed to it stay where they were.
    :func:`repro.engine.base.make_reduce_context` decides which.

    A batch is any sequence of ``(key, value)`` pairs — decoded wire
    frames arrive as plain tuples, a :class:`Record` unpacks the same —
    and the engine hands the batches over as they are, so ``next_key``
    is an index bump and everything the engine owes per batch (counters,
    flow control, the store write-back, checkpoint cuts) is paid by the
    batch source between two batches.  ``on_record`` is called before
    each step — the fault injectors' per-record hook, which is why
    ``make_reduce_context`` never groups a hooked context; without one
    the path makes no per-record call.
    """

    def __init__(
        self,
        batches: Iterable[Sequence[tuple[Key, Value]]],
        counters: Counters | None = None,
        on_record: Callable[[], None] | None = None,
        grouped: bool = False,
    ):
        super().__init__((), counters)
        self._batches = iter(batches)
        self._steps = group_by_key if grouped else _one_record_groups
        self._batch: list[tuple[Key, list[Value]]] = []
        self._size = 0
        self._index = 0
        self._on_record = on_record

    def next_key(self) -> bool:
        index = self._index + 1
        while index >= self._size:
            # Asking for the next batch is what tells the source that
            # this one is fully folded.
            batch = next(self._batches, None)
            if batch is None:
                self._batch, self._size, self._current = [], 0, None
                return False
            self._batch = self._steps(batch)
            self._size, index = len(self._batch), 0
        self._index = index
        if self._on_record is not None:
            self._on_record()
        self._current = self._batch[index]
        return True


class Mapper(abc.ABC):
    """User map logic.  Subclass and implement :meth:`map`."""

    def setup(self, context: MapContext) -> None:
        """Called once per map task before any input."""

    @abc.abstractmethod
    def map(self, key: Key, value: Value, context: MapContext) -> None:
        """Process one input record, emitting zero or more records."""

    def cleanup(self, context: MapContext) -> None:
        """Called once per map task after all input."""


class Reducer:
    """User reduce logic.

    The default :meth:`run` reproduces Hadoop's: one :meth:`reduce` call per
    key with all of its values.  A barrier-less application overrides
    :meth:`run` (and usually :meth:`reduce`) to maintain partial results, as
    in Algorithm 2 of the paper.  Engines call :meth:`run`, never
    :meth:`reduce` directly, so the override point is identical to Hadoop's.
    """

    def setup(self, context: ReduceContext) -> None:
        """Called once per reduce task before any input."""

    def reduce(self, key: Key, values: Iterable[Value], context: ReduceContext) -> None:
        """Process one key group.  Default is the identity reducer."""
        for value in values:
            context.write(key, value)

    def cleanup(self, context: ReduceContext) -> None:
        """Called once per reduce task after all input."""

    def run(self, context: ReduceContext) -> None:
        """Drive the reduce loop.  Override for barrier-less semantics."""
        self.setup(context)
        while context.next_key():
            self.reduce(context.current_key(), context.current_values(), context)
        self.cleanup(context)


class Combiner(abc.ABC):
    """Map-side pre-aggregation, as in classic MapReduce.

    ``combine`` receives one key and all values buffered map-side and
    returns the combined values to forward.  The barrier-less spill/merge
    store reuses the same associative operation as its merge function.
    """

    @abc.abstractmethod
    def combine(self, key: Key, values: list[Value]) -> list[Value]:
        """Collapse buffered map-side values for ``key``."""


class FunctionCombiner(Combiner):
    """Adapter turning a binary merge function into a combiner."""

    def __init__(self, merge: Callable[[Value, Value], Value]):
        self._merge = merge

    def combine(self, key: Key, values: list[Value]) -> list[Value]:
        if not values:
            return []
        acc = values[0]
        for value in values[1:]:
            acc = self._merge(acc, value)
        return [acc]


def group_sorted_records(
    records: Iterable[Record],
) -> Iterator[tuple[Key, list[Value]]]:
    """Group consecutive records with equal keys (input must be key-sorted).

    This is the grouping step the barrier path performs after its merge
    sort (Figure 2(c) of the paper).
    """
    current_key: Key = None
    bucket: list[Value] | None = None
    for record in records:
        if bucket is None or record.key != current_key:
            if bucket is not None:
                yield current_key, bucket
            current_key = record.key
            bucket = [record.value]
        else:
            bucket.append(record.value)
    if bucket is not None:
        yield current_key, bucket

"""Shuffle-level fault tolerance: epoch-tagged re-fetch, backoff, dedup.

The paper claims barrier removal "preserves the fault tolerance of the
original MapReduce model" (§8) but leaves the hard case unexamined: with
the barrier gone, a mapper or fetch failure can occur *after* a reducer
has already folded part of that mapper's output into its partial-result
store, and a reducer crash loses the store itself.  This module makes
those recovery paths real for the live engines:

- :class:`MapOutputService` holds every mapper's partitioned output as
  **epoch-tagged, per-mapper sequenced batch streams** (the in-memory
  analogue of Hadoop's mapper-local map-output files).  A lost output is
  regenerated by re-executing the map task, bumping the epoch.
- :func:`run_fetch_stream` is the reducer-side fetch protocol: capped
  exponential backoff with deterministic jitter on transient failures,
  a per-fetch timeout for stalls, and stream restart on an epoch change.
- :class:`FetchLedger` deduplicates re-fetched batches by
  ``(mapper, sequence)`` so a record is never double-consumed in
  barrier-less mode, and accounts for every delivered record:
  ``fetched == consumed + deduped`` holds at all times.
- :class:`FetchFaultInjector` decides — deterministically, from a seeded
  hash, independent of thread scheduling — which fetches fail, stall or
  drop, which map outputs are lost, and which reducers crash.

Barrier and barrier-less reducers recover differently, on purpose: a
barrier reducer that sees a mapper's epoch change simply discards that
mapper's buffered (not yet reduced) partition and re-fetches it, while a
barrier-less reducer has already consumed part of the stream and must
dedup the re-fetch instead — the asymmetry the §8 claim glosses over.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.dfs.wire import WireBatch, account_batches
from repro.engine.faults import TaskAttemptError, stable_fraction
from repro.memory.checkpoint import CheckpointPolicy

__all__ = [
    "BackoffPolicy",
    "CheckpointPolicy",
    "FetchAttemptError",
    "FetchFaultInjector",
    "FetchLedger",
    "FetchPermanentlyFailedError",
    "FetchTimeoutError",
    "MapOutputLostError",
    "MapOutputService",
    "RecoveryConfig",
    "ReducerCrashError",
    "reduce_record_hook",
    "run_fetch_stream",
    "stable_fraction",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import CounterRegistry, Tracer
    from repro.obs.trace import Span


# ---------------------------------------------------------------------------
# failure classes
# ---------------------------------------------------------------------------


class FetchAttemptError(RuntimeError):
    """One fetch attempt failed transiently (retryable)."""


class FetchTimeoutError(FetchAttemptError):
    """A fetch attempt stalled past the per-fetch timeout (retryable)."""


class FetchPermanentlyFailedError(RuntimeError):
    """A single batch exhausted the fetch-attempt budget; the job fails."""

    def __init__(self, reducer: int, mapper: int, seq: int, attempts: int):
        self.reducer = reducer
        self.mapper = mapper
        self.seq = seq
        self.attempts = attempts
        super().__init__(
            f"fetch reduce-{reducer} <- map-{mapper} seq {seq} failed "
            f"{attempts} attempts"
        )


class MapOutputLostError(RuntimeError):
    """A mapper's output is gone and no regenerator is installed."""


class ReducerCrashError(TaskAttemptError):
    """An injected reducer crash mid-consumption (restartable)."""


# ---------------------------------------------------------------------------
# backoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(key, attempt)`` grows as ``base * multiplier**attempt`` up to
    ``cap``, scaled by a jitter factor in [0.5, 1.0) derived from a
    stable hash of ``(seed, key, attempt)`` — two runs with the same seed
    back off identically, and no two fetch streams synchronise their
    retries (the thundering-herd prevention jitter exists for).
    """

    base_s: float = 0.001
    cap_s: float = 0.05
    multiplier: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.cap_s < self.base_s:
            raise ValueError("need 0 <= base_s <= cap_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` of ``key``."""
        raw = min(self.cap_s, self.base_s * self.multiplier ** max(0, attempt))
        return raw * (0.5 + 0.5 * stable_fraction(self.seed, key, attempt))


@dataclass(frozen=True)
class RecoveryConfig:
    """Engine-level tuning of the shuffle recovery protocol."""

    #: Per-fetch stall budget; a slower fetch counts as a timeout.
    fetch_timeout_s: float = 1.0
    #: Attempt budget per (mapper, seq) batch before the job fails.
    max_fetch_attempts: int = 8
    backoff: BackoffPolicy = BackoffPolicy()
    #: Upper bound on waiting for a mapper to publish (deadlock guard).
    publish_timeout_s: float = 60.0
    #: When to snapshot a barrier-less reducer's partial-result store
    #: (None or a trigger-less policy disables checkpointing).
    checkpoint: CheckpointPolicy | None = None
    #: Where snapshots live (one subdirectory per reducer).  ``None``
    #: with an enabled policy makes the engine own a temp directory.
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_fetch_attempts <= 0:
            raise ValueError("max_fetch_attempts must be positive")

    @property
    def checkpoint_enabled(self) -> bool:
        """Whether a checkpoint policy with at least one trigger is set."""
        return self.checkpoint is not None and self.checkpoint.enabled


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


@dataclass
class FetchFaultInjector:
    """Deterministic shuffle-level fault policy.

    Targeted knobs (for precise unit tests) fire on the *first* attempt
    of the *first* batch of a (reducer, mapper) stream; probabilistic
    knobs derive every decision from a stable hash of
    ``(seed, kind, reducer, mapper, seq, attempt)``, so outcomes are
    independent of thread scheduling.  Probabilistic faults only fire
    while ``attempt < max_injected_attempts`` so seeded soaks always
    converge within the fetch-attempt budget.
    """

    #: (reducer, mapper) streams whose first fetch attempt fails.
    fail_first_fetch_of: frozenset[tuple[int, int]] = frozenset()
    #: (reducer, mapper) streams whose first fetch attempt stalls.
    stall_first_fetch_of: frozenset[tuple[int, int]] = frozenset()
    #: (reducer, mapper) streams whose first batch is dropped in flight.
    drop_first_fetch_of: frozenset[tuple[int, int]] = frozenset()
    fetch_failure_probability: float = 0.0
    stall_probability: float = 0.0
    drop_probability: float = 0.0
    #: Injected stall duration; a stall longer than the engine's
    #: ``fetch_timeout_s`` is observed as a fetch timeout.
    stall_seconds: float = 0.08
    #: mapper -> number of successful batch serves after which that
    #: mapper's output is lost (forcing re-execution + epoch bump).
    lose_output_after: Mapping[int, int] = field(default_factory=dict)
    #: reducer -> number of consumed records after which it crashes once.
    crash_reducer_after: Mapping[int, int] = field(default_factory=dict)
    seed: int = 0
    max_injected_attempts: int = 2

    def __post_init__(self) -> None:
        for name in ("fetch_failure_probability", "stall_probability",
                     "drop_probability"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        self._lock = threading.Lock()
        self._fired: set[tuple] = set()
        self.counts: dict[str, int] = {}

    # -- bookkeeping ------------------------------------------------------

    def _count(self, kind: str) -> None:
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1

    def _fire_once(self, key: tuple) -> bool:
        """True exactly the first time ``key`` is seen."""
        with self._lock:
            if key in self._fired:
                return False
            self._fired.add(key)
            return True

    @property
    def injected(self) -> int:
        """Total faults injected, all kinds."""
        with self._lock:
            return sum(self.counts.values())

    # -- decision points --------------------------------------------------

    def _probabilistic(self, kind: str, probability: float,
                       reducer: int, mapper: int, seq: int,
                       attempt: int) -> bool:
        if probability <= 0.0 or attempt >= self.max_injected_attempts:
            return False
        return stable_fraction(
            self.seed, kind, reducer, mapper, seq, attempt
        ) < probability

    def check_fetch(self, reducer: int, mapper: int, seq: int,
                    attempt: int) -> None:
        """Raise :class:`FetchAttemptError` if this attempt should fail."""
        targeted = (
            attempt == 0 and seq == 0
            and (reducer, mapper) in self.fail_first_fetch_of
        )
        if targeted or self._probabilistic(
            "fail", self.fetch_failure_probability, reducer, mapper, seq, attempt
        ):
            self._count("fetch.failures")
            raise FetchAttemptError(
                f"injected fetch failure: reduce-{reducer} <- map-{mapper} "
                f"seq {seq} attempt {attempt}"
            )

    def stall_for(self, reducer: int, mapper: int, seq: int,
                  attempt: int) -> float:
        """Injected transfer stall, in seconds (0.0 = no stall)."""
        targeted = (
            attempt == 0 and seq == 0
            and (reducer, mapper) in self.stall_first_fetch_of
        )
        if targeted or self._probabilistic(
            "stall", self.stall_probability, reducer, mapper, seq, attempt
        ):
            self._count("fetch.stalls")
            return self.stall_seconds
        return 0.0

    def drop_in_flight(self, reducer: int, mapper: int, seq: int,
                       attempt: int) -> bool:
        """Whether this batch is lost mid-transfer (after being served)."""
        targeted = (
            attempt == 0 and seq == 0
            and (reducer, mapper) in self.drop_first_fetch_of
        )
        if targeted or self._probabilistic(
            "drop", self.drop_probability, reducer, mapper, seq, attempt
        ):
            self._count("fetch.drops")
            return True
        return False

    def should_lose_output(self, mapper: int, serves: int) -> bool:
        """Whether mapper's output disappears before serve ``serves``."""
        threshold = self.lose_output_after.get(mapper)
        if threshold is None or serves < threshold:
            return False
        if self._fire_once(("lose", mapper)):
            self._count("map_output.losses")
            return True
        return False

    def check_reduce(self, reducer: int, consumed: int) -> None:
        """Raise :class:`ReducerCrashError` once ``consumed`` records in."""
        threshold = self.crash_reducer_after.get(reducer)
        if threshold is None or consumed < threshold:
            return
        if self._fire_once(("crash", reducer)):
            self._count("reducer.crashes")
            raise ReducerCrashError(
                f"injected reducer crash: reduce-{reducer} after "
                f"{consumed} records"
            )


def reduce_record_hook(
    injector: FetchFaultInjector | None, reducer: int
) -> Callable[[], None] | None:
    """The per-record ``on_record`` hook of a barrier-less reduce context.

    Reduce input is delivered in batches, but the fault-injection
    contract is per record: ``check_reduce(reducer, consumed)`` runs
    before each record is presented, with the number already consumed
    (crash thresholds, the cluster worker's SIGKILL and throttle
    injectors all key on it).  No injector, no hook — and then the
    reduce path makes no per-record call at all.
    """
    if injector is None:
        return None
    consumed = itertools.count()

    def on_record() -> None:
        injector.check_reduce(reducer, next(consumed))

    return on_record


# ---------------------------------------------------------------------------
# the map-output service
# ---------------------------------------------------------------------------


class _MapperOutput:
    """One mapper's published output: epoch, per-reducer batch lists."""

    __slots__ = ("epoch", "batches", "event", "lock", "serves", "lost")

    def __init__(self) -> None:
        self.epoch = -1
        self.batches: dict[int, list[WireBatch]] | None = None
        self.event = threading.Event()
        self.lock = threading.Lock()
        self.serves = 0
        self.lost = False


class MapOutputService:
    """Epoch-tagged, per-mapper sequenced map-output streams.

    The in-memory analogue of Hadoop's mapper-local output files: each
    mapper :meth:`publish`-es its partitioned output once per execution
    *epoch* (0 for the first successful attempt, +1 per re-execution),
    and reducers :meth:`read` it batch by batch.  Losing an output
    (injected node failure) makes subsequent reads regenerate it through
    the engine-installed ``regenerator`` — re-running the map task —
    under a new epoch, which tells in-flight fetch streams to restart.
    """

    def __init__(
        self,
        num_maps: int,
        num_reducers: int,
        injector: FetchFaultInjector | None = None,
        counters: "CounterRegistry | None" = None,
    ) -> None:
        self.num_maps = num_maps
        self.num_reducers = num_reducers
        self._injector = injector
        self._counters = counters
        self._outputs = [_MapperOutput() for _ in range(num_maps)]
        self._recover_locks = [threading.Lock() for _ in range(num_maps)]
        #: Re-executes one map task, returning its batches as for ``publish``.
        self.regenerator: Callable[[int], dict[int, list[WireBatch]]] | None = None

    def publish(self, mapper: int, batches: Mapping[int, list[WireBatch]]) -> int:
        """Store one mapper's output under the next epoch; returns it.

        ``batches`` is what :func:`~repro.engine.base.run_map_task_encoded`
        returned: per reducer, sealed :class:`~repro.dfs.wire.WireBatch`
        frames, whose byte totals are accounted here, where the bytes hit
        the wire.  The fetch protocol and ledger downstream see only
        ``len(batch)``, the record count.
        """
        out = self._outputs[mapper]
        if self._counters is not None:
            account_batches(
                self._counters,
                [b for stream in batches.values() for b in stream],
            )
        with out.lock:
            out.epoch += 1
            out.batches = batches
            out.lost = False
            epoch = out.epoch
        out.event.set()
        return epoch

    def epoch_of(self, mapper: int) -> int:
        """Current epoch of a mapper's output (-1 = never published)."""
        out = self._outputs[mapper]
        with out.lock:
            return out.epoch

    def lose_output(self, mapper: int) -> None:
        """Drop a mapper's output (simulated local-disk loss)."""
        out = self._outputs[mapper]
        with out.lock:
            out.lost = True
        out.event.clear()
        if self._counters is not None:
            self._counters.increment("shuffle.map_output_lost")

    def wait_available(
        self,
        mapper: int,
        timeout: float,
        cancelled: threading.Event | None = None,
    ) -> None:
        """Block until the mapper's output is published (or cancelled)."""
        out = self._outputs[mapper]
        deadline = time.monotonic() + timeout
        while True:
            if cancelled is not None and cancelled.is_set():
                return
            if out.event.wait(timeout=0.01):
                return
            if time.monotonic() >= deadline:
                raise FetchTimeoutError(
                    f"map-{mapper} output not published within {timeout}s"
                )

    def read(self, mapper: int, reducer: int, seq: int) -> tuple[int, WireBatch | None]:
        """Serve batch ``seq`` of a stream; ``(epoch, None)`` = stream end.

        A lost output is regenerated (once, under a per-mapper lock) by
        re-executing the map task; callers then see the bumped epoch and
        restart their stream from sequence 0.
        """
        out = self._outputs[mapper]
        while True:
            with out.lock:
                if out.batches is not None and not out.lost:
                    injector = self._injector
                    if injector is not None and injector.should_lose_output(
                        mapper, out.serves
                    ):
                        out.lost = True
                        out.event.clear()
                        if self._counters is not None:
                            self._counters.increment("shuffle.map_output_lost")
                    else:
                        batches = out.batches.get(reducer, [])
                        batch = batches[seq] if seq < len(batches) else None
                        if batch is not None:
                            out.serves += 1
                        return out.epoch, batch
            self._recover(mapper)

    def _recover(self, mapper: int) -> None:
        """Re-execute a lost map task and republish under a new epoch."""
        out = self._outputs[mapper]
        with self._recover_locks[mapper]:
            with out.lock:
                lost = out.lost or out.batches is None
            if not lost:
                return  # another fetch thread already recovered it
            if self.regenerator is None:
                raise MapOutputLostError(
                    f"map-{mapper} output lost and no regenerator installed"
                )
            self.publish(mapper, self.regenerator(mapper))


# ---------------------------------------------------------------------------
# reducer-side dedup ledger
# ---------------------------------------------------------------------------


class FetchLedger:
    """Per-reduce-attempt accounting and (mapper, sequence) dedup.

    Every batch a fetch stream delivers goes through :meth:`admit`, which
    classifies each record exactly once, maintaining the invariant
    ``fetched == consumed + deduped``:

    - *consumed* — passed on to the reduce path (barrier-less counts at
      admit; barrier counts at :meth:`seal`, when the sort buffer is
      final, because a buffered batch can still be discarded by
      :meth:`reset` if its mapper's epoch changes);
    - *deduped* — discarded as an already-consumed ``(mapper, seq)``
      duplicate, or (barrier) discarded wholesale by an epoch reset.
    """

    def __init__(
        self,
        counters: "CounterRegistry | None" = None,
        consume_on_admit: bool = True,
    ) -> None:
        self._counters = counters
        self._consume_on_admit = consume_on_admit
        self._lock = threading.Lock()
        self._next_seq: dict[int, int] = {}
        self.fetched = 0
        self.consumed = 0
        self.deduped = 0

    def _bump(self, name: str, amount: int) -> None:
        if self._counters is not None and amount:
            self._counters.increment(name, amount)

    def admit(self, mapper: int, seq: int, batch: WireBatch) -> WireBatch | None:
        """Accept batch ``seq`` of a mapper's stream, or ``None`` if dup."""
        with self._lock:
            expected = self._next_seq.get(mapper, 0)
            self.fetched += len(batch)
            self._bump("shuffle.records.fetched", len(batch))
            if seq < expected:
                self.deduped += len(batch)
                self._bump("shuffle.records.deduped", len(batch))
                return None
            if seq > expected:
                raise RuntimeError(
                    f"fetch stream gap: map-{mapper} seq {seq}, "
                    f"expected {expected}"
                )
            self._next_seq[mapper] = expected + 1
            if self._consume_on_admit:
                self.consumed += len(batch)
                self._bump("shuffle.records.consumed", len(batch))
            return batch

    def reset(self, mapper: int, discarded_records: int) -> None:
        """Barrier-mode epoch change: the buffered partition was cleared."""
        with self._lock:
            self._next_seq[mapper] = 0
            self.deduped += discarded_records
            self._bump("shuffle.records.deduped", discarded_records)

    def seed(self, mapper: int, next_seq: int) -> None:
        """Checkpoint resume: batches below ``next_seq`` are already folded.

        Seeding moves the dedup horizon without touching the fetched/
        consumed totals — a restored record was never re-fetched, so it
        must not count as shuffle traffic.  If the mapper's epoch later
        restarts, re-served batches below the horizon dedup exactly like
        any other duplicate.
        """
        with self._lock:
            self._next_seq[mapper] = next_seq

    def seal(self, total_records: int) -> None:
        """Barrier mode: the final (sorted) buffer contents are consumed."""
        with self._lock:
            self.consumed += total_records
            self._bump("shuffle.records.consumed", total_records)


# ---------------------------------------------------------------------------
# the fetch protocol
# ---------------------------------------------------------------------------


def _fetch_once(
    service: MapOutputService,
    reducer: int,
    mapper: int,
    seq: int,
    attempt: int,
    config: RecoveryConfig,
    injector: FetchFaultInjector | None,
) -> tuple[int, WireBatch | None]:
    """One fetch attempt, on the fetching thread.

    Raises :class:`FetchAttemptError` / :class:`FetchTimeoutError` for
    the retry loop; an injected stall sleeps at most ``fetch_timeout_s``
    and, if it is longer, is observed as a timeout.
    """
    if injector is not None:
        injector.check_fetch(reducer, mapper, seq, attempt)
        stall = injector.stall_for(reducer, mapper, seq, attempt)
        if stall > 0.0:
            time.sleep(min(stall, config.fetch_timeout_s))
            if stall > config.fetch_timeout_s:
                raise FetchTimeoutError(
                    f"fetch reduce-{reducer} <- map-{mapper} seq {seq} "
                    f"stalled {stall:.3f}s (budget {config.fetch_timeout_s}s)"
                )
    return service.read(mapper, reducer, seq)


def run_fetch_stream(
    service: MapOutputService,
    mapper: int,
    reducer: int,
    ledger: FetchLedger,
    deliver: Callable[[WireBatch, int, int, int], None],
    *,
    config: RecoveryConfig,
    injector: FetchFaultInjector | None = None,
    counters: "CounterRegistry | None" = None,
    tracer: "Tracer | None" = None,
    parent: "Span | int | None" = None,
    cancelled: threading.Event | None = None,
    attempt_base: int = 0,
    on_epoch_change: Callable[[int], None] | None = None,
    start_seq: int = 0,
    start_epoch: int | None = None,
) -> None:
    """Fetch one mapper's partition for one reducer, fault-tolerantly.

    Batches are pulled in sequence order; transient failures retry with
    capped exponential backoff, stalls past the fetch timeout retry as
    timeouts, dropped in-flight batches retry in place, and an epoch
    change (the mapper re-executed) restarts the stream from sequence 0
    — duplicates are discarded by the ledger.  Accepted batches are
    handed to ``deliver(batch, mapper, seq, epoch)``.  ``on_epoch_change``
    lets barrier reducers clear their per-mapper buffer instead
    (discard-and-refetch).  ``attempt_base`` offsets attempt numbering so
    distinct task attempts draw independent injections.
    ``start_seq``/``start_epoch`` resume a stream past a restored
    checkpoint: fetching begins at ``start_seq``, and a served epoch
    differing from ``start_epoch`` triggers the normal epoch-restart path
    (restart from 0, dedup through the seeded ledger).
    """
    span = None
    if tracer is not None:
        span = tracer.open(f"fetch-{mapper}", "op", parent=parent, mapper=mapper)
    retries = timeouts = 0
    try:
        seq = start_seq
        epoch: int | None = start_epoch
        attempt = attempt_base
        while not (cancelled is not None and cancelled.is_set()):
            service.wait_available(
                mapper, timeout=config.publish_timeout_s, cancelled=cancelled
            )
            if cancelled is not None and cancelled.is_set():
                return
            try:
                got_epoch, batch = _fetch_once(
                    service, reducer, mapper, seq, attempt, config, injector
                )
            except FetchTimeoutError:
                timeouts += 1
                if counters is not None:
                    counters.increment("shuffle.fetch.timeouts")
            except FetchAttemptError:
                retries += 1
                if counters is not None:
                    counters.increment("shuffle.fetch.retries")
            else:
                if epoch is not None and got_epoch != epoch:
                    # The mapper re-executed: its new output must be
                    # re-fetched from the start (offsets from the old
                    # epoch are meaningless, as with a fresh Hadoop
                    # attempt's output file).
                    if counters is not None:
                        counters.increment("shuffle.epoch_restarts")
                    if on_epoch_change is not None:
                        on_epoch_change(mapper)
                    epoch = got_epoch
                    seq = 0
                    attempt = attempt_base
                    continue
                epoch = got_epoch
                if injector is not None and injector.drop_in_flight(
                    reducer, mapper, seq, attempt
                ):
                    # Served but lost mid-transfer: retry this batch.
                    if counters is not None:
                        counters.increment("shuffle.fetch.drops")
                    retries += 1
                else:
                    if batch is None:
                        return  # end of stream
                    accepted = ledger.admit(mapper, seq, batch)
                    if accepted is not None and accepted:
                        deliver(accepted, mapper, seq, got_epoch)
                    seq += 1
                    attempt = attempt_base
                    continue
            # Retry path (failure, timeout or drop): back off, try again.
            attempt += 1
            if attempt - attempt_base >= config.max_fetch_attempts:
                raise FetchPermanentlyFailedError(
                    reducer, mapper, seq, attempt - attempt_base
                )
            time.sleep(
                config.backoff.delay(f"fetch-{reducer}-{mapper}-{seq}", attempt)
            )
    finally:
        if span is not None and tracer is not None:
            span.attrs["retries"] = retries
            span.attrs["timeouts"] = timeouts
            tracer.close(span)

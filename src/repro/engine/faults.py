"""Fault injection and task-retry for the local engines.

The paper keeps Hadoop's fault tolerance untouched: "assignment of tasks,
fault-tolerance, scheduling, etc., are handled in the same way as
original Hadoop" (§3.1), and "Our approach preserves the fault tolerance
of the original MapReduce model" (§8).  This module makes that claim
testable: a :class:`FaultInjector` decides which task *attempts* fail,
and :class:`RetryingTaskRunner` re-executes failed attempts up to a
bound, exactly like Hadoop's per-task attempt limit (default 4).

Map and reduce tasks are both pure functions of their input in this
framework (mappers re-read their split; reducers re-consume their
partition's record stream), so re-execution is always safe — including
for barrier-less reducers, whose partial-result store is rebuilt from
scratch on retry.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import JobObservability
    from repro.obs.trace import Span

T = TypeVar("T")

#: Hadoop's default mapred.map.max.attempts / reduce.max.attempts.
DEFAULT_MAX_ATTEMPTS = 4


def stable_fraction(*parts: object) -> float:
    """A uniform-ish fraction in [0, 1) derived only from ``parts``.

    Unlike a draw from a shared RNG stream — whose value depends on how
    many draws other threads made first — this depends on nothing but its
    inputs, so concurrent callers get identical decisions regardless of
    thread scheduling.  Every seeded soak test relies on that property.
    """
    payload = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class TaskAttemptError(RuntimeError):
    """An injected task-attempt failure (a simulated crash)."""


class TaskPermanentlyFailedError(RuntimeError):
    """A task exhausted its attempt budget; the job must fail."""

    def __init__(self, task_id: str, attempts: int):
        self.task_id = task_id
        self.attempts = attempts
        super().__init__(f"task {task_id} failed {attempts} attempts")


@dataclass
class FaultInjector:
    """Deterministic injection policy over (task_id, attempt) pairs.

    Two modes, combinable:

    - ``fail_first_attempt_of`` — a set of task ids whose first attempt
      always crashes (for precise unit tests);
    - ``failure_probability`` — each attempt independently crashes with
      this probability, decided by a seeded hash of ``(task_id, attempt)``
      (for soak tests).  The decision for a given attempt is a pure
      function of the injector's seed, never of which *other* attempts
      ran first, so concurrent engines inject the exact same failures as
      the sequential reference.
    """

    fail_first_attempt_of: frozenset[str] = frozenset()
    failure_probability: float = 0.0
    seed: int = 0
    injected: int = field(default=0, init=False)
    _lock: "threading.Lock" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_probability < 1.0:
            raise ValueError("failure_probability must be in [0, 1)")
        self._lock = threading.Lock()

    def check(self, task_id: str, attempt: int) -> None:
        """Raise :class:`TaskAttemptError` if this attempt should crash.

        Thread-safe: the threaded engine calls this from task workers.
        """
        if attempt == 0 and task_id in self.fail_first_attempt_of:
            with self._lock:
                self.injected += 1
            raise TaskAttemptError(f"injected failure: {task_id} attempt 0")
        if self.failure_probability > 0.0:
            crash = (
                stable_fraction(self.seed, task_id, attempt)
                < self.failure_probability
            )
            if crash:
                with self._lock:
                    self.injected += 1
                raise TaskAttemptError(
                    f"injected failure: {task_id} attempt {attempt}"
                )


@dataclass
class RetryingTaskRunner:
    """Executes task bodies with bounded retry, Hadoop-attempt style.

    With an observability bundle attached, every attempt increments
    ``task.attempts`` (plus ``task.attempts.<kind>``, the kind being the
    task-id prefix, e.g. ``map``/``reduce``), every re-execution
    increments ``task.retries``, and each attempt is recorded as an
    ``attempt`` span under the task's span.
    """

    injector: FaultInjector | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    attempts_made: dict[str, int] = field(default_factory=dict)
    obs: "JobObservability | None" = None

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")

    def _count_attempt(self, task_id: str, attempt: int) -> None:
        counters = self.obs.counters  # type: ignore[union-attr]
        counters.increment("task.attempts")
        counters.increment(f"task.attempts.{task_id.split('-', 1)[0]}")
        if attempt > 0:
            counters.increment("task.retries")

    def run(
        self,
        task_id: str,
        body: Callable[[], T],
        parent: "Span | int | None" = None,
    ) -> T:
        """Run ``body``; on an attempt failure, retry up to the budget.

        Only :class:`TaskAttemptError` (an injected crash) is retried —
        genuine application exceptions propagate immediately, matching
        Hadoop's treatment of deterministic task bugs versus machine
        failures.  ``parent`` is the task span the attempt spans nest
        under.
        """
        obs = self.obs
        for attempt in range(self.max_attempts):
            self.attempts_made[task_id] = attempt + 1
            if obs is not None:
                self._count_attempt(task_id, attempt)
                start = obs.tracer.now()
            try:
                if self.injector is not None:
                    self.injector.check(task_id, attempt)
                result = body()
            except TaskAttemptError:
                if obs is not None:
                    obs.counters.increment("task.failed_attempts")
                    obs.tracer.record(
                        f"{task_id}/attempt-{attempt}",
                        "attempt",
                        start,
                        obs.tracer.now(),
                        parent=parent,
                        crashed=True,
                    )
                continue
            if obs is not None:
                obs.tracer.record(
                    f"{task_id}/attempt-{attempt}",
                    "attempt",
                    start,
                    obs.tracer.now(),
                    parent=parent,
                    crashed=False,
                )
            return result
        raise TaskPermanentlyFailedError(task_id, self.max_attempts)

    @property
    def retried_tasks(self) -> list[str]:
        """Task ids that needed more than one attempt."""
        return [task for task, n in self.attempts_made.items() if n > 1]

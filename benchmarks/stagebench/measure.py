"""The untraced run: set-up, closed-loop timed window, verification.

A *harness* owns one workload's engine (a ``ThreadedEngine``, a warmed
``ClusterRuntime(2)`` or a ``JobServer`` on the cluster backend) and runs
one job at a time on it, comparing each output with the ``LocalEngine``
reference.  The load generator is this process: one client thread per
``Workload.clients``, each sending its next job only when the previous
one has returned (a closed loop).

End-to-end times are *calibrated*: divided by ``pace()``, a fixed loop
timed right around them, because the sandbox's shared cores run 10-30%
slow for minutes at a time (README, "Calibrated seconds").
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
import zlib
from dataclasses import dataclass

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.cluster import ClusterRuntime
from repro.core.types import ExecutionMode
from repro.dfs.wire import WIRE_BYTES_COUNTER
from repro.engine.local import LocalEngine
from repro.engine.threaded import ThreadedEngine
from repro.server import JobServer, output_digest

from benchmarks.stagebench.spec import (
    REFERENCE_ITERATIONS,
    REFERENCE_NOMINAL_S,
    SETUP_REPEATS,
    Workload,
)

MODES = (ExecutionMode.BARRIER, ExecutionMode.BARRIERLESS)
_TENANTS = ("a", "b")
_JOB_TIMEOUT_S = 60.0
#: A client waits this long at a checkpoint for the other one, whose half
#: of a round may hold four jobs that each run into their timeout.
_CHECKPOINT_TIMEOUT_S = 5 * _JOB_TIMEOUT_S


def job_and_input(workload: Workload, app: str, mode, records: int, seed: int):
    """``(job, pairs)`` exactly as the job server builds them for a submit."""
    return demo_job_and_input(
        app,
        mode,
        records=records,
        num_reducers=workload.num_reducers,
        num_maps=workload.num_maps,
        store=workload.store,
        seed=seed,
    )


class Harness:
    """One workload's engine; ``run`` executes and verifies one job."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._expected: dict[tuple[str, int], object] = {}

    def expect(self, records: int) -> None:
        """Compute the ``LocalEngine`` reference for jobs of this size.

        Called outside ``setup_s`` and outside every timed window.
        """
        for app in self.workload.apps:
            job, pairs = job_and_input(
                self.workload, app, ExecutionMode.BARRIER, records, self.seed
            )
            result = LocalEngine().run(job, pairs, self.workload.num_maps)
            self._expected[(app, records)] = self._comparable(app, result)

    def warm_up(self) -> None:
        """One job per app and mode, unverified: the reference comes later."""
        for mode in MODES:
            for app in self.workload.apps:
                self.run(app, mode, self.workload.records, verify=False)

    def run(self, app, mode, records, client=0, verify=True) -> bool:
        """Run one job to its result; True when the output is right."""
        got = self._execute(app, mode, records, client)
        return not verify or got == self._expected[(app, records)]

    def matches(self, app, records, result) -> bool:
        """Whether a ``JobResult`` equals the reference for its input."""
        return self._comparable(app, result) == self._expected[(app, records)]

    def close(self) -> None:
        """Stop whatever the harness started."""


class BatchHarness(Harness):
    """A reused ``ThreadedEngine`` or a warmed two-worker cluster."""

    def __init__(self, workload: Workload, seed: int) -> None:
        super().__init__(workload, seed)
        self._inputs: dict[tuple[str, object, int], tuple] = {}
        self._runtime = None
        if workload.engine == "cluster":
            self._runtime = ClusterRuntime(workers=2)
            self._run, self.obs = self._runtime.run_job, self._runtime.obs
        else:
            engine = ThreadedEngine()
            self._run, self.obs = engine.run, engine.obs
        # Input generation is part of set-up, so build it here.
        for mode in MODES:
            for app in workload.apps:
                self._input(app, mode, workload.records)

    def _input(self, app, mode, records):
        key = (app, mode, records)
        if key not in self._inputs:
            self._inputs[key] = job_and_input(
                self.workload, app, mode, records, self.seed
            )
        return self._inputs[key]

    @staticmethod
    def _comparable(app, result):
        return normalized_output(app, result)

    def _execute(self, app, mode, records, client):
        job, pairs = self._input(app, mode, records)
        return normalized_output(
            app, self._run(job, pairs, self.workload.num_maps)
        )

    def close(self) -> None:
        if self._runtime is not None:
            self._runtime.shutdown()


class ServerHarness(Harness):
    """A ``JobServer`` (cluster backend unless told); jobs go in by name and seed."""

    def __init__(self, workload: Workload, seed: int, backend="cluster") -> None:
        super().__init__(workload, seed)
        self._server = JobServer(
            backend=backend,
            slots=2,
            workers=2,
            tenants={tenant: 1.0 for tenant in _TENANTS},
        )
        self.obs = self._server.obs
        self.submit_s: list[float] = []
        self.wait_s: list[float] = []

    @staticmethod
    def _comparable(app, result):
        return output_digest(app, result)

    def _execute(self, app, mode, records, client):
        started = time.perf_counter()
        job_id = self._server.submit(
            _TENANTS[client % len(_TENANTS)],
            app,
            mode=mode.value,
            records=records,
            num_maps=self.workload.num_maps,
            num_reducers=self.workload.num_reducers,
            seed=self.seed,
        )
        submitted = time.perf_counter()
        record = self._server.wait(job_id, timeout=_JOB_TIMEOUT_S)
        self.submit_s.append(submitted - started)
        self.wait_s.append(time.perf_counter() - submitted)
        return record.digest if record.state == "done" else None

    def close(self) -> None:
        self._server.close()


def close_in_background(harness: Harness) -> threading.Thread:
    """Start ``harness.close`` on a thread; the caller joins it.

    ``ClusterRuntime.shutdown`` spends about 2 s waiting for its workers
    to leave, asleep; overlapping that with the next step keeps a run
    short without touching anything that is timed.
    """
    closer = threading.Thread(target=harness.close, name="stagebench-close")
    closer.start()
    return closer


def open_harness(workload: Workload, seed: int) -> Harness:
    if workload.engine == "server":
        return ServerHarness(workload, seed)
    return BatchHarness(workload, seed)


_REFERENCE_WORDS = [f"w{index:05d}" for index in range(500)]


def pace() -> float:
    """How slow this machine is right now; 1.0 on a quiet core.

    One fixed loop, timed, over its time on a quiet core of the sandbox
    this benchmark was written on.  The sandbox's cores are shared: for
    minutes at a time everything, this loop included, runs 10-30% slower.
    Dividing a timing by the pace measured right around it takes that out
    (see README, "Calibrated seconds").  The loop counts words in a dict,
    builds tuples and bytes and checksums them: the mix of allocation and
    hashing a job is made of, which tracked job times twice as closely as
    bare arithmetic did.  It calls nothing in ``repro``, so no change to
    the code under test can move it.
    """
    started = time.perf_counter()
    counts: dict[str, int] = {}
    out = bytearray()
    for index in range(REFERENCE_ITERATIONS):
        word = _REFERENCE_WORDS[(index * 7919) % 500]
        counts[word] = counts.get(word, 0) + 1
        _pair = (word, index)
        out += word.encode()
        if len(out) > 4096:
            zlib.crc32(bytes(out))
            del out[:]
    sorted(counts.items())
    return (time.perf_counter() - started) / REFERENCE_NOMINAL_S


@dataclass
class JobSample:
    """One timed job: submit to verified result, in raw seconds."""

    app: str
    mode: str
    seconds: float
    ok: bool
    error: str | None = None
    pace: float = 1.0

    @property
    def calibrated_s(self) -> float:
        return self.seconds / self.pace


@dataclass
class Round:
    """One client's pass over every app in both modes.

    A round always holds the same jobs, so rounds are like-for-like
    samples even where the apps differ in size (``server_mix``).
    ``mode_s`` is raw seconds summed over the apps of one mode;
    ``pace`` is the machine's pace around that half of the round.
    """

    mode_s: dict
    pace: dict

    def calibrated_s(self, mode) -> float:
        return self.mode_s[mode] / self.pace[mode]


@dataclass
class Window:
    """Everything one timed window observed."""

    samples: list[JobSample]
    rounds: list[Round]
    shuffle_records: int
    shuffle_wire_bytes: int
    first_round_rss_kib: int

    def job_seconds(self, mode, apps: int, calibrated: bool = True) -> list[float]:
        """Per round, the mean seconds of one job in ``mode``."""
        if calibrated:
            return [r.calibrated_s(mode) / apps for r in self.rounds]
        return [r.mode_s[mode] / apps for r in self.rounds]

    @property
    def failed(self) -> list[JobSample]:
        return [s for s in self.samples if not s.ok]


class _Checkpoints:
    """Where the clients of one window meet between halves of a round.

    All clients stop at a barrier before every half; while they wait (so
    while the engine is idle) the last one to arrive measures the pace
    and reads the clock.  Every client sees the same readings, so they
    all calibrate alike and all decide alike when the window is over.
    """

    def __init__(self, clients: int) -> None:
        self.readings: list[tuple[float, float]] = []  # (pace, clock)
        self._barrier = threading.Barrier(clients, action=self._read)

    def _read(self) -> None:
        self.readings.append((pace(), time.perf_counter()))

    def wait(self, index: int) -> tuple[float, float]:
        """Pass checkpoint ``index``; returns its (pace, clock)."""
        self._barrier.wait(timeout=_CHECKPOINT_TIMEOUT_S)
        return self.readings[index]

    def abort(self) -> None:
        self._barrier.abort()


def _client_loop(harness, client, seconds, checkpoints, samples, rounds, rss) -> None:
    """Rounds of every app in both modes until the window is used up.

    The mode that goes first alternates by round, and the two clients of
    ``server_mix`` start on opposite modes.  A half of a round is
    calibrated by the mean of the pace at the checkpoints around it.
    ``rss`` receives this process's high-water mark when the client's
    first round is done.
    """
    workload = harness.workload
    passed = 0
    pace_before, started = checkpoints.wait(passed)
    while True:
        first = (len(rounds) + client) % 2
        mode_s, mode_pace = {}, {}
        for mode in (MODES[first], MODES[1 - first]):
            half = []
            for app in workload.apps:
                job_started = time.perf_counter()
                try:
                    ok = harness.run(app, mode, workload.records, client)
                    error = None if ok else "output differs from LocalEngine"
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    ok, error = False, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - job_started
                half.append(JobSample(app, mode.value, elapsed, ok, error))
            passed += 1
            pace_after, now = checkpoints.wait(passed)
            mode_pace[mode] = (pace_before + pace_after) / 2
            mode_s[mode] = sum(sample.seconds for sample in half)
            for sample in half:
                sample.pace = mode_pace[mode]
            samples.extend(half)
            pace_before = pace_after
        rounds.append(Round(mode_s, mode_pace))
        if len(rounds) == 1:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if now - started >= seconds:
            return


def timed_window(harness: Harness, seconds: float) -> Window:
    """Run the closed loop for ``seconds`` and read the shuffle counters."""
    counters = harness.obs.counters
    records_before = counters.get("shuffle.records")
    bytes_before = counters.get(WIRE_BYTES_COUNTER)
    clients = harness.workload.clients
    samples: list[list[JobSample]] = [[] for _ in range(clients)]
    rounds: list[list[Round]] = [[] for _ in range(clients)]
    rss: list[int] = []
    checkpoints = _Checkpoints(clients)
    failures: list[BaseException] = []

    def client_thread(client: int) -> None:
        try:
            _client_loop(
                harness, client, seconds, checkpoints,
                samples[client], rounds[client], rss,
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            failures.append(exc)
            checkpoints.abort()  # or the other client waits for ever

    threads = [
        threading.Thread(target=client_thread, args=(c,), name=f"stagebench-client-{c}")
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return Window(
        samples=[s for per_client in samples for s in per_client],
        rounds=[r for per_client in rounds for r in per_client],
        shuffle_records=counters.get("shuffle.records") - records_before,
        shuffle_wire_bytes=counters.get(WIRE_BYTES_COUNTER) - bytes_before,
        first_round_rss_kib=max(rss),
    )


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    value = q1 = q3 = statistics.median(values)
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"value": value, "n": len(values), "q1": q1, "q3": q3, "samples": values}


def peak_rss_mib(window: Window) -> float:
    """Largest ``ru_maxrss`` of this process and its reaped children.

    This process is read when every client has finished its first round,
    not at the end: ``JobServer`` keeps each finished job's result, so the
    final figure would grow with however many jobs the window fitted and
    a faster server would look like a memory regression.  Call this after
    the harness is closed, when the workers have been reaped.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(window.first_round_rss_kib, children) / 1024


def measure(workload: Workload, seed: int, seconds: float) -> tuple[dict, Window]:
    """The ``--trace 0`` run: end-to-end metrics with their samples."""
    setup_samples: list[float] = []
    window = None
    closers = []
    pace_before = pace()
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        harness = open_harness(workload, seed)
        try:
            harness.warm_up()
            raw = time.perf_counter() - started
            pace_after = pace()
            setup_samples.append(raw / ((pace_before + pace_after) / 2))
            if repeat == SETUP_REPEATS - 1:
                harness.expect(workload.records)
                window = timed_window(harness, seconds)
        finally:
            closers.append(close_in_background(harness))
        pace_before = pace_after
    for closer in closers:
        closer.join()
    metrics = window_metrics(workload, window)
    metrics["setup_s"] = summarize(setup_samples)
    metrics["peak_rss_mb"] = summarize([peak_rss_mib(window)])
    return metrics, window


def window_metrics(workload: Workload, window: Window) -> dict:
    """The end-to-end metrics one timed window supports.

    Times are calibrated seconds and quartiles are over rounds.
    ``records_per_s`` is every timed record over the calibrated time the
    clients spent on them; its per-round samples scale one client's round
    by the client count to stay comparable.
    """
    apps = len(workload.apps)
    barrier, barrierless = MODES
    job_s = summarize(window.job_seconds(barrierless, apps))
    barrier_job_s = summarize(window.job_seconds(barrier, apps))
    # What the wall clock said, uncalibrated, for the reader of a result.
    job_s["raw"] = statistics.median(window.job_seconds(barrierless, apps, False))
    barrier_job_s["raw"] = statistics.median(window.job_seconds(barrier, apps, False))
    # Paired inside a round, where the two modes ran seconds apart: that
    # held twice as steady as the ratio of the two medians above.
    ratio = summarize(
        [r.calibrated_s(barrierless) / r.calibrated_s(barrier) for r in window.rounds]
    )
    round_s = [r.calibrated_s(barrier) + r.calibrated_s(barrierless) for r in window.rounds]
    round_records = workload.records * apps * len(MODES)
    throughput = summarize([workload.clients * round_records / s for s in round_s])
    throughput["value"] = (
        workload.clients * round_records * len(round_s) / sum(round_s)
    )
    latencies = [s.calibrated_s for s in window.samples]
    return {
        "job_s": job_s,
        "barrier_job_s": barrier_job_s,
        "barrierless_ratio": ratio,
        "records_per_s": throughput,
        "job_s_p90": {
            **summarize([statistics.quantiles(latencies, n=10, method="inclusive")[8]]),
            "n": len(latencies),
        },
        "shuffle_bytes_per_record": summarize(
            [window.shuffle_wire_bytes / window.shuffle_records]
        ),
    }

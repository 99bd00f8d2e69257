"""Cluster runtime: fork workers, run jobs, tear everything down.

:class:`ClusterRuntime` is the user-facing entry point.  It starts a
:class:`~repro.cluster.coordinator.Coordinator`, forks N worker
processes (``fork`` start method — fast, and job specs still travel
pickled over the control plane so workers never depend on inherited
state for correctness), waits for registration, and then runs any
number of jobs through :meth:`run_job` before :meth:`shutdown`.

:func:`cluster_recovery` returns a :class:`~repro.engine.recovery.
RecoveryConfig` tuned for real sockets: a worker death is detected by
the coordinator as connection EOF, map tasks are re-executed and their
locations re-broadcast, and the surviving reducers' in-flight fetch
streams ride out the gap on their retry budget — so the budget must
cover detection + re-execution latency, not just an in-memory blip.

:class:`ClusterEngine` adapts the runtime to the :class:`~repro.engine.
base.Engine` interface (one runtime per ``run`` call), so differential
tests can swap it in wherever a threaded engine runs today.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import threading
from typing import Sequence

from repro.core.job import JobSpec
from repro.core.types import JobResult, Key, Value
from repro.dfs.wire import WireConfig
from repro.engine.base import Engine
from repro.engine.recovery import BackoffPolicy, RecoveryConfig
from repro.obs import JobObservability
from repro.cluster.coordinator import (
    DEFAULT_LEASE_S,
    ClusterJobError,
    Coordinator,
)
from repro.cluster.quarantine import QuarantineConfig
from repro.cluster.journal import Journal
from repro.cluster.netchaos import NetChaosConfig, NetChaosProxy
from repro.cluster.worker import worker_main

__all__ = ["ClusterEngine", "ClusterRuntime", "cluster_recovery"]


def cluster_recovery(**overrides) -> RecoveryConfig:
    """A :class:`RecoveryConfig` sized for cross-process recovery.

    The in-memory defaults assume faults are injected and resolve in
    microseconds; over real sockets a fetch must survive the coordinator
    noticing a dead peer (EOF), re-executing its map tasks and
    re-broadcasting locations.  The budget here (60 attempts backed off
    to a 50ms cap ≈ 3s of patience per batch) covers that window with
    a wide margin while keeping healthy-path retries snappy.  Keyword
    overrides replace individual fields.
    """
    config = {
        "fetch_timeout_s": 1.0,
        "max_fetch_attempts": 60,
        "backoff": BackoffPolicy(base_s=0.002, cap_s=0.05),
        "straggler_threshold_s": 0.25,
        "speculative_fetch": True,
        "speculative_reduce": False,
        "publish_timeout_s": 30.0,
    }
    config.update(overrides)
    return RecoveryConfig(**config)


class ClusterRuntime:
    """N worker processes + a coordinator, reusable across jobs."""

    def __init__(
        self,
        workers: int = 2,
        *,
        obs: JobObservability | None = None,
        wire: WireConfig | None = None,
        recovery: RecoveryConfig | None = None,
        placement: str = "spread",
        deadline_s: float = 60.0,
        start_timeout_s: float = 30.0,
        journal: "Journal | str | None" = None,
        lease_s: float | None = DEFAULT_LEASE_S,
        netchaos: NetChaosConfig | None = None,
        coordinator_port: int = 0,
        ship_telemetry: bool = True,
        task_retries: int = 0,
        retry_mode: str = "fail_fast",
        quarantine: QuarantineConfig | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.obs = obs if obs is not None else JobObservability()
        self._wire = wire if wire is not None else WireConfig()
        self._recovery = recovery if recovery is not None else cluster_recovery()
        self._placement = placement
        self._deadline_s = deadline_s
        self._task_retries = int(task_retries)
        self._retry_mode = retry_mode
        self._netchaos = netchaos
        self._proxies: dict[tuple[str, int], NetChaosProxy] = {}
        self._proxies_lock = threading.Lock()
        self._coordinator = Coordinator(
            self.obs,
            port=coordinator_port,
            journal=journal,
            lease_s=lease_s,
            quarantine=quarantine,
            shuffle_proxy=(
                self._shuffle_proxy
                if netchaos is not None and netchaos.shuffle is not None
                else None
            ),
        )
        # Workers dial the chaos proxy instead of the coordinator when an
        # RPC policy is set, so control-plane frames cross the degraded
        # link too (registration, assignments, heartbeats, commits).
        control_host, control_port = self._coordinator.host, self._coordinator.port
        if netchaos is not None and netchaos.rpc is not None:
            rpc_proxy = NetChaosProxy(
                (control_host, control_port), netchaos.rpc,
                obs=self.obs, label="rpc",
            )
            self._proxies[(control_host, control_port)] = rpc_proxy
            control_host, control_port = rpc_proxy.address
        self._checkpoint_tmp: tempfile.TemporaryDirectory | None = None
        self._checkpoint_lock = threading.Lock()
        context = multiprocessing.get_context("fork")
        self._processes = [
            context.Process(
                target=worker_main,
                args=(
                    f"w{index}", control_host, control_port, ship_telemetry,
                ),
                daemon=True,
            )
            for index in range(workers)
        ]
        for process in self._processes:
            process.start()
        try:
            self._coordinator.wait_for_workers(workers, start_timeout_s)
        except ClusterJobError:
            self.shutdown()
            raise

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the forked worker processes (for chaos/leak checks)."""
        return [process.pid for process in self._processes if process.pid]

    @property
    def telemetry(self):
        """The coordinator's merged :class:`ClusterTelemetry` plane."""
        return self._coordinator.telemetry

    @property
    def coordinator_address(self) -> tuple[str, int]:
        """``(host, port)`` of the coordinator's control listener.

        This is the address the RPC ``status`` verb answers on — hand it
        to :func:`repro.cluster.telemetry.request_status` or ``repro
        top``.
        """
        return (self._coordinator.host, self._coordinator.port)

    def status(self) -> dict:
        """Live cluster snapshot (see :meth:`Coordinator.status`)."""
        return self._coordinator.status()

    # -- network chaos -----------------------------------------------------

    def _shuffle_proxy(self, host: str, port: int) -> tuple[str, int]:
        """Coordinator hook: front a worker's shuffle server with chaos.

        Called once per registration; the returned address replaces the
        real one in every ``location`` broadcast, so all reducer fetch
        traffic crosses the degraded link.  Proxies are cached per
        target (a re-registering worker keeps its proxy).
        """
        assert self._netchaos is not None and self._netchaos.shuffle is not None
        target = (host, port)
        with self._proxies_lock:
            proxy = self._proxies.get(target)
            if proxy is None:
                proxy = NetChaosProxy(
                    target, self._netchaos.shuffle,
                    obs=self.obs, label=f"shuffle:{port}",
                )
                self._proxies[target] = proxy
        return proxy.address

    # -- checkpoint root ---------------------------------------------------

    def _checkpoint_root(self) -> str | None:
        """Base checkpoint directory shared by every job on this runtime.

        The coordinator appends a ``<job_id>/`` subtree per submission,
        so concurrent jobs through the same runtime can never read each
        other's snapshots — the runtime only has to provide one stable
        base.  (Job counting used to happen here, unsynchronised, which
        collided when two threads called :meth:`run_job` at once.)
        """
        if not self._recovery.checkpoint_enabled:
            return None
        root = self._recovery.checkpoint_dir
        if root is None:
            with self._checkpoint_lock:
                if self._checkpoint_tmp is None:
                    self._checkpoint_tmp = tempfile.TemporaryDirectory(
                        prefix="repro-cluster-ckpt-"
                    )
                root = self._checkpoint_tmp.name
        return root

    # -- job execution -----------------------------------------------------

    def run_job(
        self,
        job: JobSpec,
        pairs: Sequence[tuple[Key, Value]],
        num_maps: int = 4,
        *,
        kill: dict | None = None,
        job_id: str | None = None,
    ) -> JobResult:
        """Run one job on the cluster; raises :class:`ClusterJobError`.

        ``kill`` is the chaos spec forwarded to workers verbatim:
        ``{"worker": "w1", "trigger": "serves" | "reduce-records" |
        "map-done", "count": N}`` SIGKILLs the named worker when the
        trigger fires.  The job must still complete correctly via
        reassignment — that is the point.

        ``job_id`` pins a caller-chosen identifier so the submission
        can later be targeted by :meth:`preempt_job` /
        :meth:`resume_job`; a preempted submission raises
        :class:`~repro.cluster.coordinator.JobPreemptedError`.

        Thread-safe: many threads may run jobs concurrently over the
        same runtime; the coordinator multiplexes them over the shared
        workers and namespaces checkpoints per job id.
        """
        return self._coordinator.submit(
            job,
            pairs,
            num_maps,
            wire=self._wire,
            recovery=self._recovery,
            checkpoint_root=self._checkpoint_root(),
            kill=kill,
            placement=self._placement,
            deadline_s=self._deadline_s,
            job_id=job_id,
            task_retries=self._task_retries,
            retry_mode=self._retry_mode,
        )

    def preempt_job(self, job_id: str) -> None:
        """Checkpoint-park a running job (async; see Coordinator)."""
        self._coordinator.preempt(job_id)

    def resume_job(self, job_id: str) -> JobResult:
        """Continue a checkpoint-parked job to completion; blocks."""
        return self._coordinator.resume_job(job_id)

    @property
    def coordinator(self) -> Coordinator:
        """The underlying coordinator (status plane, tests)."""
        return self._coordinator

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers and the coordinator; idempotent."""
        self._coordinator.shutdown()
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        with self._proxies_lock:
            proxies = list(self._proxies.values())
            self._proxies.clear()
        for proxy in proxies:
            proxy.close()
        if self._checkpoint_tmp is not None:
            self._checkpoint_tmp.cleanup()
            self._checkpoint_tmp = None

    def __enter__(self) -> "ClusterRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ClusterEngine(Engine):
    """:class:`Engine` adapter: a fresh cluster per ``run`` call."""

    def __init__(
        self,
        workers: int = 2,
        *,
        obs: JobObservability | None = None,
        wire: WireConfig | None = None,
        recovery: RecoveryConfig | None = None,
        placement: str = "spread",
        deadline_s: float = 60.0,
        netchaos: NetChaosConfig | None = None,
    ) -> None:
        self.obs = obs if obs is not None else JobObservability()
        self._workers = workers
        self._wire = wire
        self._recovery = recovery
        self._placement = placement
        self._deadline_s = deadline_s
        self._netchaos = netchaos

    def run(
        self,
        job: JobSpec,
        pairs: Sequence[tuple[Key, Value]],
        num_maps: int = 4,
    ) -> JobResult:
        with ClusterRuntime(
            self._workers,
            obs=self.obs,
            wire=self._wire,
            recovery=self._recovery,
            placement=self._placement,
            deadline_s=self._deadline_s,
            netchaos=self._netchaos,
        ) as runtime:
            return runtime.run_job(job, pairs, num_maps)

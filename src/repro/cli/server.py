"""The job server and its clients: serve, submit, jobs, top."""

from __future__ import annotations

import json
import sys
import time

from repro.cli import add_workload_args, existing_file
from repro.server.policy import POLICIES
from repro.server.server import BACKENDS


def address(value: str) -> tuple[str, int]:
    """argparse ``type=`` for ``HOST:PORT``; an empty host is 127.0.0.1."""
    host, _, port = value.rpartition(":")
    if not port.isdigit() or int(port) > 65535:
        raise ValueError(value)
    return host or "127.0.0.1", int(port)


def tenant(value: str) -> tuple[str, float]:
    """argparse ``type=`` for ``NAME[:WEIGHT]``; the weight defaults to 1."""
    name, _, weight = value.partition(":")
    return name, float(weight or 1)


def add_commands(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant job server in the foreground",
    )
    serve.add_argument("--backend", choices=BACKENDS, default="threaded",
                       help="execution backend: per-job threaded engines "
                            "or one shared worker cluster")
    serve.add_argument("--workers", type=int, default=2,
                       help="forked workers (cluster backend only)")
    serve.add_argument("--slots", type=int, default=4,
                       help="concurrent job slots in the scheduler pool")
    serve.add_argument("--policy", choices=POLICIES, default="fair",
                       help="scheduling policy (default: fair share)")
    serve.add_argument("--tenant", action="append", default=[], type=tenant,
                       metavar="NAME[:WEIGHT]", dest="tenants",
                       help="declare a tenant and its fair-share weight "
                            "(repeatable; unknown tenants get weight 1)")
    serve.add_argument("--port", type=int, default=7077,
                       help="framed-RPC submission port (default: 7077)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="also serve the line-JSON HTTP shim here")
    serve.add_argument("--max-queued-jobs", type=int, default=0,
                       help="admission: global queued-job ceiling (0 = off)")
    serve.add_argument("--max-queued-bytes", type=int, default=0,
                       help="admission: queued input bytes high-water mark "
                            "(0 = off)")
    serve.add_argument("--max-live-bytes", type=int, default=0,
                       help="admission: live bytes high-water mark (0 = off)")
    serve.add_argument("--deadline", type=float, default=60.0,
                       help="per-job completion deadline in seconds")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="graceful-drain budget on SIGTERM/SIGINT: "
                            "checkpoint-park running jobs, reject queued "
                            "ones, exit within this many seconds")
    serve.set_defaults(func=_serve)

    submit = sub.add_parser(
        "submit", help="submit one job to a running job server"
    )
    add_workload_args(submit, 300, 2, 2)
    submit.add_argument("--server", metavar="HOST:PORT", type=address,
                        default="127.0.0.1:7077",
                        help="job server RPC address (default: "
                             "127.0.0.1:7077)")
    submit.add_argument("--tenant", default="default",
                        help="submitting tenant (default: 'default')")
    submit.add_argument("--deadline", type=float, default=None,
                        help="deadline hint for the 'deadline' policy")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "final record")
    submit.set_defaults(func=_submit)

    jobs = sub.add_parser("jobs", help="list a running job server's jobs")
    jobs.add_argument("--server", metavar="HOST:PORT", type=address,
                      default="127.0.0.1:7077",
                      help="job server RPC address")
    jobs.add_argument("--tenant", default=None,
                      help="only this tenant's jobs")
    jobs.add_argument("--json", action="store_true",
                      help="print raw JSON records instead of a table")
    jobs.set_defaults(func=_jobs)

    top = sub.add_parser(
        "top",
        help="ASCII dashboard over a cluster's live status plane",
    )
    top.add_argument("target", nargs="?", metavar="HOST:PORT", type=address,
                     help="coordinator control address to poll over the "
                          "RPC status verb (omit when using --file)")
    top.add_argument("--file", metavar="FILE", type=existing_file,
                     help="render a status snapshot JSON (e.g. from "
                          "'repro cluster --status-json') instead of "
                          "polling a live coordinator")
    top.add_argument("--once", action="store_true",
                     help="print a single snapshot and exit (default "
                          "refreshes every --interval seconds)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds (default: 1.0)")
    top.add_argument("--width", type=int, default=40,
                     help="sparkline width (default: 40)")
    top.set_defaults(func=_top)


def _serve(args) -> int:
    """Run the multi-tenant job server until interrupted.

    SIGTERM and SIGINT trigger a graceful drain: queued jobs are
    cancelled, running jobs checkpoint-park on the cluster backend, new
    submissions bounce with the typed ``server draining`` backpressure
    reply, and the process exits within ``--drain-timeout`` seconds.
    """
    import signal
    import threading

    from repro.server import AdmissionConfig, JobServer, TenantConfig

    server = JobServer(
        args.backend,
        slots=args.slots,
        policy=args.policy,
        tenants={name: TenantConfig(weight=w) for name, w in args.tenants},
        admission=AdmissionConfig(
            max_queued_jobs=args.max_queued_jobs,
            max_queued_bytes=args.max_queued_bytes,
            max_live_bytes=args.max_live_bytes,
        ),
        workers=args.workers,
        port=args.port,
        job_deadline_s=args.deadline,
    )
    print(
        f"job server on {server.host}:{server.port} "
        f"(backend {args.backend}, policy {args.policy}, "
        f"slots {args.slots}) — submit with "
        f"'repro submit APP --server {server.host}:{server.port}'"
    )
    if args.http_port is not None:
        host, port = server.start_http(port=args.http_port)
        print(f"http shim on {host}:{port}")
    stop = threading.Event()

    def _on_signal(signum, _frame):
        print(f"received {signal.Signals(signum).name}, draining "
              f"(budget {args.drain_timeout}s)")
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        while not stop.wait(timeout=1.0):
            pass
        summary = server.drain(timeout_s=args.drain_timeout)
        print(
            f"drained: {summary['parked']} parked, "
            f"{summary['cancelled']} cancelled, "
            f"{summary['still_running']} still running"
        )
        print("shutting down")
        return 0 if summary["still_running"] == 0 else 1
    except KeyboardInterrupt:
        # A second Ctrl-C during the drain: exit hard.
        print("shutting down")
        return 0
    finally:
        server.close()


def _submit(args) -> int:
    """Submit one job over the framed-RPC plane; optionally wait."""

    from repro.server import ServerClient, SubmitRejected

    host, port = args.server
    client = ServerClient(host, port)
    try:
        job_id = client.submit(
            args.tenant,
            args.app,
            mode=args.mode.value,
            records=args.records,
            num_maps=args.maps,
            num_reducers=args.reducers,
            seed=args.seed,
            deadline_s=args.deadline,
        )
    except SubmitRejected as exc:
        print(
            f"rejected: {exc.reason} (retry after {exc.retry_after_s}s)",
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(f"submit: {host}:{port} unreachable: {exc}", file=sys.stderr)
        return 1
    print(job_id)
    if args.wait:
        record = client.wait(job_id)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0 if record.get("state") == "done" else 1
    return 0


def _jobs(args) -> int:
    """List a running server's jobs."""

    from repro.server import ServerClient

    host, port = args.server
    try:
        jobs = ServerClient(host, port).jobs(args.tenant)
    except OSError as exc:
        print(f"jobs: {host}:{port} unreachable: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("(no jobs)")
        return 0
    print(f"{'JOB':<8} {'TENANT':<12} {'APP':<6} {'MODE':<12} "
          f"{'STATE':<10} DIGEST")
    for job in jobs:
        print(
            f"{job.get('job_id', '?'):<8} {job.get('tenant', '?'):<12} "
            f"{job.get('app', '?'):<6} {job.get('mode', '?'):<12} "
            f"{job.get('state', '?'):<10} "
            f"{job.get('digest', '')[:16]}"
        )
    return 0


def _top(args) -> int:
    """Render the live status plane, from a file or over the RPC verb."""

    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            status = json.load(fh)
        print(_render_cluster_status(status, width=args.width))
        return 0
    if args.target is None:
        print("top: a HOST:PORT target or --file FILE is required",
              file=sys.stderr)
        return 2
    host, port = args.target

    from repro.cluster import RpcError, request_status

    while True:
        try:
            status = request_status(host, port)
        except (OSError, RpcError) as exc:
            print(f"top: {host}:{port} unreachable: {exc}", file=sys.stderr)
            return 1
        print(_render_cluster_status(status, width=args.width))
        if args.once:
            return 0
        time.sleep(max(args.interval, 0.1))
        print()


def _render_cluster_status(status: dict, width: int = 40) -> str:
    """ASCII dashboard over one status snapshot.

    Renders both snapshot shapes: a bare coordinator
    (:meth:`Coordinator.status`) and a job server
    (:meth:`JobServer.status`), which adds a scheduler header and a
    per-tenant lane and may embed a coordinator underneath.
    """
    from repro.analysis.timeline import ascii_sparkline

    wall = float(status.get("wall", 0.0))
    stamp = time.strftime("%H:%M:%S", time.localtime(wall)) if wall else "?"
    lines = []
    server = status.get("server")
    if server:
        lines.append(
            f"job server @ {stamp}  "
            f"{server.get('host', '?')}:{server.get('port', '?')} "
            f"backend {server.get('backend', '?')}  "
            f"policy {server.get('policy', '?')}  "
            f"slots {server.get('running', 0)}/{server.get('slots', 0)}  "
            f"queued {server.get('queued', 0)} "
            f"({server.get('queued_bytes', 0):,}B)"
            + ("  DRAINING" if server.get("draining") else "")
        )
    coord = status.get("coordinator", {})
    if coord or not server:
        lines.append(
            f"cluster status @ {stamp}  "
            f"coordinator {coord.get('host', '?')}:{coord.get('port', '?')} "
            f"pid {coord.get('pid', '?')}  lease {coord.get('lease_s', 0.0)}s"
        )
    tenants = status.get("tenants", {})
    if tenants:
        lines.append(f"tenants ({len(tenants)}):")
        name_width = max(len(name) for name in tenants)
        for name, lane in sorted(tenants.items()):
            lines.append(
                f"  {name:<{name_width}} w={lane.get('weight', 1.0):<4g} "
                f"queued {lane.get('queued', 0):>3}  "
                f"running {lane.get('running', 0):>2}  "
                f"granted {lane.get('granted', 0):>4}  "
                f"done {lane.get('completed', 0):>4}  "
                f"rejected {lane.get('rejected', 0):>3}  "
                f"preempted {lane.get('preempted', 0):>3}"
            )
    jobs = status.get("jobs", {})
    lines.append(f"jobs ({len(jobs)}):")
    for job_id, job in sorted(jobs.items()):
        if "state" in job:
            # Server-shape record: tenant-facing lifecycle, no task map.
            lines.append(
                f"  {job_id:<8} {job.get('app', '?'):<6} "
                f"[{job.get('mode', '?')}] "
                f"tenant {job.get('tenant', '?'):<10} "
                f"{job.get('state', '?')}"
            )
            continue
        epochs = sum(int(e) for e in job.get("map_epochs", {}).values())
        attempts = sum(
            int(a) for a in job.get("reduce_attempts", {}).values()
        )
        lines.append(
            f"  {job_id:<8} {job.get('name', '?'):<12} "
            f"[{job.get('mode', '?')}] "
            f"maps {job.get('maps_done', 0)}/{job.get('num_maps', 0)}  "
            f"reduces {job.get('reduces_done', 0)}"
            f"/{job.get('num_reducers', 0)}  "
            f"epoch-bumps {epochs}  re-attempts {attempts}  "
            f"{'done' if job.get('done') else ('parked' if job.get('parked') else 'running')}"
        )
    if not jobs:
        lines.append("  (none)")
    workers = status.get("workers", {})
    lines.append(f"workers ({len(workers)}):")
    name_width = max((len(name) for name in workers), default=4)
    for name, worker in sorted(workers.items()):
        flags = []
        if not worker.get("alive", False):
            flags.append("DEAD")
        if worker.get("quarantined"):
            flags.append("QUARANTINED")
        if worker.get("truncated"):
            flags.append("truncated")
        lines.append(
            f"  {name:<{name_width}} pid {worker.get('pid', 0):<7} "
            f"hb {worker.get('heartbeat_age_s', 0.0):>6.2f}s  "
            f"skew {worker.get('clock_skew_ms', 0.0):>+7.2f}ms  "
            f"frames {worker.get('frames', 0):>4}  "
            f"{' '.join(flags) if flags else 'alive'}"
        )
        series = worker.get("series", {})
        series_width = max((len(s) for s in series), default=0)
        for series_name, entry in sorted(series.items()):
            values = [value for _t, value in entry.get("points", [])]
            if not values:
                continue
            last = values[-1]
            shown = (
                f"{last:,.0f}" if abs(last) >= 10 else f"{last:.2f}"
            )
            lines.append(
                f"    {series_name:<{series_width}} "
                f"{ascii_sparkline(values, width=width)} "
                f"{shown} {entry.get('unit', '')}".rstrip()
            )
    if not workers:
        lines.append("  (none)")
    return "\n".join(lines)

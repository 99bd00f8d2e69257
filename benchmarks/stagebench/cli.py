"""Command line of stagebench.

Three ways in, one parser:

- ``--workload W --seed N --seconds S --trace 0|1`` is one run, as the
  driver makes it: it measures in this process and prints one JSON
  object as the last line of standard output.
- without ``--trace`` it is the full set: each workload in a fresh
  subprocess, first untraced, then the layer walk; every metric is
  printed by name with unit and sample count, and ``--out`` keeps the
  result.
- ``compare A.json B.json`` sets two full-set results side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.stagebench import compare, hygiene
from benchmarks.stagebench.spec import (
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    SMOKE_DIVISOR,
    WORKLOADS,
    workload_named,
)

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / "work"
_SMOKE_SECONDS = 0.5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagebench",
        description="Run the benchmark (or: stagebench compare A.json B.json).",
    )
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed: the same seed gives the same inputs")
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="one workload (default: all four)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="length of the timed window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in this process: 0 end-to-end, 1 layer walk")
    parser.add_argument("--smoke", action="store_true",
                        help=f"1/{SMOKE_DIVISOR} of the records, a half-second window")
    parser.add_argument("--out", help="write the full-set result to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = _parser()
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_set(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_one(args)


# ---------------------------------------------------------------------------
# one run (the driver's contract)
# ---------------------------------------------------------------------------


def detail_path(workload: str, trace: int) -> Path:
    return WORK_DIR / f"{workload}.trace{trace}.json"


def run_one(args) -> int:
    """Measure one workload here; print the contract's JSON line last."""
    # Imported here so `compare` and `--help` work without src/ on the path.
    from benchmarks.stagebench import measure, walk

    workload = workload_named(args.workload)
    seconds = args.seconds
    if args.smoke:
        workload, seconds = workload.scaled(SMOKE_DIVISOR), _SMOKE_SECONDS
    detail = {
        "workload": workload.name,
        "records": workload.records,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
    }
    with hygiene.watch(WORK_DIR, workload.name) as leaks:
        if args.trace:
            traced = walk.traced(workload, args.seed, seconds)
            metrics = {
                metric.name: {
                    "value": traced["metrics"][metric.name],
                    "unit": metric.unit,
                    "n": traced["samples"].get(metric.name, 1),
                }
                for metric in PER_LAYER
            }
            attempted, errors = traced["attempted"], traced["errors"]
            detail["checks"] = traced["checks"]
            trace_file = WORK_DIR / f"{workload.name}.trace.json"
            trace_file.write_text(json.dumps({
                "workload": workload.name,
                "seed": args.seed,
                "spans": traced["spans"],
            }))
        else:
            measured, window = measure.measure(workload, args.seed, seconds)
            metrics = {
                metric.name: {**measured[metric.name], "unit": metric.unit}
                for metric in END_TO_END
            }
            attempted = len(window.samples)
            errors = [f"{s.app}/{s.mode}: {s.error}" for s in window.failed]
    errors += [f"outlived the workload: {leak}" for leak in leaks]
    failed = min(len(errors), attempted)
    correct = not errors
    detail.update(
        correct=correct, attempted=attempted, failed=failed,
        errors=errors[:20], metrics=metrics,
    )
    detail_path(workload.name, args.trace).write_text(json.dumps(detail, indent=1))
    for error in errors[:20]:
        print(f"stagebench: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# the full set
# ---------------------------------------------------------------------------


def run_set(args) -> int:
    """Every workload in its own subprocess, untraced and then walked."""
    workloads = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    result = {
        "benchmark": "stagebench",
        "utc": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": _SMOKE_SECONDS if args.smoke else args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    status = 0
    for name in workloads:
        entry = result["workloads"][name] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            detail_path(name, trace).unlink(missing_ok=True)
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if not detail_path(name, trace).exists():
                print(f"stagebench: {name} --trace {trace} gave no result "
                      f"(exit {done.returncode})", file=sys.stderr)
                return 1
            detail = json.loads(detail_path(name, trace).read_text())
            entry[section] = detail["metrics"]
            entry.setdefault("runs", []).append({
                key: detail[key]
                for key in ("trace", "records", "correct", "attempted",
                            "failed", "errors")
            })
            if trace:
                entry["checks"] = detail["checks"]
            if done.returncode != 0:
                status = 1
        attempted = sum(run["attempted"] for run in entry["runs"])
        failed = sum(run["failed"] for run in entry["runs"])
        entry["failed_share"] = failed / attempted
        print(render(name, entry), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return status


def render(name: str, entry: dict) -> str:
    """One workload's metrics as text: name, value, unit, sample count."""
    attempted = sum(run["attempted"] for run in entry["runs"])
    lines = [
        f"== {name} ({entry['runs'][0]['records']} records) ==",
        f"  {'failed_share':<36}{entry['failed_share']:>14.6g} ratio"
        f"      n={attempted}",
    ]
    for section in ("end_to_end", "per_layer"):
        lines.append(f"  -- {section} --")
        for metric, item in entry[section].items():
            line = (f"  {metric:<36}{item['value']:>14.6g} {item['unit']:<10}"
                    f" n={item['n']}")
            if item.get("q1") != item.get("q3"):
                line += f"  q1={item['q1']:.6g} q3={item['q3']:.6g}"
            lines.append(line)
    for check, value in entry.get("checks", {}).items():
        lines.append(f"  check {check} = {value:.4g}")
    return "\n".join(lines)

"""``stagebench compare A.json B.json``: two full-set results side by side.

One row per workload and end-to-end metric: both medians with their
quartiles, the ratio B/A (A is the base), the metric's bound and a
verdict.  ``worse``/``better`` mean the median moved by more than the
bound; ``unresolved`` means either run pins its own median no finer than
the bound (see ``resolution``), so the pair cannot tell.  Counts that
must repeat exactly are diffed for equality.
"""

from __future__ import annotations

import argparse
import json
import math

from benchmarks.stagebench.spec import END_TO_END, PER_LAYER, Metric


def resolution(entry: dict) -> float:
    """How finely one run pins its median, as a share of the median.

    The quartile distance of the run's ``n`` samples shrunk by
    ``sqrt(n)``: samples scatter by the quartile distance, their median
    by about that over ``sqrt(n)``.  Metrics with one sample give 0.
    """
    return (entry["q3"] - entry["q1"]) / entry["value"] / math.sqrt(entry["n"])


def verdict(metric: Metric, base: dict, new: dict) -> str:
    ratio = new["value"] / base["value"]
    worse_by = ratio - 1 if metric.better == "lower" else 1 - ratio
    if max(resolution(base), resolution(new)) > metric.bound:
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "same"


def _cell(entry: dict) -> str:
    text = f"{entry['value']:.5g}"
    if entry["q1"] != entry["q3"]:
        text += f" [{entry['q1']:.5g}, {entry['q3']:.5g}]"
    return text


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """Rendered rows, and whether B is free of regressions and doubts."""
    lines = [
        f"A (base): seed {base['seed']}, {base['utc']}    "
        f"B: seed {new['seed']}, {new['utc']}",
        f"{'workload':<13}{'metric':<26}{'A median [q1, q3]':<38}"
        f"{'B median [q1, q3]':<38}{'B/A':>8}{'bound':>7}  verdict",
    ]
    clean = True
    mismatched: list[str] = []
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            continue
        for metric in END_TO_END:
            left, right = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            outcome = verdict(metric, left, right)
            clean = clean and outcome in ("same", "better")
            lines.append(
                f"{name:<13}{metric.name:<26}{_cell(left):<38}{_cell(right):<38}"
                f"{right['value'] / left['value']:>8.4f}{metric.bound:>7.0%}  {outcome}"
            )
        for section, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric in metrics:
                left = a[section][metric.name]["value"]
                right = b[section][metric.name]["value"]
                if metric.exact and left != right:
                    mismatched.append(f"{name} {metric.name}: {left!r} != {right!r}")
    exact = sum(m.exact for m in END_TO_END + PER_LAYER)
    if base["seed"] != new["seed"]:
        lines.append("exact counts: not compared (different seeds)")
    elif mismatched:
        clean = False
        lines.append("exact counts that differ:")
        lines.extend(f"  {row}" for row in mismatched)
    else:
        lines.append(f"exact counts: all {exact} identical on every workload")
    return lines, clean


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="stagebench compare")
    parser.add_argument("base", help="result of the base commit (A)")
    parser.add_argument("new", help="result of the change (B)")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    lines, clean = compare(base, new)
    print("\n".join(lines))
    return 0 if clean else 1

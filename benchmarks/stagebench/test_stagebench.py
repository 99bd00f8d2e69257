"""Checks on the benchmark itself.  Not tier-1: ``pytest benchmarks/stagebench``.

Takes about half a minute: one ``--smoke`` set plus one repeated workload.
"""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))  # for runs without PYTHONPATH=src

from repro.apps.demo import normalized_output  # noqa: E402
from repro.engine.local import LocalEngine  # noqa: E402

from benchmarks.stagebench import compare, walk  # noqa: E402
from benchmarks.stagebench.measure import MODES, job_and_input  # noqa: E402
from benchmarks.stagebench.spec import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    SMOKE_DIVISOR,
    WORKLOADS,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_smoke(tmp_path: Path, seed: int, *extra: str) -> dict:
    out = tmp_path / f"smoke-{seed}-{len(extra)}.json"
    subprocess.run(
        [sys.executable, "-m", "benchmarks.stagebench", "--seed", str(seed),
         "--smoke", "--out", str(out), *extra],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=180,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    return run_smoke(tmp_path_factory.mktemp("stagebench"), seed=1)


def test_smoke_emits_every_declared_metric(smoke):
    assert list(smoke["workloads"]) == [w.name for w in WORKLOADS]
    for name, entry in smoke["workloads"].items():
        assert list(entry["end_to_end"]) == [m.name for m in END_TO_END], name
        assert list(entry["per_layer"]) == [m.name for m in PER_LAYER], name
        assert entry["failed_share"] == 0, entry["runs"]
        assert all(run["correct"] for run in entry["runs"]), entry["runs"]
        for metric in END_TO_END:
            assert entry["end_to_end"][metric.name]["value"] > 0, metric.name


def test_names_agree_between_json_code_and_readme():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["run_seconds"] == RUN_SECONDS
    assert declared["paths"] == ["benchmarks/stagebench"]
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END + PER_LAYER] + [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    # Every `code-quoted` first cell of a README table row is a name, and
    # every name has such a row.
    readme = (HERE / "README.md").read_text()
    in_readme = set(re.findall(r"^\| `([^`]+)` \|", readme, flags=re.MULTILINE))
    assert in_readme == set(names) | {"failed_share"}


def test_same_seed_same_inputs_and_counts(smoke, tmp_path):
    workload = WORKLOADS[1].scaled(SMOKE_DIVISOR)  # sort_spill: spills too
    app = workload.apps[0]

    def inputs(seed):
        return pickle.dumps(
            job_and_input(workload, app, MODES[1], workload.records, seed)[1]
        )

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)
    again = run_smoke(tmp_path, 1, "--workload", workload.name)
    first = smoke["workloads"][workload.name]
    second = again["workloads"][workload.name]
    for section, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for metric in metrics:
            if metric.exact:
                assert (first[section][metric.name]["value"]
                        == second[section][metric.name]["value"]), metric.name
    lines, _clean = compare.compare(smoke, again)
    assert any("identical" in line for line in lines), lines


@pytest.mark.parametrize("workload", WORKLOADS[:2], ids=lambda w: w.name)
def test_timing_store_proxy_does_not_change_output(workload):
    workload = workload.scaled(SMOKE_DIVISOR)
    app = workload.apps[0]
    job, pairs = job_and_input(workload, app, MODES[1], workload.records, 7)
    plain = LocalEngine().run(job, pairs, workload.num_maps)
    stores: list = []
    proxied = LocalEngine().run(
        walk.with_timed_stores(job, stores), pairs, workload.num_maps
    )
    walked = walk.walk_job(walk.Tracer(), "t", job, pairs, workload.num_maps)
    walked.close()
    assert len(stores) == workload.num_reducers
    assert sum(s.calls[0] for s in stores) > 0
    assert plain.all_output() == proxied.all_output() == walked.result.all_output()
    assert plain.counters.values == proxied.counters.values
    assert normalized_output(app, plain) == normalized_output(app, walked.result)

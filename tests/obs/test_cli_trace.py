"""CLI observability commands: `repro trace`, `counters` and `metrics`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.export import spans_from_chrome_trace, validate_span_nesting


@pytest.mark.parametrize("engine", ["local", "threaded"])
def test_trace_emits_valid_chrome_trace(engine, tmp_path, capsys):
    path = tmp_path / f"wc-{engine}.trace.json"
    assert main([
        "trace", "wc", "--records", "300", "--maps", "2", "--reducers", "2",
        "--engine", engine, "-o", str(path),
    ]) == 0
    assert f"wrote {path}" in capsys.readouterr().out

    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)

    # trace_event object format with a process-name metadata event.
    events = trace["traceEvents"]
    assert events[0]["ph"] == "M"
    assert all(event["ph"] in ("M", "X") for event in events)
    assert all(
        event["dur"] >= 0 for event in events if event["ph"] == "X"
    )

    # The spans reconstruct into a well-nested job → stage → task tree.
    spans = spans_from_chrome_trace(trace)
    assert validate_span_nesting(spans) == []
    kinds = {span.kind for span in spans}
    assert {"job", "stage", "task"} <= kinds

    # Counter totals ride along in the object-format extra key.
    assert trace["counters"]["map.tasks"] == 2
    assert trace["counters"]["reduce.tasks"] == 2


def test_trace_summary_flag_prints_tree(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main([
        "trace", "wc", "--records", "200", "--maps", "2", "--reducers", "2",
        "-o", str(path), "--summary",
    ]) == 0
    out = capsys.readouterr().out
    assert "[job]" in out
    assert "[stage]" in out


def test_counters_prints_table(capsys):
    assert main([
        "counters", "wc", "--records", "200", "--maps", "2", "--reducers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "map.input_records" in out
    assert "reduce.output_records" in out


def test_counters_diff_runs_both_modes(capsys):
    assert main([
        "counters", "wc", "--records", "200", "--maps", "2", "--reducers", "2",
        "--diff",
    ]) == 0
    out = capsys.readouterr().out
    assert "barrier" in out and "barrierless" in out
    # Record conservation shows up as "=" rows in the diff table.
    for line in out.splitlines():
        if line.startswith("map.output_records"):
            assert line.rstrip().endswith("=")


def test_metrics_command_prints_sparklines(capsys):
    assert main(["metrics", "wc", "--records", "300", "--events"]) == 0
    out = capsys.readouterr().out
    assert "shuffle.buffer.depth" in out
    assert "high-water marks" in out
    assert "task.start" in out


def test_metrics_file_rendering(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    assert main(["metrics", "wc", "--records", "300", "-o", path]) == 0
    capsys.readouterr()
    assert main(["metrics", "--file", path]) == 0
    assert "reduce.records_per_s" in capsys.readouterr().out


def test_metrics_requires_app_or_file(capsys):
    assert main(["metrics"]) == 2

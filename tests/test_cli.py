"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nosuchapp"])

    def test_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "wc", "--mode", "turbo"])


class TestCommands:
    def test_classify(self, capsys):
        assert main(["classify"]) == 0
        out = capsys.readouterr().out
        assert "Word Count" in out
        assert "O(window_size)" in out

    def test_effort(self, capsys):
        assert main(["effort"]) == 0
        out = capsys.readouterr().out
        assert "Black-Scholes" in out
        assert "0%" in out

    @pytest.mark.parametrize("app", ["wc", "sort", "pp", "ga"])
    def test_run_small(self, app, capsys):
        assert main(["run", app, "--records", "300", "--maps", "2",
                     "--reducers", "2"]) == 0
        out = capsys.readouterr().out
        assert "reduce tasks=2" in out

    def test_run_barrier_mode(self, capsys):
        assert main(["run", "wc", "--mode", "barrier", "--records", "200"]) == 0
        assert "mode=barrier" in capsys.readouterr().out

    def test_run_with_spillmerge(self, capsys):
        assert main(["run", "wc", "--records", "200", "--store",
                     "spillmerge"]) == 0
        assert "store=spillmerge" in capsys.readouterr().out

    def test_run_bs(self, capsys):
        assert main(["run", "bs", "--records", "2000", "--maps", "2"]) == 0
        out = capsys.readouterr().out
        assert "'mean'" in out

    def test_compare_wc(self, capsys):
        assert main(["compare", "wc", "--size-gb", "4"]) == 0
        out = capsys.readouterr().out
        assert "With barrier" in out
        assert "Improvement" in out

    def test_compare_bs_forces_single_reducer(self, capsys):
        assert main(["compare", "bs", "--mappers", "50"]) == 0
        assert "(1 reducers)" in capsys.readouterr().out

    def test_figure_fig8(self, capsys):
        assert main(["figure", "fig8"]) == 0
        assert "Reducers" in capsys.readouterr().out

    def test_figure_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "KILLED" in out  # panel (a) job death is rendered
        assert "spill and merge" in out

    def test_multiple_figures(self, capsys):
        assert main(["figure", "fig7", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "===== fig7 =====" in out
        assert "===== fig10 =====" in out


class TestExportCommands:
    def test_export_command(self, tmp_path, capsys):
        assert main(["export", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table2_loc.csv" in out
        assert (tmp_path / "fig8_reducers.csv").exists()

    def test_figure_with_csv_flag(self, tmp_path, capsys):
        assert main(["figure", "fig8", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig9_memory_vs_reducers.csv").exists()


class TestPipelineCommand:
    def test_similarity_pipeline(self, capsys):
        assert main(["pipeline", "similarity", "--size", "30"]) == 0
        assert "similar pairs" in capsys.readouterr().out

    def test_smt_pipeline(self, capsys):
        assert main(["pipeline", "smt", "--size", "40"]) == 0
        out = capsys.readouterr().out
        assert "source words" in out
        assert "->" in out

    def test_smt_barrier_mode(self, capsys):
        assert main(["pipeline", "smt", "--size", "30", "--mode", "barrier"]) == 0


def _subcommands() -> list[str]:
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {command}")


def test_readme_cli_block_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    listed = {line.split()[3] for line in block.splitlines()
              if line.startswith("python -m repro.cli ")}
    assert set(_subcommands()) <= listed


class TestChaosCommand:
    def test_rows_match_clean_runs(self, capsys):
        assert main(["chaos", "wc", "--records", "120"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("wc ")]
        assert [(row[1], row[-1]) for row in rows] == [
            ("barrier", "ok"), ("barrierless", "ok"),
        ]

    def test_checkpoint_adds_a_streaming_row(self, capsys):
        assert main(["chaos", "wc", "--records", "120", "--checkpoint"]) == 0
        out = capsys.readouterr().out
        assert "ckpts" in out.splitlines()[1]
        rows = [line.split() for line in out.splitlines()
                if line.startswith("wc ")]
        assert [(row[1], row[-1]) for row in rows] == [
            ("barrier", "ok"), ("barrierless", "ok"), ("streaming", "ok"),
        ]


class TestServerCommands:
    @pytest.fixture
    def server(self):
        from repro.server import JobServer

        with JobServer(slots=2, tenants={"acme": 2.0}) as server:
            yield server

    def test_top_renders_a_server_status_file(self, server, tmp_path, capsys):
        job_id = server.submit("acme", "wc", records=60)
        server.wait(job_id)
        path = tmp_path / "status.json"
        path.write_text(json.dumps(server.status()))
        assert main(["top", "--once", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("job server @")
        assert "tenants (1):" in out and "acme" in out

    def test_submit_wait_then_jobs(self, server, capsys):
        target = f"{server.host}:{server.port}"
        assert main(["submit", "wc", "--server", target, "--tenant", "acme",
                     "--records", "100", "--wait"]) == 0
        job_id, _, record = capsys.readouterr().out.partition("\n")
        assert json.loads(record)["state"] == "done"
        assert json.loads(record)["job_id"] == job_id

        assert main(["jobs", "--server", target]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == ["JOB", "TENANT", "APP", "MODE", "STATE",
                                    "DIGEST"]
        assert table[1].split()[:5] == [job_id, "acme", "wc", "barrierless",
                                        "done"]

        assert main(["jobs", "--server", target, "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert (entry["job_id"], entry["state"]) == (job_id, "done")


@pytest.mark.parametrize("argv, bad", [
    (["submit", "wc", "--server", "localhost"], "localhost"),
    (["jobs", "--server", "127.0.0.1:"], "127.0.0.1:"),
    (["jobs", "--server", "127.0.0.1:70000"], "127.0.0.1:70000"),
    (["serve", "--tenant", "acme:x"], "acme:x"),
    (["top", "--file", "{missing}"], "{missing}"),
    (["metrics", "--file", "{missing}"], "{missing}"),
], ids=["submit-server", "jobs-server", "jobs-port-range", "serve-tenant",
        "top-file", "metrics-file"])
def test_bad_input_is_a_usage_error(argv, bad, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(missing=missing) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert bad.format(missing=missing) in err.splitlines()[-1]
    assert "Traceback" not in err

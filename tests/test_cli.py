"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.state import STATE_SCHEMA_VERSION


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestList:
    def test_lists_registries(self, capsys):
        out = run_cli(capsys, "list")
        assert "freqtier" in out
        assert "cdn" in out
        assert "gap-bfs" in out

    def test_json_output(self, capsys):
        out = run_cli(capsys, "list", "--json")
        data = json.loads(out)
        assert "autonuma" in data["policies"]
        assert "xgboost" in data["workloads"]


class TestRun:
    def test_basic_run(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--batches",
            "10",
            "--local-fraction",
            "0.1",
        )
        assert "hit_ratio" in out

    def test_json_run_with_baseline(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "static",
            "--batches",
            "5",
            "--baseline",
            "--json",
        )
        data = json.loads(out)
        assert data["policy"] == "Static"
        assert 0.0 < data["pct_all_local_throughput"] <= 1.001

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--workload",
                    "zipf",
                    "--policy",
                    "nope",
                    "--batches",
                    "2",
                ]
            )

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--workload",
                    "nope",
                    "--policy",
                    "static",
                    "--batches",
                    "2",
                ]
            )

    def test_cxl2_flag(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "static",
            "--batches",
            "5",
            "--cxl",
            "2",
            "--json",
        )
        assert json.loads(out)["workload"] == "synthetic-zipf"


class TestCompare:
    def test_default_lineup(self, capsys):
        out = run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "8",
            "--policies",
            "freqtier,static",
        )
        assert "AllLocal" in out
        assert "freqtier" in out
        assert "static" in out

    def test_json(self, capsys):
        out = run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "5",
            "--policies",
            "static",
            "--json",
        )
        data = json.loads(out)
        assert set(data) == {"AllLocal", "static"}


class TestSweep:
    def test_sweep_rows(self, capsys):
        out = run_cli(
            capsys,
            "sweep",
            "--workload",
            "zipf",
            "--policy",
            "static",
            "--batches",
            "5",
            "--fractions",
            "0.05,0.2",
        )
        assert "5.00%" in out
        assert "20.00%" in out


class TestCompareReport:
    def test_report_written(self, capsys, tmp_path):
        report_path = tmp_path / "report.md"
        run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "5",
            "--policies",
            "static",
            "--report",
            str(report_path),
        )
        text = report_path.read_text()
        assert "# zipf @" in text
        assert "## Traffic breakdown" in text


class TestRecordReplay:
    def test_record_then_replay(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.npz")
        out = run_cli(
            capsys,
            "record",
            "--workload",
            "zipf",
            "--batches",
            "4",
            "--out",
            trace_path,
            "--json",
        )
        rec = json.loads(out)
        assert rec["batches"] == 4

        out = run_cli(
            capsys,
            "replay",
            "--trace",
            trace_path,
            "--policy",
            "static",
            "--json",
        )
        data = json.loads(out)
        assert data["workload"].startswith("trace:")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTracing:
    def run_traced(self, capsys, tmp_path) -> str:
        trace_path = str(tmp_path / "run.jsonl")
        run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--batches",
            "40",
            "--trace",
            trace_path,
        )
        return trace_path

    def test_run_trace_is_schema_valid(self, capsys, tmp_path):
        from repro.analysis.tracetool import validate_trace

        validation = validate_trace(self.run_traced(capsys, tmp_path))
        assert validation.ok
        assert validation.num_lines > 0
        types = {e["type"] for e in validation.events}
        assert "batch" in types
        assert "state_transition" in types
        assert "promotion" in types

    def test_trace_validate_subcommand(self, capsys, tmp_path):
        trace_path = self.run_traced(capsys, tmp_path)
        out = run_cli(capsys, "trace", "validate", trace_path)
        assert "OK" in out

    def test_trace_validate_fails_on_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "nope", "t_ns": 0.0, "seq": 0}\n')
        assert main(["trace", "validate", str(bad)]) == 1

    def test_trace_summarize_subcommand(self, capsys, tmp_path):
        trace_path = self.run_traced(capsys, tmp_path)
        out = run_cli(capsys, "trace", "summarize", trace_path)
        assert "events:" in out
        assert "state/level timeline" in out

    def test_trace_summarize_json(self, capsys, tmp_path):
        trace_path = self.run_traced(capsys, tmp_path)
        out = run_cli(capsys, "trace", "summarize", trace_path, "--json")
        data = json.loads(out)
        assert data["num_events"] > 0
        assert data["event_counts"]["batch"] == 40

    def test_compare_writes_per_policy_traces(self, capsys, tmp_path):
        from repro.analysis.tracetool import validate_trace

        trace_dir = tmp_path / "traces"
        run_cli(
            capsys,
            "compare",
            "--workload",
            "zipf",
            "--batches",
            "5",
            "--policies",
            "freqtier,static",
            "--trace",
            str(trace_dir),
        )
        for name in ("AllLocal", "freqtier", "static"):
            validation = validate_trace(trace_dir / f"{name}.jsonl")
            assert validation.ok, name
            assert validation.num_lines > 0, name


class TestCheckpointCLI:
    def _run_json(self, capsys, *extra) -> dict:
        out = run_cli(
            capsys,
            "run",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--local-fraction",
            "0.1",
            "--json",
            *extra,
        )
        return json.loads(out)

    def test_kill_resume_matches_uninterrupted_run(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck")
        reference = self._run_json(capsys, "--batches", "30")
        # "Kill" after 14 batches (checkpoints at 5 and 10), then resume.
        self._run_json(
            capsys,
            "--batches",
            "14",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "5",
        )
        resumed = self._run_json(
            capsys,
            "--batches",
            "30",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "5",
            "--resume",
        )
        assert resumed == reference

    def test_checkpoint_inspect_reports_generations(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck")
        self._run_json(
            capsys,
            "--batches",
            "10",
            "--checkpoint-dir",
            ckpt,
            "--checkpoint-every",
            "5",
        )
        out = run_cli(capsys, "checkpoint", "inspect", ckpt, "--json")
        data = json.loads(out)
        assert data["resumable"] is True
        assert len(data["generations"]) == 2
        assert all(g["valid"] for g in data["generations"])

    def test_resume_refuses_old_schema_snapshot(self, capsys, tmp_path):
        ckpt = tmp_path / "ck"
        args = ("--checkpoint-dir", str(ckpt), "--checkpoint-every", "5")
        self._run_json(capsys, "--batches", "5", *args)
        (snap,) = ckpt.glob("snap-*.json")
        doc = json.loads(snap.read_text())
        doc["schema"] = STATE_SCHEMA_VERSION - 1
        snap.write_text(json.dumps(doc))
        assert main(["checkpoint", "inspect", str(ckpt), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["resumable"] is False
        (entry,) = data["generations"]
        assert entry["valid"] is False
        assert f"schema {STATE_SCHEMA_VERSION - 1}" in entry["error"]
        with pytest.raises(SystemExit, match="cannot resume: .*schema"):
            self._run_json(capsys, "--batches", "10", *args, "--resume")
        assert snap.exists()

    def test_inspect_missing_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["checkpoint", "inspect", str(tmp_path / "nope")])

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(
                [
                    "run",
                    "--workload",
                    "zipf",
                    "--policy",
                    "freqtier",
                    "--batches",
                    "5",
                    "--resume",
                ]
            )


class TestPartialFailureExitCodes:
    CRASH = '{"crash_after_batches": 3}'

    def _compare_argv(self, *extra) -> list:
        return [
            "compare",
            "--workload",
            "zipf",
            "--policies",
            "freqtier",
            "--batches",
            "8",
            "--keep-going",
            "--faults",
            self.CRASH,
            *extra,
        ]

    def test_compare_with_failed_cells_exits_1(self, capsys):
        assert main(self._compare_argv()) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_ok_on_partial_restores_exit_0(self, capsys):
        assert main(self._compare_argv("--ok-on-partial")) == 0

    def test_sweep_with_failed_cells_exits_1(self, capsys):
        argv = [
            "sweep",
            "--workload",
            "zipf",
            "--policy",
            "freqtier",
            "--fractions",
            "0.1",
            "--batches",
            "8",
            "--keep-going",
            "--faults",
            self.CRASH,
        ]
        assert main(argv) == 1
        assert main(argv + ["--ok-on-partial"]) == 0

    def test_fault_free_compare_still_exits_0(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--workload",
                    "zipf",
                    "--policies",
                    "static",
                    "--batches",
                    "5",
                ]
            )
            == 0
        )

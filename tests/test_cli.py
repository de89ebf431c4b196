"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import build_parser, main
from repro.cluster import ClusterOrchestrator
from repro.errors import ClusterError


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["quickstart"])
        assert args.command == "quickstart"
        for command in ("compare", "fig2", "fig4", "fig5", "table1", "table2", "cluster"):
            assert build_parser().parse_args([command]).command == command

    def test_cluster_accepts_trailing_seed(self):
        # The global --seed/--power-cap are also accepted after the
        # subcommand (and win when given there).
        args = build_parser().parse_args(["cluster", "--servers", "2", "--seed", "3"])
        assert args.servers == 2
        assert args.seed == 3
        args = build_parser().parse_args(["--seed", "9", "cluster"])
        assert args.seed == 9

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(["--seed", "7", "--power-cap", "90", "quickstart"])
        assert args.seed == 7
        assert args.power_cap == pytest.approx(90.0)


class TestCommands:
    def test_quickstart_prints_metrics(self, capsys):
        assert main(["quickstart", "--frames", "60"]) == 0
        output = capsys.readouterr().out
        assert "mean FPS" in output
        assert "QoS violations" in output

    def test_fig2_prints_the_sweep(self, capsys):
        assert main(["fig2", "--frames", "6"]) == 0
        output = capsys.readouterr().out
        assert "threads" in output and "QP" in output

    def test_fig5_prints_a_trace(self, capsys):
        assert main(["fig5", "--frames", "60"]) == 0
        output = capsys.readouterr().out
        assert "frame" in output and "freq (GHz)" in output

    def test_compare_prints_all_controllers(self, capsys):
        assert main(
            ["compare", "--hr", "1", "--lr", "0", "--frames", "48", "--warmup-videos", "0"]
        ) == 0
        output = capsys.readouterr().out
        for name in ("Heuristic", "MonoAgent", "MAMUT"):
            assert name in output

    def test_table2_with_custom_mixes(self, capsys):
        assert main(
            [
                "table2",
                "--mixes",
                "1x1",
                "--frames-per-video",
                "24",
                "--warmup-videos",
                "0",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "1HR1LR" in output

    def test_cluster_prints_summary(self, capsys):
        assert main(
            [
                "cluster",
                "--servers",
                "2",
                "--arrival-rate",
                "0.5",
                "--duration",
                "30",
                "--frames-per-video",
                "12",
                "--seed",
                "1",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "admitted sessions" in output
        assert "fleet power (W)" in output
        assert "srv-0" in output and "srv-1" in output

    @pytest.mark.parametrize(
        "flags",
        [
            ["--fault-zones", "0"],
            ["--fault-racks-per-zone", "0"],
            ["--fault-retries", "-1"],
        ],
    )
    def test_cluster_rejects_invalid_fault_flags_before_running(
        self, flags, monkeypatch
    ):
        # Invalid fault flags fail with no fault mode on, too, and before
        # the run starts.
        def run(*args, **kwargs):
            pytest.fail("the cluster run started")

        monkeypatch.setattr(ClusterOrchestrator, "run", run)
        with pytest.raises(ClusterError):
            main(["cluster", "--duration", "5", *flags])

    def test_cluster_brownout_prints_overload_metrics(self, capsys):
        assert main(
            [
                "cluster",
                "--servers",
                "1",
                "--traffic",
                "flash",
                "--arrival-rate",
                "0.8",
                "--duration",
                "30",
                "--frames-per-video",
                "10",
                "--patience",
                "4",
                "--brownout",
                "--seed",
                "1",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "dropped (patience)" in output
        assert "shed rate" in output
        assert "brownout steps" in output
        assert "degraded sessions" in output

    def test_cluster_class_aware_admission_runs(self, capsys):
        assert main(
            [
                "cluster",
                "--servers",
                "2",
                "--admission",
                "class-aware",
                "--hr-max-queue",
                "20",
                "--lr-max-queue",
                "2",
                "--lr-patience",
                "3",
                "--queue-while-warming",
                "--duration",
                "20",
                "--frames-per-video",
                "8",
                "--seed",
                "1",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "class-aware admission" in output

    def test_cluster_autoscale_prints_elasticity_metrics(self, capsys):
        assert main(
            [
                "cluster",
                "--servers",
                "1",
                "--traffic",
                "flash",
                "--arrival-rate",
                "0.4",
                "--duration",
                "40",
                "--frames-per-video",
                "10",
                "--autoscale",
                "reactive",
                "--max-servers",
                "4",
                "--warmup-steps",
                "2",
                "--seed",
                "1",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "reactive autoscaling" in output
        assert "mean fleet size" in output
        assert "scale-up events" in output


class TestObservabilityCommands:
    """The obs family: cluster --summary-out/--slo-*, obs report, obs compare."""

    BASE = [
        "cluster", "--servers", "2", "--arrival-rate", "1.0",
        "--duration", "30", "--traffic", "flash", "--patience", "8",
        "--frames-per-video", "12", "--seed", "1",
    ]

    def run_scenario(self, tmp_path, name, extra=()):
        summary_out = tmp_path / f"{name}.json"
        trace_out = tmp_path / f"{name}.jsonl"
        argv = self.BASE + list(extra) + [
            "--summary-out", str(summary_out), "--trace-out", str(trace_out),
        ]
        assert main(argv) == 0
        return summary_out, trace_out

    def test_parser_registers_obs_commands(self):
        args = build_parser().parse_args(["obs", "report", "t.jsonl"])
        assert args.command == "obs" and args.obs_command == "report"
        args = build_parser().parse_args(["obs", "compare", "a.json", "b.json"])
        assert args.obs_command == "compare"

    def test_cluster_slo_flags_print_report(self, capsys):
        assert main(
            self.BASE + ["--slo-queue-wait-p95", "2", "--slo-shed-rate", "5",
                         "--slo-window", "8", "--slo-budget", "10"]
        ) == 0
        output = capsys.readouterr().out
        assert "SLO report:" in output
        assert "queue-wait-p95" in output and "shed-rate" in output
        assert "BREACHED" in output or "OK" in output

    def test_summary_artifact_has_provenance(self, tmp_path, capsys):
        import json

        summary_out, _ = self.run_scenario(tmp_path, "run")
        artifact = json.loads(summary_out.read_text())
        assert artifact["provenance"]["kind"] == "cluster"
        assert artifact["provenance"]["seed"] == {"seed": 1}
        assert artifact["provenance"]["config"]["servers"] == 2
        assert artifact["summary"]["arrivals"] > 0

    #: The scenario fingerprint of a default ``cluster`` invocation, as
    #: artifacts written before the fingerprint became a deny-list carry it.
    DEFAULT_FINGERPRINT_KEYS = {
        "servers", "arrival_rate", "duration", "traffic", "admission",
        "dispatch", "max_sessions_per_server", "max_queue", "hr_max_queue",
        "lr_max_queue", "patience", "hr_patience", "lr_patience",
        "queue_while_warming", "brownout", "brownout_fps_relax",
        "brownout_extra_sessions", "hr_fraction", "frames_per_video",
        "playlist_videos", "autoscale", "min_servers", "max_servers",
        "warmup_steps", "no_drain", "fault_mtbf", "fault_mttr",
        "fault_straggler_mtbf", "fault_straggler_duration",
        "fault_warmup_failure", "fault_retries", "fault_backoff",
        "fault_zones", "fault_racks_per_zone", "fault_zone_mtbf",
        "fault_zone_mttr", "kill_zone", "checkpoint_interval", "power_cap",
    }

    def test_default_invocation_fingerprints_the_same_keys(self, tmp_path, capsys):
        # Existing --summary-out artifacts stay comparable with new ones.
        summary_out = tmp_path / "default.json"
        assert main(
            ["cluster", "--duration", "2", "--summary-out", str(summary_out)]
        ) == 0
        config = json.loads(summary_out.read_text())["provenance"]["config"]
        assert len(self.DEFAULT_FINGERPRINT_KEYS) == 39
        assert set(config) == self.DEFAULT_FINGERPRINT_KEYS

    def test_obs_report_reconciles_and_exits_zero(self, tmp_path, capsys):
        summary_out, trace_out = self.run_scenario(tmp_path, "run")
        capsys.readouterr()
        assert main(["obs", "report", str(trace_out),
                     "--summary", str(summary_out)]) == 0
        output = capsys.readouterr().out
        assert "Latency breakdown" in output
        assert "Reconciliation" in output and "OK" in output

    def test_obs_report_fails_on_mismatched_summary(self, tmp_path, capsys):
        import json

        summary_out, trace_out = self.run_scenario(tmp_path, "run")
        artifact = json.loads(summary_out.read_text())
        artifact["summary"]["rejected"] += 1
        summary_out.write_text(json.dumps(artifact))
        assert main(["obs", "report", str(trace_out),
                     "--summary", str(summary_out)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_obs_compare_identical_runs_pass(self, tmp_path, capsys):
        a, _ = self.run_scenario(tmp_path, "a")
        b, _ = self.run_scenario(tmp_path, "b")
        capsys.readouterr()
        assert main(["obs", "compare", str(a), str(b)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_obs_compare_refuses_different_scenarios(self, tmp_path, capsys):
        a, _ = self.run_scenario(tmp_path, "a")
        degraded, _ = self.run_scenario(tmp_path, "deg", extra=["--servers", "1"])
        capsys.readouterr()
        assert main(["obs", "compare", str(a), str(degraded)]) == 2
        assert "not comparable" in capsys.readouterr().out

    def test_obs_compare_forced_diff_flags_regression(self, tmp_path, capsys):
        a, _ = self.run_scenario(tmp_path, "a")
        degraded, _ = self.run_scenario(tmp_path, "deg", extra=["--servers", "1"])
        capsys.readouterr()
        assert main(["obs", "compare", str(a), str(degraded), "--force"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_obs_compare_tolerance_and_ignore(self, tmp_path, capsys):
        import json

        a, _ = self.run_scenario(tmp_path, "a")
        b = tmp_path / "b.json"
        artifact = json.loads(a.read_text())
        artifact["summary"]["fleet_mean_power_w"] *= 1.005  # 0.5% drift
        b.write_text(json.dumps(artifact))
        assert main(["obs", "compare", str(a), str(b)]) == 1
        assert main(["obs", "compare", str(a), str(b), "--rel-tol", "0.01"]) == 0
        assert main(["obs", "compare", str(a), str(b),
                     "--ignore", "summary.fleet_mean_power_w"]) == 0


def test_caplog_sees_repro_records_after_the_cli_tests(caplog):
    """Runs after this file's CLI tests, which each configure logging.

    The ``repro`` logger is restored after every test, so it propagates to
    the root logger, where ``caplog`` listens, instead of writing to a CLI
    test's closed capture stream.
    """
    caplog.set_level(logging.INFO, logger="repro")
    logging.getLogger("repro.cli").info("after the CLI tests")
    assert caplog.messages == ["after the CLI tests"]

"""Additional CLI coverage: apps subcommand, parser defaults, fig1."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestAppsCommand:
    def test_apps_runs_small(self, capsys):
        rc = main([
            "apps", "--switches", "4", "--iterations", "1",
            "--packet-size", "128", "--hosts-per-switch", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "EXP-M2" in out
        assert "all-to-all" in out and "ring" in out


class TestParserDefaults:
    def test_fig7_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.iterations == 20
        assert not args.full and not args.plot

    def test_throughput_defaults(self):
        args = build_parser().parse_args(["throughput"])
        assert args.switches == 16
        assert args.packet_size == 512
        assert len(args.rates) == 3

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.iterations == 20
        assert not args.throughput

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_discover_random(self, capsys):
        rc = main(["discover", "--topology", "random", "--switches", "4"])
        assert rc == 0
        assert "switches discovered" in capsys.readouterr().out


class TestRunCommand:
    def test_run_experiment_by_name(self, capsys):
        rc = main(["run", "fig7", "--iterations", "2"])
        assert rc == 0
        assert "paper ~125 ns" in capsys.readouterr().out

    def test_run_with_jobs_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "doc.json"
        rc = main(["run", "root-study", "--switches", "8",
                   "--jobs", "2", "--save", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        from repro.harness.persist import load_results

        loaded = load_results(out_path)
        assert len(loaded["root-study"].rows) == 2
        assert loaded["specs"]["root-study"].experiment == "root-study"

    def test_list_shows_registered_experiments(self, capsys):
        rc = main(["list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("fig7", "fig8", "throughput", "apps", "root-study"):
            assert name in out

    def test_unknown_experiment_exits_2_with_choices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "teleport"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "fig7" in err

    def test_jobs_zero_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fig7", "--jobs", "0"])
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_jobs_non_integer_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["fig7", "--jobs", "many"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["throughput", "--packet-size", "0"],
        ["throughput", "--duration", "0"],
        ["throughput", "--rates", "0.02", "-0.1"],
        ["vc-study", "--packet-size", "-512"],
        ["vc-study", "--duration", "0"],
        ["vc-study", "--rates", "0"],
        ["fig7", "--iterations", "0"],
        ["fig8", "--iterations", "0"],
        ["throughput", "--switches", "1"],
        ["vc-study", "--switches", "1"],
        ["apps", "--switches", "1"],
        ["root-study", "--switches", "1"],
        ["apps", "--iterations", "0"],
        ["ablation-load", "--iterations", "0"],
        ["ablation-timing", "--iterations", "0"],
        ["throughput", "--hosts-per-switch", "0"],
        ["apps", "--hosts-per-switch", "0"],
        ["root-study", "--hosts-per-switch", "0"],
        ["root-study", "--switch-links", "0"],
        ["fault-campaign", "--loss", "1.5"],
        ["fault-campaign", "--corrupt", "-0.2"],
        ["fault-campaign", "--size", "0"],
        ["fault-campaign", "--messages", "0"],
        ["scale-study", "--targets", "0"],
        ["scale-study", "--targets", "1"],
        ["scale-study", "--rate", "0"],
        ["scale-study", "--rate", "-1"],
        ["scale-study", "--duration", "0"],
        ["scale-study", "--dynamic-max", "-1"],
        ["obs", "--load", "0"],
        ["obs", "--packet-size", "0"],
        ["obs", "--duration", "0"],
        ["obs", "--interval", "0"],
        ["obs", "--topology", "random", "--switches", "1"],
        ["obs", "--topology", "random", "--hosts-per-switch", "0"],
        ["obs", "--trace-every", "-1"],
        ["trace", "summarize", "--load", "-0.1"],
        ["trace", "summarize", "--packet-size", "0"],
        ["trace", "summarize", "--duration", "0"],
        ["trace", "summarize", "--topology", "random", "--switches", "1"],
        ["trace", "summarize", "--topology", "random",
         "--hosts-per-switch", "0"],
        ["discover", "--topology", "random", "--switches", "1"],
        ["discover", "--topology", "random", "--hosts-per-switch", "0"],
        ["all", "--iterations", "0"],
        ["all", "--throughput", "--switches", "1"],
        ["validate", "--iterations", "0"],
        ["topo", "fig6", "--candidates", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_positive_traffic_sizes_exit_2(self, argv, capsys):
        if argv[0] not in ("obs", "trace", "discover", "all", "validate",
                           "topo"):
            argv = ["run", *argv]  # experiment subcommands
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "must be >" in err

    def test_unknown_fault_schedule_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fault-campaign", "--schedules", "bogus"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "invalid choice: 'bogus'" in err

class TestFaultCampaignExitCode:
    def test_default_campaign_exits_0(self, capsys):
        assert main(["run", "fault-campaign"]) == 0
        assert "every message accounted for" in capsys.readouterr().out

    def test_total_loss_fails_every_message_and_exits_0(self, capsys,
                                                          tmp_path):
        """Every packet lost: GM's retry budget runs out inside its
        failure bound, so every message fails with GmSendError — the
        reliability contract holds and the run exits 0."""
        out_path = tmp_path / "fc.json"
        rc = main(["run", "fault-campaign", "--loss", "1.0",
                   "--corrupt", "0.0", "--schedules", "none",
                   "--messages", "2", "--save", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "every message accounted for" in out
        assert f"saved to {out_path}" in out
        from repro.harness.persist import load_results

        result = load_results(out_path)["fault-campaign"]
        assert result.all_accounted
        (row,) = result.rows
        assert (row.messages, row.completed, row.failed) == (4, 0, 4)
        assert row.lost_messages == 0

    def test_unaccounted_message_exits_1(self):
        """A message neither delivered nor failed is a breach: exit 1."""
        from dataclasses import replace

        from repro.exp import get_experiment
        from repro.harness.faultcamp import (FaultCampaignResult,
                                             FaultCampaignRow)

        row = FaultCampaignRow(
            loss=1.0, corrupt=0.0, schedule="none", messages=4,
            delivered=0, completed=0, failed=4, retransmissions=0,
            timeouts=0, nacks=0, packets_lost=0, packets_corrupted=0,
            killed_in_flight=0, faults_injected=0, repairs=0,
            remap_events=0)
        experiment = get_experiment("fault-campaign")
        assert experiment.exit_status(FaultCampaignResult(rows=[row])) == 0
        breach = replace(row, failed=3)
        assert breach.lost_messages == 1
        assert experiment.exit_status(
            FaultCampaignResult(rows=[row, breach])) == 1


class TestAllCommand:
    def test_all_regenerates_and_saves(self, capsys, tmp_path):
        out_path = tmp_path / "results.json"
        rc = main(["all", "--iterations", "3", "--save", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig7" in out and "fig8" in out
        assert out_path.exists()
        from repro.harness.persist import load_results

        loaded = load_results(out_path)
        assert "fig7" in loaded and "fig8" in loaded

    def test_all_without_save(self, capsys):
        rc = main(["all", "--iterations", "3"])
        assert rc == 0
        assert "per-ITB overhead" in capsys.readouterr().out

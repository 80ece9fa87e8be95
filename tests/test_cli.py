"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.catalog import make_protocol
from repro.cli import build_parser, main, make_graph
from repro.constants import ConstantsProfile
from repro.errors import ConfigurationError


class TestFactories:
    def test_make_protocol_known(self):
        protocol = make_protocol("cd-mis", ConstantsProfile.fast())
        assert protocol.name == "cd-mis"

    def test_make_protocol_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            make_protocol("nonsense", ConstantsProfile.fast())

    @pytest.mark.parametrize(
        "topology", ["gnp", "udg", "tree", "path", "cycle", "grid", "star",
                     "clique", "empty", "hard", "gnp-dense"]
    )
    def test_make_graph_families(self, topology):
        graph = make_graph(topology, 16, seed=1)
        assert graph.num_nodes >= 4

    def test_make_graph_unknown(self):
        with pytest.raises(SystemExit):
            make_graph("moebius", 16, seed=1)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "cd-mis"])
        assert args.command == "run"
        assert args.n == 128
        assert args.profile == "practical"

    def test_profile_flag(self):
        args = build_parser().parse_args(["--profile", "fast", "list"])
        assert args.profile == "fast"

    def test_channels_default_inherits(self):
        args = build_parser().parse_args(["run", "mc-luby"])
        assert args.channels == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "mc-luby"],
            ["sweep", "mc-luby"],
            ["experiment", "CHANNELS"],
            ["claims", "verify", "channel_sweep"],
        ],
        ids=["run", "sweep", "experiment", "claims-verify"],
    )
    def test_channels_flag_accepted(self, command):
        args = build_parser().parse_args([*command, "--channels", "4"])
        assert args.channels == 4

    def test_channels_must_be_positive(self):
        for flag in ("--channels", "--sparsify"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "mc-luby", flag, "0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "cd-mis", "--n", "-4"],
            ["run", "cd-mis", "--n", "0"],
            ["run", "cd-mis", "--trials", "-1"],
            ["run", "cd-mis", "--trials", "0"],
            ["sweep", "cd-mis", "--sizes", "8", "0"],
            ["sweep", "cd-mis", "--sizes", "8", "16", "--trials", "0"],
            ["apps", "backbone", "--n", "0"],
            ["lowerbound", "--trials", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_sizes_and_counts_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "must be a positive integer" in capsys.readouterr().err

    def test_make_protocol_mc_luby_channels(self):
        protocol = make_protocol("mc-luby", ConstantsProfile.fast(), channels=4)
        assert protocol.name == "mc-luby"
        assert protocol.channels == 4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "cd-mis" in output
        assert "E12" in output

    def test_run_success_exit_code(self, capsys):
        code = main(
            ["--profile", "fast", "run", "cd-mis", "--n", "24", "--trials", "2"]
        )
        assert code == 0
        assert "cd-mis@cd" in capsys.readouterr().out

    def test_run_with_explicit_model(self, capsys):
        code = main(
            [
                "--profile", "fast", "run", "cd-mis",
                "--n", "16", "--model", "beep", "--topology", "path",
            ]
        )
        assert code == 0

    def test_sweep(self, capsys):
        code = main(
            [
                "--profile", "fast", "sweep", "cd-mis",
                "--sizes", "16", "32", "--trials", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fit" in output

    @pytest.mark.parametrize("sizes", [["16", "16"], ["1", "8"], ["3", "8"]])
    def test_sweep_fit_line_only_inside_the_fit_domain(self, sizes, capsys):
        code = main(
            [
                "--profile", "fast", "sweep", "cd-mis",
                "--sizes", *sizes, "--trials", "1", "--no-cache",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "maxE(mean)" in output
        assert "log-power fit" not in output

    def test_lowerbound(self, capsys):
        code = main(
            [
                "lowerbound", "--n", "16",
                "--budgets", "1", "4", "--trials", "10",
            ]
        )
        assert code == 0
        assert "Theorem 1" in capsys.readouterr().out

    def test_experiment_single(self, capsys):
        code = main(["experiment", "E9"])
        assert code == 0
        assert "backoff" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit, match=r"unknown experiment 'E42'; available: \["):
            main(["experiment", "E42"])

    def test_experiment_unknown_exits_1_without_traceback(self):
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "A4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith("unknown experiment 'A4'; available: [")
        assert "Traceback" not in completed.stderr
        assert completed.stdout == ""

    def test_unbatchable_engine_exits_with_message(self):
        with pytest.raises(SystemExit, match="not batchable"):
            main(["run", "mc-luby", "--n", "16", "--engine", "batch"])


class TestClaimsParser:
    def test_verify_defaults(self):
        args = build_parser().parse_args(["claims", "verify"])
        assert args.claims_command == "verify"
        assert args.claim_ids == []
        assert not args.quick
        assert args.budget is None
        assert args.seed == 0
        assert args.json is None

    def test_verify_flags(self):
        args = build_parser().parse_args(
            ["claims", "verify", "thm2-cd-energy", "--quick",
             "--budget", "50", "--jobs", "2", "--json", "out.json"]
        )
        assert args.claim_ids == ["thm2-cd-energy"]
        assert args.quick and args.budget == 50 and args.jobs == 2

    def test_budget_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["claims", "verify", "--budget", "0"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["claims"])


class TestClaimsCommands:
    def test_list(self, capsys):
        assert main(["claims", "list", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "quick tier" in output
        assert "thm2-cd-energy" in output
        assert "lemma9-backoff-delivery" in output

    def test_verify_unknown_claim_rejected(self):
        with pytest.raises(SystemExit, match="unknown claim"):
            main(["claims", "verify", "thm99-bogus", "--quick"])

    def test_verify_single_claim_writes_document(self, tmp_path, capsys):
        path = tmp_path / "CLAIMS.json"
        code = main(
            ["claims", "verify", "lemma5-residual-shrinkage",
             "--quick", "--json", str(path)]
        )
        assert code == 0
        assert "lemma5-residual-shrinkage" in capsys.readouterr().out
        import json as json_module

        document = json_module.loads(path.read_text())
        assert document["schema"] == "repro-claims/1"
        assert document["claims"][0]["claim_id"] == "lemma5-residual-shrinkage"

    def test_report_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "CLAIMS.json"
        assert main(
            ["claims", "verify", "lemma5-residual-shrinkage",
             "--quick", "--json", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["claims", "report", "--json", str(path)]) == 0
        assert "# Claims verification report" in capsys.readouterr().out

    def test_report_missing_document_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no claims document"):
            main(["claims", "report", "--json", str(tmp_path / "nope.json")])

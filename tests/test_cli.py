"""Tests for the command-line interface."""

import pytest

from repro.api.registry import attack_names
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_command(self):
        args = build_parser().parse_args(
            ["attack", "spectre_v1", "--policy", "wfc", "--secret", "7"])
        assert args.name == "spectre_v1"
        assert args.secret == 7

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "rowhammer"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["attack", "spectre_v1", "--policy", "strict"])

    def test_attack_has_exec_flags(self):
        args = build_parser().parse_args(
            ["attack", "all", "--jobs", "3", "--no-cache",
             "--format", "json"])
        assert args.jobs == 3 and args.no_cache
        assert args.format == "json"

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.count == 10 and args.seed == 0
        assert args.profile == "mixed" and args.policy is None

    def test_verify_flags(self):
        args = build_parser().parse_args(
            ["verify", "--count", "3", "--seed", "7",
             "--profile", "alu", "--policy", "wfc", "--jobs", "2"])
        assert args.count == 3 and args.seed == 7
        assert args.profile == "alu" and args.jobs == 2


class TestCommands:
    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Secure" in out and "WFC" in out

    def test_asm_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("li r1, #5\nhalt"))
        assert main(["asm", "-"]) == 0
        out = capsys.readouterr().out
        assert "li r1, #5" in out

    def test_asm_file(self, capsys, tmp_path):
        source = tmp_path / "prog.s"
        source.write_text("nop\nhalt\n")
        assert main(["asm", str(source)]) == 0
        assert "halt" in capsys.readouterr().out

    def test_asm_error_reported(self, capsys, tmp_path):
        source = tmp_path / "bad.s"
        source.write_text("frobnicate r1\n")
        assert main(["asm", str(source)]) == 1
        assert "error" in capsys.readouterr().err

    def test_workload(self, capsys):
        assert main(["workload", "namd", "--instructions", "1000"]) == 0
        out = capsys.readouterr().out
        assert "namd" in out and "IPC" in out

    def test_attack_single(self, capsys):
        assert main(["attack", "spectre_v1", "--policy", "wfc"]) == 0
        out = capsys.readouterr().out
        assert "spectre_v1" in out and "closed" in out

    def test_attack_streams_verdicts_in_registry_order(self, capsys,
                                                       tmp_path):
        # One cached cell among fresh ones: the one-worker path still
        # prints every verdict in submission (registry) order.
        names = attack_names()
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["attack", names[len(names) // 2], "--policy", "wfc",
                     *cache]) == 0
        capsys.readouterr()
        assert main(["attack", "all", "--policy", "wfc", "--jobs", "1",
                     "--format", "text", *cache]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == names
        assert all(" under wfc" in line for line in lines)

    def test_attack_rejects_non_byte_secret(self, capsys):
        assert main(["attack", "spectre_v1", "--secret", "300",
                     "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: secret must be a byte, got 300\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_rejects_fewer_than_one_job(self, capsys, jobs):
        assert main(["workload", "namd", "--instructions", "1000",
                     "--no-cache", "--jobs", jobs]) == 1
        assert capsys.readouterr().err == \
            f"error: workers must be >= 1, got {jobs}\n"

    def test_figures_small(self, capsys):
        assert main(["figures", "--benchmarks", "namd",
                     "--instructions", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "Figure 16" in out

    def test_verify_small(self, capsys):
        assert main(["verify", "--count", "1", "--seed", "0",
                     "--policy", "wfc", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cases ok" in out

    def test_verify_json(self, capsys):
        import json

        assert main(["verify", "--count", "1", "--seed", "2",
                     "--policy", "baseline", "--no-cache",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["failures"] == 0
        assert payload["verdicts"][0]["seed"] == 2


class TestConfigErrorReporting:
    """Bad ``--set`` paths (and other config mistakes) must exit
    non-zero with a one-line ``error:`` message — never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["attack", "spectre_v1", "--policy", "wfc",
         "--set", "bogus.path=1"],
        ["attack", "spectre_v1", "--set", "core.rob_entries=abc"],
        ["verify", "--count", "1", "--set", "nope=1"],
        ["verify", "--count", "1", "--set", "core.rob_entries"],
        ["verify", "--count", "1", "--profile", "nope"],
        ["run", "namd", "--set", "safespec.sizing=weird"],
    ])
    def test_bad_config_is_one_line_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

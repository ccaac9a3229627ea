"""CLI smoke tests (each command exercises the real stack)."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.hsms == 16 and args.pin == "4927"


class TestCommands:
    def test_params(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "N = 3100" in out
        assert "Bloom key" in out
        assert "Thm 10" in out

    def test_plan(self, capsys):
        assert main(["plan", "--users", "1e8", "--pin-digits", "6"]) == 0
        out = capsys.readouterr().out
        assert "n = 40" in out
        assert "SoloKey" in out

    def test_demo_small(self, capsys):
        assert main(
            ["demo", "--hsms", "8", "--cluster", "3", "--pin", "1234",
             "--message", "cli test"]
        ) == 0
        out = capsys.readouterr().out
        assert "recovered successfully" in out
        assert "forward security" in out

    def test_loadtest_small(self, capsys):
        assert main(
            ["loadtest", "--clients", "4", "--hsms", "8", "--cluster", "3",
             "--tick-interval", "0.01"]
        ) == 0
        out = capsys.readouterr().out
        assert "all sessions recovered their backups" in out
        assert "log epochs committed" in out

    def test_loadtest_sharded(self, capsys):
        assert main(
            ["loadtest", "--clients", "4", "--hsms", "8", "--cluster", "3",
             "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "across 2 shard lanes" in out
        assert "all sessions recovered" in out

    def test_attack_fallback(self, capsys, monkeypatch, tmp_path):
        """Without ``examples/`` next to the package, ``attack`` runs the
        stolen-key attack inline: one HSM is below the threshold."""
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "repro" / "cli.py"))
        assert main(["attack"]) == 0
        assert "one stolen HSM decrypts: None" in capsys.readouterr().out

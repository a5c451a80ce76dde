"""Tests for the ``python -m repro`` CLI driver."""

from __future__ import annotations

import re

import pytest

from repro import cli
from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.n == 100_000
        assert args.spec == "ap1000"
        assert args.max_dim == 5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_spec_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--spec", "cray"])


class TestDispatch:
    def test_perf_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf"])
        assert exc.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(set(re.findall(
        r"^    python -m repro (\w+)", cli.__doc__, re.MULTILINE))))
    def test_every_documented_command_dispatches(self, command, capsys):
        if command == "all" or hasattr(cli, f"cmd_{command}"):
            assert build_parser().parse_args([command]).command == command
            return
        # a subcommand with its own flag set answers for itself
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert (f"usage: python -m repro {command} "
                in capsys.readouterr().out)


class TestCommands:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1", "-n", "2000", "--max-dim", "2")
        assert code == 0
        assert "Table 1" in out
        assert "procs" in out and "runtime" in out

    def test_figure3(self, capsys):
        code, out = run_cli(capsys, "figure3", "-n", "2000", "--max-dim", "2")
        assert code == 0
        assert "Figure 3" in out and "speedup" in out

    def test_figure2(self, capsys):
        code, out = run_cli(capsys, "figure2", "-n", "32")
        assert code == 0
        for panel in "abcdefgh"[:7]:
            assert f"({panel})" in out

    def test_ablations(self, capsys):
        code, out = run_cli(capsys, "ablations", "-n", "100")
        assert code == 0
        assert "map fusion" in out
        assert "rules fired" in out

    def test_baselines(self, capsys):
        code, out = run_cli(capsys, "baselines", "-n", "3200", "--max-dim", "2")
        assert code == 0
        assert "bitonic" in out

    def test_all_runs_everything(self, capsys):
        code, out = run_cli(capsys, "all", "-n", "2000", "--max-dim", "2")
        assert code == 0
        for marker in ("Table 1", "Figure 3", "Figure 2", "ablations",
                       "bitonic"):
            assert marker in out

    def test_spec_switch(self, capsys):
        _code, modern = run_cli(capsys, "table1", "-n", "2000",
                                "--max-dim", "2", "--spec", "modern")
        assert "modern-cluster" in modern

    def test_seed_changes_figure2_values(self, capsys):
        _c, a = run_cli(capsys, "figure2", "--seed", "1")
        _c, b = run_cli(capsys, "figure2", "--seed", "2")
        assert a != b

    def test_seed_reproducible(self, capsys):
        _c, a = run_cli(capsys, "figure2", "--seed", "5")
        _c, b = run_cli(capsys, "figure2", "--seed", "5")
        assert a == b

    def test_bad_max_dim(self, capsys):
        code = main(["table1", "--max-dim", "0"])
        assert code == 2

    def test_module_entry_point_exists(self):
        import importlib.util

        assert importlib.util.find_spec("repro.__main__") is not None

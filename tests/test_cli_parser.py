"""The per-call parser: ``build_parser(argv)`` gives only the subcommands named in ``argv``
their arguments, and parses every command line as the parser with all three does."""

import argparse
import contextlib
import io
import sys

import pytest

from test_cli_golden import ENERGIES, invocations

from qbcap import cli
from qbcap.cli import build_parser, main

ALL_COMMANDS = ["capacity", "measure", "sweep"]
EDGE_CASES = [
    [],
    ["-h"],
    ["bogus"],
    ["--", "measure", "--werner", "0.6", *ENERGIES],
    ["measure", "--werner", "0.6", *ENERGIES, "--out", "sweep"],
    ["sweep", "--help"],
    ["measure", "--werner", "0.6", "--eps", "0.5", "--eps-b", "0.3"],
]


def parse(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and parsed namespace of ``parser.parse_args(argv)``, the namespace as its
    repr (None on exit) so that a NaN compares equal to itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = repr(vars(parser.parse_args(argv))), 0
        except SystemExit as exc:
            namespace, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def arguments(parser: argparse.ArgumentParser) -> dict[str, list[str]]:
    """The destinations of each subcommand's arguments."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.dest for a in sub._actions] for name, sub in subparsers.choices.items()}


@pytest.mark.parametrize("argv", invocations() + EDGE_CASES, ids=" ".join)
def test_parser_of_the_call_parses_as_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parse(build_parser(argv), argv) == parse(build_parser(ALL_COMMANDS), argv)


def test_only_the_named_subcommand_gets_arguments():
    built = arguments(build_parser(["capacity", "--werner", "0.6", *ENERGIES]))
    assert list(built) == ALL_COMMANDS
    assert "werner" in built["capacity"]
    assert built["measure"] == built["sweep"] == ["help"]
    assert all(len(dests) > 1 for dests in arguments(build_parser(ALL_COMMANDS)).values())


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    argv = ["measure", "--werner", "0.6", *ENERGIES, "--basis", "rotated", "0.9", "2.1"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda args, real=cli.build_parser: built.append(list(args)) or real(args))
    monkeypatch.setattr(sys, "argv", ["qbcap", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected
    assert built == [argv]


def test_help_wraps_to_the_width_of_each_call(monkeypatch, capsys):
    # The width is read per call, so a COLUMNS set between two in-process calls applies to the second.
    helps = []
    for columns in ("60", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--help"])
        reference = cli._Parser(prog="qbcap measure")  # argparse's own HelpFormatter, reading COLUMNS itself
        cli._add_measure_arguments(reference)
        assert (exc.value.code, capsys.readouterr().out) == (0, reference.format_help())
        helps.append(reference.format_help())
    assert helps[0] != helps[1]

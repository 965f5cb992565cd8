"""The per-call parser: ``build_parser(argv)`` builds a parser only for the subcommands named in
``argv``, registers the others by name and help line, and parses every command line as the parser
with all three does. Its flags are argparse actions added directly from the ``SUBCOMMANDS`` table;
``helpers.reference_parser`` builds the same table through ``add_argument``, and the two parse and
print help alike."""

import argparse
import contextlib
import hashlib
import io
import json
import sys

import pytest

from helpers import ReferenceParser, add_reference_arguments, reference_parser
from test_cli_golden import ENERGIES, FIXTURE, HELP, invocations

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
    ["meas"],
    ["capacity", "measure"],
    ["--bogus", "sweep"],
    ["-h", "measure"],
    ["sweep", "--figure", "fig9"],
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


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """Each subcommand's ``choices`` entry: its parser, or None where none was built."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def destinations(parser: argparse.ArgumentParser) -> list[str]:
    return [a.dest for a in parser._actions]


def full_destinations(name: str) -> list[str]:
    """The destinations of subcommand ``name`` built on its own by ``add_argument``, with all of its arguments."""
    return destinations(add_reference_arguments(ReferenceParser(prog=f"qbcap {name}"), name))


@pytest.mark.parametrize("argv", invocations() + EDGE_CASES, ids=" ".join)
def test_parser_of_the_call_parses_as_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parse(build_parser(argv), argv) == parse(build_parser(ALL_COMMANDS), argv)


@pytest.mark.parametrize("argv", invocations() + EDGE_CASES, ids=" ".join)
def test_parser_of_the_call_parses_as_the_add_argument_reference(argv, monkeypatch):
    # Namespace, usage-error stderr, help and exit code, against the flags registered by add_argument.
    monkeypatch.setenv("COLUMNS", "80")
    assert parse(build_parser(argv), argv) == parse(reference_parser(), argv)


@pytest.mark.parametrize("columns", ["60", "80", "100"])
@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_is_the_add_argument_references_at_each_width(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err, _ = parse(build_parser(argv), argv)
    assert (code, out, err) == parse(reference_parser(), argv)[:3] and code == 0 and out.startswith("usage: qbcap")


def test_only_the_named_subcommand_gets_a_parser():
    built = subcommands(build_parser(["capacity", "--werner", "0.6", *ENERGIES]))
    assert list(built) == ALL_COMMANDS
    assert built["measure"] is None and built["sweep"] is None
    assert destinations(built["capacity"]) == full_destinations("capacity")
    full = subcommands(build_parser(ALL_COMMANDS))
    assert {name: destinations(sub) for name, sub in full.items()} == {name: full_destinations(name) for name in ALL_COMMANDS}


def test_a_call_builds_two_parsers_and_makes_half_the_lookups(monkeypatch, capsys):
    # The work the per-call parser saves, counted rather than timed: parsers built, argparse's gettext lookups
    # and its registrations.
    counts = {"parsers": 0, "lookups": 0, "registrations": 0}

    def counting_init(self, *args, real=cli._Parser.__init__, **kwargs):
        counts["parsers"] += 1
        real(self, *args, **kwargs)

    def counting_lookup(message, real=argparse._):
        counts["lookups"] += 1
        return real(message)

    def counting_register(self, *args, real=argparse._ActionsContainer.register):
        counts["registrations"] += 1
        real(self, *args)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.setattr(argparse, "_", counting_lookup)
    monkeypatch.setattr(argparse._ActionsContainer, "register", counting_register)

    def count(built: list[str], argv: list[str]) -> dict[str, int]:
        counts.update(parsers=0, lookups=0, registrations=0)
        build_parser(built).parse_args(argv)
        return dict(counts)

    # Each parser makes 2 lookups, its two group titles: its help flag's text is added untranslated.
    # Each makes argparse's 13 registrations, 12 actions and 1 type, and its groups none: a stock group
    # would repeat the 12 action registrations, 86 in all for this call.
    argv = ["measure", "--werner", "0.6", *ENERGIES]
    call, full = count(argv, argv), count(ALL_COMMANDS, argv)
    assert (call["parsers"], full["parsers"]) == (2, 4)
    assert (call["lookups"], full["lookups"]) == (4, 8)
    assert (call["registrations"], full["registrations"]) == (26, 52)

    monkeypatch.setenv("COLUMNS", "80")
    counts.update(parsers=0)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    (pin,) = [e for e in json.loads(FIXTURE.read_text()) if e["argv"] == ["--help"]]
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (counts["parsers"], exc.value.code, digest) == (1, pin["exit"], pin["stdout_sha256"])


def test_groups_have_the_stock_layout_on_the_parsers_tables():
    # A group of a built parser has the attributes a stock group built on that parser has, and shares its
    # parser's tables by identity, so that an argparse whose group layout differs fails here, not in a call.
    sub = subcommands(build_parser(["measure"]))["measure"]
    groups = [*sub._action_groups, *sub._mutually_exclusive_groups]
    assert [type(g) for g in groups] == [argparse._ArgumentGroup] * 2 + [argparse._MutuallyExclusiveGroup]
    assert [g.title for g in groups] == ["positional arguments", "options", None]
    for group in groups:
        if isinstance(group, argparse._MutuallyExclusiveGroup):
            stock = argparse._MutuallyExclusiveGroup(sub, required=True)
            assert group.required is True and group._container is sub
        else:
            stock = argparse._ArgumentGroup(sub, title=group.title)
        assert sorted(vars(group)) == sorted(vars(stock))
        for name in ("_registries", "_actions", "_option_string_actions", "_defaults"):
            assert getattr(group, name) is getattr(sub, name) is getattr(stock, name)
    assert [a.dest for a in groups[2]._group_actions] == [option[2:].replace("-", "_") for option in cli.STATE_SOURCES]


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
        # argparse's own HelpFormatter, reading COLUMNS itself, and flags registered by add_argument
        reference = add_reference_arguments(ReferenceParser(prog="qbcap measure"), "measure")
        assert (exc.value.code, capsys.readouterr().out) == (0, reference.format_help())
        helps.append(reference.format_help())
    assert helps[0] != helps[1]

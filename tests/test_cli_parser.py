"""The parse route of a call: ``parse_command`` parses a call that names a subcommand first with that
subcommand's parser alone, and any other command line, or one that leaves arguments over, with the
qbcap parser of ``build_parser()``; either way every command line parses as the qbcap parser parses it.
The flags are argparse actions added directly from the ``SUBCOMMANDS`` table;
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
CALL = ["measure", "--werner", "0.6", *ENERGIES]
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
    # a full call with arguments left over, which the subcommand's parser leaves to the qbcap parser, or -h
    [*CALL, "--bogus"],
    [*CALL, "extra"],
    [*CALL, "--", "x"],
    [*CALL, "-h"],
]


def route(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``argv`` on the route ``cli.main`` takes."""
    return cli.parse_command(argv)[0]


def parse(parse_args, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and parsed namespace of ``parse_args(argv)``, the namespace as its repr
    (None on exit), so that a NaN compares equal to itself and the attributes compare in order."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = repr(vars(parse_args(argv))), 0
        except SystemExit as exc:
            namespace, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """Each subcommand's parser, by name, in the ``choices`` of ``parser``'s subparsers action."""
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
    assert parse(route, argv) == parse(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", invocations() + EDGE_CASES, ids=" ".join)
def test_parser_of_the_call_parses_as_the_add_argument_reference(argv, monkeypatch):
    # Namespace, usage-error stderr, help and exit code, against the flags registered by add_argument.
    monkeypatch.setenv("COLUMNS", "80")
    assert parse(route, argv) == parse(reference_parser().parse_args, argv)


@pytest.mark.parametrize("columns", ["60", "80", "100"])
@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_is_the_add_argument_references_at_each_width(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err, _ = parse(route, argv)
    assert (code, out, err) == parse(reference_parser().parse_args, argv)[:3] and code == 0 and out.startswith("usage: qbcap")


def test_a_call_is_parsed_by_its_subcommands_parser_with_all_its_arguments():
    for name in ALL_COMMANDS:
        args, parser = cli.parse_command([name, "--format", "json"] if name == "sweep" else [name, *CALL[1:]])
        assert (args.command, parser.prog) == (name, f"qbcap {name}")
        assert destinations(parser) == full_destinations(name)
    full = subcommands(build_parser())
    assert list(full) == ALL_COMMANDS
    assert {name: destinations(sub) for name, sub in full.items()} == {name: full_destinations(name) for name in ALL_COMMANDS}


def test_a_call_builds_one_parser_and_makes_a_quarter_of_the_lookups(monkeypatch, capsys):
    # The work the short route saves, counted through ``main`` rather than timed: parsers built, argparse's
    # gettext lookups and its registrations.
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

    def count(call) -> tuple:
        counts.update(parsers=0, lookups=0, registrations=0)
        return call(), counts["parsers"], counts["lookups"], counts["registrations"]

    # Each parser makes 2 lookups, its two group titles: its help flag's text is added untranslated.
    # Each makes argparse's 13 registrations, 12 actions and 1 type, and its groups none: a stock group
    # would repeat the 12 action registrations. The qbcap parser builds 4 parsers.
    assert count(lambda: main(CALL)) == (0, 1, 2, 13)
    namespace, *full = count(lambda: build_parser().parse_args(CALL))
    assert full == [4, 8, 52] and vars(namespace) == vars(route(CALL))
    capsys.readouterr()

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        count(lambda: main(["--help"]))
    (pin,) = [e for e in json.loads(FIXTURE.read_text()) if e["argv"] == ["--help"]]
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (counts["parsers"], exc.value.code, digest) == (4, pin["exit"], pin["stdout_sha256"])


def test_groups_have_the_stock_layout_on_the_parsers_tables():
    # A group of a built parser has the attributes a stock group built on that parser has, and shares its
    # parser's tables by identity, so that an argparse whose group layout differs fails here, not in a call.
    sub = subcommands(build_parser())["measure"]
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
    parsed = []
    monkeypatch.setattr(cli, "parse_command", lambda args, real=cli.parse_command: parsed.append(list(args)) or real(args))
    monkeypatch.setattr(sys, "argv", ["qbcap", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected
    assert parsed == [argv]


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

"""Command-line interface: capacity, measure, and sweep subcommands.

Exit codes: 0 success, 2 invalid state or sweep specification, 64 usage
error, 74 I/O failure. ``main`` reads the validation tolerance of the call
(default 1e-10, see ``tolerances``) from the QBCAP_TOL environment variable
and passes it down; a value that is not a number in (0, 1) exits 64.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import IO, Callable, Sequence

import numpy as np

from .battery import QubitPairEnergies
from .errors import NumericError
from .measurement import GAIN_FIELDS, CapacityGainReport, MeasurementBasis, check_scheme, measure_and_mix, weight_values
from .states import XStateParams, bell_diagonal_matrices, check_states, example2_matrices, pair_from_json, ppt_entangled
from .states import werner_matrices, x_state_matrices
from .sweep import FAMILY_PARAMS, PRESETS, SPECTRUM_COLUMNS, SweepSpec, format_number, run_sweep, write_csv, write_json
from .tolerances import VALIDATION_TOL, checked_tol

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_USAGE = 64
EXIT_IO = 74
# argparse's default pattern misses exponent notation, so "-1e-3" would read as an option.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64.

    Its help flag is added as an action with its help text, as ``add_help``
    would add it but for that text's translation. Its argument groups are
    built on its own registries: a stock group first makes the 12 action
    registrations of a new container, then drops them for its parser's.
    """

    def __init__(self, **kwargs):
        super().__init__(add_help=False, **kwargs)
        self._add_action(argparse._HelpAction(["-h", "--help"], dest="help", help="show this help message and exit"))
        self._negative_number_matcher = NEGATIVE_NUMBER

    def add_argument_group(self, title=None, description=None):
        return self._group(self._action_groups, argparse._ArgumentGroup, title=title, description=description)

    def add_mutually_exclusive_group(self, required=False):
        return self._group(self._mutually_exclusive_groups, argparse._MutuallyExclusiveGroup, required=required, _container=self)

    def _group(self, groups, kind, title=None, description=None, **own):
        """A ``kind`` group, appended to ``groups``, with the attributes its ``__init__`` leaves: this parser's
        settings, registries and action tables, shared as that ``__init__`` shares them, its own empty group and
        action lists, and ``title``, ``description`` and ``own``. It reads negative numbers with its parser's
        matcher, where a stock group would take argparse's default."""
        group = object.__new__(kind)
        shared = ("prefix_chars", "argument_default", "conflict_handler", "_negative_number_matcher", "_registries",
                  "_actions", "_option_string_actions", "_defaults", "_has_negative_number_optionals",
                  "_mutually_exclusive_groups")  # fmt: skip
        vars(group).update({name: getattr(self, name) for name in shared}, title=title, description=description,
                           _action_groups=[], _group_actions=[], **own)  # fmt: skip
        groups.append(group)
        return group

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A usage error found after parsing; ``main`` reports it with the usage of the call's subcommand."""


# Each subcommand's flags, described once: option -> the keywords of its argparse store action, which
# ``add_argument(option, **keywords)`` would make too. STATE_SOURCES form a required mutually exclusive group.
STATE_SOURCES = {
    "--werner": {"type": float, "metavar": "A", "help": "werner state with singlet fraction A in [0, 1]"},
    "--bell-diag": {"type": float, "nargs": 3, "metavar": ("C1", "C2", "C3"), "help": "correlation-diagonal state with the given triple"},
    "--x-state": {"metavar": "FILE", "help": "JSON file with X-state populations and coherences"},
    "--example2": {"type": float, "metavar": "X", "help": "three-level mixture with parameter X in [0, 1/2]"},
    "--state": {"metavar": "FILE", "help": "JSON file with an explicit density matrix"},
}  # fmt: skip
ENERGY_FLAGS = {
    "--eps-a": {"type": float, "metavar": "E", "help": "level splitting of the first qubit"},
    "--eps-b": {"type": float, "metavar": "E", "help": "level splitting of the second qubit"},
}
# No default: a sweep refuses them beside a preset or spec file, so it must see whether they were given.
# _parse_scheme and _parse_basis read None as uniform and computational.
PROTOCOL_FLAGS = {
    "--scheme": {"nargs": "+", "metavar": "S", "help": "'uniform' or 'weighted MU0 MU1 ...'"},
    "--basis": {"nargs": "+", "metavar": "B", "help": "'computational' or 'rotated THETA PHI'"},
}
COMMON_FLAGS = {
    "--out": {"metavar": "PATH", "help": "write output to PATH instead of stdout"},
    "--format": {"choices": ("csv", "json"), "help": "machine-readable output format"},
    "--seed": {"type": int, "default": 0, "metavar": "N", "help": "seed for randomized extensions; accepted for reproducibility"},
}
REQUIRED_ENERGY_FLAGS = {option: {**keywords, "required": True} for option, keywords in ENERGY_FLAGS.items()}
SWEEP_FLAGS = {
    "--figure": {"choices": tuple(PRESETS), "help": "bundled preset study"},
    "--spec": {"metavar": "FILE", "help": "JSON sweep specification"},
    "--family": {"choices": tuple(FAMILY_PARAMS)},
    "--param": {"metavar": "NAME", "help": "swept parameter name"},
    "--start": {"type": float},
    "--stop": {"type": float},
    "--count": {"type": int},
    **ENERGY_FLAGS,
    **PROTOCOL_FLAGS,
    "--bell-diag": {**STATE_SOURCES["--bell-diag"], "help": "base triple for bell_diagonal sweeps"},
    "--x-state": {"metavar": "FILE", "help": "base state for x_state sweeps"},
    **COMMON_FLAGS,
}


# The most characters read from an input file (state, x-state or sweep spec); such files hold well under 1 KiB.
MAX_INPUT_CHARS = 2**20


def _read_json(path: str) -> dict:
    """The JSON value of the UTF-8 file at ``path``, read no further than ``MAX_INPUT_CHARS``; its errors name ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read(MAX_INPUT_CHARS + 1)  # a text read grows with what it reads; a binary one allocates the cap
            if len(text) > MAX_INPUT_CHARS:
                raise ValueError(f"input file exceeds {MAX_INPUT_CHARS} characters")
            return json.loads(text)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        except ValueError as exc:  # the size cap, invalid UTF-8, a JSON syntax error or an integer past int's digit limit
            raise ValueError(f"{path}: {exc}") from None


def _state_from_args(args, tol: float) -> np.ndarray:
    """The (1, 4, 4) stack of the call's state, built by its family; the engine checks it as a state."""
    if args.werner is not None:
        return werner_matrices(np.array([args.werner]))
    if args.bell_diag is not None:
        return bell_diagonal_matrices(np.array([args.bell_diag]), tol)
    if args.x_state is not None:
        params = XStateParams.from_json(_read_json(args.x_state))
        return x_state_matrices(params, np.array([params.rho14]), np.array([params.rho23]))
    if args.example2 is not None:
        return example2_matrices(np.array([args.example2]))
    return pair_from_json(_read_json(args.state), tol)[None]


@contextlib.contextmanager
def _input_first(matrices: np.ndarray, tol: float):
    """Report a failure of the state before one of the arguments read in the block.

    The engine checks the state only when it runs, after the splittings,
    scheme, basis and weights are read; should one of those reads fail,
    ``check_states`` raises the state's own error first, as it would have been
    raised had the state been checked when it was built. An error the engine
    raises itself is raised again: for a failing state it is the state's own.
    """
    try:
        yield
    except (ValueError, _UsageError):
        check_states(matrices, tol)
        raise


def _parse_scheme(tokens: list[str] | None) -> tuple[str, tuple[float, ...] | None]:
    tokens = tokens or ["uniform"]
    try:
        weights = tuple(float(t) for t in tokens[1:]) or None
    except ValueError:
        raise _UsageError(f"weights must be numbers, got {tokens[1:]}") from None
    try:
        check_scheme(tokens[0], weights)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return tokens[0], weights


def _parse_basis(tokens: list[str] | None) -> tuple[float, float] | None:
    kind, *angles = tokens or ["computational"]
    if kind == "computational" and not angles:
        return None
    if kind == "rotated" and len(angles) == 2:
        try:
            return float(angles[0]), float(angles[1])
        except ValueError:
            raise _UsageError(f"basis angles must be numbers, got {angles}") from None
    raise _UsageError(f"expected 'computational' or 'rotated THETA PHI', got {' '.join(tokens)!r}")


def _emit(write: Callable[[IO[str]], object], out: str | None) -> None:
    """Call ``write`` on stdout, or on the file ``out`` opened for it."""
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def _render(fmt: str | None, data: dict, cells: dict[str, str], lines: dict[str, str]) -> str:
    """``data`` as JSON, ``cells`` as a one-row CSV, or ``lines`` as ``name: value`` text."""
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    if fmt == "csv":
        return ",".join(cells) + "\n" + ",".join(cells.values()) + "\n"
    return "".join(f"{name}: {value}\n" for name, value in lines.items())


def cmd_capacity(args, tol: float) -> int:
    """The engine's input half on the call's state: its spectrum, both capacities and the PPT verdict."""
    matrices = _state_from_args(args, tol)
    with _input_first(matrices, tol):
        levels = QubitPairEnergies(eps_a=args.eps_a, eps_b=args.eps_b).levels()
    spectra, before = measure_and_mix(matrices, None, None, levels, tol)  # no basis: the input half alone
    c_total, c_a = before[0].tolist()
    spectrum = spectra[0].tolist()
    entangled = bool(ppt_entangled(matrices)[0])
    numbers = {"c_total": format_number(c_total), "c_subsystem_a": format_number(c_a)}
    lams = [format_number(v) for v in spectrum]
    flag = "true" if entangled else "false"
    text = _render(
        args.format,
        {"c_total": c_total, "c_subsystem_a": c_a, "spectrum": spectrum, "entangled": entangled},
        {**numbers, **dict(zip(SPECTRUM_COLUMNS, lams)), "entangled": flag},
        {**numbers, "spectrum": " ".join(lams), "entangled": flag},
    )
    _emit(lambda stream: stream.write(text), args.out)
    return EXIT_OK


def cmd_measure(args, tol: float) -> int:
    """The protocol on the call's state, one stacked pass of the engine."""
    matrices = _state_from_args(args, tol)
    with _input_first(matrices, tol):
        levels = QubitPairEnergies(eps_a=args.eps_a, eps_b=args.eps_b).levels()
        scheme, weights = _parse_scheme(args.scheme)
        basis = MeasurementBasis(_parse_basis(args.basis))
        _, values = measure_and_mix(matrices, basis, weight_values(weights), levels, tol)
    report = CapacityGainReport(*values[0].tolist(), scheme, weights)
    gains = dict(zip(GAIN_FIELDS, map(format_number, report.gains)))
    mu = [format_number(w) for w in report.weights or ()]
    text = _render(
        args.format,
        report.to_json(),
        {**gains, "scheme": report.scheme, "weights": ";".join(mu)},
        {"scheme": " ".join([report.scheme, *mu]), **gains},
    )
    _emit(lambda stream: stream.write(text), args.out)
    return EXIT_OK


def _sweep_spec_from_args(args) -> SweepSpec:
    """Preset, spec file or grid flags, all read by ``SweepSpec.from_mapping``.

    A preset or spec file defines the whole sweep, so it takes no grid,
    energy, protocol or base-state flag beside it.
    """
    grid = {"family": args.family, "param": args.param, "start": args.start, "stop": args.stop, "count": args.count}
    given = [option for option in SWEEP_FLAGS if option not in ("--figure", "--spec", *COMMON_FLAGS)
             and getattr(args, option[2:].replace("-", "_")) is not None]  # fmt: skip
    if args.figure is not None:
        if args.spec is not None or given:
            raise _UsageError(f"--figure cannot be combined with {'--spec' if args.spec is not None else given[0]}")
        data = PRESETS[args.figure]
    elif args.spec is not None:
        if given:
            raise _UsageError(f"--spec cannot be combined with {given[0]}")
        data = _read_json(args.spec)
    else:
        if any(v is None for v in grid.values()):
            raise _UsageError("a sweep needs --figure, --spec, or all of --family/--param/--start/--stop/--count")
        if args.eps_a is None or args.eps_b is None:
            raise _UsageError("custom sweeps need --eps-a and --eps-b")
        scheme, weights = _parse_scheme(args.scheme)
        angles = _parse_basis(args.basis)
        data = {**grid, "eps_a": args.eps_a, "eps_b": args.eps_b, "scheme": scheme, "weights": weights,
                "basis": None if angles is None else dict(zip(("theta", "phi"), angles)), "bell_diag": args.bell_diag,
                "x_state": None if args.x_state is None else _read_json(args.x_state)}  # fmt: skip
        data = {key: value for key, value in data.items() if value is not None}
    return SweepSpec.from_mapping(data)


def cmd_sweep(args, tol: float) -> int:
    spec = _sweep_spec_from_args(args)
    result = run_sweep(spec, tol)  # before the output file is opened, so that a failing sweep leaves none
    write = write_json if args.format == "json" else write_csv
    _emit(lambda stream: write(result, spec, stream), args.out)
    return EXIT_OK


# Each subcommand: its help line, its command, the flags of its required state group and its other flags.
SUBCOMMANDS = {
    "capacity": ("capacities and spectrum of a state", cmd_capacity, STATE_SOURCES, {**REQUIRED_ENERGY_FLAGS, **COMMON_FLAGS}),
    "measure": ("measure the second qubit, mix branches, compare capacities", cmd_measure, STATE_SOURCES,
                {**REQUIRED_ENERGY_FLAGS, **PROTOCOL_FLAGS, **COMMON_FLAGS}),
    "sweep": ("run the protocol over a parameter grid", cmd_sweep, {}, SWEEP_FLAGS),
}  # fmt: skip


def _add_flags(parser: _Parser, name: str) -> _Parser:
    """``parser`` with the flags of subcommand ``name``, added from its ``SUBCOMMANDS`` row as the store
    actions ``add_argument`` would make of them, without the help formatter it builds per flag to check
    the metavar."""
    _, _, sources, flags = SUBCOMMANDS[name]
    group = parser.add_mutually_exclusive_group(required=True) if sources else parser
    for container, table in ((group, sources), (parser, flags)):
        for option, keywords in table.items():
            container._add_action(argparse._StoreAction([option], option[2:].replace("-", "_"), **keywords))
    return parser


def build_parser() -> _Parser:
    """The qbcap parser, with each subcommand's parser built by ``_add_flags`` as argparse builds subparsers.

    ``parse_command`` uses it only for a command line that the named
    subcommand's parser does not finish alone: no command, an unknown one, an
    option before the command, or arguments the subcommand leaves over. It
    prints the top-level help and usage errors.
    """
    parser = _Parser(prog="qbcap", description="Battery capacity of two-qubit states under local projective measurements.")
    subs = parser.add_subparsers(dest="command", required=True, prog="qbcap")
    for name, (help_text, *_) in SUBCOMMANDS.items():
        _add_flags(subs.add_parser(name, help=help_text), name)
    return parser


def parse_command(argv: Sequence[str]) -> tuple[argparse.Namespace, _Parser]:
    """The namespace of ``argv`` and the parser of its subcommand, which reports the call's usage errors.

    argparse's qbcap parser hands the tokens after a subcommand's name to
    that subcommand's parser and fails only on what it leaves over. So a
    call that names a subcommand first is parsed by that parser alone, built
    as ``build_parser`` builds it; any other command line, and a call that
    leaves arguments over, is parsed by ``build_parser()``, which prints the
    same help or error as it would have.
    """
    if argv and argv[0] in SUBCOMMANDS:
        parser = _add_flags(_Parser(prog=f"qbcap {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args, parser
    full = build_parser()
    args = full.parse_args(argv)
    (subs,) = full._subparsers._group_actions
    return args, subs.choices[args.command]


def main(argv: Sequence[str] | None = None) -> int:
    args, parser = parse_command(sys.argv[1:] if argv is None else argv)
    raw_tol = os.environ.get("QBCAP_TOL")
    try:
        tol = checked_tol(float(raw_tol)) if raw_tol else VALIDATION_TOL
    except ValueError as exc:
        print(f"qbcap: error: invalid QBCAP_TOL: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return SUBCOMMANDS[args.command][1](args, tol)
    except _UsageError as exc:
        parser.error(str(exc))  # its usage errors name the subcommand
    except (ValueError, NumericError) as exc:
        print(f"qbcap: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"qbcap: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

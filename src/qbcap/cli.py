"""Command-line interface: capacity, measure, and sweep subcommands.

Exit codes: 0 success, 2 invalid state or sweep specification, 64 usage
error, 74 I/O failure. ``main`` reads the validation tolerance of the call
(default 1e-10, see ``tolerances``) from the QBCAP_TOL environment variable
and passes it down; a value that is not a number in (0, 1) exits 64.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shutil
import sys
from typing import IO, Callable, Sequence

from .battery import QubitPairEnergies, capacities
from .errors import NumericError
from .measurement import GAIN_FIELDS, MeasurementBasis, capacity_gain, check_scheme
from .states import DensityMatrix, XStateParams, bell_diagonal, example2, is_entangled, werner, x_state
from .sweep import FAMILY_PARAMS, PRESETS, SPECTRUM_COLUMNS, SweepSpec, format_number, run_sweep, write_csv, write_json
from .tolerances import VALIDATION_TOL, checked_tol

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_USAGE = 64
EXIT_IO = 74
# --bell-diag: a correlation triple, the state of capacity and measure or the base of a bell_diagonal sweep.
_TRIPLE = {"type": float, "nargs": 3, "metavar": ("C1", "C2", "C3")}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's default pattern misses exponent notation, so "-1e-3" would read as an option.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_state_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--werner", type=float, metavar="A", help="werner state with singlet fraction A in [0, 1]")
    group.add_argument("--bell-diag", **_TRIPLE, help="correlation-diagonal state with the given triple")
    group.add_argument("--x-state", metavar="FILE", help="JSON file with X-state populations and coherences")
    group.add_argument("--example2", type=float, metavar="X", help="three-level mixture with parameter X in [0, 1/2]")
    group.add_argument("--state", metavar="FILE", help="JSON file with an explicit density matrix")


def _add_energy_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument("--eps-a", type=float, metavar="E", required=required, help="level splitting of the first qubit")
    sub.add_argument("--eps-b", type=float, metavar="E", required=required, help="level splitting of the second qubit")


def _add_protocol_flags(sub: argparse.ArgumentParser) -> None:
    # No default: a sweep refuses them beside a preset or spec file, so it must see whether they were given.
    # _parse_scheme and _parse_basis read None as uniform and computational.
    sub.add_argument("--scheme", nargs="+", metavar="S", help="'uniform' or 'weighted MU0 MU1 ...'")
    sub.add_argument("--basis", nargs="+", metavar="B", help="'computational' or 'rotated THETA PHI'")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), help="machine-readable output format")
    sub.add_argument("--seed", type=int, default=0, metavar="N", help="seed for randomized extensions; accepted for reproducibility")


def _add_capacity_arguments(sub: argparse.ArgumentParser) -> None:
    _add_state_flags(sub, required=True)
    _add_energy_flags(sub, required=True)
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_capacity)


def _add_measure_arguments(sub: argparse.ArgumentParser) -> None:
    _add_state_flags(sub, required=True)
    _add_energy_flags(sub, required=True)
    _add_protocol_flags(sub)
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_measure)


def _add_sweep_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--figure", choices=tuple(PRESETS), help="bundled preset study")
    sub.add_argument("--spec", metavar="FILE", help="JSON sweep specification")
    sub.add_argument("--family", choices=tuple(FAMILY_PARAMS))
    sub.add_argument("--param", metavar="NAME", help="swept parameter name")
    sub.add_argument("--start", type=float)
    sub.add_argument("--stop", type=float)
    sub.add_argument("--count", type=int)
    _add_energy_flags(sub, required=False)
    _add_protocol_flags(sub)
    sub.add_argument("--bell-diag", **_TRIPLE, help="base triple for bell_diagonal sweeps")
    sub.add_argument("--x-state", metavar="FILE", help="base state for x_state sweeps")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_sweep)


SUBCOMMANDS = {
    "capacity": ("capacities and spectrum of a state", _add_capacity_arguments),
    "measure": ("measure the second qubit, mix branches, compare capacities", _add_measure_arguments),
    "sweep": ("run the protocol over a parameter grid", _add_sweep_arguments),
}


def build_parser(argv: Sequence[str]) -> _Parser:
    """The qbcap parser for ``argv``: only the subcommands named in it get a parser.

    argparse hands the command line to a subparser only at a token equal to
    its name, so the others are never consulted beyond the name and help line
    that the top-level usage, the help listing and the invalid-choice message
    read. Each of those is registered as that help line and a ``choices`` entry
    that holds no parser. Every parser wraps help to the terminal width read
    once here, not once per argument.
    """
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="qbcap",
        description="Battery capacity of two-qubit states under local projective measurements.",
        formatter_class=formatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        if name in argv:
            add_arguments(subs.add_parser(name, help=help_text, formatter_class=formatter))
        else:
            subs._choices_actions.append(subs._ChoicesPseudoAction(name, (), help_text))
            subs.choices[name] = None
    return parser


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


def _state_from_args(args, tol: float) -> DensityMatrix:
    if args.werner is not None:
        return werner(args.werner, tol)
    if args.bell_diag is not None:
        return bell_diagonal(*args.bell_diag, tol)
    if args.x_state is not None:
        return x_state(XStateParams.from_json(_read_json(args.x_state)), tol)
    if args.example2 is not None:
        return example2(args.example2, tol)
    return DensityMatrix.from_json(_read_json(args.state), tol)


def _parse_scheme(tokens: list[str] | None, parser: _Parser) -> tuple[str, tuple[float, ...] | None]:
    tokens = tokens or ["uniform"]
    try:
        weights = tuple(float(t) for t in tokens[1:]) or None
    except ValueError:
        parser.error(f"weights must be numbers, got {tokens[1:]}")
    try:
        check_scheme(tokens[0], weights)
    except ValueError as exc:
        parser.error(str(exc))
    return tokens[0], weights


def _parse_basis(tokens: list[str] | None, parser: _Parser) -> tuple[float, float] | None:
    kind, *angles = tokens or ["computational"]
    if kind == "computational" and not angles:
        return None
    if kind == "rotated" and len(angles) == 2:
        try:
            return float(angles[0]), float(angles[1])
        except ValueError:
            parser.error(f"basis angles must be numbers, got {angles}")
    parser.error(f"expected 'computational' or 'rotated THETA PHI', got {' '.join(tokens)!r}")


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


def cmd_capacity(args, parser: _Parser, tol: float) -> int:
    rho = _state_from_args(args, tol)
    pair_levels, qubit_levels = QubitPairEnergies(eps_a=args.eps_a, eps_b=args.eps_b).levels()
    c_total = float(capacities(rho.spectrum, pair_levels))
    c_a = float(capacities(rho.reduced_a().spectrum, qubit_levels))
    spectrum = [float(v) for v in rho.spectrum]
    entangled = is_entangled(rho)
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


def cmd_measure(args, parser: _Parser, tol: float) -> int:
    rho = _state_from_args(args, tol)
    energies = QubitPairEnergies(eps_a=args.eps_a, eps_b=args.eps_b)
    scheme, weights = _parse_scheme(args.scheme, parser)
    basis = MeasurementBasis(_parse_basis(args.basis, parser))
    report = capacity_gain(rho, energies, basis=basis, scheme=scheme, weights=weights)
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


def _sweep_spec_from_args(args, parser: _Parser) -> SweepSpec:
    """Preset, spec file or grid flags, all read by ``SweepSpec.from_mapping``.

    A preset or spec file defines the whole sweep, so it takes no grid,
    energy, protocol or base-state flag beside it.
    """
    grid = {"family": args.family, "param": args.param, "start": args.start, "stop": args.stop, "count": args.count}
    defining = {**grid, "eps_a": args.eps_a, "eps_b": args.eps_b, "scheme": args.scheme, "basis": args.basis,
                "bell_diag": args.bell_diag, "x_state": args.x_state}  # fmt: skip
    given = [f"--{name.replace('_', '-')}" for name, value in defining.items() if value is not None]
    if args.figure is not None:
        if args.spec is not None or given:
            parser.error(f"--figure cannot be combined with {'--spec' if args.spec is not None else given[0]}")
        data = PRESETS[args.figure]
    elif args.spec is not None:
        if given:
            parser.error(f"--spec cannot be combined with {given[0]}")
        data = _read_json(args.spec)
    else:
        if any(v is None for v in grid.values()):
            parser.error("a sweep needs --figure, --spec, or all of --family/--param/--start/--stop/--count")
        if args.eps_a is None or args.eps_b is None:
            parser.error("custom sweeps need --eps-a and --eps-b")
        scheme, weights = _parse_scheme(args.scheme, parser)
        angles = _parse_basis(args.basis, parser)
        data = {**grid, "eps_a": args.eps_a, "eps_b": args.eps_b, "scheme": scheme, "weights": weights,
                "basis": None if angles is None else dict(zip(("theta", "phi"), angles)), "bell_diag": args.bell_diag,
                "x_state": None if args.x_state is None else _read_json(args.x_state)}  # fmt: skip
        data = {key: value for key, value in data.items() if value is not None}
    return SweepSpec.from_mapping(data)


def cmd_sweep(args, parser: _Parser, tol: float) -> int:
    spec = _sweep_spec_from_args(args, parser)
    result = run_sweep(spec, tol)  # before the output file is opened, so that a failing sweep leaves none
    write = write_json if args.format == "json" else write_csv
    _emit(lambda stream: write(result, spec, stream), args.out)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    (subs,) = parser._subparsers._group_actions
    raw_tol = os.environ.get("QBCAP_TOL")
    try:
        tol = checked_tol(float(raw_tol)) if raw_tol else VALIDATION_TOL
    except ValueError as exc:
        print(f"qbcap: error: invalid QBCAP_TOL: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, subs.choices[args.command], tol)  # its usage errors name the subcommand
    except (ValueError, NumericError) as exc:
        print(f"qbcap: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"qbcap: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs of the three benchmark workloads.

The seed draws every number the program sees: energies (eps_a >= eps_b),
mixing weights, basis angles, admissible Bell triples, X-state and explicit
states, and the order of the CLI calls. The amount of work per run does not
depend on it: grid sizes and the mix of call kinds are fixed. Inputs reach
the program only as spec files, state files and argv lists written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qbcap

import reference
from checks import ExitCheck, PointCheck, SweepCheck

NAMES = ("sweep-werner-10k", "sweep-families", "cli-calls")

# The bundled studies as ``figure_preset`` documents them, in spec-file form.
PRESETS = {
    "fig2": {
        "family": "example2", "param": "x", "start": 0.0, "stop": 0.5, "count": 101,
        "eps_a": 0.5, "eps_b": 0.3, "scheme": "uniform", "basis": "computational",
    },
    "fig3": {
        "family": "example2", "param": "x", "start": 0.0, "stop": 0.056, "count": 101,
        "eps_a": 0.5, "eps_b": 0.3, "scheme": "weighted", "weights": [0.1, 0.9], "basis": "computational",
    },
}  # fmt: skip

# Distinct variants of each workload's input, cycled by the timed loop. The
# worker reports the share of repeated calls, so that a change that memoizes
# results shows as such. A run repeats no Werner sweep at the seed commit. On
# the other two workloads the loop runs every call at least MIN_PASSES times,
# about ten (sweep-families) and six (cli-calls) times at the seed commit, so
# that call_ms_p99 can take each call's median over its repeats (worker.py);
# the 1,600 distinct calls of cli-calls put 16 beyond the p99.
WERNER_VARIANTS = 8
FAMILY_VARIANTS = 2
CLI_BLOCKS = 20
MIN_PASSES = 3
MIN_CLI_CALLS = 1000  # calls in the traced pass


@dataclass
class Call:
    """One call into qbcap: ``cli.main(argv)``, or ``run_sweep`` + ``write_csv`` on ``sweep_spec``."""

    points: int
    check: Callable[[object, str, str], int] | None
    argv: list[str] | None = None
    sweep_spec: qbcap.SweepSpec | None = None


@dataclass
class Workload:
    """``units`` are cycled by the timed loop, at least ``min_passes`` times over;
    the traced pass runs them in order until ``min_calls``."""

    units: list[list[Call]]
    warm_up: list[Call]
    min_calls: int
    min_passes: int = 0


def build(name: str, seed: int, work: Path, quick: bool) -> Workload:
    """Draw the inputs of workload ``name`` and write its files into ``work``."""
    rng = np.random.default_rng(seed)
    if name == "sweep-werner-10k":
        return _werner_10k(rng, work, quick)
    if name == "sweep-families":
        return _families(rng, work, quick)
    if name == "cli-calls":
        return _cli_calls(rng, work)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _uniforms(rng, n: int = 1024):
    """Function returning the next of ``n`` uniform draws on [0, 1), as Python floats.

    Drawing in bulk keeps input generation, which counts in set-up time, cheap.
    """
    return iter(rng.random(n).tolist()).__next__


def _arg(x: float) -> str:
    """Exact positional form of x. The CLI's argparse takes "-3.9e-05" for an option
    and exits 64, so negative values must not be written in exponent notation."""
    text = repr(x)
    return text if "e" not in text else np.format_float_positional(x, unique=True, trim="-")


def _energies(u) -> dict:
    eps_b = 0.1 + 0.4 * u()
    return {"eps_a": eps_b + (1.0 - eps_b) * u(), "eps_b": eps_b}


def _weights(u, low: float = 0.05) -> list[float]:
    mu0 = low + (0.95 - low) * u()
    return [mu0, 1.0 - mu0]


def _angles(u) -> dict:
    return {"theta": 0.2 + (np.pi - 0.4) * u(), "phi": 2.0 * np.pi * u()}


def _bell_triple(u) -> list[float]:
    """c1, c2 in (-0.5, 0.5) and c3 inside the admissible interval [-1 + |c1 - c2|, 1 - |c1 + c2|]."""
    c1, c2 = u() - 0.5, u() - 0.5
    lo, hi = -1.0 + abs(c1 - c2) + 1e-3, 1.0 - abs(c1 + c2) - 1e-3
    return [c1, c2, lo + (hi - lo) * u()]


def _x_params(rng) -> dict:
    """Populations >= 0.05 summing to 1, coherences at a drawn fraction of their positivity bound."""
    pops = 0.05 + 0.8 * rng.dirichlet([2.0, 2.0, 2.0, 2.0])
    pops[3] = 1.0 - pops[:3].sum()
    r14 = rng.uniform(0.2, 0.95) * np.sqrt(pops[0] * pops[3]) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    r23 = rng.uniform(0.2, 0.95) * np.sqrt(pops[1] * pops[2]) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return {
        **{f"rho{k}{k}": float(p) for k, p in zip(range(1, 5), pops)},
        "rho14": [float(r14.real), float(r14.imag)],
        "rho23": [float(r23.real), float(r23.imag)],
    }


def _density(rng) -> np.ndarray:
    """Full-rank state: normalized Ginibre square mixed with 20% of I/4, exactly Hermitian."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m = 0.8 * m / np.trace(m).real + 0.05 * np.eye(4)
    return (m + m.conj().T) / 2.0


def _sweep_spec(spec: dict) -> qbcap.SweepSpec:
    return qbcap.SweepSpec(
        family=spec["family"],
        param=spec["param"],
        start=spec["start"],
        stop=spec["stop"],
        count=spec["count"],
        energies=qbcap.QubitPairEnergies(eps_a=spec["eps_a"], eps_b=spec["eps_b"]),
        scheme=spec["scheme"],
        weights=tuple(spec["weights"]) if "weights" in spec else None,
        basis_angles=None if spec["basis"] == "computational" else (spec["basis"]["theta"], spec["basis"]["phi"]),
    )


def _werner_10k(rng, work: Path, quick: bool) -> Workload:
    """Library path on the headline sweep: weighted Werner, computational basis, 10,001 points.

    mu0 - mu1 lies in (0.1, 0.9), so the grid over a in [0, 1] crosses the
    Werner threshold big_f > 0 <=> mu0 - mu1 > a that the check asserts.
    """
    u = _uniforms(rng)
    units = []
    for v in range(WERNER_VARIANTS):
        spec = {
            "family": "werner", "param": "a", "start": 0.0, "stop": 1.0, "count": 201 if quick else 10_001,
            **_energies(u), "scheme": "weighted", "weights": _weights(u, low=0.55), "basis": "computational",
        }  # fmt: skip
        _write_json(work / f"werner-10k-{v}.json", spec)
        check = SweepCheck(spec, "csv", werner_predicate=True)
        units.append([Call(spec["count"], check, sweep_spec=_sweep_spec(spec))])
    warm = _sweep_spec(dict(spec, count=11))
    return Workload(units=units, warm_up=[Call(11, None, sweep_spec=warm)], min_calls=1)


def _families(rng, work: Path, quick: bool) -> Workload:
    """CLI sweeps: both presets and three spec sweeps, each once as CSV and once as JSON."""
    count = 21 if quick else 201
    u = _uniforms(rng)
    units, warm_up = [], []
    for v in range(FAMILY_VARIANTS):
        e_x, e_b, e_w = _energies(u), _energies(u), _energies(u)
        c1, c2, _ = _bell_triple(u)
        specs = {
            "x_state": {
                "family": "x_state", "param": "coherence_scale", "start": 0.0, "stop": 1.0, "count": count,
                **e_x, "scheme": "uniform", "basis": _angles(u), "x_state": _x_params(rng),
            },
            "bell_diagonal": {
                "family": "bell_diagonal", "param": "c3", "count": count,
                "start": -1.0 + abs(c1 - c2) + 1e-3, "stop": 1.0 - abs(c1 + c2) - 1e-3,
                **e_b, "scheme": "weighted", "weights": _weights(u), "basis": "computational",
                "bell_diag": [c1, c2, 0.0],
            },
            "werner": {
                "family": "werner", "param": "a", "start": 0.0, "stop": 1.0, "count": count,
                **e_w, "scheme": "weighted", "weights": _weights(u), "basis": _angles(u),
            },
        }  # fmt: skip
        calls = []
        for name, spec in [*PRESETS.items(), *specs.items()]:
            if name in PRESETS:
                source = ["--figure", name]
            else:
                source = ["--spec", _write_json(work / f"sweep-{name}-{v}.json", spec)]
            for fmt in ("csv", "json"):
                argv = ["sweep", *source] + (["--format", "json"] if fmt == "json" else [])
                calls.append(Call(spec["count"], SweepCheck(spec, fmt), argv=argv))
        units.append(calls)
    for name, spec in specs.items():
        warm = ["sweep", "--spec", _write_json(work / f"warm-{name}.json", dict(spec, count=3))]
        warm_up += [Call(3, None, argv=warm), Call(3, None, argv=[*warm, "--format", "json"])]
    return Workload(units=units, warm_up=warm_up, min_calls=1, min_passes=MIN_PASSES)


def _sources(u, x_path: str, x_params: dict, state_path: str, state: np.ndarray):
    """The five state sources: argv fragment and a function building the reference matrix.

    The reference matrices are built only when the output is checked, so that
    set-up time holds input generation alone.
    """
    a, x, triple = u(), 0.5 * u(), _bell_triple(u)
    return [
        (["--werner", _arg(a)], lambda: reference.werner(a)[0]),
        (["--bell-diag", *map(_arg, triple)], lambda: reference.bell_diagonal(*triple)[0]),
        (["--example2", _arg(x)], lambda: reference.example2(x)[0]),
        (["--x-state", x_path], lambda: reference.x_state(x_params, 1.0)[0]),
        (["--state", state_path], lambda: state),
    ]


# (command, format, scheme, basis): every capacity format and every measure combination.
_COMBOS = [("capacity", fmt, None, None) for fmt in ("text", "json", "csv")] + [
    ("measure", fmt, scheme, basis)
    for fmt in ("text", "json", "csv")
    for scheme in ("uniform", "weighted")
    for basis in ("computational", "rotated")
]

def _invalid_calls(u) -> list[tuple[list[str], int]]:
    """Invalid inputs, with the exit code the CLI documents for each."""
    e = _energies(u)
    ea, eb = _arg(e["eps_a"]), _arg(e["eps_b"])
    a = _arg(u())
    return [
        # singlet fraction outside [0, 1]
        (["capacity", "--werner", _arg(1.01 + 0.99 * u()), "--eps-a", ea, "--eps-b", eb], 2),
        # inadmissible correlation triple: lambda0 = (1 - c1 - c2 - c3) / 4 < 0
        (["measure", "--bell-diag", *(_arg(0.8 + 0.2 * u()) for _ in range(3)), "--eps-a", ea, "--eps-b", eb], 2),
        # eps_a < eps_b
        (["capacity", "--example2", _arg(0.5 * u()), "--eps-a", eb, "--eps-b", ea], 2),
        # unknown scheme
        (["measure", "--werner", a, "--eps-a", ea, "--eps-b", eb, "--scheme", "bogus"], 64),
        # missing --eps-b
        (["capacity", "--werner", a, "--eps-a", ea], 64),
    ]


def _point_call(u, command, fmt, scheme, basis, source) -> Call:
    fragment, state = source
    energies = _energies(u)
    argv = [command, *fragment, "--eps-a", _arg(energies["eps_a"]), "--eps-b", _arg(energies["eps_b"])]
    weights, angles = None, "computational"
    if scheme == "weighted":
        weights = _weights(u)
        argv += ["--scheme", "weighted", *map(_arg, weights)]
    if basis == "rotated":
        angles = _angles(u)
        argv += ["--basis", "rotated", _arg(angles["theta"]), _arg(angles["phi"])]
    if fmt != "text":
        argv += ["--format", fmt]
    return Call(1, PointCheck(command, fmt, state, energies["eps_a"], energies["eps_b"], angles, weights), argv=argv)


def _cli_calls(rng, work: Path) -> Workload:
    """Closed loop of single-point CLI calls, in blocks of fixed composition shuffled by the seed.

    A block holds every combination of source, command, format, scheme and
    basis once (75 calls) plus the five invalid inputs.
    """
    units = []
    for b in range(CLI_BLOCKS + 1):
        u = _uniforms(rng)
        x_params, state = _x_params(rng), _density(rng)
        x_path = _write_json(work / f"x-state-{b}.json", x_params)
        state_path = _write_json(work / f"state-{b}.json", {"dim_a": 2, "dim_b": 2, "re": state.real.tolist(), "im": state.imag.tolist()})
        calls = [
            _point_call(u, *combo, source)
            for combo in _COMBOS
            for source in _sources(u, x_path, x_params, state_path, state)
        ]
        calls += [Call(1, ExitCheck(code), argv=argv) for argv, code in _invalid_calls(u)]
        units.append([calls[i] for i in rng.permutation(len(calls))])
    # One extra block, never timed, provides the warm-up calls.
    warm_up = [Call(1, None, argv=c.argv) for c in units.pop() if isinstance(c.check, PointCheck)][:10]
    return Workload(units=units, warm_up=warm_up, min_calls=MIN_CLI_CALLS, min_passes=MIN_PASSES)

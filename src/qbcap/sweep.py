"""Parameter sweeps over the state families, plus the two bundled presets.

Each grid point builds a state, runs the measure-and-mix protocol, and
records the capacities before and after together with the input spectrum and
an entanglement verdict. The grid runs in chunks of ``CHUNK`` points, each as
one stacked pass, so that memory stays bounded for any grid size; results
stay in columns (``SweepResult``) up to the output. Output is CSV (12
significant digits, deterministic bytes) or JSON, either written ``CHUNK``
rows at a time.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import IO

import numpy as np

from .battery import QubitPairEnergies
from .errors import InvalidStateError
from .measurement import GAIN_FIELDS, MeasurementBasis, check_scheme, measure_and_mix, weight_values
from .states import XStateParams, bell_diagonal_matrices, example2_matrices, ppt_entangled
from .states import check_keys, json_number, require_within, werner_matrices, x_state_matrices
from .tolerances import VALIDATION_TOL, checked_tol

# The families and the parameters each sweeps, in the order `sweep --help` lists them.
FAMILY_PARAMS = {
    "werner": ("a",),
    "bell_diagonal": ("c1", "c2", "c3"),
    "x_state": ("coherence_scale",),
    "example2": ("x",),
}

REQUIRED_KEYS = ("family", "param", "start", "stop", "count", "eps_a", "eps_b")
OPTIONAL_KEYS = ("scheme", "weights", "basis", "bell_diag", "x_state")
ECHO_KEYS = ("family", "param", "eps_a", "eps_b", "scheme", "weights", "basis")
SPECTRUM_COLUMNS = ("lambda0", "lambda1", "lambda2", "lambda3")

# Grid points per stacked pass: enough to amortize numpy's per-call overhead (about 230 us a pass),
# few enough that a pass holds a few megabytes at most. The left and right branch products of a pass still
# run as GEMMs over at most ``measurement.GEMM_SLAB`` (256) matrices, which keeps the bits of every kernel tried.
CHUNK = 512
# The largest grid: the result columns take about 96 bytes per point, so about 1 GB.
MAX_COUNT = 10**7


def _finite(value, what: str) -> float:
    """A JSON number (see ``json_number``) as float; NaN and infinities are rejected too."""
    number = json_number(value, f"sweep specification: {what}")
    if not math.isfinite(number):
        raise ValueError(f"sweep specification: {what} must be a finite number, got {value!r}")
    return number


def _finite_list(values, what: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        size = f" of length {length}" if length else ""
        raise ValueError(f"sweep specification: {what} must be a list of numbers{size}, got {values!r}")
    return tuple(_finite(v, what) for v in values)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter grid over a state family with fixed protocol settings.

    ``param`` names the swept quantity: ``a`` for werner, ``x`` for example2,
    one of ``c1``/``c2``/``c3`` for bell_diagonal (the others come from
    ``bell_diag``), or ``coherence_scale`` for x_state (a factor in [0, 1]
    applied to both coherences of ``x_params``).

    Construction checks every field: ``count`` an integer (not a bool) from 2
    to ``MAX_COUNT``; ``start``, ``stop``, the weights, the basis angles (a
    pair) and the three numbers of ``bell_diag`` finite ``json_number``
    values, with a finite span; the family's base present; the scheme's rule
    on weights, then the engine's (``weight_values``), so that a spec that
    constructs runs its weights. It stores ``start`` and ``stop`` as floats
    and the weights, the basis angles and ``bell_diag`` as tuples of floats.
    A failing field raises ValueError with the message a spec file's entry
    gets from ``from_mapping``.
    """

    family: str
    param: str
    start: float
    stop: float
    count: int
    energies: QubitPairEnergies
    scheme: str = "uniform"
    weights: tuple[float, ...] | None = None
    basis_angles: tuple[float, float] | None = None
    bell_diag: tuple[float, float, float] | None = None
    x_params: XStateParams | None = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}; expected one of {sorted(FAMILY_PARAMS)}")
        if self.param not in FAMILY_PARAMS[self.family]:
            raise ValueError(f"family {self.family!r} sweeps one of {FAMILY_PARAMS[self.family]}, got {self.param!r}")
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise ValueError(f"sweep specification: count must be an integer, got {self.count!r}")
        if not 2 <= self.count <= MAX_COUNT:
            raise ValueError(f"grid needs at least 2 and at most {MAX_COUNT} points, got {self.count}")
        for name in ("start", "stop"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"grid span stop - start is not finite for start={self.start}, stop={self.stop}")
        if self.weights is not None:
            object.__setattr__(self, "weights", _finite_list(self.weights, "weights"))
        if self.basis_angles is not None:
            try:
                theta, phi = self.basis_angles
            except (TypeError, ValueError):
                raise ValueError(f"sweep specification: basis_angles must be a (theta, phi) pair, got {self.basis_angles!r}") from None
            object.__setattr__(self, "basis_angles", (_finite(theta, "basis theta"), _finite(phi, "basis phi")))
        if self.bell_diag is not None:
            object.__setattr__(self, "bell_diag", _finite_list(self.bell_diag, "bell_diag", 3))
        if self.family == "bell_diagonal" and self.bell_diag is None:
            raise ValueError("bell_diagonal sweeps need a base (c1, c2, c3) triple")
        if self.family == "x_state" and self.x_params is None:
            raise ValueError("x_state sweeps need base x-state parameters")
        check_scheme(self.scheme, self.weights)
        weight_values(self.weights)

    @classmethod
    def from_mapping(cls, data) -> "SweepSpec":
        """Spec from its JSON form: the one reader of spec files, CLI flags and presets.

        Required keys are ``REQUIRED_KEYS``; optional ones are ``scheme``,
        ``weights``, ``basis`` ("computational" or {"theta": ..., "phi": ...}),
        ``bell_diag`` and ``x_state`` (an x-state parameter object). It reads
        the keys, the shape of ``basis``, the splittings and the x-state, and
        construction checks the rest. A missing or unknown key, a null
        ``weights`` or ``bell_diag`` or anything malformed raises ValueError
        naming the entry.
        """
        check_keys(data, REQUIRED_KEYS, OPTIONAL_KEYS, "malformed sweep specification",
                   not_an_object="a sweep specification is a JSON object")
        for key, length in (("weights", None), ("bell_diag", 3)):
            if key in data and data[key] is None:  # construction would read None as absent
                _finite_list(None, key, length)  # raises: null is no list of numbers
        basis = data.get("basis", "computational")
        if basis != "computational" and not (isinstance(basis, dict) and set(basis) == {"theta", "phi"}):
            raise ValueError(f"malformed basis entry: {basis!r}")
        return cls(family=data["family"], param=data["param"], start=data["start"], stop=data["stop"], count=data["count"],
                   energies=QubitPairEnergies(eps_a=_finite(data["eps_a"], "eps_a"), eps_b=_finite(data["eps_b"], "eps_b")),
                   scheme=data.get("scheme", "uniform"), weights=data.get("weights"), bell_diag=data.get("bell_diag"),
                   basis_angles=None if basis == "computational" else (basis["theta"], basis["phi"]),
                   x_params=XStateParams.from_json(data["x_state"]) if "x_state" in data else None)  # fmt: skip

    def to_mapping(self) -> dict:
        """The spec's JSON form, the inverse of ``from_mapping``; optional keys left unset are left out."""
        data = {
            "family": self.family, "param": self.param, "start": self.start, "stop": self.stop, "count": self.count,
            "eps_a": self.energies.eps_a, "eps_b": self.energies.eps_b, "scheme": self.scheme, "weights": self.weights,
            "basis": "computational" if self.basis_angles is None else dict(zip(("theta", "phi"), self.basis_angles)),
            "bell_diag": self.bell_diag, "x_state": None if self.x_params is None else self.x_params.to_json(),
        }  # fmt: skip
        return {key: list(value) if isinstance(value, tuple) else value for key, value in data.items() if value is not None}

    def grid(self) -> np.ndarray:
        """Evenly spaced parameter values, endpoints included."""
        with np.errstate(over="ignore"):  # near the float limit only the last step can overflow; linspace sets it to stop
            return np.linspace(self.start, self.stop, self.count)

    def matrices(self, values: np.ndarray, tol: float) -> np.ndarray:
        """The family's (N, 4, 4) matrices at the grid ``values``; each family checks its domain, Bell triples at ``tol``.

        The matrices are not checked as states: the engine checks each point it measures, so that an x_state or
        bell_diagonal base that is not a state runs where every swept point is one.
        """
        if self.family == "werner":
            return werner_matrices(values)
        if self.family == "example2":
            return example2_matrices(values)
        if self.family == "bell_diagonal":
            triples = np.tile(np.array(self.bell_diag, dtype=float), (len(values), 1))
            triples[:, FAMILY_PARAMS["bell_diagonal"].index(self.param)] = values
            return bell_diagonal_matrices(triples, tol)
        require_within(values, 0.0, 1.0, lambda v: InvalidStateError(f"coherence_scale must lie in [0, 1], got {v:.12g}"))
        # Coherences near the float limit make numpy's complex product warn; the engine judges the matrices.
        with np.errstate(over="ignore", invalid="ignore"):
            return x_state_matrices(self.x_params, self.x_params.rho14 * values, self.x_params.rho23 * values)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A finished sweep as columns: ``values`` (N,) holds the grid, ``spectra`` (N, 4) the ascending input
    spectra, ``gains`` (N, 6) the capacity fields in ``GAIN_FIELDS`` order and ``entangled`` (N,) the PPT verdicts.
    """

    values: np.ndarray
    spectra: np.ndarray
    gains: np.ndarray
    entangled: np.ndarray

    def gain(self, name: str) -> np.ndarray:
        """The (N,) column of one capacity field, e.g. ``result.gain("big_f")``."""
        return self.gains[:, GAIN_FIELDS.index(name)]


# The bundled studies, in spec-file form.
PRESETS = {
    "fig2": {"family": "example2", "param": "x", "start": 0.0, "stop": 0.5, "count": 101, "eps_a": 0.5, "eps_b": 0.3},
    "fig3": {
        "family": "example2", "param": "x", "start": 0.0, "stop": 0.056, "count": 101, "eps_a": 0.5, "eps_b": 0.3,
        "scheme": "weighted", "weights": [0.1, 0.9],
    },
}  # fmt: skip


def figure_preset(name: str) -> SweepSpec:
    """Bundled parameter studies.

    ``fig2``: the example2 family over x in [0, 0.5] (101 points), uniform
    mixing, splittings (0.5, 0.3); the first-qubit gain stays positive up to
    the x = 1/2 endpoint where it vanishes.

    ``fig3``: the same family over x in [0, 0.056] (101 points), weighted
    mixing with mu = (0.1, 0.9), splittings (0.5, 0.3); the whole-pair gain is
    positive on this window.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; expected 'fig2' or 'fig3'")
    return SweepSpec.from_mapping(PRESETS[name])


def _chunk(spec: SweepSpec, values: np.ndarray, basis: MeasurementBasis, levels, tol) -> tuple[np.ndarray, ...]:
    matrices = spec.matrices(values, tol)
    return (*measure_and_mix(matrices, basis, spec.weights, levels, tol), ppt_entangled(matrices))


def run_sweep(spec: SweepSpec, tol: float = VALIDATION_TOL) -> SweepResult:
    """Evaluate the protocol on every grid point, in grid order, ``CHUNK`` points per stacked pass.

    Every state is checked at validation tolerance ``tol``. A failing chunk is run again point by point, to raise
    the first failing point's error.
    """
    tol = checked_tol(tol)
    basis = MeasurementBasis(spec.basis_angles)
    levels = spec.energies.levels()
    grid = spec.grid()
    n = len(grid)
    result = SweepResult(grid, np.empty((n, len(SPECTRUM_COLUMNS))), np.empty((n, len(GAIN_FIELDS))), np.empty(n, bool))
    for start in range(0, n, CHUNK):
        block = slice(start, start + CHUNK)
        try:
            result.spectra[block], result.gains[block], result.entangled[block] = _chunk(spec, grid[block], basis, levels, tol)
        except (ValueError, ArithmeticError):
            for k in range(start, min(start + CHUNK, n)):
                _chunk(spec, grid[k : k + 1], basis, levels, tol)
            raise
    return result


# The one number format of every output: 12 significant digits of x + 0.0,
# which turns a negative zero into 0 and leaves every other value as it is.
NUMBER_FORMAT = "%.12g"


def format_number(x: float) -> str:
    """12 significant digits, locale independent, no negative zero."""
    return NUMBER_FORMAT % (x + 0.0)


def _write_rows(result: SweepResult, stream: IO[str], row: str, sep: str, zero: float) -> None:
    """Every grid point as ``row % (value, *spectrum, *gains)``, its one ``%s`` set to "true" or "false", joined by ``sep``.

    The numbers enter plus ``zero``: 0.0 turns a negative zero into 0, -0.0
    leaves every value as it is. The rows go out ``CHUNK`` per write, each
    chunk formatted by one bytes ``%``, whose ``%r`` of a float is its ``repr``.
    """
    templates = tuple(row.replace("%s", flag).encode() for flag in ("false", "true"))  # indexed by the flag
    sep = sep.encode()
    for start in range(0, len(result.values), CHUNK):
        block = slice(start, start + CHUNK)
        numbers = np.column_stack([result.values[block], result.spectra[block], result.gains[block]]) + zero
        text = sep.join([templates[flag] for flag in result.entangled[block].tolist()]) % tuple(numbers.ravel().tolist())
        stream.write(((sep if start else b"") + text).decode())


def write_csv(result: SweepResult, spec: SweepSpec, stream: IO[str]) -> None:
    """Emit the rows in grid order, ``CHUNK`` rows per write; repeated calls produce identical bytes."""
    header = [spec.param, *SPECTRUM_COLUMNS, *GAIN_FIELDS, "entangled"]
    stream.write(",".join(header) + "\n")
    _write_rows(result, stream, ",".join([NUMBER_FORMAT] * (len(header) - 1)) + ",%s\n", sep="", zero=0.0)


def _echo(spec: SweepSpec) -> dict:
    return {key: value for key, value in spec.to_mapping().items() if key in ECHO_KEYS}


def rows_to_json(result: SweepResult, spec: SweepSpec) -> dict:
    """JSON form of a finished sweep: the ``ECHO_KEYS`` of the spec plus one object per grid point.

    For a result of finite numbers, as every ``run_sweep`` result is,
    ``write_json(result, spec, stream)`` writes exactly
    ``json.dumps(rows_to_json(result, spec), indent=2) + "\\n"``.
    """
    columns = (result.values, result.spectra, result.gains, result.entangled)
    rows = [
        {spec.param: value, "spectrum": spectrum, **dict(zip(GAIN_FIELDS, gains)), "entangled": flag}
        for value, spectrum, gains, flag in zip(*(column.tolist() for column in columns))
    ]
    return {**_echo(spec), "rows": rows}


def write_json(result: SweepResult, spec: SweepSpec, stream: IO[str]) -> None:
    """Emit the sweep as JSON, ``CHUNK`` rows per write: exactly ``json.dumps(rows_to_json(result, spec), indent=2) + "\\n"``.

    Each row fills one template that holds the ``indent=2`` layout; numbers are
    written as ``repr``, the form ``json`` gives a finite float. A non-finite
    number, which no ``run_sweep`` result holds and standard JSON cannot
    carry, raises ValueError.
    """
    if not all(np.isfinite(column).all() for column in (result.values, result.spectra, result.gains)):
        raise ValueError("a sweep result with a non-finite number has no JSON form")
    head, tail = json.dumps({**_echo(spec), "rows": []}, indent=2).rsplit("[]", 1)
    spectrum = "[\n" + ",\n".join(["        %r"] * len(SPECTRUM_COLUMNS)) + "\n      ]"
    fields = {spec.param: "%r", "spectrum": spectrum, **dict.fromkeys(GAIN_FIELDS, "%r"), "entangled": "%s"}
    row = "\n    {\n" + ",\n".join(f"      {json.dumps(key)}: {cell}" for key, cell in fields.items()) + "\n    }"
    stream.write(head + "[")
    _write_rows(result, stream, row, sep=",", zero=-0.0)
    stream.write(("\n  ]" if len(result.values) else "]") + tail + "\n")

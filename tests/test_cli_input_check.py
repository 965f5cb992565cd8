"""The input check of a single-point call: its errors and their order, its one eigendecomposition, and its
agreement with the sweep.

``capacity`` and ``measure`` check their state once, in the engine's pass. The exit codes and error lines
below were recorded when each call still checked its state on building it, before anything was measured,
so they pin that order: the state's own failure comes before any closure, weight, zero-probability or
residue error of the measurement, and before any error in the other arguments of the call.
"""

import json

import numpy as np
import pytest

from qbcap import XStateParams
from qbcap.cli import main
from qbcap.sweep import SPECTRUM_COLUMNS

PAIR_FLAGS = ["--eps-a", "0.5", "--eps-b", "0.3"]
WERNER_04 = np.array([[0.15, 0, 0, 0], [0, 0.35, -0.2, 0], [0, -0.2, 0.35, 0], [0, 0, 0, 0.15]], dtype=complex)
# A valid state whose measurement branch 1 (the second qubit in |1>) has probability 0.
ZERO_BRANCH = np.array([[0.7, 0, 0.1, 0], [0, 0, 0, 0], [0.1, 0, 0.3, 0], [0, 0, 0, 0]], dtype=complex)


def _with_entry(m, index, value):
    m = m.copy()
    m[index] = value
    return m


FAULTS = {
    "trace": np.diag([0.6, 0.3, 0.4, 0.2]),
    "trace-zero-branch": np.diag([0.9, 0.0, 0.6, 0.0]),
    "non-hermitian": _with_entry(WERNER_04, (0, 2), 0.05),
    "non-hermitian-zero-branch": _with_entry(ZERO_BRANCH, (0, 2), 0.15),
    "nan": _with_entry(WERNER_04, (0, 0), np.nan),
    "nan-zero-branch": _with_entry(ZERO_BRANCH, (0, 0), np.nan),
    "negative": np.diag([0.7, -0.1, 0.2, 0.2]),
    # branch 1 has probability -0.2 + 0.2 = 0
    "negative-zero-branch": np.diag([0.6, -0.2, 0.4, 0.2]),
}
FAULT_ERRORS = {
    "trace": "trace = 1.5, expected 1 within 1e-10",
    "trace-zero-branch": "trace = 1.5, expected 1 within 1e-10",
    "non-hermitian": "matrix is not Hermitian: max |m - m^dagger| = 5.000e-02",
    "non-hermitian-zero-branch": "matrix is not Hermitian: max |m - m^dagger| = 5.000e-02",
    "nan": "matrix contains non-finite entries",
    "nan-zero-branch": "matrix contains non-finite entries",
    "negative": "negative eigenvalue -1.000e-01 below -1e-10",
    "negative-zero-branch": "negative eigenvalue -2.000e-01 below -1e-10",
}
COMMANDS = {
    "capacity": ["capacity"],
    "measure": ["measure"],
    "measure-weighted": ["measure", "--scheme", "weighted", "1", "0"],
}


def _state_file(tmp_path, m):
    path = tmp_path / "state.json"
    m = np.asarray(m, dtype=complex)
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": m.real.tolist(), "im": m.imag.tolist()}))
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", COMMANDS, ids=COMMANDS)
@pytest.mark.parametrize("fault", FAULTS, ids=FAULTS)
def test_an_input_fault_raises_its_own_error(tmp_path, capsys, fault, command):
    argv = [*COMMANDS[command], "--state", _state_file(tmp_path, FAULTS[fault]), *PAIR_FLAGS]
    assert run_main(argv, capsys) == (2, "", f"qbcap: error: {FAULT_ERRORS[fault]}\n")


ARGUMENT_FAULTS = {
    "capacity-splittings": ["capacity", "--eps-a", "0.3", "--eps-b", "0.5"],
    "measure-splittings": ["measure", "--eps-a", "0.3", "--eps-b", "0.5"],
    "scheme-name": ["measure", *PAIR_FLAGS, "--scheme", "median"],
    "weight-not-a-number": ["measure", *PAIR_FLAGS, "--scheme", "weighted", "0.8", "x"],
    "weight-sum": ["measure", *PAIR_FLAGS, "--scheme", "weighted", "0.8", "0.4"],
    "weight-count": ["measure", *PAIR_FLAGS, "--scheme", "weighted", "0.5", "0.3", "0.2"],
    "basis-angle": ["measure", *PAIR_FLAGS, "--basis", "rotated", "nan", "0"],
    "basis-name": ["measure", *PAIR_FLAGS, "--basis", "spherical"],
}


@pytest.mark.parametrize("argv", ARGUMENT_FAULTS.values(), ids=ARGUMENT_FAULTS)
@pytest.mark.parametrize("fault", ["trace", "negative"])
def test_an_input_fault_precedes_an_argument_fault(tmp_path, capsys, fault, argv):
    # Splittings, scheme, weights and basis are read after the state is built; its error still comes first.
    got = run_main([*argv, "--state", _state_file(tmp_path, FAULTS[fault])], capsys)
    assert got == (2, "", f"qbcap: error: {FAULT_ERRORS[fault]}\n")


@pytest.mark.parametrize(
    "qubit, message",
    [
        (np.diag([0.6, 0.6]), "trace = 1.2, expected 1 within 1e-10"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "matrix is not Hermitian: max |m - m^dagger| = 1.000e-01"),
        (np.diag([0.5, 0.5]), "expected a two-qubit state, got a 2x2 matrix"),
    ],
    ids=["trace", "non-hermitian", "valid"],
)
@pytest.mark.parametrize("command", [["capacity"], ["measure", "--scheme", "median"]], ids=["capacity", "measure"])
def test_a_qubit_payload_raises_its_own_error_before_it_is_refused(tmp_path, capsys, command, qubit, message):
    got = run_main([*command, "--state", _state_file(tmp_path, qubit), *PAIR_FLAGS], capsys)
    assert got == (2, "", f"qbcap: error: {message}\n")


X_BASE = {"rho11": 0.4, "rho22": 0.25, "rho33": 0.2, "rho44": 0.15, "rho14": [0.1, 0.05], "rho23": [0.1, -0.02]}
SOURCES = {
    "werner": ["--werner", "0.6"],
    "bell_diagonal": ["--bell-diag", "0.4", "-0.2", "0.3"],
    "x_state": ["--x-state", "{dir}/x.json"],
    "example2": ["--example2", "0.2"],
    "state": ["--state", "{dir}/state.json"],
}
POINT_CALLS = {
    "capacity": ["capacity"],
    "measure": ["measure"],
    "measure-weighted-rotated": ["measure", "--scheme", "weighted", "0.3", "0.7", "--basis", "rotated", "0.9", "2.1"],
}
# The stacks np.linalg.eigh decomposes in one call: the input alone, or the input and the final state.
EIGH_STACKS = {"capacity": [(1, 1, 4, 4)], "measure": [(1, 2, 4, 4)], "measure-weighted-rotated": [(1, 2, 4, 4)]}


@pytest.mark.parametrize("call", POINT_CALLS, ids=POINT_CALLS)
@pytest.mark.parametrize("source", SOURCES, ids=SOURCES)
def test_a_call_decomposes_its_input_once(tmp_path, capsys, monkeypatch, source, call):
    # One stacked eigh per call holds the input, and no other eigh runs: the reduced states take eigvalsh.
    (tmp_path / "x.json").write_text(json.dumps(X_BASE))
    _state_file(tmp_path, WERNER_04)
    argv = [*POINT_CALLS[call], *(a.replace("{dir}", str(tmp_path)) for a in SOURCES[source]), *PAIR_FLAGS]
    shapes, original = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(np.shape(m)) or original(m))
    assert run_main(argv, capsys)[0] == 0
    assert shapes == EIGH_STACKS[call]


# Grids over each family, endpoints included: the swept parameter's values and the base of the others.
GRIDS = {
    "werner": ("a", 0.0, 1.0, {}),
    "example2": ("x", 0.0, 0.5, {}),
    "bell_diagonal": ("c3", -0.6, 0.8, {"bell_diag": [0.3, -0.1, 0.0]}),  # the whole admissible range of c3
    "x_state": ("coherence_scale", 0.0, 1.0, {"x_state": X_BASE}),
}


def _capacity_argv(family, spec_data, value, matrix, tmp_path):
    """The capacity call on the family state that the sweep builds at ``value``."""
    if family == "werner":
        return ["--werner", repr(value)]
    if family == "example2":
        return ["--example2", repr(value)]
    if family == "bell_diagonal":
        return ["--bell-diag", *map(repr, [*spec_data["bell_diag"][:2], value])]
    coherences = {"rho14": [matrix[0, 3].real, matrix[0, 3].imag], "rho23": [matrix[1, 2].real, matrix[1, 2].imag]}
    path = tmp_path / "x.json"
    path.write_text(json.dumps({**XStateParams.from_json(X_BASE).to_json(), **coherences}))
    return ["--x-state", str(path)]


@pytest.mark.parametrize("family", GRIDS)
def test_capacity_prints_the_sweeps_input_columns(tmp_path, capsys, family):
    # capacity is the engine's input half: its spectrum, capacities and verdict are the sweep's, bit for bit.
    from qbcap.sweep import SweepSpec, run_sweep

    param, start, stop, extra = GRIDS[family]
    data = {"family": family, "param": param, "start": start, "stop": stop, "count": 61, "eps_a": 0.7, "eps_b": 0.2, **extra}
    spec = SweepSpec.from_mapping(data)
    result = run_sweep(spec)
    matrices = spec.matrices(result.values, 1e-10)
    for k, value in enumerate(result.values.tolist()):
        argv = ["capacity", *_capacity_argv(family, data, value, matrices[k], tmp_path), "--eps-a", "0.7", "--eps-b", "0.2"]
        code, out, err = run_main([*argv, "--format", "json"], capsys)
        assert (code, err) == (0, ""), argv
        printed = json.loads(out)
        want = {
            "spectrum": result.spectra[k].tolist(),
            "c_total": float(result.gain("c_before_total")[k]),
            "c_subsystem_a": float(result.gain("c_before_a")[k]),
            "entangled": bool(result.entangled[k]),
        }
        assert {key: printed[key] for key in want} == want, (family, value)
        assert len(SPECTRUM_COLUMNS) == len(printed["spectrum"])

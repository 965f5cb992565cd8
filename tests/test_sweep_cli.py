import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import classical_quantum, random_density, subprocess_env

from qbcap import (
    DensityMatrix,
    InvalidStateError,
    MeasurementBasis,
    MeasurementEnsemble,
    QubitPairEnergies,
    SweepSpec,
    XStateParams,
    bell_diagonal,
    capacity_gain,
    example2,
    figure_preset,
    rows_to_json,
    run_sweep,
    werner,
    write_csv,
    x_state,
)
from qbcap.battery import MAX_SPLITTING
import qbcap.cli
from qbcap.cli import MAX_INPUT_CHARS, main
from qbcap.sweep import MAX_COUNT

PAIR_053 = QubitPairEnergies(eps_a=0.5, eps_b=0.3)


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qbcap", *args],
        capture_output=True,
        env=subprocess_env(env_extra),
        cwd=cwd,
    )


def run_main(argv, capsys):
    """In-process CLI call: exit code, stdout and stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_figure_presets():
    fig2 = figure_preset("fig2")
    assert (fig2.family, fig2.param, fig2.scheme) == ("example2", "x", "uniform")
    assert (fig2.start, fig2.stop, fig2.count) == (0.0, 0.5, 101)
    fig3 = figure_preset("fig3")
    assert fig3.scheme == "weighted" and fig3.weights == (0.1, 0.9)
    assert fig3.stop == 0.056
    with pytest.raises(ValueError):
        figure_preset("fig1")


def test_spec_validation():
    with pytest.raises(ValueError, match="at least 2"):
        SweepSpec(family="werner", param="a", start=0.0, stop=1.0, count=1, energies=PAIR_053)
    with pytest.raises(ValueError, match="unknown family"):
        SweepSpec(family="ghz", param="a", start=0.0, stop=1.0, count=5, energies=PAIR_053)
    with pytest.raises(ValueError, match="sweeps one of"):
        SweepSpec(family="werner", param="x", start=0.0, stop=1.0, count=5, energies=PAIR_053)
    with pytest.raises(ValueError, match="base"):
        SweepSpec(family="bell_diagonal", param="c1", start=0.0, stop=0.5, count=5, energies=PAIR_053)
    with pytest.raises(ValueError, match="requires weights"):
        SweepSpec(family="werner", param="a", start=0.0, stop=1.0, count=5, energies=PAIR_053, scheme="weighted")
    # The count and bounds that from_mapping refuses, refused with its messages, not later inside run_sweep.
    for count in (3.0, True, "3", None):
        with pytest.raises(ValueError, match=f"count must be an integer, got {re.escape(repr(count))}$"):
            SweepSpec(family="werner", param="a", start=0.0, stop=1.0, count=count, energies=PAIR_053)
    for bound in ("start", "stop"):
        for value in ("0", None, True, [0.5], 10**400):
            with pytest.raises(ValueError, match=f"^sweep specification: {bound} must be a number, got {re.escape(repr(value))}$"):
                SweepSpec(family="werner", param="a", count=5, energies=PAIR_053, **{"start": 0.0, "stop": 1.0, bound: value})
    with pytest.raises(ValueError, match="^sweep specification: stop must be a finite number, got inf$"):
        SweepSpec(family="werner", param="a", start=0.0, stop=math.inf, count=5, energies=PAIR_053)
    assert SweepSpec(family="werner", param="a", start=0, stop=np.float64(1.0), count=np.int64(3), energies=PAIR_053).count == 3


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"family": "bell_diagonal", "param": "c1", "bell_diag": (0.1, 0.2)}, "bell_diag must be a list of numbers of length 3, got (0.1, 0.2)"),
        ({"family": "bell_diagonal", "param": "c1", "bell_diag": (0.1, math.nan, 0.2)}, "bell_diag must be a finite number, got nan"),
        ({"scheme": "weighted", "weights": (math.nan, 1.0)}, "weights must be a finite number, got nan"),
        ({"scheme": "weighted", "weights": [0.5, "0.5"]}, "weights must be a number, got '0.5'"),
        ({"basis_angles": (math.nan, 0.0)}, "basis theta must be a finite number, got nan"),
        ({"basis_angles": (0.3, math.inf)}, "basis phi must be a finite number, got inf"),
        ({"start": -1e308, "stop": 1e308}, "grid span stop - start is not finite for start=-1e+308, stop=1e+308"),
    ],
    ids=["bell-diag-pair", "bell-diag-nan", "weights-nan", "weights-string", "theta-nan", "phi-inf", "span"],
)
def test_construction_refuses_what_a_spec_file_refuses(fields, message):
    # Each of these once built a spec that failed inside run_sweep, if at all; a spec file got the message below.
    spec = {"family": "werner", "param": "a", "start": 0.0, "stop": 0.5, "count": 3, "energies": PAIR_053, **fields}
    with pytest.raises(ValueError, match=f"^(sweep specification: )?{re.escape(message)}$"):
        SweepSpec(**spec)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"basis_angles": (0.1,)}, "sweep specification: basis_angles must be a (theta, phi) pair, got (0.1,)"),
        ({"basis_angles": (0.1, 0.2, 0.3)}, "sweep specification: basis_angles must be a (theta, phi) pair, got (0.1, 0.2, 0.3)"),
        ({"basis_angles": 0.5}, "sweep specification: basis_angles must be a (theta, phi) pair, got 0.5"),
        ({"scheme": "weighted", "weights": (0.5, 0.6)}, "weights sum to 1.1, expected 1 within 1e-12"),
        ({"scheme": "weighted", "weights": (1.2, -0.2)}, "weight mu_1 = -0.2 is negative"),
        ({"scheme": "weighted", "weights": (0.5, 0.3, 0.2)}, "3 weights for 2 branches"),
    ],
    ids=["angles-one", "angles-three", "angles-scalar", "weights-sum", "weights-negative", "weights-count"],
)
def test_a_spec_that_constructs_has_a_basis_pair_and_weights_it_can_run(fields, message):
    # The angles once raised Python's unpacking errors; the weights constructed and failed only inside run_sweep.
    spec = {"family": "werner", "param": "a", "start": 0.0, "stop": 0.5, "count": 3, "energies": PAIR_053, **fields}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepSpec(**spec)
    if "weights" in fields:  # a spec file's weights get the engine's message too
        data = {**SweepSpec(**{**spec, "weights": (0.5, 0.5)}).to_mapping(), "weights": list(fields["weights"])}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec.from_mapping(data)


def test_construction_stores_tuples_and_floats():
    spec = SweepSpec("bell_diagonal", "c1", 0, 1, 3, PAIR_053, "weighted", [0.5, 0.5], [1, 0], [0.1, 0, 0.2])
    assert (spec.weights, spec.basis_angles, spec.bell_diag) == ((0.5, 0.5), (1.0, 0.0), (0.1, 0.0, 0.2))
    assert all(type(v) is float for v in (spec.start, spec.stop, *spec.weights, *spec.basis_angles, *spec.bell_diag))
    assert hash(spec) == hash(SweepSpec("bell_diagonal", "c1", 0.0, 1.0, 3, PAIR_053, "weighted", (0.5, 0.5), (1.0, 0.0), (0.1, 0.0, 0.2)))
    assert len({spec, SweepSpec.from_mapping(spec.to_mapping())}) == 1
    assert SweepSpec("werner", "a", 0, 1, 3, PAIR_053, basis_angles=np.array([0.3, 1.2])).basis_angles == (0.3, 1.2)


def test_werner_sweep_rows():
    spec = SweepSpec(family="werner", param="a", start=0.0, stop=1.0, count=11, energies=PAIR_053)
    result = run_sweep(spec)
    assert len(result.values) == 11
    for a, c_before, entangled in zip(result.values, result.gain("c_before_total"), result.entangled):
        # Closed form: whole-pair capacity 2a(eps_a + eps_b) before measuring.
        assert abs(c_before - 2.0 * a * 0.8) < 1e-10
        assert entangled == (a > 1.0 / 3.0)


def test_bell_diagonal_sweep_overrides_one_component():
    spec = SweepSpec(
        family="bell_diagonal",
        param="c2",
        start=-0.3,
        stop=0.3,
        count=7,
        energies=PAIR_053,
        bell_diag=(0.4, 0.0, 0.1),
    )
    result = run_sweep(spec)
    assert abs(result.values[3]) < 1e-12
    ref = bell_diagonal(0.4, 0.0, 0.1)
    np.testing.assert_allclose(result.spectra[3], ref.spectrum, atol=1e-12)


def test_x_state_scale_sweep():
    base = XStateParams(rho11=0.4, rho22=0.2, rho33=0.2, rho44=0.2, rho14=0.25 + 0.1j, rho23=0.15j)
    spec = SweepSpec(
        family="x_state",
        param="coherence_scale",
        start=0.0,
        stop=1.0,
        count=5,
        energies=PAIR_053,
        x_params=base,
    )
    result = run_sweep(spec)
    assert len(result.values) == 5
    # Scale 0 kills the coherences, leaving the diagonal state.
    np.testing.assert_allclose(result.spectra[0], sorted([0.4, 0.2, 0.2, 0.2]), atol=1e-12)


def test_csv_round_trip_recomputes():
    spec = SweepSpec(
        family="werner",
        param="a",
        start=0.0,
        stop=0.9,
        count=10,
        energies=PAIR_053,
        scheme="weighted",
        weights=(0.7, 0.3),
    )
    result = run_sweep(spec)
    buf = io.StringIO()
    write_csv(result, spec, buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "a" and header[-1] == "entangled"
    for line in lines[1:]:
        cells = line.split(",")
        a = float(cells[0])
        report = capacity_gain(werner(a), PAIR_053, scheme="weighted", weights=(0.7, 0.3))
        recomputed = [
            *werner(a).spectrum,
            report.c_before_total,
            report.c_after_total,
            report.c_before_a,
            report.c_after_a,
            report.big_f,
            report.small_f,
        ]
        for cell, value in zip(cells[1:-1], recomputed):
            assert abs(float(cell) - value) < 1e-9
        assert cells[-1] in ("true", "false")


def test_csv_bytes_deterministic():
    spec = figure_preset("fig2")
    result = run_sweep(spec)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(result, spec, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_rows_to_json_echoes_spec():
    spec = figure_preset("fig3")
    result = run_sweep(spec)
    data = rows_to_json(result, spec)
    assert data["scheme"] == "weighted" and data["weights"] == [0.1, 0.9]
    assert data["basis"] == "computational"
    assert len(data["rows"]) == 101
    assert data["rows"][0]["x"] == 0.0


def test_cli_capacity_text_output():
    proc = run_cli("capacity", "--werner", "0.6", "--eps-a", "0.5", "--eps-b", "0.3")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "c_total: 0.96" in out
    assert "entangled: true" in out


def test_cli_capacity_json_output():
    proc = run_cli("capacity", "--bell-diag", "0.6", "0.3", "0.1", "--eps-a", "0.5", "--eps-b", "0.3", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["c_total"] - 0.78) < 1e-10
    assert data["entangled"] is False


def test_cli_measure_weighted_werner():
    proc = run_cli(
        "measure",
        "--werner", "0.4",
        "--scheme", "weighted", "0.8", "0.2",
        "--eps-a", "0.5",
        "--eps-b", "0.3",
        "--format", "json",
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["small_f"] - 0.24) < 1e-10
    assert data["scheme"] == "weighted"


def test_cli_measure_rotated_basis_runs():
    proc = run_cli(
        "measure",
        "--example2", "0.1",
        "--basis", "rotated", "0.7", "1.2",
        "--eps-a", "0.5",
        "--eps-b", "0.3",
        "--format", "json",
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert np.isfinite(data["big_f"]) and np.isfinite(data["small_f"])


def test_cli_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(werner(0.6).to_json()))
    proc = run_cli("capacity", "--state", str(path), "--eps-a", "0.5", "--eps-b", "0.3", "--format", "json")
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["c_total"] - 0.96) < 1e-10


def test_cli_x_state_file(tmp_path):
    path = tmp_path / "x.json"
    params = XStateParams(rho11=0.4, rho22=0.3, rho33=0.2, rho44=0.1, rho14=0.1, rho23=0.05)
    path.write_text(json.dumps(params.to_json()))
    proc = run_cli("capacity", "--x-state", str(path), "--eps-a", "0.5", "--eps-b", "0.3", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    np.testing.assert_allclose(sorted(data["spectrum"]), params.closed_form_eigenvalues(), atol=1e-10)


def test_cli_sweep_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "family": "werner",
                "param": "a",
                "start": 0.0,
                "stop": 1.0,
                "count": 5,
                "eps_a": 0.5,
                "eps_b": 0.3,
                "scheme": "weighted",
                "weights": [0.8, 0.2],
            }
        )
    )
    proc = run_cli("sweep", "--spec", str(spec_path))
    assert proc.returncode == 0
    lines = proc.stdout.decode().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("a,lambda0")


def test_cli_exit_codes(tmp_path):
    assert run_cli("capacity", "--werner", "1.5", "--eps-a", "0.5", "--eps-b", "0.3").returncode == 2
    assert run_cli("capacity", "--werner", "0.5", "--eps-a", "0.3", "--eps-b", "0.5").returncode == 2
    assert run_cli("capacity", "--werner", "0.5", "--eps-a", "0.5").returncode == 64
    assert run_cli("capacity", "--werner", "0.5", "--no-such-flag").returncode == 64
    assert run_cli("measure", "--werner", "0.5", "--scheme", "median", "--eps-a", "0.5", "--eps-b", "0.3").returncode == 64
    assert run_cli("sweep", "--figure", "fig2", "--family", "werner").returncode == 64
    assert run_cli("sweep", "--figure", "fig2", "--out", str(tmp_path / "missing" / "x.csv")).returncode == 74
    missing = tmp_path / "nope.json"
    assert run_cli("capacity", "--state", str(missing), "--eps-a", "0.5", "--eps-b", "0.3").returncode == 74
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("capacity", "--state", str(bad), "--eps-a", "0.5", "--eps-b", "0.3").returncode == 2


def test_cli_empty_x_state_file_is_invalid():
    proc = run_cli(
        "measure",
        "--x-state", "/dev/null",
        "--eps-a", "0.5",
        "--eps-b", "0.3",
    )
    assert proc.returncode == 2


def test_cli_uniform_average_undefined(tmp_path):
    # rho_A x |0><0| has a vanishing second branch, so the uniform average fails.
    m = np.zeros((4, 4))
    m[0, 0] = 0.7
    m[2, 2] = 0.3
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
    proc = run_cli("measure", "--state", str(path), "--eps-a", "0.5", "--eps-b", "0.3")
    assert proc.returncode == 2
    assert b"undefined" in proc.stderr


def test_cli_tolerance_env_override(tmp_path):
    # Trace off by 1e-8: rejected at the default tolerance, accepted at 1e-6.
    m = np.diag([0.5 + 1e-8, 0.5, 0.0, 0.0])
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
    args = ("capacity", "--state", str(path), "--eps-a", "0.5", "--eps-b", "0.3")
    assert run_cli(*args).returncode == 2
    assert run_cli(*args, env_extra={"QBCAP_TOL": "1e-6"}).returncode == 0
    assert run_cli(*args, env_extra={"QBCAP_TOL": "bogus"}).returncode == 64


def test_cli_weight_sum_is_invalid_spec():
    proc = run_cli(
        "measure",
        "--werner", "0.5",
        "--scheme", "weighted", "0.8", "0.4",
        "--eps-a", "0.5",
        "--eps-b", "0.3",
    )
    assert proc.returncode == 2
    assert b"sum" in proc.stderr


def test_cli_sweep_stdout_matches_out_file(tmp_path):
    out_path = tmp_path / "rows.csv"
    to_stdout = run_cli("sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1",
                        "--count", "6", "--eps-a", "0.5", "--eps-b", "0.3")
    to_file = run_cli("sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1",
                      "--count", "6", "--eps-a", "0.5", "--eps-b", "0.3", "--out", str(out_path))
    assert to_stdout.returncode == 0 and to_file.returncode == 0
    assert out_path.read_bytes() == to_stdout.stdout


WERNER_SPEC = {"family": "werner", "param": "a", "start": 0.0, "stop": 1.0, "count": 5, "eps_a": 0.5, "eps_b": 0.3}


@pytest.mark.parametrize(
    "override",
    [
        {"weights": 5, "scheme": "weighted"},
        {"weights": [0.5, "0.5"], "scheme": "weighted"},
        {"weights": [float("nan"), 1.0], "scheme": "weighted"},
        {"family": ["werner"]},
        {"param": 1},
        {"basis": {"theta": [1], "phi": 0}},
        {"basis": "rotated"},
        {"family": "bell_diagonal", "param": "c1", "bell_diag": 5},
        {"family": "bell_diagonal", "param": "c1", "bell_diag": [0.1, 0.2]},
        {"count": 2.7},
        {"count": True},
        {"start": float("nan")},
        {"stop": "1"},
        {"stop": 10**400},
        {"eps_a": float("inf")},
    ],
)
def test_malformed_sweep_spec_exits_2(tmp_path, capsys, override):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**WERNER_SPEC, **override}))
    code, out, err = run_main(["sweep", "--spec", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("qbcap: error:")


def test_from_mapping_matches_keyword_construction():
    spec = {**WERNER_SPEC, "scheme": "weighted", "weights": [0.8, 0.2], "basis": {"theta": 0.3, "phi": 0.0}}
    assert SweepSpec.from_mapping(spec) == SweepSpec(
        family="werner",
        param="a",
        start=0.0,
        stop=1.0,
        count=5,
        energies=PAIR_053,
        scheme="weighted",
        weights=(0.8, 0.2),
        basis_angles=(0.3, 0.0),
    )
    without_count = {k: v for k, v in WERNER_SPEC.items() if k != "count"}
    with pytest.raises(ValueError, match="missing count"):
        SweepSpec.from_mapping(without_count)
    # A mistyped required key reads as missing, not as unknown.
    with pytest.raises(ValueError, match="missing count"):
        SweepSpec.from_mapping({**without_count, "cuont": 5})


def test_cli_non_finite_energies_exit_2(capsys):
    code, out, err = run_main(["capacity", "--werner", "0.5", "--eps-a", "inf", "--eps-b", "0.3"], capsys)
    assert (code, out) == (2, "")
    assert "finite" in err


def test_cli_non_finite_weight_exit_2(capsys):
    argv = ["measure", "--werner", "0.5", "--scheme", "weighted", "nan", "0.5", "--eps-a", "0.5", "--eps-b", "0.3"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert "mu_0" in err and "finite" in err


def test_cli_non_finite_x_state_exit_2(tmp_path, capsys):
    # Python's json reads NaN; the X-state check names the field instead of failing later on the matrix.
    path = tmp_path / "x.json"
    path.write_text('{"rho11": NaN, "rho22": 0.25, "rho33": 0.25, "rho44": 0.25}')
    code, out, err = run_main(["capacity", "--x-state", str(path), "--eps-a", "0.5", "--eps-b", "0.3"], capsys)
    assert (code, out) == (2, "")
    assert err == "qbcap: error: rho11 = nan is not a finite number\n"


# The start of the error of an X-state coherence so large that the eigendecomposition of its matrix misses the
# reconstruction bound. The number that follows is LAPACK's and depends on the BLAS kernel (ROADMAP item 7).
RECONSTRUCTION_ERROR = "eigendecomposition reconstruction error "


def run_main_refused(argv, capsys, message):
    """Run ``argv`` in process; assert exit 2, no stdout, no warning and the one stderr line of ``message``.

    For ``RECONSTRUCTION_ERROR`` only the start of the line is pinned.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(argv, capsys)
    assert (code, out, caught) == (2, "", [])
    line = f"qbcap: error: {message}"
    if message == RECONSTRUCTION_ERROR:
        assert err.startswith(line) and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == line + "\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        # Well-formed but not a state: the state check refuses its matrix, as it refuses a --state file's.
        ('{"rho11":0.5,"rho22":0.2,"rho33":0.2,"rho44":0.1,"rho14":0.4}', "negative eigenvalue -1.472e-01 below -1e-10"),
        # Malformed: a missing population is named as missing.
        ('{"rho11":0.5,"rho22":0.2,"rho44":0.1}', "malformed x-state payload: missing rho33"),
        # A coherence whose square overflows a float: one error line, not an OverflowError or a numpy warning.
        ('{"rho11":0.25,"rho22":0.25,"rho33":0.25,"rho44":0.25,"rho14":[1e308,1e308]}', RECONSTRUCTION_ERROR),
    ],
)  # fmt: skip
def test_cli_x_state_errors_name_their_cause(tmp_path, capsys, payload, message):
    path = tmp_path / "x.json"
    path.write_text(payload)
    run_main_refused(["capacity", "--x-state", str(path), "--eps-a", "0.5", "--eps-b", "0.3"], capsys, message)


# X-state files, each with its exit code at the default tolerance and under QBCAP_TOL=1e-6.
X_EQUIVALENCE = {
    "state": ({"rho11": 0.4, "rho22": 0.25, "rho33": 0.2, "rho44": 0.15, "rho14": [0.1, 0.05], "rho23": 0.1}, 0, 0),
    "positivity": ({"rho11": 0.5, "rho22": 0.2, "rho33": 0.2, "rho44": 0.1, "rho14": 0.4}, 2, 2),
    "negative-population": ({"rho11": -0.2, "rho22": 0.6, "rho33": 0.3, "rho44": 0.3}, 2, 2),
    "sum-2": ({"rho11": 0.5, "rho22": 0.5, "rho33": 0.5, "rho44": 0.5}, 2, 2),
    "sum-1+5e-11": ({"rho11": 0.40000000005, "rho22": 0.3, "rho33": 0.2, "rho44": 0.1, "rho23": [0.1, -0.2]}, 0, 0),
    "sum-1.00000001": ({"rho11": 0.40000001, "rho22": 0.3, "rho33": 0.2, "rho44": 0.1, "rho14": 0.1}, 2, 0),
}


def _x_matrix(payload) -> np.ndarray:
    """The X-pattern matrix of an X-state file, built entry by entry."""
    m = np.diag([payload[name] for name in ("rho11", "rho22", "rho33", "rho44")]).astype(complex)
    for (i, j), name in (((0, 3), "rho14"), ((1, 2), "rho23")):
        value = payload.get(name, 0.0)
        m[i, j] = complex(*value) if isinstance(value, list) else value
        m[j, i] = np.conj(m[i, j])
    return m


@pytest.mark.parametrize("tol", [None, "1e-6"], ids=["default-tol", "tol-1e-6"])
@pytest.mark.parametrize("command", [["capacity"], ["measure", "--basis", "rotated", "0.9", "2.1"]], ids=["capacity", "measure"])
@pytest.mark.parametrize("name", X_EQUIVALENCE)
def test_x_state_and_state_files_of_one_matrix_give_one_result(tmp_path, capsys, monkeypatch, name, command, tol):
    # One state check judges both files, at the tolerance of the call.
    payload, code_default, code_loose = X_EQUIVALENCE[name]
    if tol is not None:
        monkeypatch.setenv("QBCAP_TOL", tol)
    x_path, state_path = tmp_path / "x.json", tmp_path / "state.json"
    x_path.write_text(json.dumps(payload))
    m = _x_matrix(payload)
    state_path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": m.real.tolist(), "im": m.imag.tolist()}))
    via_x = run_main([*command, "--x-state", str(x_path), *PAIR_FLAGS], capsys)
    assert via_x == run_main([*command, "--state", str(state_path), *PAIR_FLAGS], capsys)
    assert via_x[0] == (code_default if tol is None else code_loose)


@pytest.mark.parametrize(
    "family, base, start, stop, far, message",
    [
        # c1 + c2 + c3 = 2.7 > 1 makes lambda_0 negative at the base; c1 <= -0.8 keeps every point a state.
        ("bell_diagonal", {"param": "c1", "bell_diag": [0.9, 0.9, 0.9]}, -0.9, -0.85, 0.0,
         "correlation triple (-0.72, 0.9, 0.9) gives eigenvalue lambda_0 = -0.02 outside [0, 1]"),
        # rho11*rho44 < |rho14|^2 at the base; a coherence_scale s up to 0.5 keeps |0.4 s|^2 <= 0.04 < 0.05.
        ("x_state", {"param": "coherence_scale", "x_state": X_EQUIVALENCE["positivity"][0]}, 0.0, 0.5, 1.0,
         "negative eigenvalue -1.241e-02 below -1e-10"),
    ],
)  # fmt: skip
def test_a_base_that_is_not_a_state_sweeps_the_states_it_reaches(tmp_path, capsys, family, base, start, stop, far, message):
    # A sweep checks the points it measures, not its base. Swept on to ``far``, it refuses its first point that is
    # not a state: c1 = -0.72, and s = 0.6.
    path = tmp_path / "spec.json"
    spec = {"family": family, **base, "start": start, "stop": stop, "count": 6, "eps_a": 0.5, "eps_b": 0.3}
    path.write_text(json.dumps(spec))
    code, out, err = run_main(["sweep", "--spec", str(path)], capsys)
    assert (code, len(out.splitlines()), err) == (0, 7, "")
    path.write_text(json.dumps({**spec, "stop": far}))
    assert run_main(["sweep", "--spec", str(path)], capsys) == (2, "", f"qbcap: error: {message}\n")


EXAMPLE2_SPEC = {"family": "example2", "param": "x", "start": 0.0, "stop": 0.5, "count": 3, "eps_a": 0.5, "eps_b": 0.3}
X_TYPO = {"rho11": 0.4, "rho22": 0.3, "rho33": 0.2, "rho44": 0.1, "rho41": 0.15}
X_SPEC = {**EXAMPLE2_SPEC, "family": "x_state", "param": "coherence_scale", "stop": 1.0}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("sweep --spec", {**EXAMPLE2_SPEC, "bassis": {"theta": 1, "phi": 0}},
         "malformed sweep specification: unknown key 'bassis'"),
        ("sweep --spec", {**EXAMPLE2_SPEC, "basis": {"theta": 1, "phi": 0, "psi": 3}},
         "malformed basis entry: {'theta': 1, 'phi': 0, 'psi': 3}"),
        ("sweep --spec", {**X_SPEC, "x_state": X_TYPO}, "malformed x-state payload: unknown key 'rho41'"),
        ("capacity --x-state", X_TYPO, "malformed x-state payload: unknown key 'rho41'"),
        ("capacity --state", {**werner(0.4).to_json(), "dim_c": 3, "comment": "x"},
         "malformed density-matrix payload: unknown key 'dim_c', 'comment'"),
    ],
    ids=["spec-key", "basis-key", "spec-x-state-key", "x-state-key", "state-keys"],
)  # fmt: skip
def test_unknown_input_keys_exit_2(tmp_path, capsys, command, payload, message):
    # A mistyped optional key would otherwise be dropped, and the run go on without it.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    extra = PAIR_FLAGS if command.startswith("capacity") else []
    code, out, err = run_main([*command.split(), str(path), *extra], capsys)
    assert (code, out, err) == (2, "", f"qbcap: error: {message}\n")


def test_cli_nan_bell_triple_names_the_triple(capsys):
    code, out, err = run_main(["measure", "--bell-diag", "nan", "0", "0", *PAIR_FLAGS], capsys)
    message = "correlation triple (nan, 0.0, 0.0) gives eigenvalue lambda_0 = nan outside [0, 1]"
    assert (code, out, err) == (2, "", f"qbcap: error: {message}\n")


X_QUARTERS = {"rho11": 0.25, "rho22": 0.25, "rho33": 0.25, "rho44": 0.25}
NOT_NUMBERS = [True, "0.25", 10**400]  # a bool, a numeric string, an integer beyond float range


def _state_with_entry(field, value):
    state = werner(0.4).to_json()
    state[field][1][2] = value
    return state


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=["bool", "string", "huge"])
@pytest.mark.parametrize(
    "flag, payload, field",
    [
        ("--x-state", lambda v: {**X_QUARTERS, "rho11": v}, "rho11"),
        ("--x-state", lambda v: {**X_QUARTERS, "rho23": v}, "rho23"),
        ("--x-state", lambda v: {**X_QUARTERS, "rho14": [0.1, v]}, "rho14"),
        ("--state", lambda v: _state_with_entry("re", v), "re entry"),
        ("--state", lambda v: _state_with_entry("im", v), "im entry"),
    ],
    ids=["population", "coherence", "coherence-pair", "re", "im"],
)
def test_json_inputs_take_only_numbers(tmp_path, capsys, flag, payload, field, value):
    # One rule for every JSON number: an int or a float, and not a bool; spec files are
    # covered by test_malformed_sweep_spec_exits_2.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload(value)))
    code, out, err = run_main(["capacity", flag, str(path), *PAIR_FLAGS], capsys)
    assert (code, out) == (2, "")
    kind = "x-state" if flag == "--x-state" else "density-matrix"
    assert err == f"qbcap: error: malformed {kind} payload: {field} must be a number, got {value!r}\n"


def test_json_inputs_take_ints_and_floats():
    # Integers are numbers too: |00><00| written with int entries reads as that state.
    assert XStateParams.from_json({"rho11": 1, "rho22": 0, "rho33": 0, "rho44": 0, "rho14": [0, 0.0]}).rho11 == 1.0
    state = {"dim_a": 2, "dim_b": 2, "re": np.diag([1, 0, 0, 0]).tolist(), "im": [[0] * 4] * 4}
    assert DensityMatrix.from_json(state).spectrum.tolist() == [0.0, 0.0, 0.0, 1.0]


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # nested past Python's recursion limit
TRUNCATED_JSON = '{"rho11": 0.25,'
TRUNCATED = "{path}: Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"
NOT_A_PAIR = "matrix shape {} is neither a qubit (2, 2) nor a qubit pair (4, 4)"


def _state_text(entries):
    return json.dumps({"dim_a": 2, "dim_b": 2, "re": entries, "im": entries})


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("sweep --spec", json.dumps({**X_SPEC, "x_state": {**X_QUARTERS, "rho14": [1e308, 1e308]}}), RECONSTRUCTION_ERROR),
        ("capacity --state", DEEP_JSON, "{path}: JSON nested too deeply to read"),
        ("capacity --x-state", DEEP_JSON, "{path}: JSON nested too deeply to read"),
        ("sweep --spec", DEEP_JSON, "{path}: JSON nested too deeply to read"),
        ("capacity --state", _state_text([]), NOT_A_PAIR.format("(0,)")),
        ("capacity --state", _state_text(0.5), NOT_A_PAIR.format("()")),
        ("capacity --state", _state_text(np.eye(3).tolist()), NOT_A_PAIR.format("(3, 3)")),
        ("capacity --state", _state_text([[[1, 0], [0, 0]]]), NOT_A_PAIR.format("(1, 2, 2)")),
        ("capacity --state", _state_text([[1, 0], [0]]), "malformed density-matrix payload: re entry must be a number, got [1, 0]"),
        ("capacity --state", TRUNCATED_JSON, TRUNCATED),
        ("capacity --x-state", TRUNCATED_JSON, TRUNCATED),
        ("sweep --spec", TRUNCATED_JSON, TRUNCATED),
    ],
    ids=["spec-x-state-overflow", "state-deep", "x-state-deep", "spec-deep",
         "state-empty", "state-scalar", "state-3x3", "state-3d", "state-ragged",
         "state-truncated", "x-state-truncated", "spec-truncated"],
)  # fmt: skip
def test_hostile_json_inputs_exit_2(tmp_path, capsys, command, text, message):
    # A spec's overflowing coherence (see also test_cli_x_state_errors_name_their_cause), a nesting past
    # the recursion limit or a state matrix of the wrong shape ends in one error line, not a traceback.
    path = tmp_path / "input.json"
    path.write_text(text)
    extra = PAIR_FLAGS if command.startswith("capacity") else []
    run_main_refused([*command.split(), str(path), *extra], capsys, message.format(path=path))


def test_invalid_utf8_input_names_its_file(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff{}")
    code, out, err = run_main(["capacity", "--state", str(path), *PAIR_FLAGS], capsys)
    message = f"qbcap: error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "command, key", [("capacity --state", "dim_a"), ("capacity --x-state", "rho11"), ("sweep --spec", "count")]
)
def test_an_integer_past_the_digit_limit_names_its_file(tmp_path, capsys, command, key):
    # json reads a 5,000-digit integer with int(), which refuses strings of more than 4,300 digits.
    path = tmp_path / "input.json"
    path.write_text(f'{{"{key}": {"1" * 5000}}}')
    extra = PAIR_FLAGS if command.startswith("capacity") else []
    code, out, err = run_main([*command.split(), str(path), *extra], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"qbcap: error: {path}: Exceeds the limit (4300 digits)") and err.count("\n") == 1, err


# One valid file of each JSON input, every optional key set; the spec nests the fourth input, an x-state.
X_FULL = {**X_QUARTERS, "rho14": [0.1, 0.05], "rho23": [0.1, -0.05]}
CORPUS_BASES = {
    "measure --state": werner(0.4).to_json(),
    "measure --x-state": X_FULL,
    "sweep --spec": {
        "family": "bell_diagonal", "param": "c3", "start": -0.5, "stop": 0.5, "count": 2, "eps_a": 0.5, "eps_b": 0.3,
        "scheme": "weighted", "weights": [0.4, 0.6], "basis": {"theta": 0.9, "phi": 2.1}, "bell_diag": [0.1, -0.1, 0.0],
        "x_state": X_FULL,
    },
}  # fmt: skip
X_ENTRIES = [(name,) for name in X_QUARTERS] + [(name, part) for name in ("rho14", "rho23") for part in (0, 1)]
CORPUS_ENTRIES = {
    "measure --state": [("dim_a",), ("dim_b",)] + [(key, i, j) for key in ("re", "im") for i in range(4) for j in range(4)],
    "measure --x-state": X_ENTRIES,
    "sweep --spec": [(key,) for key in CORPUS_BASES["sweep --spec"]]
    + [("weights", k) for k in range(2)] + [("bell_diag", k) for k in range(3)] + [("basis", "theta"), ("basis", "phi")]
    + [("x_state", *entry) for entry in X_ENTRIES],
}
HOSTILE_VALUES = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "true": True, "string": "0.5",
                  "null": None, "list": [], "object": {}}  # fmt: skip


def _run_input(tmp_path, capsys, command, payload):
    """In-process call on ``payload`` as the command's input file: exit code, stdout, stderr and the warnings raised."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    extra = PAIR_FLAGS if command.startswith("measure") else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main([*command.split(), str(path), *extra], capsys)
    return code, out, err, [f"{w.category.__name__}: {w.message}" for w in caught]


@pytest.mark.parametrize("command", sorted(CORPUS_BASES))
def test_hostile_corpus_bases_run(tmp_path, capsys, command):
    # Each case of the corpus below breaks one entry of a file that runs.
    code, out, err, caught = _run_input(tmp_path, capsys, command, CORPUS_BASES[command])
    assert (code, err, caught) == (0, "", []) and out


CORPUS_CASES = [(command, entry) for command, entries in CORPUS_ENTRIES.items() for entry in entries]


@pytest.mark.parametrize("value", HOSTILE_VALUES.values(), ids=HOSTILE_VALUES.keys())
@pytest.mark.parametrize("command, entry", CORPUS_CASES, ids=[f"{c.split()[1][2:]}-{'.'.join(map(str, e))}" for c, e in CORPUS_CASES])
def test_hostile_json_corpus_exits_2(tmp_path, capsys, command, entry, value):
    # Every entry of every JSON input, set to a non-finite number, a bool, a numeric string, null, a list or an
    # object, ends in exit 2 with one error line: no output, no traceback and no numpy warning.
    payload = json.loads(json.dumps(CORPUS_BASES[command]))
    *path, last = entry
    target = payload
    for key in path:
        target = target[key]
    target[last] = value
    code, out, err, caught = _run_input(tmp_path, capsys, command, payload)
    assert (code, out, len(err.splitlines()), caught) == (2, "", 1, []), err
    assert err.startswith("qbcap: error: ")


INPUT_FILES = {
    "capacity --state": json.dumps(werner(0.4).to_json()),
    "capacity --x-state": json.dumps(X_QUARTERS),
    "sweep --spec": json.dumps({**EXAMPLE2_SPEC, "count": 3}),
}


@pytest.mark.parametrize("command", sorted(INPUT_FILES))
def test_input_files_are_read_up_to_the_cap(tmp_path, capsys, command):
    # A valid input padded to exactly MAX_INPUT_CHARS characters runs; one more exits 2 with one line.
    path = tmp_path / "input.json"
    extra = PAIR_FLAGS if command.startswith("capacity") else []
    text = INPUT_FILES[command]
    path.write_text(text + " " * (MAX_INPUT_CHARS - len(text)))
    assert run_main([*command.split(), str(path), *extra], capsys)[0] == 0
    path.write_text(text + " " * (MAX_INPUT_CHARS + 1 - len(text)))
    message = f"qbcap: error: {path}: input file exceeds {MAX_INPUT_CHARS} characters\n"
    assert run_main([*command.split(), str(path), *extra], capsys) == (2, "", message)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_input_is_read_only_through_the_cap(monkeypatch, capsys):
    # Every read of the input must name a size within the cap, so this test never reads /dev/zero unbounded.
    sizes = []

    class Bounded:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size=-1):
            assert 0 <= size <= MAX_INPUT_CHARS + 1, f"read of size {size}"
            sizes.append(size)
            return self.fh.read(size)

    monkeypatch.setattr(qbcap.cli, "open", lambda *args, **kwargs: Bounded(open(*args, **kwargs)), raising=False)
    got = run_main(["capacity", "--state", "/dev/zero", *PAIR_FLAGS], capsys)
    assert got == (2, "", f"qbcap: error: /dev/zero: input file exceeds {MAX_INPUT_CHARS} characters\n")
    assert sizes == [MAX_INPUT_CHARS + 1]


def test_equal_splittings_run(capsys):
    code, out, err = run_main(["capacity", "--werner", "0.5", "--eps-a", "0.5", "--eps-b", "0.5"], capsys)
    assert (code, out, err) == (0, "c_total: 1\nc_subsystem_a: 0\nspectrum: 0.125 0.125 0.125 0.625\nentangled: true\n", "")


HUGE_SPLITTINGS = ["--eps-a", "0.8e308", "--eps-b", "0.7e308"]
WERNER_SWEEP = ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--werner", "0.9", *HUGE_SPLITTINGS, "--format", "json"],
        ["measure", "--werner", "0.9", *HUGE_SPLITTINGS, "--format", "json"],
        [*WERNER_SWEEP, *HUGE_SPLITTINGS],
        [*WERNER_SWEEP, *HUGE_SPLITTINGS, "--format", "json"],
    ],
    ids=["capacity", "measure", "sweep-csv", "sweep-json"],
)
def test_overflowing_splittings_exit_2(argv):
    # Finite splittings whose capacities would overflow are refused up front, with no numpy warning.
    proc = run_cli(*argv)
    message = f"qbcap: error: eps_a=8e+307 exceeds {MAX_SPLITTING!r}, beyond which capacities overflow\n"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", message)


BELL_C3_SWEEP = ["sweep", "--family", "bell_diagonal", "--param", "c3", "--start", "0", "--stop", "0.1", "--count", "3"]


@pytest.mark.parametrize("c", [1.7e308, float("inf")], ids=["huge", "inf"])
@pytest.mark.parametrize(
    "command",
    [["capacity"], ["measure"], BELL_C3_SWEEP, ["sweep", "--spec"]],
    ids=["capacity", "measure", "sweep", "sweep-spec"],
)
def test_overflowing_bell_triples_exit_2(tmp_path, command, c):
    # A triple whose closed-form eigenvalues overflow is refused by the admissibility check, with no numpy warning.
    if command[-1] == "--spec":
        spec = {**WERNER_SPEC, "family": "bell_diagonal", "param": "c3", "bell_diag": [c, c, 0.0], "stop": 0.1}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = [*command, str(tmp_path / "spec.json")]
    else:
        argv = [*command, "--bell-diag", str(c), str(c), "0", *PAIR_FLAGS]
    proc = run_cli(*argv)
    message = f"qbcap: error: correlation triple ({c}, {c}, 0.0) gives eigenvalue lambda_0 = -inf outside [0, 1]\n"
    if command[0] == "sweep" and c == float("inf"):  # a sweep refuses a non-finite base triple as it reads it
        message = "qbcap: error: sweep specification: bell_diag must be a finite number, got inf\n"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", message)


SPAN_ERROR = "grid span stop - start is not finite for start=1e+308, stop=-1e+308"


@pytest.mark.parametrize("source", ["flags", "spec"])
def test_overflowing_grid_span_exits_2(tmp_path, source):
    if source == "spec":
        (tmp_path / "spec.json").write_text(json.dumps({**WERNER_SPEC, "start": 1e308, "stop": -1e308}))
        argv = ["sweep", "--spec", str(tmp_path / "spec.json")]
    else:
        argv = ["sweep", "--family", "werner", "--param", "a", "--start", "1e308", "--stop", "-1e308", "--count", "5"]
        argv += PAIR_FLAGS
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", f"qbcap: error: {SPAN_ERROR}\n")


def test_grids_near_the_float_limit_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            SweepSpec("werner", "a", 1e308, -1e308, 5, PAIR_053)
        # A finite span whose last step overflows: linspace puts stop there, so the grid is finite.
        edge = SweepSpec("werner", "a", 0.0, sys.float_info.max, 4, PAIR_053)
        grid = edge.grid()
        with pytest.raises(ValueError, match="werner parameter must lie in"):
            run_sweep(edge)
    assert str(refused.value) == SPAN_ERROR
    assert np.isfinite(grid).all() and grid[-1] == sys.float_info.max


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--werner", "1"],
        ["measure", "--werner", "1", "--basis", "rotated", "0.9", "2.1", "--scheme", "weighted", "0.9", "0.1"],
        WERNER_SWEEP,
    ],
    ids=["capacity", "measure", "sweep"],
)
def test_splittings_at_the_bound_give_finite_numbers(argv):
    edge = repr(MAX_SPLITTING)
    proc = run_cli(*argv, "--eps-a", edge, "--eps-b", edge, "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, b"")

    def refuse(constant):
        raise AssertionError(f"non-finite {constant} in the output")

    numbers = json.dumps(json.loads(proc.stdout, parse_constant=refuse))
    assert "e+307" in numbers


@pytest.mark.parametrize("count", [10**13, MAX_COUNT + 1])
def test_huge_grid_exits_2_without_allocating_it(capsys, count):
    argv = ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", str(count)]
    tracemalloc.start()
    try:
        got = run_main([*argv, *PAIR_FLAGS], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (2, "", f"qbcap: error: grid needs at least 2 and at most {MAX_COUNT} points, got {count}\n")
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    with pytest.raises(ValueError, match="at most"):
        SweepSpec("werner", "a", 0.0, 1.0, count, PAIR_053)


def write_state(tmp_path, matrix, name="state"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "re": np.real(matrix).tolist(), "im": np.imag(matrix).tolist()}))
    return str(path)


# Inputs off by about 1e-8: a trace of 1 + 1e-8, an eigenvalue of -2e-8, a Bell eigenvalue of -2.5e-8. Each
# exits 2 at the default tolerance and 0 under QBCAP_TOL=1e-6.
LOOSE_TRACE = np.diag([0.5 + 1e-8, 0.5, 0.0, 0.0])
LOOSE_STATES = {"trace": LOOSE_TRACE, "negative": np.diag([0.4 + 2e-8, 0.3, 0.3, -2e-8]), "bell": None}
REACH_COMMANDS = {
    "capacity": ["capacity"],
    "capacity-json": ["capacity", "--format", "json"],
    "measure": ["measure"],
    "measure-rotated-weighted": ["measure", "--basis", "rotated", "0.9", "2.1", "--scheme", "weighted", "0.3", "0.7"],
    "measure-json": ["measure", "--format", "json"],
}
LOOSE_SWEEP = ["sweep", "--family", "bell_diagonal", "--param", "c1", "--start", "1", "--stop", "1.0000001",
               "--count", "3", "--bell-diag", "1", "1", "-1", "--eps-a", "0.5", "--eps-b", "0.3",
               "--basis", "rotated", "0.9", "2.1", "--scheme", "weighted", "0.6", "0.4"]  # fmt: skip


@pytest.mark.parametrize(
    "command, state",
    [*((command, state) for state in LOOSE_STATES for command in REACH_COMMANDS), ("sweep", None)],
    ids=[*(f"{command}-{state}" for state in LOOSE_STATES for command in REACH_COMMANDS), "sweep-bell"],
)
def test_qbcap_tol_reaches_every_path(tmp_path, capsys, monkeypatch, command, state):
    if command == "sweep":
        argv = LOOSE_SWEEP
    else:
        source = ["--bell-diag", "1.0000001", "1", "-1"] if state == "bell" else ["--state", write_state(tmp_path, LOOSE_STATES[state])]
        argv = [*REACH_COMMANDS[command], *source, *PAIR_FLAGS]
    monkeypatch.delenv("QBCAP_TOL", raising=False)
    assert run_main(argv, capsys)[0] == 2
    monkeypatch.setenv("QBCAP_TOL", "1e-6")
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "") and out


def test_a_state_accepted_at_a_loose_tolerance_is_kept_as_given(tmp_path, capsys, monkeypatch):
    # Not renormalized: the trace of 1 + 1e-8 shows in the capacities and the spectrum.
    monkeypatch.setenv("QBCAP_TOL", "1e-6")
    argv = ["capacity", "--state", write_state(tmp_path, LOOSE_TRACE), *PAIR_FLAGS]
    expected = "c_total: 1.000000016\nc_subsystem_a: 1.00000001\nspectrum: 0 0 0.5 0.50000001\nentangled: false\n"
    assert run_main(argv, capsys) == (0, expected, "")


def test_cli_tolerance_does_not_outlive_the_call(tmp_path, capsys, monkeypatch):
    # QBCAP_TOL holds for one main call only: library code after it, and a later call without it, check at 1e-10.
    argv = ["capacity", "--state", write_state(tmp_path, LOOSE_TRACE), *PAIR_FLAGS]
    monkeypatch.setenv("QBCAP_TOL", "1e-6")
    assert run_main(argv, capsys)[0] == 0
    with pytest.raises(InvalidStateError, match="^trace = 1.00000001, expected 1 within 1e-10$"):
        DensityMatrix(LOOSE_TRACE)
    monkeypatch.delenv("QBCAP_TOL")
    assert run_main(argv, capsys) == (2, "", "qbcap: error: trace = 1.00000001, expected 1 within 1e-10\n")


@pytest.mark.parametrize("command", ["capacity", "measure"])
@pytest.mark.parametrize("raw", ["nan", "0", "-1", "1", "inf", "1e300", "bogus"])
def test_cli_refuses_a_tolerance_outside_0_1(tmp_path, capsys, monkeypatch, command, raw):
    # A tolerance of 1 or more would accept diag(3, 2, 1, -1), one of NaN every matrix.
    monkeypatch.setenv("QBCAP_TOL", raw)
    argv = [command, "--state", write_state(tmp_path, np.diag([3.0, 2.0, 1.0, -1.0])), *PAIR_FLAGS]
    reason = f"could not convert string to float: {raw!r}" if raw == "bogus" else f"{TOL_RANGE}{float(raw)}"
    assert run_main(argv, capsys) == (64, "", f"qbcap: error: invalid QBCAP_TOL: {reason}\n")


TOL_RANGE = "validation tolerance must be finite, above 0 and below 1, got "


SPEC_053 = SweepSpec("bell_diagonal", "c1", 0.0, 0.5, 3, PAIR_053, bell_diag=(0.0, 0.1, 0.1))
TOL_TAKERS = {
    "DensityMatrix": lambda tol: DensityMatrix(np.diag([3.0, 2.0, 1.0, -1.0]), tol),
    "from_json": lambda tol: DensityMatrix.from_json(werner(0.5).to_json(), tol),
    "werner": lambda tol: werner(0.5, tol),
    "bell_diagonal": lambda tol: bell_diagonal(0.1, 0.2, 0.3, tol),
    "x_state": lambda tol: x_state(XStateParams(0.4, 0.2, 0.2, 0.2, 0.1j, 0.1), tol),
    "example2": lambda tol: example2(0.2, tol),
    "MeasurementEnsemble": lambda tol: MeasurementEnsemble(np.zeros((0, 4, 4)), (), np.zeros(0, dtype=bool), tol),
    "run_sweep": lambda tol: run_sweep(SPEC_053, tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, 1.0])
@pytest.mark.parametrize("taker", sorted(TOL_TAKERS))
def test_library_refuses_a_tolerance_outside_0_1(taker, tol):
    with pytest.raises(ValueError, match=f"^{TOL_RANGE}{tol}$"):
        TOL_TAKERS[taker](tol)


def test_cli_reads_negative_exponent_numbers(capsys):
    energies = ["--eps-a", "0.5", "--eps-b", "0.3", "--format", "json"]
    code, out, _ = run_main(["capacity", "--bell-diag", "-3.9e-05", "0.1", "0.1", *energies], capsys)
    assert code == 0
    expected = capacity_gain(bell_diagonal(-3.9e-05, 0.1, 0.1), PAIR_053).c_before_total
    assert abs(json.loads(out)["c_total"] - expected) < 1e-12
    code, out, _ = run_main(["measure", "--werner", "0.5", "--basis", "rotated", "-1e-3", "0", *energies], capsys)
    assert code == 0
    code, out, _ = run_main(["sweep", "--family", "bell_diagonal", "--param", "c1", "--start", "-1e-3",
                             "--stop", "0.1", "--count", "3", "--bell-diag", "0", "0.1", "0.1", *energies], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["c1"] == -1e-3


SWEEP_DEFINING_FLAGS = [
    ["--family", "werner"],
    ["--param", "a"],
    ["--start", "0"],
    ["--stop", "1"],
    ["--count", "3"],
    ["--eps-a", "0.9"],
    ["--eps-b", "0.1"],
    ["--scheme", "weighted", "0.5", "0.5"],
    ["--basis", "rotated", "1", "1"],
    ["--bell-diag", "1", "1", "1"],
    ["--x-state", "x.json"],
]


# With two flags beside it, the error names the first in the order `qbcap sweep --help` lists them, not as given.
REFUSED_FLAGS = [pytest.param(flag, flag[0], id=flag[0]) for flag in SWEEP_DEFINING_FLAGS]
REFUSED_FLAGS.append(pytest.param(["--x-state", "x.json", "--count", "3"], "--count", id="--x-state+--count"))


@pytest.mark.parametrize("source", ["--figure", "--spec"])
@pytest.mark.parametrize("flags, named", REFUSED_FLAGS)
def test_preset_and_spec_sweeps_refuse_protocol_flags(tmp_path, capsys, source, flags, named):
    # A preset or spec file defines the grid, energies, protocol and base state; a flag beside it is a usage error.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "werner", "param": "a", "start": 0, "stop": 1, "count": 3, "eps_a": 0.5, "eps_b": 0.3}))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", source, "fig2" if source == "--figure" else str(spec), *flags])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (64, "")
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"qbcap sweep: error: {source} cannot be combined with {named}"
    ]


@pytest.mark.parametrize("protocol", [["--scheme", "weighted"], ["--basis", "sideways"], ["--scheme", "weighted", "x"]])
def test_measure_usage_errors_print_the_measure_usage(capsys, protocol):
    # Errors found after parsing print the usage and prog of the subcommand, as argparse's own errors there do.
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--werner", "0.6", *PAIR_FLAGS, *protocol])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (64, "")
    assert captured.err.startswith("usage: qbcap measure")
    assert captured.err.splitlines()[-1].startswith("qbcap measure: error: ")


X_ZERO_B1 = {"rho11": 0.6, "rho22": 0.0, "rho33": 0.4, "rho44": 0.0, "rho14": 0.0, "rho23": 0.0}
X_BASE = {"rho11": 0.4, "rho22": 0.2, "rho33": 0.2, "rho44": 0.2, "rho14": [0.1, 0.05], "rho23": 0.1}
PAIR_FLAGS = ["--eps-a", "0.5", "--eps-b", "0.3"]


@pytest.mark.parametrize(
    "grid, message",
    [
        # Werner a beyond 1: the first bad point (index 501, a = 1.002) lies past the first chunk.
        (["--family", "werner", "--param", "a", "--start", "0", "--stop", "1.2", "--count", "601"],
         "werner parameter must lie in [0, 1], got 1.002"),
        (["--family", "bell_diagonal", "--param", "c1", "--start", "0", "--stop", "1", "--count", "11",
          "--bell-diag", "0", "0.3", "0.3"],
         "correlation triple (0.5, 0.3, 0.3) gives eigenvalue lambda_0 = -0.025 outside [0, 1]"),
        (["--family", "x_state", "--param", "coherence_scale", "--start", "0", "--stop", "2", "--count", "11",
          "--x-state", "{dir}/x_base.json"],
         "coherence_scale must lie in [0, 1], got 1.2"),
        # Every point has a zero-probability branch; point 0 fails on it before the scale
        # check of the later points 2 and 3 (scales 1.0 < 1.5).
        (["--family", "x_state", "--param", "coherence_scale", "--start", "0", "--stop", "1.5", "--count", "4",
          "--x-state", "{dir}/x_zero.json"],
         "branch 1 has probability 0.000e+00; the unweighted average is undefined"),
        (["--family", "x_state", "--param", "coherence_scale", "--start", "0", "--stop", "1", "--count", "3",
          "--x-state", "{dir}/x_zero.json", "--scheme", "weighted", "0.5", "0.5"],
         "weight mu_1 = 0.5 assigned to a branch with probability 0.000e+00"),
    ],
)  # fmt: skip
def test_sweep_reports_first_failing_point(tmp_path, capsys, grid, message):
    # Exit code and stderr line pinned from the per-point engine.
    (tmp_path / "x_zero.json").write_text(json.dumps(X_ZERO_B1))
    (tmp_path / "x_base.json").write_text(json.dumps(X_BASE))
    argv = ["sweep", *(arg.replace("{dir}", str(tmp_path)) for arg in grid), *PAIR_FLAGS]
    assert run_main(argv, capsys) == (2, "", f"qbcap: error: {message}\n")


# diag(0.25, -0.9e-10, 0.5, 0.25 + 0.9e-10): a valid state, its eigenvalue -0.9e-10 within the
# tolerance, whose measurement branch 1 has eigenvalue -0.9e-10 / 0.25 = -3.6e-10. Its uniform
# final state would report -1.8e-10; with weights (1, 0) the final state is branch 0 and valid.
NEAR_NEGATIVE_STATE = {
    "dim_a": 2,
    "dim_b": 2,
    "re": np.diag([0.25, -0.9e-10, 0.5, 0.25 + 0.9e-10]).tolist(),
    "im": [[0.0] * 4] * 4,
}


@pytest.mark.parametrize(
    "command, code, err",
    [
        (["capacity"], 0, ""),
        (["measure"], 2, "qbcap: error: negative eigenvalue -3.600e-10 below -1e-10\n"),
        (["measure", "--scheme", "weighted", "1", "0"], 2, "qbcap: error: negative eigenvalue -3.600e-10 below -1e-10\n"),
    ],
    ids=["capacity", "measure", "measure-zero-weight"],
)
def test_branch_check_pins(tmp_path, capsys, command, code, err):
    # Exit code and stderr of the branch check, pinned from the check by full eigendecomposition.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(NEAR_NEGATIVE_STATE))
    got = run_main([*command, "--state", str(path), *PAIR_FLAGS], capsys)
    assert (got[0], got[2]) == (code, err)


@pytest.mark.xfail(
    strict=True,
    reason="dividing by p_k scales the round-off of the I x P_k products by 1/p_k, past the branch residue "
    "and Hermiticity checks; ROADMAP item 6 tracks the defect, which the branch-free engine of item 8 mends "
    "only if it forms the conditional states Hermitian by construction",
)
def test_cli_low_probability_branch_runs(tmp_path, capsys):
    # A valid state (1 - 1e-7) rho_a x P_0 + 1e-7 rho_b x P_1 in the measured rotated basis; weights (1, 0)
    # make the final state branch 0, so the run has nothing to reject.
    rng = np.random.default_rng(7)
    basis = MeasurementBasis.rotated(0.9, 2.1)
    conditionals = [random_density(rng, 2).matrix, random_density(rng, 2).matrix]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(DensityMatrix(classical_quantum(conditionals, (1.0 - 1e-7, 1e-7), basis)).to_json()))
    argv = ["measure", "--state", str(path), "--basis", "rotated", "0.9", "2.1", "--scheme", "weighted", "1", "0"]
    got = run_main([*argv, *PAIR_FLAGS], capsys)
    assert (got[0], got[2]) == (0, "")


SWEEP_300 = ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "300",
             "--basis", "rotated", "0.7", "1.3", "--scheme", "weighted", "0.8", "0.2", *PAIR_FLAGS]  # fmt: skip


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_sweep_out_file_holds_the_stdout_bytes(tmp_path, fmt):
    # Both formats stream to the output in chunks; a file gets the same bytes as stdout.
    out_path = tmp_path / f"rows.{fmt}"
    to_stdout = run_cli(*SWEEP_300, "--format", fmt)
    to_file = run_cli(*SWEEP_300, "--format", fmt, "--out", str(out_path))
    assert (to_stdout.returncode, to_file.returncode, to_file.stdout) == (0, 0, b"")
    assert out_path.read_bytes() == to_stdout.stdout


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_sweep_writes_no_file(tmp_path, capsys, fmt):
    out_path = tmp_path / f"rows.{fmt}"
    argv = ["sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "2", "--count", "5", *PAIR_FLAGS]
    got = run_main([*argv, "--format", fmt, "--out", str(out_path)], capsys)
    assert got == (2, "", "qbcap: error: werner parameter must lie in [0, 1], got 1.5\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["capacity", "measure"])
@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
def test_cli_non_finite_state_prints_one_error_line(tmp_path, command, bad):
    # Python's json reads these; the run reports them as one error line, with no numpy warning on stderr.
    payload = werner(0.4).to_json()
    payload["re"][0][0] = float(bad)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    assert bad in path.read_text()
    proc = run_cli(command, "--state", str(path), *PAIR_FLAGS)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"qbcap: error: matrix contains non-finite entries\n")

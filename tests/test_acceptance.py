"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion; any assertion failure marks the corresponding criterion failed.
"""

import io
import json
import subprocess
import sys

import numpy as np

from helpers import (
    random_bell_triple,
    random_density,
    random_energies,
    random_rotated_basis,
    random_x_params,
    subprocess_env,
)

from qbcap import (
    MeasurementBasis,
    QubitPairEnergies,
    bell_diagonal,
    bloch_coefficients,
    capacity,
    capacity_gain,
    example2,
    extremal_energies,
    figure_preset,
    final_state_weighted,
    haar_unitary,
    is_entangled,
    measure_b,
    qubit_pair_hamiltonian,
    run_sweep,
    werner,
    write_csv,
    x_state,
)

PAIR_053 = QubitPairEnergies(eps_a=0.5, eps_b=0.3)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qbcap", *args], capture_output=True, env=subprocess_env())


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({name: cell for name, cell in zip(header, cells)})
    return rows


def test_criterion_1_capacity_matches_energy_spread_oracle(rng):
    # Sorted-pairing capacity equals the max-minus-min reachable energy: the
    # permutation unitary attains both extremes, and no Haar sample escapes.
    for _ in range(200):
        rho = random_density(rng)
        h = qubit_pair_hamiltonian(random_energies(rng))
        lo, hi = extremal_energies(rho, h)
        assert abs(capacity(rho, h) - (hi - lo)) <= 1e-10
        u_max = h.basis @ rho.eigenvectors.conj().T
        u_min = h.basis[:, ::-1] @ rho.eigenvectors.conj().T
        assert abs(float(np.trace(u_max @ rho.matrix @ u_max.conj().T @ h.matrix).real) - hi) <= 1e-10
        assert abs(float(np.trace(u_min @ rho.matrix @ u_min.conj().T @ h.matrix).real) - lo) <= 1e-10
    rho = random_density(rng)
    h = qubit_pair_hamiltonian(PAIR_053)
    lo, hi = extremal_energies(rho, h)
    for _ in range(10_000):
        u = haar_unitary(4, rng)
        energy = float(np.trace(u @ rho.matrix @ u.conj().T @ h.matrix).real)
        assert lo - 1e-10 <= energy <= hi + 1e-10
    print("criterion 1: PASS (capacity = reachable energy spread; 200 states, 10^4 Haar samples)")


def test_criterion_2_bell_diagonal_closed_form(rng):
    for _ in range(500):
        c = random_bell_triple(rng)
        energies = random_energies(rng)
        m1, m2, _ = sorted((abs(v) for v in c), reverse=True)
        expected = (m1 + m2) * (energies.eps_a + energies.eps_b) + (m1 - m2) * (
            energies.eps_a - energies.eps_b
        )
        got = capacity(bell_diagonal(*c), qubit_pair_hamiltonian(energies))
        assert abs(got - expected) <= 1e-10
    print("criterion 2: PASS (correlation-diagonal capacity closed form; 500 triples)")


def test_criterion_3_uniform_mixing_never_helps_bell_diagonal(rng):
    for _ in range(500):
        c = random_bell_triple(rng)
        energies = random_energies(rng)
        report = capacity_gain(bell_diagonal(*c), energies, scheme="uniform")
        assert abs(report.c_after_total - 2.0 * abs(c[2]) * energies.eps_a) <= 1e-10
        assert report.big_f <= 1e-10
        assert abs(report.small_f) <= 1e-10
    print("criterion 3: PASS (uniform mixing: c_after_total = 2|c3|eps_a, big_f <= 0, small_f = 0; 500 states)")


def test_criterion_4_weighted_closed_forms_in_regime():
    # Grid over |c3| and delta = mu0 - mu1 with 0 < delta <= |c3|.
    e_plus = PAIR_053.eps_a + PAIR_053.eps_b
    e_minus = PAIR_053.eps_a - PAIR_053.eps_b
    for t in np.linspace(0.05, 0.95, 20):
        rho = werner(float(t))  # correlation triple (-t, -t, -t), so |c3| = t
        for frac in np.linspace(0.05, 1.0, 20):
            delta = float(frac * t)
            mu = ((1.0 + delta) / 2.0, (1.0 - delta) / 2.0)
            report = capacity_gain(rho, PAIR_053, scheme="weighted", weights=mu)
            expected_total = (delta + t) * e_plus + (t - delta) * e_minus
            assert abs(report.c_after_total - expected_total) <= 1e-10
            assert abs(report.c_after_a - 2.0 * delta * PAIR_053.eps_a * t) <= 1e-10
    print("criterion 4: PASS (weighted closed forms inside |c3| >= mu0-mu1; 20x20 grid)")


def test_criterion_5_werner_threshold():
    values = np.arange(1, 51) / 51.0
    for a in values:
        rho = werner(float(a))
        for delta in values:
            mu = ((1.0 + delta) / 2.0, (1.0 - delta) / 2.0)
            report = capacity_gain(rho, PAIR_053, scheme="weighted", weights=mu)
            if delta == a:
                assert abs(report.big_f) <= 1e-10
            elif delta > a:
                assert report.big_f > 1e-10
            else:
                assert report.big_f < 1e-10
    assert not is_entangled(werner(1.0 / 3.0 - 1e-6))
    assert is_entangled(werner(1.0 / 3.0 + 1e-6))
    print("criterion 5: PASS (whole-pair gain positive exactly for mu0-mu1 > a; 50x50 grid; PPT flip at 1/3)")


def test_criterion_6_fig2_first_qubit_gain():
    proc = run_cli("sweep", "--figure", "fig2")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout.decode())
    assert len(rows) == 101
    first = rows[0]
    assert abs(float(first["x"])) == 0.0
    assert abs(float(first["small_f"]) - 0.5 / 3.0) <= 1e-10
    for row in rows:
        x = float(row["x"])
        small_f = float(row["small_f"])
        if x < 0.5:
            assert small_f > 0.0
        else:
            assert abs(small_f) <= 1e-10
    print("criterion 6: PASS (fig2: small_f > 0 on [0, 0.5), 0 at 0.5, small_f(0) = eps_a/3)")


def test_criterion_7_fig3_whole_pair_gain():
    proc = run_cli("sweep", "--figure", "fig3")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout.decode())
    assert len(rows) == 101
    for row in rows:
        x = float(row["x"])
        big_f = float(row["big_f"])
        if x < 0.056:
            assert big_f > 0.0
        # Magnitudes come from the in-package functional, not the printed
        # closed forms; re-derive each row independently.
        report = capacity_gain(example2(x), PAIR_053, scheme="weighted", weights=(0.1, 0.9))
        assert abs(big_f - report.big_f) <= 1e-9
    print("criterion 7: PASS (fig3: big_f > 0 on [0, 0.056); rows match the recomputed functional)")


def test_criterion_8_structural_identities(rng):
    closure = dephasing = branches = spectra = bloch = 0
    for _ in range(500):
        kind = rng.integers(0, 2)
        basis = random_rotated_basis(rng) if kind else MeasurementBasis.computational()

        rho = random_density(rng)
        ensemble = measure_b(rho, basis)
        assert abs(sum(ensemble.probabilities) - 1.0) <= 1e-11
        closure += 1

        dephased = np.zeros((4, 4), dtype=complex)
        for proj in basis.projectors:
            op = np.kron(np.eye(2), proj)
            dephased += op @ rho.matrix @ op
        mixed = final_state_weighted(ensemble, ensemble.probabilities)
        assert np.max(np.abs(mixed.matrix - dephased)) <= 1e-11
        dephasing += 1

        params = random_x_params(rng)
        xrho = x_state(params)
        coeffs = bloch_coefficients(xrho)
        a3, b3, c3 = coeffs.a3, coeffs.b3, coeffs.t[2, 2]
        xens = measure_b(xrho, MeasurementBasis.computational())
        expected0 = np.diag([1 + b3 + a3 + c3, 0.0, 1 + b3 - a3 - c3, 0.0]) / (2.0 * (1 + b3))
        expected1 = np.diag([0.0, 1 - b3 + a3 - c3, 0.0, 1 - b3 - a3 + c3]) / (2.0 * (1 - b3))
        assert abs(xens.probabilities[0] - (1 + b3) / 2.0) <= 1e-11
        assert np.max(np.abs(xens.branches[0] - expected0)) <= 1e-11
        assert np.max(np.abs(xens.branches[1] - expected1)) <= 1e-11
        branches += 1

        assert np.max(np.abs(xrho.spectrum - params.closed_form_eigenvalues())) <= 1e-11
        spectra += 1

        c = random_bell_triple(rng)
        bcoeffs = bloch_coefficients(bell_diagonal(*c))
        assert max(abs(bcoeffs.a3), abs(bcoeffs.b3)) <= 1e-11
        assert np.max(np.abs(bcoeffs.t - np.diag(c))) <= 1e-11
        bloch += 1
    assert closure == dephasing == branches == spectra == bloch == 500
    print("criterion 8: PASS (closure, dephasing, branch matrices, closed-form spectra, Bloch round trip; 500 each)")


def test_criterion_9_cli_determinism(tmp_path):
    invocations = [
        ("capacity", "--werner", "0.6", "--eps-a", "0.5", "--eps-b", "0.3"),
        ("capacity", "--bell-diag", "0.4", "-0.2", "0.3", "--eps-a", "0.7", "--eps-b", "0.1", "--format", "json"),
        ("measure", "--werner", "0.4", "--scheme", "weighted", "0.8", "0.2", "--eps-a", "0.5", "--eps-b", "0.3",
         "--format", "json", "--seed", "7"),
        ("measure", "--example2", "0.2", "--basis", "rotated", "0.9", "2.1", "--eps-a", "0.5", "--eps-b", "0.3",
         "--format", "csv"),
        ("sweep", "--figure", "fig2", "--seed", "3"),
        ("sweep", "--figure", "fig3", "--format", "json"),
        ("sweep", "--family", "werner", "--param", "a", "--start", "0", "--stop", "1", "--count", "21",
         "--eps-a", "0.5", "--eps-b", "0.3", "--scheme", "weighted", "0.9", "0.1", "--seed", "11"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli("sweep", "--figure", "fig3", "--out", str(out_a)).returncode == 0
    assert run_cli("sweep", "--figure", "fig3", "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("criterion 9: PASS (identical invocations produce byte-identical outputs)")


def test_library_sweep_matches_cli_csv():
    # The in-process sweep and the subprocess path agree byte for byte.
    spec = figure_preset("fig2")
    buf = io.StringIO()
    write_csv(run_sweep(spec), spec, buf)
    proc = run_cli("sweep", "--figure", "fig2")
    assert proc.stdout.decode() == buf.getvalue()


def test_sweep_specs_for_criteria_have_json_echo():
    spec = figure_preset("fig3")
    result = run_sweep(spec)
    proc = run_cli("sweep", "--figure", "fig3", "--format", "json")
    data = json.loads(proc.stdout)
    assert len(data["rows"]) == len(result.values)
    assert abs(data["rows"][0]["big_f"] - result.gain("big_f")[0]) < 1e-15

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    classical_quantum,
    random_bell_triple,
    random_density,
    random_energies,
    random_rotated_basis,
    random_x_params,
)

from qbcap import (
    IDENTITY_2,
    DensityMatrix,
    InvalidStateError,
    MeasurementBasis,
    MeasurementEnsemble,
    QubitPairEnergies,
    UndefinedAverageError,
    bell_diagonal,
    bloch_coefficients,
    capacity_gain,
    example2,
    final_state_uniform,
    final_state_weighted,
    measure_b,
    werner,
    x_state,
)
import qbcap.measurement
from qbcap.measurement import _branch_bounds, _branches, _qubit_spectra, measure_and_mix
from qbcap.states import check_states, reduce_a
from qbcap.tolerances import RECONSTRUCTION_TOL, VALIDATION_TOL

PAIR_053 = QubitPairEnergies(eps_a=0.5, eps_b=0.3)


def product_with_b_ground(rng):
    """rho_A x |0><0| so the second branch has zero probability."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a = g @ g.conj().T
    rho_a /= np.trace(rho_a).real
    return DensityMatrix(np.kron(rho_a, np.diag([1.0, 0.0])))


def test_computational_basis_projectors():
    basis = MeasurementBasis.computational()
    assert basis.angles is None
    np.testing.assert_allclose(basis.projectors[0], np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(basis.projectors[1], np.diag([0.0, 1.0]), atol=1e-15)


def test_rotated_basis_reduces_to_computational_at_zero():
    basis = MeasurementBasis.rotated(0.0, 0.0)
    np.testing.assert_allclose(basis.projectors[0], np.diag([1.0, 0.0]), atol=1e-15)


def test_rotated_basis_is_complete_and_orthogonal(rng):
    for _ in range(50):
        basis = random_rotated_basis(rng)
        p0, p1 = basis.projectors
        np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-11)
        np.testing.assert_allclose(p0 @ p1, np.zeros((2, 2)), atol=1e-11)
        assert abs(np.trace(p0) - 1.0) < 1e-11


def assert_operators_are_kron(basis):
    # Bitwise, signs of zeros included: a -0.0 reaches the JSON output through repr.
    expected = np.stack([np.kron(IDENTITY_2, p) for p in basis.projectors])
    got = basis.operators
    assert got.shape == expected.shape and np.array_equal(got, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(expected)))


@pytest.mark.parametrize("angles", [None, (math.pi, 0.3), (2.5, -1.0), (0.9, 2.1), (-0.0, -0.0)])
def test_operators_are_bitwise_kron(angles):
    assert_operators_are_kron(MeasurementBasis(angles))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(theta=st.floats(allow_nan=False, allow_infinity=False), phi=st.floats(allow_nan=False, allow_infinity=False))
def test_operators_are_bitwise_kron_for_any_angles(theta, phi):
    assert_operators_are_kron(MeasurementBasis((theta, phi)))


def test_basis_rejects_incomplete_or_non_projector_sets():
    # Finite Bloch angles always give a complete pair of rank-1 projectors;
    # non-finite ones would give NaN entries and are rejected.
    for theta, phi in ((float("nan"), 0.0), (0.3, float("inf")), (float("-inf"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            MeasurementBasis.rotated(theta, phi)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MeasurementBasis(("0.5", 0)), "basis theta must be a number, got '0.5'"),
        (lambda: MeasurementBasis.rotated(True, 0), "basis theta must be a number, got True"),
        (lambda: MeasurementBasis.rotated(0.5, None), "basis phi must be a number, got None"),
    ],
    ids=["string", "bool", "none"],
)
def test_basis_angles_must_be_numbers(build, message):
    # Each angle is read as a JSON number, as a spec file's are: a string raises ValueError, not a TypeError
    # from the arithmetic, and a bool is refused, not read as 1 or 0.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
    basis = MeasurementBasis.rotated(1, 0)
    assert basis.angles == (1.0, 0.0) and all(type(a) is float for a in basis.angles)
    assert basis.description == MeasurementBasis.rotated(1.0, 0.0).description == "rotated(theta=1, phi=0)"


def test_measure_bell_diagonal_branches(rng):
    # Computational measurement of a correlation-diagonal state gives
    # half/half outcomes with diagonal branch states set by c3.
    for _ in range(50):
        c1, c2, c3 = random_bell_triple(rng)
        ensemble = measure_b(bell_diagonal(c1, c2, c3), MeasurementBasis.computational())
        p0, p1 = ensemble.probabilities
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12
        expected0 = np.diag([1.0 + c3, 0.0, 1.0 - c3, 0.0]) / 2.0
        expected1 = np.diag([0.0, 1.0 - c3, 0.0, 1.0 + c3]) / 2.0
        np.testing.assert_allclose(ensemble.branches[0], expected0, atol=1e-11)
        np.testing.assert_allclose(ensemble.branches[1], expected1, atol=1e-11)


def test_measure_x_state_branches(rng):
    # Branch probabilities (1 +- b3)/2 and diagonal branch states written in
    # terms of a3, b3, c3.
    for _ in range(100):
        params = random_x_params(rng)
        rho = x_state(params)
        coeffs = bloch_coefficients(rho)
        a3, b3, c3 = coeffs.a3, coeffs.b3, coeffs.t[2, 2]
        ensemble = measure_b(rho, MeasurementBasis.computational())
        assert abs(ensemble.probabilities[0] - (1.0 + b3) / 2.0) < 1e-11
        assert abs(ensemble.probabilities[1] - (1.0 - b3) / 2.0) < 1e-11
        expected0 = np.diag([1.0 + b3 + a3 + c3, 0.0, 1.0 + b3 - a3 - c3, 0.0]) / (2.0 * (1.0 + b3))
        expected1 = np.diag([0.0, 1.0 - b3 + a3 - c3, 0.0, 1.0 - b3 - a3 + c3]) / (2.0 * (1.0 - b3))
        np.testing.assert_allclose(ensemble.branches[0], expected0, atol=1e-11)
        np.testing.assert_allclose(ensemble.branches[1], expected1, atol=1e-11)


def test_measure_probability_closure(rng):
    for _ in range(200):
        rho = random_density(rng)
        basis = random_rotated_basis(rng)
        assert abs(sum(measure_b(rho, basis).probabilities) - 1.0) < 1e-11


def test_measure_reproduces_dephasing(rng):
    for _ in range(100):
        rho = random_density(rng)
        basis = random_rotated_basis(rng)
        ensemble = measure_b(rho, basis)
        dephased = np.zeros((4, 4), dtype=complex)
        for proj in basis.projectors:
            op = np.kron(np.eye(2), proj)
            dephased += op @ rho.matrix @ op
        weighted = sum(p * b for p, b in zip(ensemble.probabilities, ensemble.branches))
        np.testing.assert_allclose(weighted, dephased, atol=1e-11)


def test_measure_flags_zero_probability_branch(rng):
    ensemble = measure_b(product_with_b_ground(rng), MeasurementBasis.computational())
    assert not ensemble.flagged[0]
    assert abs(ensemble.probabilities[0] - 1.0) < 1e-12
    assert ensemble.flagged[1]


def test_measure_returns_the_engine_branch_record(rng):
    # measure_b is _branches on a stack of one: the same bits and flags, probabilities as Python floats, arrays
    # read-only; a flagged branch holds zeros.
    for _ in range(20):
        rho, basis = random_density(rng), random_rotated_basis(rng)
        ensemble = measure_b(rho, basis)
        branches, probabilities, flagged = (a[0] for a in _branches(rho.matrix[None], basis))
        assert ensemble.branches.tobytes() == branches.tobytes()
        assert ensemble.probabilities == tuple(probabilities.tolist())
        assert all(type(p) is float for p in ensemble.probabilities)
        assert ensemble.flagged.tolist() == flagged.tolist()
        assert not ensemble.branches.flags.writeable and not ensemble.flagged.flags.writeable
    assert not measure_b(product_with_b_ground(rng), MeasurementBasis.computational()).branches[1].any()


def test_measure_checks_its_branches_in_one_stacked_call(monkeypatch):
    shapes = []
    monkeypatch.setattr(qbcap.measurement, "check_states", lambda m, tol: shapes.append(m.shape) or check_states(m, tol))
    measure_b(werner(0.4), MeasurementBasis.rotated(0.9, 2.1))
    assert shapes == [(2, 4, 4)]


def test_hand_built_ensemble_is_checked_as_density_matrices():
    # The unflagged branches of a hand-built record pass the DensityMatrix check, with its messages; the
    # arrays must fit the probabilities.
    negative, off_trace, skew = np.diag([1.5, -0.5, 0.0, 0.0]), np.eye(4) / 2.0, np.triu(np.ones((4, 4))) / 4.0
    for bad in (negative, off_trace, skew, np.diag([np.nan, 1.0, 0.0, 0.0])):
        with pytest.raises(InvalidStateError) as want:
            DensityMatrix(bad)
        with pytest.raises(InvalidStateError, match=f"^{re.escape(str(want.value))}$"):
            MeasurementEnsemble(np.array([werner(0.3).matrix, bad]), (0.5, 0.5), np.array([False, False]))
    with pytest.raises(ValueError, match=r"^branches \(2, 4, 4\) and flags \(3,\) do not fit 2 probabilities$"):
        MeasurementEnsemble(np.zeros((2, 4, 4)), (0.5, 0.5), np.zeros(3, dtype=bool))


def test_ensembles_without_an_unflagged_branch_do_not_mix():
    # An ensemble without a branch is refused, so it never reaches a mix; with all branches flagged the
    # average or weight rule raises.
    with pytest.raises(ValueError, match="^an ensemble needs at least one branch$"):
        MeasurementEnsemble(np.zeros((0, 4, 4)), (), np.zeros(0, dtype=bool))
    flagged = MeasurementEnsemble(np.zeros((2, 4, 4)), (0.0, 0.0), np.ones(2, dtype=bool))
    with pytest.raises(UndefinedAverageError, match="^branch 0 has probability 0.000e\\+00; the unweighted average"):
        final_state_uniform(flagged)
    with pytest.raises(ValueError, match="^weight mu_0 = 1 assigned to a branch with probability 0.000e\\+00$"):
        final_state_weighted(flagged, (1.0, 0.0))


def test_measure_dimension_mismatch(rng):
    single = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        measure_b(single, MeasurementBasis.computational())


def test_uniform_final_state_bell_diagonal():
    c3 = 0.4
    final = final_state_uniform(measure_b(bell_diagonal(0.3, 0.2, c3), MeasurementBasis.computational()))
    expected = np.diag([1.0 + c3, 1.0 - c3, 1.0 - c3, 1.0 + c3]) / 4.0
    np.testing.assert_allclose(final.matrix, expected, atol=1e-12)


def test_uniform_final_state_example2():
    for x in (0.0, 0.2, 0.5):
        final = final_state_uniform(measure_b(example2(x), MeasurementBasis.computational()))
        expected = np.diag(
            [
                (1.0 - x) / (4.0 - 2.0 * x),
                1.0 / (2.0 + 2.0 * x),
                1.0 / (4.0 - 2.0 * x),
                x / (2.0 + 2.0 * x),
            ]
        )
        np.testing.assert_allclose(final.matrix, expected, atol=1e-12)
    final0 = final_state_uniform(measure_b(example2(0.0), MeasurementBasis.computational()))
    np.testing.assert_allclose(final0.matrix, np.diag([0.25, 0.5, 0.25, 0.0]), atol=1e-12)


def test_uniform_average_of_identical_branches():
    state = werner(0.3)
    ensemble = MeasurementEnsemble(np.array([state.matrix, state.matrix]), (0.5, 0.5), np.array([False, False]))
    np.testing.assert_allclose(final_state_uniform(ensemble).matrix, state.matrix, atol=1e-15)


def test_uniform_average_undefined_on_zero_probability(rng):
    ensemble = measure_b(product_with_b_ground(rng), MeasurementBasis.computational())
    with pytest.raises(UndefinedAverageError, match="branch 1"):
        final_state_uniform(ensemble)


def test_weighted_equals_uniform_at_half_weights(rng):
    for _ in range(20):
        rho = random_density(rng)
        ensemble = measure_b(rho, MeasurementBasis.computational())
        np.testing.assert_allclose(
            final_state_weighted(ensemble, (0.5, 0.5)).matrix,
            final_state_uniform(ensemble).matrix,
            atol=1e-12,
        )


def test_weighted_final_state_bell_diagonal():
    c3 = -0.3
    mu = (0.7, 0.3)
    final = final_state_weighted(measure_b(bell_diagonal(0.5, 0.4, c3), MeasurementBasis.computational()), mu)
    expected = np.diag(
        [mu[0] * (1.0 + c3), mu[1] * (1.0 - c3), mu[0] * (1.0 - c3), mu[1] * (1.0 + c3)]
    ) / 2.0
    np.testing.assert_allclose(final.matrix, expected, atol=1e-12)


def test_weighted_final_state_example2():
    x = 0.3
    mu = (0.1, 0.9)
    final = final_state_weighted(measure_b(example2(x), MeasurementBasis.computational()), mu)
    expected = np.diag(
        [
            mu[0] * (1.0 - x) / (2.0 - x),
            mu[1] / (1.0 + x),
            mu[0] / (2.0 - x),
            mu[1] * x / (1.0 + x),
        ]
    )
    np.testing.assert_allclose(final.matrix, expected, atol=1e-12)


def test_weights_equal_probabilities_give_dephased_state(rng):
    for _ in range(100):
        rho = random_density(rng)
        basis = random_rotated_basis(rng)
        ensemble = measure_b(rho, basis)
        mixed = final_state_weighted(ensemble, ensemble.probabilities)
        dephased = np.zeros((4, 4), dtype=complex)
        for proj in basis.projectors:
            op = np.kron(np.eye(2), proj)
            dephased += op @ rho.matrix @ op
        np.testing.assert_allclose(mixed.matrix, dephased, atol=1e-11)


def test_weighted_validation(rng):
    ensemble = measure_b(werner(0.5), MeasurementBasis.computational())
    with pytest.raises(ValueError, match="weights"):
        final_state_weighted(ensemble, (1.0,))
    with pytest.raises(ValueError, match="negative"):
        final_state_weighted(ensemble, (1.2, -0.2))
    with pytest.raises(ValueError, match="sum"):
        final_state_weighted(ensemble, (0.6, 0.3))
    with pytest.raises(ValueError, match="mu_0"):
        final_state_weighted(ensemble, (float("nan"), 1.0))
    with pytest.raises(ValueError, match="mu_1"):
        final_state_weighted(ensemble, (0.0, float("inf")))
    flagged = measure_b(product_with_b_ground(rng), MeasurementBasis.computational())
    with pytest.raises(ValueError, match="mu_1"):
        final_state_weighted(flagged, (0.4, 0.6))
    np.testing.assert_allclose(
        final_state_weighted(flagged, (1.0, 0.0)).matrix, flagged.branches[0], atol=1e-12
    )


@pytest.mark.parametrize("entry", ["final_state_weighted", "capacity_gain"])
@pytest.mark.parametrize(
    "weights, message",
    [
        ((float("nan"), 1.0), "weight mu_0 = nan is not a finite number"),
        ((1.2, -0.2), "weight mu_1 = -0.2 is negative"),
        ((0.6, 0.3), "weights sum to 0.9, expected 1 within 1e-12"),
        ((0.5, 0.5, 0.0), "3 weights for 2 branches"),
        ((0.5, 0.6, -0.1), "weight mu_2 = -0.1 is negative"),  # the values are checked before the count
    ],
)
def test_weight_rule_messages(entry, weights, message):
    # The one weights rule, reached from both entry points with the same texts.
    rho = werner(0.5)
    call = {
        "final_state_weighted": lambda: final_state_weighted(measure_b(rho, MeasurementBasis.computational()), weights),
        "capacity_gain": lambda: capacity_gain(rho, PAIR_053, scheme="weighted", weights=weights),
    }[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("entry", ["final_state_weighted", "capacity_gain"])
@pytest.mark.parametrize(
    "weights, message",
    [
        ([True, False], "weight mu_0 must be a number, got True"),
        (["a", 1], "weight mu_0 must be a number, got 'a'"),
        ((0.5, np.bool_(True)), "weight mu_1 must be a number, got True"),
        ((0.5, "0.5"), "weight mu_1 must be a number, got '0.5'"),
        (0.5, "weights must be a list of numbers, got 0.5"),
        ("0.5", "weights must be a list of numbers, got '0.5'"),
        (np.array(0.5), "weights must be a list of numbers, got array(0.5)"),
    ],
    ids=["bool", "string", "numpy-bool", "numeric-string", "scalar", "string-scalar", "0-d-array"],
)
def test_weights_must_be_numbers(entry, weights, message):
    # The JSON-number rule of spec-file weights holds for library weights too, and they come as a list of them:
    # a bare number or a 0-d array raises ValueError, not the TypeError of iterating over it.
    rho = werner(0.5)
    call = {
        "final_state_weighted": lambda: final_state_weighted(measure_b(rho, MeasurementBasis.computational()), weights),
        "capacity_gain": lambda: capacity_gain(rho, PAIR_053, scheme="weighted", weights=weights),
    }[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_weights_are_numbers():
    want = capacity_gain(werner(0.4), PAIR_053, scheme="weighted", weights=(0.8, 0.2))
    for weights in (np.array([0.8, 0.2]), (np.float64(0.8), np.float64(0.2)), [0.8, np.float64(0.2)]):
        report = capacity_gain(werner(0.4), PAIR_053, scheme="weighted", weights=weights)
        assert report == want
        assert all(type(w) is float for w in report.weights)
    ints = capacity_gain(werner(0.4), PAIR_053, scheme="weighted", weights=(np.int64(1), 0))
    assert ints == capacity_gain(werner(0.4), PAIR_053, scheme="weighted", weights=(1.0, 0.0))


def test_uniform_gain_on_bell_diagonal(rng):
    # Uniform mixing leaves 2|c3| eps_a of whole-pair capacity, wipes the
    # first-qubit capacity change, and never raises the whole-pair value.
    for _ in range(100):
        c = random_bell_triple(rng)
        energies = random_energies(rng)
        report = capacity_gain(bell_diagonal(*c), energies, scheme="uniform")
        assert abs(report.c_after_total - 2.0 * abs(c[2]) * energies.eps_a) < 1e-10
        assert report.big_f <= 1e-10
        assert abs(report.small_f) <= 1e-10
        assert abs(report.c_before_a) <= 1e-10


def test_weighted_gain_on_bell_diagonal_in_regime(rng):
    # With delta = mu0 - mu1 below |c3| both closed forms hold.
    for _ in range(100):
        c = random_bell_triple(rng)
        if abs(c[2]) < 1e-3:
            continue
        energies = random_energies(rng)
        delta = rng.uniform(0.0, abs(c[2]))
        mu = ((1.0 + delta) / 2.0, (1.0 - delta) / 2.0)
        report = capacity_gain(bell_diagonal(*c), energies, scheme="weighted", weights=mu)
        e_plus = energies.eps_a + energies.eps_b
        e_minus = energies.eps_a - energies.eps_b
        expected_total = (delta + abs(c[2])) * e_plus + (abs(c[2]) - delta) * e_minus
        assert abs(report.c_after_total - expected_total) < 1e-10
        assert abs(report.c_after_a - 2.0 * delta * energies.eps_a * abs(c[2])) < 1e-10


def test_weighted_gain_at_zero_c3_keeps_eps_a():
    # At c3 = 0 the first-qubit change vanishes while the pair retains
    # 2(mu0 - mu1) eps_a of capacity.
    delta = 0.6
    mu = ((1.0 + delta) / 2.0, (1.0 - delta) / 2.0)
    report = capacity_gain(bell_diagonal(0.5, -0.4, 0.0), PAIR_053, scheme="weighted", weights=mu)
    assert abs(report.small_f) < 1e-12
    assert abs(report.c_after_total - 2.0 * delta * PAIR_053.eps_a) < 1e-12


def test_werner_weighted_boundary_keeps_capacity():
    a = 0.4
    mu = ((1.0 + a) / 2.0, (1.0 - a) / 2.0)
    report = capacity_gain(werner(a), PAIR_053, scheme="weighted", weights=mu)
    assert abs(report.big_f) < 1e-12


def test_capacity_gain_scheme_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        capacity_gain(werner(0.5), PAIR_053, scheme="median")
    with pytest.raises(ValueError, match="no weights"):
        capacity_gain(werner(0.5), PAIR_053, scheme="uniform", weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="requires weights"):
        capacity_gain(werner(0.5), PAIR_053, scheme="weighted")


def test_capacity_gain_rejects_non_two_qubit():
    single = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        capacity_gain(single, PAIR_053)


def test_report_json_shape():
    report = capacity_gain(werner(0.4), PAIR_053, scheme="weighted", weights=(0.8, 0.2))
    data = report.to_json()
    assert set(data) == {
        "c_before_total",
        "c_after_total",
        "c_before_a",
        "c_after_a",
        "big_f",
        "small_f",
        "scheme",
        "weights",
    }
    assert data["scheme"] == "weighted"
    assert data["weights"] == [0.8, 0.2]
    assert abs(data["small_f"] - 0.24) < 1e-12
    uniform = capacity_gain(werner(0.4), PAIR_053).to_json()
    assert "weights" not in uniform


BRANCH_BASES = [MeasurementBasis.computational(), MeasurementBasis.rotated(0.9, 2.1)]


def near_negative_stack(basis, *lowest):
    """Classical-quantum pair matrices, one per entry of ``lowest``: branch 0 is diag(1/3, 2/3) x P_0 with
    probability 0.75, branch 1 is diag(l, 1 - l) x P_1 with probability 0.25, so the input has eigenvalue l / 4."""
    conditionals = [(np.diag([1.0 / 3.0, 2.0 / 3.0]), np.diag([low, 1.0 - low])) for low in lowest]
    return np.array([classical_quantum(rho, (0.75, 0.25), basis) for rho in conditionals])


@pytest.mark.parametrize("basis", BRANCH_BASES, ids=["computational", "rotated"])
def test_stack_reports_the_failing_branch_of_the_first_failing_point(basis):
    # Point 2 fails in branch 1 (-3.6e-10) with a valid input (-0.9e-10); point 3 fails in its
    # input (-6e-10 / 4 = -1.5e-10), later in stack order.
    matrices = near_negative_stack(basis, 0.5, 0.0, -3.6e-10, -6e-10)
    with pytest.raises(InvalidStateError, match=r"^negative eigenvalue -3\.600e-10 below -1e-10$"):
        measure_and_mix(matrices, basis, None, PAIR_053.levels(), VALIDATION_TOL)
    with pytest.raises(InvalidStateError, match=r"^negative eigenvalue -1\.500e-10 below -1e-10$"):
        measure_and_mix(matrices[3:], basis, None, PAIR_053.levels(), VALIDATION_TOL)
    spectra, gains = measure_and_mix(matrices[:2], basis, None, PAIR_053.levels(), VALIDATION_TOL)
    assert spectra.shape == (2, 4) and gains.shape == (2, 6)


@pytest.mark.parametrize("weights", [None, (0.5, 0.5), (1.0, 0.0)], ids=["uniform", "halves", "zero-weight"])
@pytest.mark.parametrize("basis", BRANCH_BASES, ids=["computational", "rotated"])
def test_failing_branch_is_reported_ahead_of_its_final_state(basis, weights):
    # Branch 1 has eigenvalue -3.6e-10. With equal weights the final state fails too, at
    # -1.8e-10, after the branch in stack order; with zero weight the branch is still checked.
    matrices = near_negative_stack(basis, -3.6e-10)
    with pytest.raises(InvalidStateError, match=r"^negative eigenvalue -3\.600e-10 below -1e-10$"):
        measure_and_mix(matrices, basis, weights, PAIR_053.levels(), VALIDATION_TOL)
    if weights != (1.0, 0.0):
        final = classical_quantum((np.diag([1.0 / 3.0, 2.0 / 3.0]), np.diag([-3.6e-10, 1.0 + 3.6e-10])), (0.5, 0.5), basis)
        with pytest.raises(InvalidStateError, match=r"^negative eigenvalue -1\.800e-10 below -1e-10$"):
            DensityMatrix(final)


# One fault per check of a pass, each on a point of its own: the point's matrix and, for a fault that no state
# carries, shifts that the pass meets at that point, as (target, index without the point axis, shift). The
# targets are the eigenvalues of np.linalg.eigh (role, eigenvalue; role 0 the input, 1 the final state) and of
# np.linalg.eigvalsh (role of the reduced state, eigenvalue), and the branches and probabilities of _branches;
# "flag" gives an outcome of _branches probability 0 and its flag, and the other outcome probability 1, where a
# state would leave a round-off probability that differs with the BLAS kernel.
CHECK_BASIS = MeasurementBasis.rotated(0.9, 2.1)
GOOD = classical_quantum((np.diag([0.3, 0.7]), np.diag([0.6, 0.4])), (0.5, 0.5), CHECK_BASIS)
MIXED = np.eye(4, dtype=complex) / 4.0
SKEW_INPUT, SKEW_REDUCED = GOOD.copy(), MIXED.copy()
SKEW_INPUT[0, 1] += 1e-9j  # not Hermitian beyond the tolerance
SKEW_REDUCED[0, 2] += 5.5e-11  # within it, but the first qubit's states hold 5.5e-11 twice over in one entry
SKEW_REDUCED[1, 3] += 5.5e-11
CHECK_FAULTS = {
    "reconstruction": (GOOD, [("eigh", (0, 2), 1e-9)]),
    "input": (SKEW_INPUT, []),
    "closure": (GOOD, [("probabilities", (0,), 1e-9)]),
    "flags": (GOOD, [("flag", (1,), None)]),
    "residue": (GOOD, [("branches", (1, 0, 3), 2e-11), ("branches", (1, 3, 0), 2e-11)]),
    "final": (GOOD, [("eigh", (1, 2), 1e-9)]),
    "verdict": (near_negative_stack(CHECK_BASIS, -3.6e-10)[0], []),
    "total": (MIXED, [("eigh", (0, 0), 5e-12), ("eigh", (0, 3), -5e-12)]),  # reconstructed within 5e-12
    "reduced": (GOOD, [("eigvalsh", (0, 0), 1e-9)]),
    "reduced verdict": (SKEW_REDUCED, []),
    "first": (MIXED, [("eigvalsh", (0, 0), 5e-12), ("eigvalsh", (0, 1), -5e-12)]),  # within 1e-11 of the closed form
}
# The checks of the input half alone.
INPUT_HALF_FAULTS = ("reconstruction", "input", "total", "reduced", "reduced verdict", "first")
# Each kind of pass: its basis and weights.
CHECK_PASSES = {"rotated-weighted": (CHECK_BASIS, (0.6, 0.4)), "rotated-uniform": (CHECK_BASIS, None), "capacity": (None, None)}
CHECK_ORDER_PINS = Path(__file__).with_name("check_order.json")


def faulted_pass_message(faults, kind):
    """The error message of the pass ``kind`` on a stack holding one point per entry of ``faults``: GOOD for None,
    else the point of a fault name, or of two joined by "+", at most one of them carried by the state."""
    points = [[CHECK_FAULTS[name] for name in entry.split("+")] if entry else [(GOOD, [])] for entry in faults]
    stack = np.array([next((m for m, _ in point if m is not GOOD), GOOD) for point in points])
    shifts = [(target, (i, *index), shift) for i, point in enumerate(points) for _, planted in point for target, index, shift in planted]
    originals = np.linalg.eigh, np.linalg.eigvalsh, qbcap.measurement._branches

    def shifted(values, *targets):
        for target, index, shift in sorted(shifts, key=lambda planted: planted[0] != "flag"):  # flags first
            if target == "flag" and target in targets:
                values[1][index[0]], values[2][index] = np.arange(2) != index[1], True
            elif target in targets:
                (values[1] if target == "probabilities" else values[0] if isinstance(values, tuple) else values)[index] += shift
        return values

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(np.linalg, "eigh", lambda m: shifted(originals[0](m), "eigh"))
        patched.setattr(np.linalg, "eigvalsh", lambda m: shifted(originals[1](m), "eigvalsh"))
        patched.setattr(qbcap.measurement, "_branches", lambda *a, **k: shifted(originals[2](*a, **k), "branches", "probabilities", "flag"))
        basis, weights = CHECK_PASSES[kind]
        try:
            measure_and_mix(stack, basis, weights, QubitPairEnergies(0.7, 0.2).levels(), VALIDATION_TOL)
        except (ValueError, ArithmeticError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return None


def check_order_faults(kind):
    """The faults a pass meets, one check each; and in a measured pass two checks on one point, at most one of
    them carried by the state."""
    names = INPUT_HALF_FAULTS if kind == "capacity" else tuple(CHECK_FAULTS)
    by_shifts, by_state = ("closure", "flags", "residue", "final"), ("input", "verdict")
    pairs = [] if kind == "capacity" else [f"{a}+{b}" for a in by_shifts + by_state for b in by_shifts if a != b]
    return names, tuple(pairs)


@pytest.mark.parametrize("kind", CHECK_PASSES)
def test_checks_raise_point_by_point_then_check_by_check(kind):
    # A fault on the middle of three points raises its pin; of two point checks on one point, the earlier check.
    # Of two faulted points the earlier one raises what it raises alone. The one-point messages were recorded
    # from the engine in which each check raised on its own, before the check table.
    pins = json.loads(CHECK_ORDER_PINS.read_text())[kind]
    names, pairs = check_order_faults(kind)
    assert set(pins) == {f"good | {fault} | good" for fault in names + pairs}  # no pin goes unread
    for fault in names + pairs:
        assert faulted_pass_message((None, fault, None), kind) == pins[f"good | {fault} | good"], fault
    for a, b in itertools.permutations(names, 2):
        assert faulted_pass_message((None, a, b), kind) == pins[f"good | {a} | good"], (a, b)


@pytest.mark.parametrize("kind", CHECK_PASSES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_stack_raises_what_its_first_faulted_point_raises_alone(kind, data):
    # Stacks of 1-5 points, each good or faulted in one check, raise the one-point pin of their first faulted
    # point, and an all-good stack raises nothing.
    names, _ = check_order_faults(kind)
    faults = data.draw(st.lists(st.sampled_from((None, *names)), min_size=1, max_size=5))
    first = next((fault for fault in faults if fault is not None), None)
    pins = json.loads(CHECK_ORDER_PINS.read_text())[kind]
    assert faulted_pass_message(faults, kind) == (None if first is None else pins[f"good | {first} | good"]), faults


def hermitian_conditionals(branches):
    """The Hermitian parts of the first-qubit states of (..., 4, 4) branches and their closed-form spectra, as
    measure_and_mix hands them to _branch_bounds."""
    conditionals = reduce_a(branches)
    conditionals = (conditionals + conditionals.conj().swapaxes(-1, -2)) / 2.0
    return conditionals, _qubit_spectra(conditionals)


def test_branch_bounds_carry_the_weyl_term(rng):
    # A branch within 1e-11 of a product rho_A x P_k is bounded below by min(lambda_min(rho_A), 0) - 4 * residue,
    # which the lowest eigenvalue of its Hermitian part never undercuts; rho_A is the Hermitian part of the
    # branch's first-qubit state, and the residue the distance of the branch's Hermitian part from the product.
    for _ in range(200):
        basis = random_rotated_basis(rng)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        low = rng.uniform(-3e-10, 0.3)
        rho_a = low * np.eye(2) + (1.0 - 2.0 * low) * (g @ g.conj().T) / np.linalg.norm(g) ** 2
        noise = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        noise *= rng.uniform(0.0, 2e-12) / np.abs(noise).max(axis=(-2, -1), keepdims=True)  # residue at most 6e-12
        branches = np.stack([np.kron(rho_a, p) for p in basis.projectors]) + noise
        bounds, residue = (a[0] for a in _branch_bounds(branches[None], *hermitian_conditionals(branches[None]), basis.projectors)[:2])
        conditionals = np.einsum("kibjb->kij", branches.reshape(2, 2, 2, 2, 2))
        hermitian = (conditionals + conditionals.conj().swapaxes(-1, -2)) / 2.0
        products = np.stack([np.kron(c, p) for c, p in zip(hermitian, basis.projectors)])
        hermitian_branches = (branches + branches.conj().swapaxes(-1, -2)) / 2.0
        want_residue = np.abs(hermitian_branches - products).max(axis=(-2, -1))
        want = np.minimum(np.linalg.eigvalsh(hermitian)[:, 0], 0.0) - 4.0 * want_residue
        np.testing.assert_allclose(residue, want_residue, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(bounds, want, rtol=0.0, atol=1e-15)
        assert (np.linalg.eigvalsh(hermitian_branches)[:, 0] >= bounds - 1e-15).all()
    # A residue beyond 1e-11 fails the branch's check, be it a Hermitian entry off the product or a lone entry
    # whose mirror image is missing; a skew-Hermitian one inside the block leaves the Hermitian part a product,
    # and Hermiticity is the screen's to judge.
    projectors = MeasurementBasis.computational().projectors
    point = np.stack([np.kron(np.diag([0.4, 0.6]), p) for p in projectors])
    off_block, lone, skew = point.copy(), point.copy(), point.copy()
    off_block[1, 0, 3] = off_block[1, 3, 0] = 2e-11  # Hermitian, outside the b = 1 block
    lone[1, 0, 3] = 4e-11  # outside the block, its mirror image missing: 2e-11 in the Hermitian part
    skew[1, 1, 3] = skew[1, 3, 1] = 1e-11j  # inside the block, skew-Hermitian: defect 2e-11
    for shifted in (off_block, lone):
        stack = np.stack([point, shifted])
        _, residue = _branch_bounds(stack, *hermitian_conditionals(stack), projectors)
        assert (residue > RECONSTRUCTION_TOL).tolist() == [[False, False], [False, True]]
        assert residue[1, 1] == 2e-11
    stack = np.stack([point, skew])
    _, residue = _branch_bounds(stack, *hermitian_conditionals(stack), projectors)
    assert residue.max() == 0.0

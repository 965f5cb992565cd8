import re

import numpy as np
import pytest

from helpers import random_bell_triple, random_density, random_x_params

from qbcap import (
    DensityMatrix,
    InvalidStateError,
    MeasurementBasis,
    NumericError,
    QubitPairEnergies,
    XStateParams,
    bell_diagonal,
    bloch_coefficients,
    capacity_gain,
    example2,
    is_entangled,
    measure_b,
    werner,
    x_state,
)
from qbcap.linalg import IDENTITY_2, PAULI_BASIS, PAULIS, SIGMA_3
from qbcap.measurement import measure_and_mix
from qbcap.states import bell_diagonal_matrices, check_states, x_state_matrices
from qbcap.tolerances import VALIDATION_TOL


def test_bell_diagonal_zero_triple_is_maximally_mixed():
    rho = bell_diagonal(0.0, 0.0, 0.0)
    np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-15)


def test_bell_diagonal_frozen_spectrum():
    rho = bell_diagonal(0.6, 0.3, 0.1)
    np.testing.assert_allclose(rho.spectrum, [0.0, 0.2, 0.35, 0.45], atol=1e-12)


def test_bell_diagonal_reduced_states_are_maximally_mixed(rng):
    for _ in range(50):
        rho = bell_diagonal(*random_bell_triple(rng))
        np.testing.assert_allclose(rho.reduced_a().matrix, IDENTITY_2 / 2.0, atol=1e-12)


def test_bell_diagonal_invalid_triple_names_eigenvalue():
    with pytest.raises(InvalidStateError, match="lambda_"):
        bell_diagonal(1.0, 1.0, 1.0)
    with pytest.raises(InvalidStateError, match="lambda_0"):
        bell_diagonal(0.5, 0.5, 0.5)


def test_werner_matches_bell_diagonal():
    for a in (0.0, 0.3, 0.7, 1.0):
        np.testing.assert_allclose(werner(a).matrix, bell_diagonal(-a, -a, -a).matrix, atol=1e-12)


def test_werner_frozen_spectra():
    np.testing.assert_allclose(werner(0.6).spectrum, [0.1, 0.1, 0.1, 0.7], atol=1e-12)
    np.testing.assert_allclose(werner(1.0).spectrum, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(werner(0.0).spectrum, [0.25] * 4, atol=1e-15)


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        werner(-0.01)
    with pytest.raises(ValueError):
        werner(1.01)


def test_x_state_uniform_diagonal():
    params = XStateParams(rho11=0.25, rho22=0.25, rho33=0.25, rho44=0.25)
    np.testing.assert_allclose(x_state(params).matrix, np.eye(4) / 4.0, atol=1e-15)


def test_x_state_bell_like_is_pure():
    params = XStateParams(rho11=0.5, rho22=0.0, rho33=0.0, rho44=0.5, rho14=0.5 + 0j)
    np.testing.assert_allclose(x_state(params).spectrum, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def assert_x_state_refused_as_a_state(params, message):
    # The params construct; the one state check refuses their matrix, with the message DensityMatrix gives it.
    matrix = x_state_matrices(params, np.array([params.rho14]), np.array([params.rho23]))[0]
    for build in (lambda: x_state(params), lambda: DensityMatrix(matrix)):
        with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
            build()


def test_x_state_psd_violation_names_inequality():
    # rho11*rho44 < |rho14|^2 and rho22*rho33 < |rho23|^2 each make a 2x2 X block, (0.1, 0.1, 0.2), with the
    # eigenvalue 0.1 - 0.2.
    assert_x_state_refused_as_a_state(
        XStateParams(rho11=0.1, rho22=0.4, rho33=0.4, rho44=0.1, rho14=0.2 + 0j), "negative eigenvalue -1.000e-01 below -1e-10"
    )
    assert_x_state_refused_as_a_state(
        XStateParams(rho11=0.4, rho22=0.1, rho33=0.1, rho44=0.4, rho23=0.2j), "negative eigenvalue -1.000e-01 below -1e-10"
    )


def test_x_state_population_validation():
    assert_x_state_refused_as_a_state(XStateParams(rho11=0.5, rho22=0.5, rho33=0.5, rho44=0.5), "trace = 2, expected 1 within 1e-10")
    assert_x_state_refused_as_a_state(
        XStateParams(rho11=-0.2, rho22=0.6, rho33=0.3, rho44=0.3), "negative eigenvalue -2.000e-01 below -1e-10"
    )
    # Judged at the tolerance of the call, not at a fixed one: populations summing to 1 + 1e-8 pass at 1e-6.
    near = XStateParams(rho11=0.40000001, rho22=0.3, rho33=0.2, rho44=0.1)
    assert_x_state_refused_as_a_state(near, "trace = 1.00000001, expected 1 within 1e-10")
    np.testing.assert_allclose(x_state(near, 1e-6).spectrum, [0.1, 0.2, 0.3, 0.40000001], atol=1e-15)


@pytest.mark.parametrize(
    "field, value",
    [("rho11", float("nan")), ("rho33", float("inf")), ("rho14", complex(float("nan"), 0.0)), ("rho23", complex(0.0, float("-inf")))],
)
def test_x_state_rejects_non_finite_entries(field, value):
    # The params name a non-finite field, where the state check of their matrix would report non-finite entries.
    params = {"rho11": 0.25, "rho22": 0.25, "rho33": 0.25, "rho44": 0.25, field: value}
    with pytest.raises(InvalidStateError, match=f"{field} = .* is not a finite number"):
        XStateParams(**params)


@pytest.mark.parametrize(
    "field, value",
    [("rho11", "0.25"), ("rho44", True), ("rho22", 0.25j), ("rho33", 10**400), ("rho14", [0.1, 0.0]), ("rho23", "0.1"), ("rho14", None)],
)
def test_x_state_rejects_entries_that_are_not_numbers(field, value):
    # Once a TypeError from cmath.isfinite, or for a huge int an OverflowError; a coherence may be complex.
    params = {"rho11": 0.25, "rho22": 0.25, "rho33": 0.25, "rho44": 0.25, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
        XStateParams(**params)
    assert XStateParams(**{**params, field: 0.1 + 0.05j if field in ("rho14", "rho23") else 0.25})


def test_x_state_closed_form_spectra_match_eigh(rng):
    for _ in range(500):
        params = random_x_params(rng)
        np.testing.assert_allclose(
            x_state(params).spectrum, params.closed_form_eigenvalues(), atol=1e-11
        )


def test_x_params_json_round_trip():
    params = XStateParams(rho11=0.4, rho22=0.3, rho33=0.2, rho44=0.1, rho14=0.1 + 0.05j, rho23=0.12j)
    again = XStateParams.from_json(params.to_json())
    assert again == params
    bare_real = XStateParams.from_json({"rho11": 0.4, "rho22": 0.3, "rho33": 0.2, "rho44": 0.1, "rho14": 0.15})
    assert bare_real.rho14 == 0.15 + 0j


def test_example2_frozen_spectra():
    np.testing.assert_allclose(example2(0.0).spectrum, [0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    np.testing.assert_allclose(example2(0.2).spectrum, [0.0, 0.0667, 0.2667, 0.6667], atol=1e-4)
    np.testing.assert_allclose(example2(0.5).spectrum, [0.0, 1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0], atol=1e-12)


def test_example2_reduced_state():
    for x in (0.0, 0.2, 0.5):
        np.testing.assert_allclose(
            example2(x).reduced_a().matrix, np.diag([(2.0 - x) / 3.0, (1.0 + x) / 3.0]), atol=1e-12
        )


def test_nan_bell_triple_names_the_triple():
    message = r"^correlation triple \(nan, 0\.0, 0\.0\) gives eigenvalue lambda_0 = nan outside \[0, 1\]$"
    with pytest.raises(InvalidStateError, match=message):
        bell_diagonal(float("nan"), 0.0, 0.0)


def test_bell_triples_are_judged_by_the_scalar_eigenvalues():
    # Triples that put one eigenvalue within a few ulps of -tol or 1 + tol: the stacked check admits and
    # reports exactly what the four scalar expressions (1 -+ c1 -+ c2 -+ c3) / 4, evaluated left to right, give.
    rng = np.random.default_rng(7)
    tol, signs = VALIDATION_TOL, [(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    triples = []
    for _ in range(400):
        (s1, s2, s3), edge = signs[rng.integers(4)], (-tol, 1.0 + tol)[rng.integers(2)]
        c1, c2 = rng.uniform(-1.0, 1.0, 2) * rng.uniform(0.5, 1.0, 2)  # all 53 bits: the order of the sums shows
        triples.append((c1, c2, s3 * (4.0 * edge + rng.integers(-40, 41) * 1e-16 - 1.0 - s1 * c1 - s2 * c2)))
    triples = np.array(triples)
    verdicts = []
    for c1, c2, c3 in triples.tolist():
        lams = [(1.0 - c1 - c2 - c3) / 4.0, (1.0 - c1 + c2 + c3) / 4.0, (1.0 + c1 - c2 + c3) / 4.0, (1.0 + c1 + c2 - c3) / 4.0]
        outside = [j for j, lam in enumerate(lams) if not -tol <= lam <= 1.0 + tol]
        message = f"correlation triple ({c1}, {c2}, {c3}) gives eigenvalue lambda_{outside[0]} = {lams[outside[0]]:.12g} outside [0, 1]" if outside else None
        verdicts.append(message)
        if message:
            with pytest.raises(InvalidStateError) as raised:
                bell_diagonal_matrices(np.array([[c1, c2, c3]]), tol)
            assert str(raised.value) == message
        else:
            bell_diagonal_matrices(np.array([[c1, c2, c3]]), tol)
    assert 50 < verdicts.count(None) < 350  # both sides of the edge are drawn
    with pytest.raises(InvalidStateError) as raised:
        bell_diagonal_matrices(triples, tol)
    assert str(raised.value) == next(m for m in verdicts if m)


def test_example2_rejects_out_of_range():
    with pytest.raises(ValueError):
        example2(-0.1)
    with pytest.raises(ValueError):
        example2(0.51)


def test_bloch_of_bell_diagonal_is_diagonal(rng):
    for _ in range(100):
        c = random_bell_triple(rng)
        coeffs = bloch_coefficients(bell_diagonal(*c))
        assert abs(coeffs.a3) < 1e-11 and abs(coeffs.b3) < 1e-11
        np.testing.assert_allclose(coeffs.t, np.diag(c), atol=1e-11)


def test_bloch_of_maximally_mixed_vanishes():
    coeffs = bloch_coefficients(DensityMatrix(np.eye(4) / 4.0))
    assert coeffs.a3 == coeffs.b3 == 0.0
    np.testing.assert_allclose(coeffs.t, np.zeros((3, 3)), atol=1e-15)


def test_bloch_of_example2():
    for x in (0.0, 0.25, 0.5):
        coeffs = bloch_coefficients(example2(x))
        expected = (1.0 - 2.0 * x) / 3.0
        assert abs(coeffs.a3 - expected) < 1e-12
        assert abs(coeffs.b3 - expected) < 1e-12
        assert abs(coeffs.t[2, 2] - (-1.0 / 3.0)) < 1e-12


def test_bloch_rejects_non_two_qubit():
    single = DensityMatrix(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        bloch_coefficients(single)


def test_pauli_contraction_matches_the_trace_of_kron_products(rng):
    # The contraction bloch_coefficients makes, tr(m (s_i x s_j)) from the (2, 2, 2, 2) blocks of m, for all
    # 16 pairs of (I, s1, s2, s3); a3, b3 and t are its (3, 0), (0, 3) and lower right 3x3 entries.
    for _ in range(100):
        m = random_density(rng, 4).matrix
        want = np.array([[np.trace(m @ np.kron(si, sj)) for sj in PAULI_BASIS] for si in PAULI_BASIS])
        got = np.einsum("abcd,ica,jdb->ij", m.reshape(2, 2, 2, 2), PAULI_BASIS, PAULI_BASIS)
        assert np.max(np.abs(got - want)) <= 1e-15
        coeffs = bloch_coefficients(DensityMatrix(m))
        assert abs(coeffs.a3 - want[3, 0].real) <= 1e-15 and abs(coeffs.b3 - want[0, 3].real) <= 1e-15
        assert np.max(np.abs(coeffs.t - want[1:, 1:].real)) <= 1e-15


def test_bloch_coefficients_makes_no_kron_call(monkeypatch):
    rho = example2(0.25)
    want = bloch_coefficients(rho)

    def refuse(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    got = bloch_coefficients(rho)
    assert (got.a3, got.b3) == (want.a3, want.b3) and np.array_equal(got.t, want.t)


def test_bloch_coefficients_refuse_an_imaginary_residue():
    # An anti-Hermitian part of 4e-11 in entry (0, 1) passes the state check at 1e-10, but gives the
    # coefficient of s3 x s1 an imaginary part of 8e-11, which no Hermitian state has.
    m = werner(0.4).matrix.copy()
    m[0, 1] += 4e-11j
    m[1, 0] += 4e-11j
    rho = DensityMatrix(m, 1e-10)
    with pytest.raises(NumericError, match="^Pauli expectation has imaginary residue 8.000e-11$"):
        bloch_coefficients(rho)


def test_x_state_reconstructs_from_bloch(rng):
    # For X-shaped states the local z components plus the full correlation
    # matrix determine the state.
    for _ in range(100):
        rho = x_state(random_x_params(rng))
        coeffs = bloch_coefficients(rho)
        recon = np.eye(4, dtype=complex)
        recon += coeffs.a3 * np.kron(SIGMA_3, IDENTITY_2) + coeffs.b3 * np.kron(IDENTITY_2, SIGMA_3)
        for i in range(3):
            for j in range(3):
                recon += coeffs.t[i, j] * np.kron(PAULIS[i], PAULIS[j])
        np.testing.assert_allclose(recon / 4.0, rho.matrix, atol=1e-10)


def test_is_entangled_spot_cases():
    assert not is_entangled(DensityMatrix(np.eye(4) / 4.0))
    assert not is_entangled(werner(0.2))
    assert is_entangled(werner(0.5))
    assert is_entangled(werner(1.0))


def test_werner_entanglement_flips_at_one_third():
    assert not is_entangled(werner(1.0 / 3.0 - 1e-6))
    assert is_entangled(werner(1.0 / 3.0 + 1e-6))


def test_x_state_inequality_agrees_with_ppt(rng):
    # Strict population/coherence inequalities reproduce the partial-transpose
    # verdict on 500 random X states.
    for _ in range(500):
        params = random_x_params(rng)
        predicted = (
            params.rho11 * params.rho44 < abs(params.rho23) ** 2
            or params.rho22 * params.rho33 < abs(params.rho14) ** 2
        )
        assert predicted == is_entangled(x_state(params))


def test_density_matrix_validation_errors():
    with pytest.raises(InvalidStateError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvalidStateError, match="trace"):
        DensityMatrix(np.eye(4) / 2.0)
    with pytest.raises(InvalidStateError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(InvalidStateError, match="non-finite"):
        DensityMatrix(np.diag([np.nan, 1.0, 0.0, 0.0]))
    for shape in ((3, 3), (1, 1), (8, 8), (2, 4), (4,)):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(np.ones(shape) / shape[0])


def test_density_matrix_spectrum_clamps_round_off():
    eps = 1e-12
    rho = DensityMatrix(np.diag([1.0 + eps, -eps, 0.0, 0.0]) / (1.0))
    assert rho.spectrum[0] == 0.0


def test_density_matrix_json_round_trip():
    rho = werner(0.37)
    again = DensityMatrix.from_json(rho.to_json())
    np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)
    assert again.dim == 4
    assert again.to_json() == rho.to_json()


def test_density_matrix_json_rejects_malformed():
    with pytest.raises(InvalidStateError):
        DensityMatrix.from_json({"dim_a": 2, "dim_b": 2, "re": [[1.0]]})
    with pytest.raises(InvalidStateError):
        DensityMatrix.from_json({"dim_a": 2, "dim_b": 2, "re": [[1.0]], "im": [[0.0, 0.0]]})
    for payload, kind in (([1, 2], "list"), ("state", "str")):
        with pytest.raises(InvalidStateError, match=f"^malformed density-matrix payload: expected an object, got {kind}$"):
            DensityMatrix.from_json(payload)
    valid = werner(0.3).to_json()
    for key, bad in (("dim_a", 2.7), ("dim_b", "2"), ("dim_a", 2.0), ("dim_b", True), ("dim_a", 4)):
        with pytest.raises(InvalidStateError, match=key):
            DensityMatrix.from_json({**valid, key: bad})
    with pytest.raises(ValueError, match="two-qubit"):
        DensityMatrix.from_json({"dim_a": 2, "dim_b": 2, "re": (np.eye(2) / 2.0).tolist(), "im": [[0.0] * 2] * 2})
    # A missing key is named ahead of an unknown one, as in the other JSON inputs.
    with pytest.raises(InvalidStateError, match="^malformed density-matrix payload: unknown key 'comment'$"):
        DensityMatrix.from_json({**valid, "comment": "x"})
    with pytest.raises(InvalidStateError, match="^malformed density-matrix payload: missing im$"):
        DensityMatrix.from_json({"dim_a": 2, "dim_b": 2, "re": valid["re"], "imag": valid["im"]})
    with pytest.raises(InvalidStateError, match="^malformed density-matrix payload: missing re, im$"):
        DensityMatrix.from_json({"dim_a": 2, "dim_b": 2})


PAIR_ONLY = {
    "bloch_coefficients": bloch_coefficients,
    "is_entangled": is_entangled,
    "measure_b": lambda rho: measure_b(rho, MeasurementBasis.computational()),
    "capacity_gain": lambda rho: capacity_gain(rho, QubitPairEnergies(eps_a=0.5, eps_b=0.3)),
    "to_json": DensityMatrix.to_json,
}


@pytest.mark.parametrize("entry", sorted(PAIR_ONLY))
def test_pair_only_entry_points_reject_a_qubit(entry):
    with pytest.raises(ValueError, match="two-qubit"):
        PAIR_ONLY[entry](DensityMatrix(np.eye(2) / 2.0))


def test_check_states_names_the_first_non_hermitian_matrix_of_a_stack():
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (3, 1, 1))
    stack[1, 3, 0] = 2e-6j
    stack[2, 1, 2] = 0.3
    with pytest.raises(InvalidStateError, match=r"^matrix is not Hermitian: max \|m - m\^dagger\| = 2\.000e-06$"):
        check_states(stack, VALIDATION_TOL)


@pytest.mark.parametrize("path", ["DensityMatrix", "measure_and_mix"])
@pytest.mark.parametrize("tol, defect", [(VALIDATION_TOL, 2e-11), (1e-6, 1e-8)])
def test_hermiticity_follows_the_validation_tolerance(path, tol, defect):
    # The screen allows max |m - m^dagger| up to tol, and no later check counts the defect again: eigh measures
    # its reconstruction against the lower triangle it decomposes, and the product check of the branches takes
    # their Hermitian part.
    def run(m):
        if path == "DensityMatrix":
            DensityMatrix(m, tol)
        else:
            measure_and_mix(m[None], MeasurementBasis.rotated(0.9, 2.1), None, QubitPairEnergies(0.5, 0.3).levels(), tol)

    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 1] = defect
    run(m)
    m[0, 1] = 2.0 * tol
    with pytest.raises(InvalidStateError, match=r"^matrix is not Hermitian"):
        run(m)

import numpy as np
import pytest

from helpers import random_density

from qbcap import (
    IDENTITY_2,
    PAULIS,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    DensityMatrix,
    NumericError,
    bell_diagonal,
    bloch_coefficients,
    eigh,
    haar_unitary,
    werner,
)
from qbcap.cli import main
from qbcap.states import reduce_a

# Frozen by hand expansion of sigma_1 x sigma_1.
KRON_S1_S1 = np.array(
    [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ],
    dtype=complex,
)


def test_pauli_constants():
    for sigma in PAULIS:
        np.testing.assert_allclose(sigma @ sigma, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(sigma, sigma.conj().T, atol=1e-15)
    np.testing.assert_allclose(SIGMA_1 @ SIGMA_2, 1j * SIGMA_3, atol=1e-15)


def test_kron_frozen_cases():
    # The Pauli expansions of bell_diagonal's entries and of bloch_coefficients' contraction, against hand expansions.
    np.testing.assert_allclose(4.0 * bell_diagonal(1.0, 0.0, 0.0).matrix - np.eye(4), KRON_S1_S1, atol=1e-15)
    coeffs = bloch_coefficients(DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4])))
    assert abs(coeffs.a3 - (0.1 + 0.2 - 0.3 - 0.4)) < 1e-15
    assert abs(coeffs.b3 - (0.1 - 0.2 + 0.3 - 0.4)) < 1e-15
    assert abs(coeffs.t[2, 2] - (0.1 - 0.2 - 0.3 + 0.4)) < 1e-15


def test_partial_trace_identity():
    np.testing.assert_allclose(DensityMatrix(np.eye(4) / 4.0).reduced_a().matrix, IDENTITY_2 / 2.0, atol=1e-15)


def test_partial_trace_product_states(rng):
    for _ in range(100):
        a = random_density(rng, 2).matrix
        b = random_density(rng, 2).matrix
        out = DensityMatrix(np.kron(a, b)).reduced_a().matrix
        np.testing.assert_allclose(out, a, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    for _ in range(50):
        rho = random_density(rng)
        assert abs(np.trace(rho.reduced_a().matrix) - np.trace(rho.matrix)) < 1e-12


def test_reduce_a_matches_the_entrywise_partial_trace(rng):
    # Stacked, the partial trace adds the b = 0 and b = 1 terms of each entry in that order, bit for bit.
    stack = rng.standard_normal((5, 3, 4, 4)) + 1j * rng.standard_normal((5, 3, 4, 4))
    reference = np.empty((5, 3, 2, 2), dtype=complex)
    for index in np.ndindex(5, 3):
        for a, a2 in np.ndindex(2, 2):
            reference[(*index, a, a2)] = stack[(*index, 2 * a, 2 * a2)] + stack[(*index, 2 * a + 1, 2 * a2 + 1)]
    assert (reduce_a(stack) == reference).all()


def test_partial_trace_shape_mismatch():
    with pytest.raises(ValueError, match="two-qubit"):
        DensityMatrix(np.eye(2) / 2.0).reduced_a()


def test_eigh_diagonal_case():
    values, vectors = eigh(SIGMA_3)
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(vectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_eigh_rejects_non_hermitian():
    # DensityMatrix holds the one Hermiticity check; eigh decomposes the Hermitian matrix in the lower triangle,
    # as LAPACK reads it, and measures its reconstruction against that matrix, not against the entries above.
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(np.ones((2, 3)) / 2.0)
    values, _ = eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert values.tolist() == [0.0, 0.0]


def test_eigh_measures_the_lower_triangle_with_a_real_diagonal(rng):
    # Entries above the diagonal and imaginary parts on it are not read: the values are those of the Hermitian
    # completion of the lower triangle, bit for bit, and the reconstruction bound holds.
    for _ in range(20):
        h = random_density(rng).matrix
        skewed = h + np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1) + 1j * np.diag(rng.standard_normal(4))
        values, vectors = eigh(skewed)
        assert values.tobytes() == np.linalg.eigh(h)[0].tobytes()
        assert np.abs((vectors * values) @ vectors.conj().T - h).max() <= 1e-11


def test_eigh_reports_the_first_failing_matrix_of_a_stack(monkeypatch):
    # A decomposition off by 2e-6 in one eigenvalue misses the reconstruction bound by that much; of two such
    # matrices the first in stack order is named.
    stack = np.tile(np.eye(4, dtype=complex) / 4.0, (2, 3, 1, 1))
    original = np.linalg.eigh

    def perturbed(m):
        values, vectors = original(m)
        values[0, 2, 0] += 2e-6
        values[1, 0, 3] += 0.5
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericError, match=r"^eigendecomposition reconstruction error 2\.000e-06 exceeds 1e-11$"):
        eigh(stack)


def test_a_decomposition_that_does_not_converge_is_a_numeric_error(monkeypatch, capsys):
    # LAPACK's failure to converge reaches the state check and the CLI as one NumericError, exit 2 and one line.
    matrix = werner(0.4).matrix

    def unconverged(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    message = "eigendecomposition did not converge: Eigenvalues did not converge"
    with pytest.raises(NumericError, match=f"^{message}$"):
        DensityMatrix(matrix)
    assert main(["capacity", "--werner", "0.4", "--eps-a", "0.5", "--eps-b", "0.3"]) == 2
    assert capsys.readouterr() == ("", f"qbcap: error: {message}\n")


def test_eigh_contracts_random_hermitian(rng):
    for dim in (2, 4):
        for _ in range(25):
            rho = random_density(rng, dim)
            assert np.all(np.diff(rho.spectrum) >= 0.0)
            assert abs(np.sum(rho.spectrum) - 1.0) < 1e-10
            v = rho.eigenvectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
            recon = (v * rho.spectrum) @ v.conj().T
            assert np.max(np.abs(rho.matrix - recon)) <= 1e-11


def test_eigh_values_stable_under_basis_shuffle(rng):
    # Building a state from a shuffled eigenbasis must not change the sorted spectrum.
    values = np.array([0.05, 0.15, 0.3, 0.5])
    u = haar_unitary(4, rng)
    m = (u * values) @ u.conj().T
    perm = rng.permutation(4)
    m_shuffled = (u[:, perm] * values[perm]) @ u[:, perm].conj().T
    np.testing.assert_allclose(DensityMatrix(m).spectrum, DensityMatrix(m_shuffled).spectrum, atol=1e-11)


def test_haar_unitary_is_unitary(rng):
    for dim in (1, 2, 4):
        u = haar_unitary(dim, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)


def test_haar_unitary_dim_one_is_phase(rng):
    u = haar_unitary(1, rng)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_deterministic_given_seed():
    u1 = haar_unitary(4, np.random.default_rng(7))
    u2 = haar_unitary(4, np.random.default_rng(7))
    np.testing.assert_array_equal(u1, u2)


def test_haar_unitary_rejects_bad_dim(rng):
    with pytest.raises(ValueError):
        haar_unitary(0, rng)


def test_haar_first_entry_moment():
    # E|u00|^2 = 1/d for Haar; the sample mean over 10^4 draws at d=4 sits
    # within 0.02 of 0.25 (sampling std is about 0.002).
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(10_000):
        u = haar_unitary(4, rng)
        total += abs(u[0, 0]) ** 2
    assert abs(total / 10_000 - 0.25) < 0.02

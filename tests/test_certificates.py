"""The engine's spectral checks: the premises that let the reduced states skip their eigenvectors and the
traces skip np.trace, and one mutation per check, each a fault that the check must report."""

import numpy as np
import pytest

from helpers import classical_quantum, kernel_note, random_density

import qbcap.measurement
from qbcap import InvalidStateError, MeasurementBasis, NumericError, QubitPairEnergies, SweepSpec, XStateParams
from qbcap.measurement import _branches, _mix, measure_and_mix
from qbcap.states import diagonal_sum, reduce_a
from qbcap.tolerances import VALIDATION_TOL

ENERGIES = QubitPairEnergies(0.7, 0.2)
FAMILY_SPECS = {
    "werner": ("a", 0.0, 1.0, {}),
    "example2": ("x", 0.0, 0.5, {}),
    "bell_diagonal": ("c3", -0.8, 0.8, {"bell_diag": (0.1, -0.1, 0.0)}),
    "x_state": ("coherence_scale", 0.0, 1.0, {"x_params": XStateParams(0.4, 0.25, 0.2, 0.15, 0.1 + 0.05j, 0.1)}),
}


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
@pytest.mark.parametrize("rotated", [False, True], ids=["computational", "rotated"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_qubit_eigvalsh_has_the_bits_of_eigh(family, rotated, weighted):
    # The engine prints the spectra of the reduced input and final states from eigvalsh, which on 2x2
    # matrices gives the eigenvalues of eigh bit for bit; the printed bits then stay those of eigh.
    rng = np.random.default_rng(sorted(FAMILY_SPECS).index(family) + 4 * rotated + 8 * weighted)
    param, start, stop, extra = FAMILY_SPECS[family]
    angles = (float(rng.uniform(0.0, np.pi)), float(rng.uniform(0.0, 2.0 * np.pi))) if rotated else None
    mu0 = float(rng.uniform(0.05, 0.95))
    weights = (mu0, 1.0 - mu0) if weighted else None
    spec = SweepSpec(family, param, start, stop, 1024, ENERGIES, "weighted" if weighted else "uniform", weights, angles, **extra)
    matrices = spec.matrices(spec.grid(), VALIDATION_TOL)
    branches, probabilities, flagged = _branches(matrices, MeasurementBasis(angles), VALIDATION_TOL)
    final = _mix(branches, probabilities, flagged, weights)
    reduced = reduce_a(np.stack([matrices, final], axis=1))
    got, want = np.linalg.eigvalsh(reduced), np.linalg.eigh(reduced)[0]
    differ = (got != want).any(axis=-1)
    assert not differ.any(), f"{differ.sum()} of {differ.size} reduced spectra differ from eigh; {kernel_note()}"


def assert_same_bits(got, want, what):
    """Equal values and sign bits in both parts, NaN exactly where ``want`` has NaN."""
    note = f"{what} differ under numpy {np.__version__}; {kernel_note()}"
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan), note
        assert np.array_equal(g[~nan], w[~nan]) and np.array_equal(np.signbit(g[~nan]), np.signbit(w[~nan])), note


@pytest.mark.parametrize("n", [1, 2, 201, 256])
@pytest.mark.parametrize("shape", [(2, 4, 4), (4, 4, 4), (2, 2, 2)], ids=["branches", "roles", "reduced"])
def test_paired_sums_have_the_bits_of_trace_and_sum(n, shape):
    # The engine takes the branch probabilities and the screen's traces as paired adds of the diagonal, in place
    # of np.trace and sum; the printed numbers and the tolerance edges then stay those of numpy's sums.
    rng = np.random.default_rng(n * len(shape) + shape[-1])
    d = shape[-1]
    stack = rng.standard_normal((n, *shape)) + 1j * rng.standard_normal((n, *shape))
    stack *= 10.0 ** rng.integers(-20, 20, size=stack.shape)
    diagonal = stack.reshape(n, shape[0], d * d)[..., :: d + 1]  # a view: the specials below land in the stack
    for part in (diagonal.real, diagonal.imag):
        special = rng.random(part.shape) < 0.1
        part[special] = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan], size=special.sum())
    diagonal[0, 0] = -0.0 - 0.0j  # an all -0.0 diagonal, which numpy sums to 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        assert_same_bits(diagonal_sum(diagonal.real), np.trace(stack, axis1=-2, axis2=-1).real, "real traces")
        assert_same_bits(diagonal_sum(diagonal), diagonal.sum(axis=-1), "complex diagonal sums")


BASIS = MeasurementBasis.rotated(0.9, 2.1)


def valid_points(rng):
    """Three valid pair states: two random ones and a classical-quantum one in ``BASIS``."""
    conditionals = [random_density(rng, 2).matrix for _ in range(2)]
    return np.array([random_density(rng).matrix, classical_quantum(conditionals, (0.3, 0.7), BASIS), random_density(rng).matrix])


def run(matrices, weights=(0.6, 0.4)):
    return measure_and_mix(matrices, BASIS, weights, ENERGIES.levels(), VALIDATION_TOL)


def test_the_unmutated_engine_accepts_the_points(rng):
    for weights in (None, (0.6, 0.4), (1.0, 0.0)):
        run(valid_points(rng), weights)


def perturb(monkeypatch, name, shape, index, delta):
    """Make ``np.linalg.<name>`` add ``delta`` to entry ``index`` of the eigenvalues of stacks of ``shape``."""
    original = getattr(np.linalg, name)

    def perturbed(m):
        result = original(m)
        if m.shape[1:] == shape:
            (result[0] if name == "eigh" else result)[index] += delta
        return result

    monkeypatch.setattr(np.linalg, name, perturbed)


def test_a_perturbed_final_eigenvalue_is_caught(rng, monkeypatch):
    # Successor of the final states' reconstruction check: the classical-quantum certificate.
    perturb(monkeypatch, "eigh", (2, 4, 4), (1, 1, 2), 1e-9)
    with pytest.raises(NumericError, match=r"^final state eigenvalue 1\.000e-09 from its closed form exceeds the bound 1\.000e-11$"):
        run(valid_points(rng))


def test_a_perturbed_input_eigenvalue_is_caught(rng, monkeypatch):
    # The input keeps its reconstruction check.
    perturb(monkeypatch, "eigh", (2, 4, 4), (1, 0, 2), 1e-9)
    with pytest.raises(NumericError, match=r"^eigendecomposition reconstruction error \d\.\d{3}e-1[01] exceeds 1e-11$"):
        run(valid_points(rng))


def test_a_perturbed_reduced_eigenvalue_is_caught(rng, monkeypatch):
    # Successor of the reduced states' reconstruction check: the closed form of the 2x2 spectrum.
    perturb(monkeypatch, "eigvalsh", (2, 2, 2), (1, 1, 0), 1e-9)
    with pytest.raises(NumericError, match=r"^reduced state eigenvalue 1\.000e-09 from its closed form exceeds the bound 1\.000e-11$"):
        run(valid_points(rng))


def shift_branch(monkeypatch, entries):
    """Make ``_branches`` add ``entries`` ({(point, branch, row, column): value}) to the branches it writes."""
    original = _branches

    def shifted(*args, **kwargs):
        result = original(*args, **kwargs)
        for index, value in entries.items():
            result[0][index] += value
        return result

    monkeypatch.setattr(qbcap.measurement, "_branches", shifted)


def test_a_non_hermitian_entry_is_caught(rng, monkeypatch):
    # Within the validation tolerance, a lone entry off the product leaves the branch's Hermitian part off it
    # by half the entry; beyond the tolerance, the screen names the defect.
    shift_branch(monkeypatch, {(1, 0, 0, 3): 4e-11})
    with pytest.raises(NumericError, match=r"^branch 0 residue 2\.000e-11 from a product state exceeds 1e-11$"):
        run(valid_points(rng))
    shift_branch(monkeypatch, {(1, 0, 0, 3): 1e-9})
    with pytest.raises(InvalidStateError, match=r"^matrix is not Hermitian: max \|m - m\^dagger\| = 1\.000e-09$"):
        run(valid_points(rng))


def test_a_non_product_branch_is_caught(rng, monkeypatch):
    # Successor of the folded defect: the residue of the branch's Hermitian part from rho_{A|k} x P_k.
    shift_branch(monkeypatch, {(1, 1, 0, 3): 2e-11, (1, 1, 3, 0): 2e-11})
    with pytest.raises(NumericError, match=r"^branch 1 residue 2\.000e-11 from a product state exceeds 1e-11$"):
        run(valid_points(rng))


def test_a_tolerated_defect_passes_the_final_certificate(rng):
    # A non-Hermitian entry within the tolerance between the first qubit's levels shifts the spectrum LAPACK
    # finds for each final state by up to about twice the final's defect; the certificate allows for it.
    conditionals = [random_density(rng, 2).matrix for _ in range(2)]
    m = classical_quantum(conditionals, (0.3, 0.7), BASIS)
    m[0, 2] += 1e-8
    for weights in (None, (0.6, 0.4)):
        measure_and_mix(m[None], BASIS, weights, ENERGIES.levels(), 1e-6)

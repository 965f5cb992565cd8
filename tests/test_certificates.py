"""The engine's spectral checks: the premises that let the reduced states skip their eigenvectors and the
traces skip np.trace, one mutation per check, each a fault that the check must report, and the closed-form
certificate of the PPT verdict against a full eigvalsh."""

import warnings

import numpy as np
import pytest

from helpers import classical_quantum, kernel_note, random_density

import qbcap.measurement
from qbcap import InvalidStateError, MeasurementBasis, NumericError, QubitPairEnergies, SweepSpec, XStateParams
from qbcap.measurement import _branches, _mix, measure_and_mix
from qbcap.states import diagonal_sum, ppt_entangled, reduce_a, werner_matrices
from qbcap.tolerances import PPT_NEG_TOL, VALIDATION_TOL

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
    branches, probabilities, flagged = _branches(matrices, MeasurementBasis(angles))
    final = _mix(branches, weights)
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


def eigvalsh_verdict(matrices):
    """The PPT verdict of every pair matrix by a full eigvalsh of its partial transpose."""
    transposed = matrices.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(matrices.shape)
    return np.linalg.eigvalsh(transposed)[..., 0] < -PPT_NEG_TOL


def certified(monkeypatch, matrices):
    """``ppt_entangled``'s verdicts and the number of matrices it left open to eigvalsh."""
    opened = []
    original = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda m: opened.append(len(m)) or original(m))
        verdict = ppt_entangled(matrices)
    return verdict, sum(opened)


def random_states(rng, n):
    """``n`` random pair states from the normalized Ginibre square, the first third of them rank-deficient."""
    g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    g[: n // 3, :, rng.integers(1, 3) :] = 0.0
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def test_ppt_verdicts_at_the_threshold_are_lapacks(monkeypatch):
    # Werner states across a = (1 + 4e-10)/3, where the partial transpose's lowest eigenvalue (1 - 3a)/4 crosses
    # -1e-10, in 1e-16 steps: no bound settles them, and every verdict is eigvalsh's, on both sides.
    matrices = werner_matrices((1.0 + 4e-10) / 3.0 + np.arange(-100, 101) * 1e-16)
    verdict, opened = certified(monkeypatch, matrices)
    want = eigvalsh_verdict(matrices)
    assert verdict.tolist() == want.tolist()
    assert opened == len(matrices) and want.any() and not want.all()


def test_ppt_margin_covers_the_rounding_at_the_threshold(monkeypatch):
    # X-shaped states, whose partial transpose is block diagonal (E = 0), with their lowest block eigenvalue
    # within 2e-16 of -1e-10: the closed form and LAPACK round differently there, and the margin leaves
    # such points to LAPACK.
    rng = np.random.default_rng(11)
    n = 2000
    p = rng.dirichlet(np.ones(4), n)
    p = np.where((p[:, 0] * p[:, 3] > p[:, 1] * p[:, 2])[:, None], p[:, [1, 0, 3, 2]], p)  # room for the coherence
    lowest = -PPT_NEG_TOL + rng.uniform(-2e-16, 2e-16, n)
    mid, half = (p[:, 0] + p[:, 3]) / 2.0, (p[:, 0] - p[:, 3]) / 2.0
    coherence = np.sqrt((mid - lowest) ** 2 - half**2) * np.exp(2j * np.pi * rng.random(n))
    matrices = np.zeros((n, 4, 4), dtype=complex)
    matrices[:, range(4), range(4)] = p
    matrices[:, 2, 1], matrices[:, 1, 2] = coherence, coherence.conj()  # h30 of the partial transpose
    verdict, opened = certified(monkeypatch, matrices)
    want = eigvalsh_verdict(matrices)
    assert verdict.tolist() == want.tolist()
    assert opened == n and want.any() and not want.all()


@pytest.mark.parametrize("defect", [0.0, 9e-11], ids=["hermitian", "defect"])
def test_ppt_certificate_agrees_with_eigvalsh_on_random_states(monkeypatch, defect):
    # 20,000 random states, entangled and separable, full rank and not; the second time with a non-Hermitian
    # part up to the validation tolerance, which eigvalsh and the certificate alike read from the lower triangle.
    rng = np.random.default_rng(12)
    matrices = random_states(rng, 20_000)
    mixed = rng.random((10_000, 1, 1))
    matrices[::2] = mixed * matrices[::2] + (1.0 - mixed) * np.eye(4) / 4.0  # half of them nearer separable
    skew = rng.standard_normal(matrices.shape) + 1j * rng.standard_normal(matrices.shape)
    skew -= skew.conj().swapaxes(-1, -2)
    matrices += defect / 2.0 * skew / np.abs(skew).max(axis=(1, 2), keepdims=True)  # max |m - m^dagger| = defect
    verdict, opened = certified(monkeypatch, matrices)
    want = eigvalsh_verdict(matrices)
    assert verdict.tolist() == want.tolist()
    assert 0 < opened < len(matrices) and want.any() and not want.all()


def test_ppt_points_whose_bounds_could_overflow_are_lapacks(monkeypatch):
    # Entries above 2^510 or not finite leave their point open. Here both blocks' diagonals are 1.5e308, so
    # (a + d)/2 overflows in block {0, 3}, whose lowest eigenvalue is -2e307, and block {1, 2} alone would
    # certify the point separable.
    huge = np.diag([1.5e308] * 4).astype(complex)
    huge[2, 1] = 1.7e308  # h30 of the partial transpose
    matrices = np.array([huge, np.eye(4) * 2.0**511, np.eye(4) / 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict, opened = certified(monkeypatch, matrices)
    assert verdict.tolist() == eigvalsh_verdict(matrices).tolist() == [True, False, False]
    assert opened == 2
    for bad in (np.nan, np.inf):
        point = np.eye(4, dtype=complex) / 4.0
        point[2, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):  # as eigvalsh raises on the whole stack
            eigvalsh_verdict(point[None])
        with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError):
            warnings.simplefilter("error")
            ppt_entangled(np.array([np.eye(4) / 4.0, point]))


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_ppt_certificate_settles_the_family_grids(monkeypatch, family):
    # The certificate decides every point of the four families' 10,001-point grids, as eigvalsh would.
    param, start, stop, extra = FAMILY_SPECS[family]
    spec = SweepSpec(family, param, start, stop, 10_001, ENERGIES, **extra)
    matrices = spec.matrices(spec.grid(), VALIDATION_TOL)
    verdict, opened = certified(monkeypatch, matrices)
    assert verdict.tolist() == eigvalsh_verdict(matrices).tolist()
    assert opened == 0

"""Rank-1 projective measurements on the second qubit and the induced final states.

A measurement splits the state into normalized outcome branches. Two mixing
rules turn the branches back into a single final state: the unweighted
average, and a convex combination with caller-chosen weights. The capacity
change of the whole pair and of the first qubit alone are reported side by
side.

``measure_and_mix`` runs the whole protocol on a stack of N pair matrices,
and ``capacity_gain`` runs it on a stack of one; ``measure_b`` and the two
mixing rules are its stages on a stack of one. Both get their branches from ``_branches``, which takes the
left and the right products of a whole stack as GEMMs over slabs of
``GEMM_SLAB / 2`` points; the right ones run transposed, with the 8-row shape
of the left ones.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .battery import QubitPairEnergies, capacities, clamp_round_off, negative_error
from .errors import NumericError, UndefinedAverageError, raise_first
from .linalg import IDENTITY_2, decompose, reconstruction_errors, reconstruction_failure
from .states import DensityMatrix, _mirrored_pairs, _qubit_spectra, check_states, diagonal_sum, hermiticity_defects, json_number, reduce_a
from .states import require_pair, screen_states, state_error
from .tolerances import NEGLIGIBLE, RECONSTRUCTION_TOL, VALIDATION_TOL, ZERO_PROBABILITY, checked_tol


def _is_vector(values) -> bool:
    """Whether ``values`` is a list, tuple or 1-d array, the forms that weights and basis angles are read from."""
    return isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim == 1


def _entry(value, what: str) -> float:
    """An entry of weights or basis angles by ``json_number``, a numpy scalar read as the Python number it holds."""
    return json_number(value.item() if isinstance(value, np.generic) else value, what)


class MeasurementBasis:
    """Rank-1 projective measurement of the second qubit along a Bloch direction.

    ``angles`` is None for the computational basis {|0>, |1>}, or the Bloch
    angles (theta, phi) of the first basis vector: a list, tuple or 1-d array
    of two finite numbers by ``json_number`` (numpy scalars included), kept as
    a tuple of floats; theta = 0 is computational.
    """

    def __init__(self, angles: tuple[float, float] | None = None):
        if angles is None:
            v = np.eye(2, dtype=complex)
            self.description = "computational"
        else:
            if not _is_vector(angles) or len(angles) != 2:
                raise ValueError(f"basis angles must be a (theta, phi) pair, got {angles!r}")
            theta, phi = angles = _entry(angles[0], "basis theta"), _entry(angles[1], "basis phi")
            if not (math.isfinite(theta) and math.isfinite(phi)):
                raise ValueError(f"basis angles must be finite, got theta={theta}, phi={phi}")
            c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
            v = np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex)
            self.description = f"rotated(theta={theta:.12g}, phi={phi:.12g})"
        self.angles = angles
        # P_k = v_k v_k^dagger, stacked (2, 2, 2), and I x P_k, the measurement operators on the pair: the
        # products np.kron forms, [i, a, j, b] = I[i, j] P_k[a, b], so the bits are np.kron's
        self.projectors = v.T[:, :, None] * v.T[:, None, :].conj()
        self.operators = (IDENTITY_2[None, :, None, :, None] * self.projectors[:, None, :, None, :]).reshape(2, 4, 4)
        for p in (self.projectors, self.operators):
            p.setflags(write=False)

    @classmethod
    def computational(cls) -> "MeasurementBasis":
        """Projectors onto the standard basis vectors |0><0| and |1><1|."""
        return cls()

    @classmethod
    def rotated(cls, theta: float, phi: float) -> "MeasurementBasis":
        """Qubit basis along the Bloch direction (theta, phi); theta = 0 is computational."""
        return cls((theta, phi))

    def __repr__(self) -> str:
        return f"MeasurementBasis({self.description})"


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Outcome branches of a projective measurement of one state, in basis order, as ``_branches`` gives them.

    ``branches`` holds the (n, 4, 4) normalized branch states, n >= 1, and ``flagged``
    the (n,) marks of those below the 1e-12 probability floor, which
    ``_branches`` leaves as zeros; both are read-only copies. The unflagged
    branches must pass the ``DensityMatrix`` state check at ``tol``, run once
    over all of them; the states mixed from them are checked at it too.
    """

    branches: np.ndarray
    probabilities: tuple[float, ...]
    flagged: np.ndarray
    tol: float = VALIDATION_TOL

    def __post_init__(self):
        object.__setattr__(self, "tol", checked_tol(self.tol))
        branches, flagged = np.array(self.branches, dtype=complex), np.array(self.flagged, dtype=bool)
        n = len(self.probabilities)
        if not n:
            raise ValueError("an ensemble needs at least one branch")
        if branches.shape != (n, 4, 4) or flagged.shape != (n,):
            raise ValueError(f"branches {branches.shape} and flags {flagged.shape} do not fit {n} probabilities")
        check_states(branches[~flagged], self.tol)
        for name, a in (("branches", branches), ("flagged", flagged)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


# The most matrices one GEMM of ``_branches`` takes: a slab of GEMM_SLAB / 2 points, both branches of each. Up to
# 256, each matrix got the bits it gets alone under the OpenBLAS SkylakeX, Haswell and Prescott kernels with 1 and 2
# threads; with 2 threads, Haswell splits a 512-matrix GEMM across them and changes those bits.
GEMM_SLAB = 256


def _branches(matrices: np.ndarray, basis: MeasurementBasis, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome branches (N, 2, 4, 4) of a stack of pair matrices, their probabilities and zero-probability flags.

    Branches below the 1e-12 probability floor are flagged and set to zero instead of normalized, in ``out``
    if given (complex, each 4x4 contiguous); ``_closure`` checks the probabilities. Non-finite or huge entries
    make NaNs and infinities, which the state screen reports; callers ignore their warnings.
    """
    n = len(matrices)
    rows, transposed_rows = basis.operators.reshape(8, 4), basis.operators.transpose(0, 2, 1).reshape(8, 4)
    columns = matrices.transpose(1, 0, 2).reshape(4, 4 * n)
    branches = np.empty((n, 2, 4, 4), dtype=complex) if out is None else out
    # (I x P_k) rho_n (I x P_k), a slab of points at a time, as two GEMMs of 8 rows: the left products
    # L_k = (I x P_k) rho_n take rows (k, i) and columns (n, j); the right products, transposed as
    # B_k^T = (I x P_k)^T L_k^T, take rows (k, j) and columns (k', n, i) of both branches' L^T, and their
    # blocks with k = k' are the branches. Rows of a (4N x 4)(4 x 4) product can take another kernel path with
    # N (OpenBLAS Haswell), and so can the columns of a GEMM split across threads or of a 4-row GEMM per k
    # (Haswell again); any of these would make a branch's bits depend on the size of its stack. A slab at a
    # time keeps the temporaries to 256 KiB: those of a whole chunk, about 1 MiB, go back to the system and
    # are faulted in again on every call.
    for start in range(0, n, GEMM_SLAB // 2):
        left = (rows @ columns[:, 4 * start : 4 * start + 2 * GEMM_SLAB]).reshape(2, 4, -1, 4)
        right = (transposed_rows @ left.transpose(3, 0, 2, 1).reshape(4, -1)).reshape(2, 4, 2, -1, 4)
        branches[start : start + GEMM_SLAB // 2] = right.diagonal(axis1=0, axis2=2).transpose(1, 3, 2, 0)
    probabilities = diagonal_sum(branches.real.reshape(n, 2, 16)[..., ::5])  # np.trace's bits, in a fifth of its time
    flagged = probabilities < ZERO_PROBABILITY
    np.divide(branches, np.where(flagged, 1.0, probabilities)[..., None, None], out=branches)
    if flagged.any():
        branches[flagged] = 0.0
    return branches, probabilities, flagged


def _closure(probabilities: np.ndarray, tol: float, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The sums of (N, n) outcome probabilities and the check that each is 1 within ``tol``, written into ``out`` if given."""
    total = probabilities.sum(axis=1)  # inf + -inf of non-finite input is NaN, which the state screen reports
    return total, np.greater(np.abs(total - 1.0), tol, out=out)


def _closure_error(total) -> NumericError:
    return NumericError(f"outcome probabilities sum to {total:.12g}, expected 1")


def measure_b(rho: DensityMatrix, basis: MeasurementBasis) -> MeasurementEnsemble:
    """Measure the second subsystem: ``_branches`` on a stack of one, returned as a ``MeasurementEnsemble``.

    The probability-weighted branch sum equals the dephasing of the input in
    the measured basis, and the probabilities close to 1; branches below the
    1e-12 probability floor are flagged rather than normalized; all at ``rho.tol``.
    """
    branches, probabilities, flagged = _branches(require_pair(rho).matrix[None], basis)
    total, bad = _closure(probabilities, rho.tol)
    raise_first(bad, lambda i: _closure_error(total[i]))
    return MeasurementEnsemble(branches[0], tuple(probabilities[0].tolist()), flagged[0], rho.tol)


def weight_values(weights, n: int = 2) -> tuple[float, ...] | None:
    """``weights`` for ``n`` branches as a tuple of floats, or None.

    Weights are a list, tuple or 1-d array of numbers by ``json_number`` (not
    bools or strings; numpy scalars included), finite, nonnegative, sum to 1
    within 1e-12 and number one per branch.
    """
    if weights is None:
        return None
    if not _is_vector(weights):
        raise ValueError(f"weights must be a list of numbers, got {weights!r}")
    mu = tuple(_entry(w, f"weight mu_{k}") for k, w in enumerate(weights))
    for k, w in enumerate(mu):
        if not math.isfinite(w):
            raise ValueError(f"weight mu_{k} = {w} is not a finite number")
        if w < -NEGLIGIBLE:
            raise ValueError(f"weight mu_{k} = {w:.12g} is negative")
    if abs(sum(mu) - 1.0) > NEGLIGIBLE:
        raise ValueError(f"weights sum to {sum(mu):.12g}, expected 1 within {NEGLIGIBLE:g}")
    if len(mu) != n:
        raise ValueError(f"{len(mu)} weights for {n} branches")
    return mu


def _flag_checks(flagged: np.ndarray, mu, out=None) -> np.ndarray:
    """The checks (N, n) of (N, n) ``flagged`` branches, written into ``out`` if given.

    Entry k marks a flagged branch k that leaves the average (``mu`` None)
    undefined or carries weight in a weighted sum; ``_flag_error`` names it.
    A point whose branches are all flagged sets one of them: every branch
    counts in the average, and weights summing to 1 put more than 1e-12 on
    some branch.
    """
    return np.logical_and(flagged, True if mu is None else np.greater(mu, NEGLIGIBLE), out=out)


def _flag_error(probabilities, mu, k: int) -> ValueError:
    """The error of entry k of ``_flag_checks`` for a point with outcome ``probabilities``."""
    if mu is not None:
        return ValueError(f"weight mu_{k} = {mu[k]:.12g} assigned to a branch with probability {probabilities[k]:.3e}")
    return UndefinedAverageError(f"branch {k} has probability {probabilities[k]:.3e}; the unweighted average is undefined")


def _mix(branches: np.ndarray, mu, out=None) -> np.ndarray:
    """Final states (N, 4, 4) from (N, n, 4, 4) branches: their average if ``mu`` is None, else sum_k mu_k rho_k.

    ``mu`` holds ``weight_values``; the final states are written into ``out`` if given. NaN branches of
    non-finite input, which the state screen reports, make NaNs; callers ignore their warnings.
    """
    n = branches.shape[1]
    final = np.add(0, branches[:, 0] if mu is None else mu[0] * branches[:, 0], out=out)  # from 0, as sum(): -0.0 becomes 0.0
    for k in range(1, n):
        final += branches[:, k] if mu is None else mu[k] * branches[:, k]
    return final if mu is not None else np.divide(final, n, out=final)


def final_state_uniform(ensemble: MeasurementEnsemble) -> DensityMatrix:
    """Unweighted average of the normalized outcome branches.

    Every branch enters with weight 1/n regardless of its probability, so a
    vanishing-probability branch leaves the average undefined. This is
    ``final_state_weighted`` without weights.
    """
    return final_state_weighted(ensemble, None)


def final_state_weighted(ensemble: MeasurementEnsemble, weights: Sequence[float] | None) -> DensityMatrix:
    """Convex combination sum_k mu_k rho_k of the normalized branches.

    Flagged zero-probability branches must carry zero weight. Choosing
    mu_k equal to the outcome probabilities reproduces the dephased state.
    """
    mu = weight_values(weights, len(ensemble.probabilities))
    raise_first(_flag_checks(ensemble.flagged[None], mu)[0], lambda k: _flag_error(ensemble.probabilities, mu, k))
    with np.errstate(invalid="ignore"):  # a flagged branch is not checked, and zero weight leaves its NaNs in
        final = _mix(ensemble.branches[None], mu)[0]
    return DensityMatrix(final, ensemble.tol)


def _branch_bounds(branches: np.ndarray, conditional: np.ndarray, spectra: np.ndarray, projectors: np.ndarray):
    """Lower bounds on the lowest eigenvalue of (N, n, 4, 4) branches, each checked as a product rho_{A|k} x P_k.

    ``conditional`` holds the Hermitian first-qubit states rho_{A|k} of the
    branches and ``spectra`` their ``_qubit_spectra``. The residue of a branch,
    max|H_k - rho_{A|k} x P_k| for its Hermitian part H_k = (B_k + B_k^dagger)/2,
    must stay within 1e-11, the bound ``eigh`` puts on its reconstruction.
    Hermiticity itself is the screen's to judge, at the validation tolerance.
    The spectrum of rho_{A|k} x P_k is that of rho_{A|k} plus two zeros, and a
    4x4 residue R has ||R||_2 <= 4 max|R|, so by Weyl's inequality H_k has no
    eigenvalue below min(lambda_min(rho_{A|k}), 0) - 4 * residue. Returns
    these bounds and the (N, n) residues.
    """
    product = (conditional[..., :, None, :, None] * projectors[:, None, :, None, :]).reshape(branches.shape)
    diff = np.subtract(branches, product, out=product).reshape(*branches.shape[:-2], 16)
    # |diff + diff^dagger| / 2 over the upper triangle, which holds every distinct entry of the Hermitian part
    entries = diff[..., _mirrored_pairs(4)]
    upper, lower = entries[..., :10], entries[..., 10:]
    residue = np.abs(np.add(upper, np.conjugate(lower, out=lower), out=upper)).max(axis=-1) / 2.0
    return np.minimum(spectra[..., 0], 0.0) - 4.0 * residue, residue


# The columns of a pass's check table (see ``measure_and_mix``), a column per entry of a check, checks in order of
# precedence within a point: _CHECK_ENDS ends each check's columns. A check of the decomposed roles (the input, then
# the final state of a measured pass) takes a column per role, the reduced certificate two per role; a pass that
# measures nothing leaves the final's columns and those of the measurement's checks False.
_CHECK_ENDS = (1, 2, 3, 5, 7, 11, 14, 16, 20, 22, 24)


def measure_and_mix(matrices: np.ndarray, basis: MeasurementBasis | None, weights, levels, tol) -> tuple[np.ndarray, np.ndarray]:
    """The protocol on an (N, 4, 4) stack of pair matrices: their spectra (N, 4) and gains (N, 6).

    ``weights`` are the tuple ``weight_values`` reads, which the caller
    passes, or None for the uniform scheme; ``levels`` are the ascending pair
    and first-qubit levels; ``tol`` is the validation tolerance.
    Gains come in ``GAIN_FIELDS`` order. With ``basis`` None nothing is
    measured: the call is the input half alone, the ``capacity`` command on a
    stack, and the gains are the capacities before, (N, 2), with the bits the
    protocol gives them.
    Input, branch and final matrices are written into one buffer, in that role
    order, and read point-major. The pass reads no argument itself; it runs
    one stacked ``screen_states`` of all roles, one stacked ``eigh`` of the
    input and final matrices and one stacked ``np.linalg.eigvalsh`` of their
    reduced first-qubit states. Every check of the pass writes its columns of
    one boolean check table (``_CHECK_ENDS``), a row per point, in place; the
    table is tested once, after the last check, and only a failure builds its
    error. A stack raises what its first failing point raises alone
    (``errors.raise_first``): the error of the first check that point fails,
    in this order:

    1. the reconstruction of the input's eigendecomposition;
    2. the screen's verdict on the input, so that an input's own failure
       comes before anything measured of it;
    3. the closure of the outcome probabilities (``_closure``), then the
       zero-probability branches (``_flag_checks``);
    4. the product check of the branches (``_branch_bounds``);
    5. the classical-quantum certificate of the final spectra. The Hermitian
       part of a final state sum_k mu_k B_k lies within sum_k |mu_k|
       residue_k of sum_k mu_k rho_{A|k} x P_k in every entry, and the matrix
       LAPACK decomposes within half the final's Hermiticity defect of that
       part. The spectrum of the classical-quantum state is the union of
       mu_k lambda_j(rho_{A|k}), so by Weyl's inequality, with
       ||R||_2 <= 4 max|R|, each eigenvalue lies within 4 sum_k |mu_k|
       residue_k + 2 defect of the sorted union, plus 1e-11 for round-off. A
       flagged branch enters with weight zero, as it does the mix; points
       holding a stand-in for a branch or final matrix that failed the
       screen are skipped;
    6. the screen's verdict on branches and final state, in the order
       branch 0, branch 1, final;
    7. the capacities of input and final, none below -1e-12; round-off
       negatives above it are set to 0 (``battery.clamp_round_off``);
    8. the reduced spectra, within 1e-11 of their closed form (``_qubit_spectra``);
    9. the verdict on the reduced states: finite and Hermitian within ``tol``
       (their traces are those of input and final, bit for bit), with no
       eigenvalue below minus ``tol``;
    10. the first-qubit capacities, checked and clamped as in 7.
    """
    n = len(matrices)
    measured = basis is not None
    roles = 2 if measured else 1  # the matrices of a point that reach eigh: input, and final if measured
    table = np.zeros((n, _CHECK_ENDS[-1]), dtype=bool)
    stack = np.empty((4 if measured else 1, n, 4, 4), dtype=complex).transpose(1, 0, 2, 3)
    stack[:, 0] = matrices
    # Non-finite or huge entries make NaNs and infinities, which the checks report; nothing warns of them.
    with np.errstate(invalid="ignore", over="ignore"):
        if measured:
            _, probabilities, flagged = _branches(matrices, basis, out=stack[:, 1:3])
            _mix(stack[:, 1:3], weights, out=stack[:, 3])
            mu = np.array((0.5, 0.5) if weights is None else weights, dtype=float)  # the mixing weights
            if flagged.any():  # a flagged branch k has no state to check; the product (identity/2) x P_k stands in
                np.copyto(stack[:, 1:3], basis.operators / 2.0, where=flagged[..., None, None])
                mu = np.where(flagged, 0.0, mu)  # and it adds nothing to the final state
        off, defects, traces = screen_states(stack, tol)
        if failed := off.any():  # a matrix that failed the screen raises its own error; a valid state stands in for it
            identity = np.eye(4)[None] / 4.0
            stand_ins = np.concatenate([identity, basis.operators / 2.0, identity]) if measured else identity
            np.copyto(stack, stand_ins, where=off[..., None, None])  # in place: nothing reads the failed matrices again
        # The first-qubit states of every role, one closed form for all: those of the branches, taken Hermitian,
        # are the conditional states rho_{A|k}.
        reduced = reduce_a(stack)
        conditional = reduced[:, 1:3]
        np.add(conditional, conditional.conj().swapaxes(-1, -2), out=conditional)
        conditional *= 0.5
        closed = _qubit_spectra(reduced)
        values, vectors = decompose(stack[:, ::3])
        err = reconstruction_errors(stack[:, 0], values[:, 0], vectors[:, 0])
        np.greater(err, RECONSTRUCTION_TOL, out=table[:, 0])
        lowest = values[..., 0]
        np.logical_or(lowest[:, 0] < -tol, off[:, 0], out=table[:, 1])
        if measured:
            total, _ = _closure(probabilities, tol, out=table[:, 2])
            _flag_checks(flagged, weights, out=table[:, 3:5])
            bounds, residue = _branch_bounds(stack[:, 1:3], conditional, closed[:, 1:3], basis.projectors)
            np.greater(residue, RECONSTRUCTION_TOL, out=table[:, 5:7])
            cq = np.sort((mu[..., None] * closed[:, 1:3]).reshape(n, 4), axis=-1)
            bound = RECONSTRUCTION_TOL + 4.0 * (np.abs(mu) * residue).sum(axis=-1) + 2.0 * defects[:, 3]
            if failed:  # a stand-in branch or final matrix leaves nothing to certify; its verdict raises
                bound[off[:, 1:].any(axis=1)] = np.inf
            gap = np.abs(values[:, 1] - cq)
            np.greater(gap, bound[:, None], out=table[:, 7:11])
            verdict = table[:, 11:14]
            np.less(bounds, -tol, out=verdict[:, :2])
            np.less(lowest[:, 1], -tol, out=verdict[:, 2])
            verdict |= off[:, 1:]
        spectra = np.maximum(values, 0.0)
        gains = np.empty((n, 3 if measured else 2, roles))  # capacities of the pair and of the first qubit
        gains[:, 0] = capacities(spectra, levels[0])
        clamp_round_off(gains[:, 0], out=table[:, 14 : 14 + roles])
        reduced_defects = hermiticity_defects(reduced[:, ::3])
        reduced_values = np.linalg.eigvalsh(reduced[:, ::3])
        reduced_gap = np.abs(reduced_values - closed[:, ::3]).reshape(n, -1)  # role-major, as the table takes it
        np.greater(reduced_gap, RECONSTRUCTION_TOL, out=table[:, 16 : 16 + 2 * roles])
        reduced_off = ~(reduced_defects <= tol)  # true for a NaN defect too
        np.logical_or(reduced_values[..., 0] < -tol, reduced_off, out=table[:, 20 : 20 + roles])
        gains[:, 1] = capacities(np.maximum(reduced_values, 0.0), levels[1])
        clamp_round_off(gains[:, 1], out=table[:, 22 : 22 + roles])

    def error(i, c):  # the error of column c at point i
        k = bisect.bisect_right(_CHECK_ENDS, c)  # the check, and its entry j
        j = c - (0, *_CHECK_ENDS)[k]
        return (
            lambda: reconstruction_failure(err[i]),
            lambda: state_error(off[i, 0], defects[i, 0], traces[i, 0], lowest[i, 0], tol),
            lambda: _closure_error(total[i]),
            lambda: _flag_error(probabilities[i], weights, j),
            lambda: NumericError(f"branch {j} residue {residue[i, j]:.3e} from a product state exceeds {RECONSTRUCTION_TOL:g}"),
            lambda: NumericError(f"final state eigenvalue {gap[i, j]:.3e} from its closed form exceeds the bound {bound[i]:.3e}"),
            lambda: state_error(off[i, j + 1], defects[i, j + 1], traces[i, j + 1], (*bounds[i], lowest[i, 1])[j], tol),
            lambda: negative_error("capacity", gains[i, 0, j]),
            lambda: NumericError(
                f"reduced state eigenvalue {reduced_gap[i, j]:.3e} from its closed form exceeds the bound {RECONSTRUCTION_TOL:.3e}"
            ),
            lambda: state_error(reduced_off[i, j], reduced_defects[i, j], None, reduced_values[i, j, 0], tol),
            lambda: negative_error("capacity", gains[i, 1, j]),
        )[k]()

    raise_first(table, error)
    if measured:  # the changes, big_f and small_f
        np.subtract(gains[:, :2, 1], gains[:, :2, 0], out=gains[:, 2])
    return spectra[:, 0], gains.reshape(n, -1)


# The capacity fields of a gain report, in the order every output lists them.
GAIN_FIELDS = ("c_before_total", "c_after_total", "c_before_a", "c_after_a", "big_f", "small_f")


@dataclass(frozen=True)
class CapacityGainReport:
    """Whole-pair and first-qubit capacities before and after measure-and-mix.

    ``big_f`` is the whole-pair capacity change, ``small_f`` the change for
    the first qubit alone.
    """

    c_before_total: float
    c_after_total: float
    c_before_a: float
    c_after_a: float
    big_f: float
    small_f: float
    scheme: str
    weights: tuple[float, ...] | None = None

    @property
    def gains(self) -> tuple[float, ...]:
        """The capacity fields in ``GAIN_FIELDS`` order."""
        return tuple(getattr(self, name) for name in GAIN_FIELDS)

    def to_json(self) -> dict:
        data = {**dict(zip(GAIN_FIELDS, self.gains)), "scheme": self.scheme}
        if self.weights is not None:
            data["weights"] = list(self.weights)
        return data


def check_scheme(scheme: str, weights) -> None:
    """Enforce the recombination rule: "uniform" takes no weights, "weighted" requires them."""
    if scheme not in ("uniform", "weighted"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'uniform' or 'weighted'")
    if (weights is None) != (scheme == "uniform"):
        raise ValueError(f"the {scheme} scheme {'takes no' if weights is not None else 'requires'} weights")


def capacity_gain(
    rho: DensityMatrix,
    energies: QubitPairEnergies,
    basis: MeasurementBasis | None = None,
    scheme: str = "uniform",
    weights: Sequence[float] | None = None,
) -> CapacityGainReport:
    """Measure the second qubit, mix the branches, and compare capacities.

    Parameters
    ----------
    rho : DensityMatrix
        Two-qubit input state; every derived state is checked at ``rho.tol``.
    energies : QubitPairEnergies
        Level splittings defining the pair and single-qubit Hamiltonians.
    basis : MeasurementBasis, optional
        Defaults to the computational basis on the second qubit.
    scheme : str
        "uniform" for the unweighted branch average, "weighted" for a convex
        combination with ``weights``.
    weights : sequence of float, optional
        Convex weights, one per branch; required exactly when scheme is "weighted".
    """
    require_pair(rho)
    check_scheme(scheme, weights)
    mu = weight_values(weights)
    basis = basis or MeasurementBasis.computational()
    _, gains = measure_and_mix(rho.matrix[None], basis, mu, energies.levels(), rho.tol)
    return CapacityGainReport(*gains[0].tolist(), scheme, mu)

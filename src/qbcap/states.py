"""Validated density matrices and the two-qubit state families used throughout.

A density matrix is a qubit (2x2) or a qubit pair (4x4). The families all
live on the pair: correlation-diagonal (Bell diagonal) states, Werner
states, X-shaped states given by their populations and anti-diagonal
coherences, and a one-parameter three-level mixture used by the bundled
parameter studies. Checks and families work on stacks of matrices along a
leading axis; the one-state functions are the same code on a stack of one.
"""

from __future__ import annotations

import cmath
import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericError, raise_first
from .linalg import IDENTITY_2, PAULIS, SIGMA_3, eigh
from .tolerances import NEGLIGIBLE, PPT_NEG_TOL, RECONSTRUCTION_TOL, VALIDATION_TOL, checked_tol


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number (a float, or an int in float range, but not a bool); else a ValueError."""
    if type(value) is float:
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def check_keys(data, required, optional, malformed: str, error=ValueError, not_an_object: str = "") -> None:
    """Raise ``error`` unless ``data`` is a dict that holds every ``required`` key and no key beyond ``optional``.

    The message is ``not_an_object`` (by default ``malformed`` + ": expected an
    object") with the type of ``data``, or ``malformed`` with the missing keys,
    else with the unknown ones.
    """
    if not isinstance(data, dict):
        raise error(f"{not_an_object or malformed + ': expected an object'}, got {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise error(f"{malformed}: missing {', '.join(missing)}")
    unknown = [key for key in data if key not in (*required, *optional)]
    if unknown:
        raise error(f"{malformed}: unknown key {', '.join(map(repr, unknown))}")


@functools.cache
def _mirrored_pairs(d: int) -> np.ndarray:
    """Flat indices of the entries (i, j), i <= j, of a d x d matrix, followed by those of their mirror images (j, i)."""
    i, j = np.triu_indices(d)
    return np.concatenate([i * d + j, j * d + i])


def diagonal_sum(diagonal: np.ndarray) -> np.ndarray:
    """Sums over the last axis of (..., 2) or (..., 4) diagonals of complex matrices, or of their real parts.

    These are the bits of numpy's complex sum, ``np.trace`` included: the adds
    are paired, ((d0 + d1) + (d2 + d3)), as numpy pairs them, where a chained
    ((d0 + d1) + d2) + d3 differs in a last bit, and the closing + 0.0 turns
    an all -0.0 diagonal into 0.0, as numpy does. Right after a zgemm,
    ``np.trace`` of a 256-point branch stack stalls: about 105 us against
    17 us elsewhere, and 8 us for these adds (numpy 2.4.6, OpenBLAS 0.3.31
    SkylakeX kernel, one thread).
    """
    d0, d1 = diagonal[..., 0], diagonal[..., 1]
    if diagonal.shape[-1] == 2:
        return (d0 + d1) + 0.0
    return ((d0 + d1) + (diagonal[..., 2] + diagonal[..., 3])) + 0.0


def hermiticity_defects(matrices: np.ndarray) -> np.ndarray:
    """max |m - m^dagger| of each matrix of a stack; NaN or infinite exactly when some entry of m is.

    It is taken over the upper triangle, which holds every distinct entry of
    m - m^dagger. Callers ignore the invalid-value warning of inf - inf.
    """
    d = matrices.shape[-1]
    flat = matrices.reshape(*matrices.shape[:-2], d * d)  # a view also of a stack whose matrices alone are contiguous
    entries = flat[..., _mirrored_pairs(d)]
    upper, lower = entries[..., : d * (d + 1) // 2], entries[..., d * (d + 1) // 2 :]
    return np.abs(np.subtract(upper, np.conjugate(lower, out=lower), out=upper)).max(axis=-1)


def screen_states(matrices: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The finite, Hermiticity and unit-trace pass of the state check, at validation tolerance ``tol``, over a stack.

    Returns the mask of the matrices that fail it, their Hermiticity defects
    (``hermiticity_defects``) and their traces. A matrix fails the state check
    if its mask is set or its lowest eigenvalue lies below minus ``tol``;
    ``state_error`` names the failure. Callers ignore the invalid-value and
    overflow warnings of non-finite and huge entries, which fail the screen.
    """
    d = matrices.shape[-1]
    defect = hermiticity_defects(matrices)
    trace = diagonal_sum(matrices.reshape(*matrices.shape[:-2], d * d)[..., :: d + 1])
    # A NaN defect fails; a NaN trace passes, as finite entries can make one (1e308 + 1e308 - 1e308 - 1e308),
    # and the lowest eigenvalue of such a matrix decides its verdict.
    return ~(defect <= tol) | (np.abs(trace - 1.0) > tol), defect, trace


def state_error(off, defect, trace, lowest, tol: float) -> InvalidStateError:
    """The error of a matrix that fails the state check at ``tol``, from its ``screen_states`` mask, defect and
    trace and its lowest eigenvalue, or a lower bound on it: in this order, non-finite, non-Hermitian or off unit
    trace beyond ``tol``, else an eigenvalue below minus ``tol``."""
    if not np.isfinite(defect):
        return InvalidStateError("matrix contains non-finite entries")
    if defect > tol:
        return InvalidStateError(f"matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}")
    if off:
        return InvalidStateError(f"trace = {trace.real:.12g}, expected 1 within {tol:g}")
    return InvalidStateError(f"negative eigenvalue {lowest:.3e} below -{tol:g}")


def check_states(matrices: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of density matrices; return their ascending spectra and eigenvectors.

    Each matrix must pass ``screen_states``, meet the eigendecomposition bound
    and have no eigenvalue below minus ``tol``; round-off
    negatives above it are clamped to zero. Of several failing matrices the
    first in stack order raises (``raise_first``), save that a missed
    eigendecomposition bound raises ahead of all.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        off, defect, trace = screen_states(matrices, tol)
    if off.any():  # keep failed matrices out of eigh, so that they raise their own error below
        d = matrices.shape[-1]
        matrices = np.where(off[..., None, None], np.eye(d) / d, matrices)
    values, vectors = eigh(matrices)
    lowest = values[..., 0]
    raise_first(off | (lowest < -tol), lambda *i: state_error(off[i], defect[i], trace[i], lowest[i], tol))
    return np.maximum(values, 0.0), vectors


def reduce_a(matrices: np.ndarray) -> np.ndarray:
    """First-qubit states of a stack of pair matrices: the second qubit traced out."""
    blocks = matrices.reshape(*matrices.shape[:-2], 2, 2, 2, 2)  # [a, b, a', b'] of entry (2a + b, 2a' + b')
    return blocks[..., :, 0, :, 0] + blocks[..., :, 1, :, 1]


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace qubit (2x2) or qubit-pair (4x4) matrix.

    Checked at validation tolerance ``tol``, kept as ``tol`` for the states
    derived from it. The ascending eigenvalue list is computed once and cached
    as ``spectrum``; round-off negatives above minus ``tol`` are clamped to zero.
    """

    def __init__(self, matrix: np.ndarray, tol: float = VALIDATION_TOL):
        self.tol = checked_tol(tol)
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"matrix shape {matrix.shape} is neither a qubit (2, 2) nor a qubit pair (4, 4)")
        values, vectors = check_states(matrix[None], self.tol)
        values.setflags(write=False)
        matrix.setflags(write=False)
        self.matrix, self.spectrum, self.eigenvectors = matrix, values[0], vectors[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced_a(self) -> "DensityMatrix":
        """State of the first qubit after tracing out the second, checked at ``self.tol``."""
        return DensityMatrix(reduce_a(require_pair(self).matrix), self.tol)

    def to_json(self) -> dict:
        """Serializable form of a qubit pair: dimensions plus row-major real and imaginary parts."""
        require_pair(self)
        return {"dim_a": 2, "dim_b": 2, "re": self.matrix.real.tolist(), "im": self.matrix.imag.tolist()}

    @classmethod
    def from_json(cls, data: dict, tol: float = VALIDATION_TOL) -> "DensityMatrix":
        """Inverse of :meth:`to_json`, checked at ``tol``; see ``pair_from_json``."""
        return cls(pair_from_json(data, tol), tol)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def require_pair(rho: DensityMatrix) -> DensityMatrix:
    """``rho`` itself if it is a qubit pair; a ValueError otherwise."""
    if rho.dim != 4:
        raise ValueError(f"expected a two-qubit state, got a {rho.dim}x{rho.dim} matrix")
    return rho


def pair_from_json(data: dict, tol: float = VALIDATION_TOL) -> np.ndarray:
    """The (4, 4) matrix of a ``DensityMatrix.to_json`` payload, not checked as a state.

    ``dim_a`` and ``dim_b`` must each be the integer 2, every entry a
    ``json_number``. A payload that is not an object, lacks a key, has an
    unknown key or holds an entry that is not a number raises "malformed
    density-matrix payload". A matrix of another shape raises the shape error
    of ``DensityMatrix``; a qubit's raises its own state error at ``tol``, else
    that it is not a pair.
    """
    if not isinstance(data, dict):
        raise InvalidStateError(f"malformed density-matrix payload: expected an object, got {type(data).__name__}")
    try:
        dims = {key: data[key] for key in ("dim_a", "dim_b")}
        entries = {key: np.array(data[key], dtype=object) for key in ("re", "im")}
        unknown = [key for key in data if key not in (*dims, *entries)]
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        re, im = (np.array([json_number(v, f"{key} entry") for v in a.flat]).reshape(a.shape) for key, a in entries.items())
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStateError(f"malformed density-matrix payload: {exc}") from exc
    for key, dim in dims.items():
        if type(dim) is not int or dim != 2:
            raise InvalidStateError(f"{key} must be the integer 2, got {dim!r}")
    if re.shape != im.shape:
        raise InvalidStateError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, a non-finite entry the state screen reports
        matrix = re + 1j * im
    if matrix.shape != (4, 4):
        require_pair(DensityMatrix(matrix, tol))
    return matrix


def require_within(values: np.ndarray, low: float, high: float, error) -> None:
    """Raise ``error(v)`` for the first of ``values`` outside [low, high]; NaN counts as outside."""
    raise_first(~((values >= low) & (values <= high)), lambda *i: error(float(values[i])))


_SINGLET_VECTOR = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET = np.outer(_SINGLET_VECTOR, _SINGLET_VECTOR.conj())
# The signs of (c1, c2, c3) in the eigenvalues lambda_0..3 of a Bell-diagonal state, in that order.
_BELL_SIGNS = np.array([[-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
# The nonzero entries of a Bell-diagonal state, flat (0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1):
# (1 + s c3) / 4 on the diagonal, ((0 + c1) + s c2) / 4 off it, for the signs s of _BELL_TERMS' second row.
# The first row picks c1 (times 0 on the diagonal), the second c3 or c2.
_BELL_ENTRIES = np.array([0, 5, 10, 15, 3, 12, 6, 9])
_BELL_PICKS = np.array([[2, 2, 2, 2, 0, 0, 0, 0], [2, 2, 2, 2, 1, 1, 1, 1]])
_BELL_TERMS = np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0]])
_BELL_ONES = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def bell_diagonal_matrices(triples: np.ndarray, tol: float) -> np.ndarray:
    """States (I + c1 s1xs1 + c2 s2xs2 + c3 s3xs3) / 4 for an (N, 3) array of triples.

    A triple is admissible exactly when all four closed-form eigenvalues
    (1 -+ c1 -+ c2 -+ c3)/4, with an odd number of minus signs, lie in [0, 1] within ``tol``.
    """
    signed = triples[:, None, :] * _BELL_SIGNS  # 1 - c is 1 + (-c) bit for bit, so each lambda_j keeps its bits
    with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite triples give infinities and NaNs, refused below
        lams = (1.0 + signed[..., 0] + signed[..., 1] + signed[..., 2]) / 4.0

    def error(i, j) -> InvalidStateError:
        c = ", ".join(str(float(v)) for v in triples[i])
        return InvalidStateError(f"correlation triple ({c}) gives eigenvalue lambda_{j} = {lams[i, j]:.12g} outside [0, 1]")

    raise_first(~((lams >= -tol) & (lams <= 1.0 + tol)), error)  # NaN counts as outside
    # The bits of 0.25 * (I + c1 XX + c2 YY + c3 ZZ) in complex arithmetic, written entry by entry: for finite
    # triples every other entry of that sum is 0 + 0j, and so is each imaginary part.
    terms = triples[:, _BELL_PICKS] * _BELL_TERMS
    m = np.zeros((len(triples), 4, 4), dtype=complex)
    m.real.reshape(-1, 16)[:, _BELL_ENTRIES] = ((terms[:, 0] + _BELL_ONES) + terms[:, 1]) * 0.25
    return m


def bell_diagonal(c1: float, c2: float, c3: float, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Two-qubit state (I + c1 s1xs1 + c2 s2xs2 + c3 s3xs3) / 4; see ``bell_diagonal_matrices``."""
    return DensityMatrix(bell_diagonal_matrices(np.array([[c1, c2, c3]], dtype=float), checked_tol(tol))[0], tol)


def werner_matrices(a: np.ndarray) -> np.ndarray:
    """Werner states for an array of singlet fractions in [0, 1]."""
    require_within(a, 0.0, 1.0, lambda v: ValueError(f"werner parameter must lie in [0, 1], got {v}"))
    a = a[:, None, None]
    return a * SINGLET + (1.0 - a) / 4.0 * np.eye(4, dtype=complex)


def werner(a: float, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Singlet fraction a of the singlet projector plus (1 - a)/4 of the identity."""
    return DensityMatrix(werner_matrices(np.array([a], dtype=float))[0], tol)


POPULATIONS = ("rho11", "rho22", "rho33", "rho44")
COHERENCES = ("rho14", "rho23")


@dataclass(frozen=True)
class XStateParams:
    """Populations and anti-diagonal coherences of an X-shaped two-qubit state.

    Each field is a ``json_number`` (a float, or an int in float range, but
    not a bool), and a coherence may be a complex number too; a field that is
    not raises ValueError naming it, and one that is not finite
    InvalidStateError. Positivity requires rho11*rho44 >= |rho14|^2 and
    rho22*rho33 >= |rho23|^2; violations are reported naming the failed
    inequality.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex = 0.0j
    rho23: complex = 0.0j

    def __post_init__(self):
        for name in (*POPULATIONS, *COHERENCES):
            value = getattr(self, name)  # a json_number, or for a coherence a complex number too
            if not cmath.isfinite(value if name in COHERENCES and isinstance(value, complex) else json_number(value, name)):
                raise InvalidStateError(f"{name} = {value} is not a finite number")
        pops = tuple(getattr(self, name) for name in POPULATIONS)
        for name, p in zip(POPULATIONS, pops):
            if p < -NEGLIGIBLE:
                raise InvalidStateError(f"population {name} = {p:.12g} is negative")
        total = sum(pops)
        if abs(total - 1.0) > NEGLIGIBLE:
            raise InvalidStateError(f"populations sum to {total:.12g}, expected 1 within {NEGLIGIBLE:g}")
        # |z|^2 as re*re + im*im, which overflows to inf where abs(z) ** 2 raises OverflowError
        if self.rho11 * self.rho44 - (self.rho14.real * self.rho14.real + self.rho14.imag * self.rho14.imag) < -NEGLIGIBLE:
            raise InvalidStateError("positivity violated: rho11*rho44 < |rho14|^2")
        if self.rho22 * self.rho33 - (self.rho23.real * self.rho23.real + self.rho23.imag * self.rho23.imag) < -NEGLIGIBLE:
            raise InvalidStateError("positivity violated: rho22*rho33 < |rho23|^2")

    def closed_form_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues from the two 2x2 blocks of the X pattern."""
        outer_half = np.hypot(self.rho11 - self.rho44, 2.0 * abs(self.rho14)) / 2.0
        inner_half = np.hypot(self.rho22 - self.rho33, 2.0 * abs(self.rho23)) / 2.0
        outer_mid = (self.rho11 + self.rho44) / 2.0
        inner_mid = (self.rho22 + self.rho33) / 2.0
        return np.sort([outer_mid + outer_half, outer_mid - outer_half, inner_mid + inner_half, inner_mid - inner_half])

    def to_json(self) -> dict:
        coherences = {name: [getattr(self, name).real, getattr(self, name).imag] for name in COHERENCES}
        return {**{name: getattr(self, name) for name in POPULATIONS}, **coherences}

    @classmethod
    def from_json(cls, data: dict) -> "XStateParams":
        """Build from a dict; coherences may be bare reals or [re, im] pairs.

        A payload that is not an object, lacks a population, has an unknown
        key or holds an entry that is not a ``json_number`` raises "malformed
        x-state payload"; a well-formed one that fails validation raises that
        check's own error.
        """

        def as_complex(name: str) -> complex:
            value = data.get(name, 0.0)
            parts = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
            return complex(*(json_number(part, name) for part in parts))

        check_keys(data, POPULATIONS, COHERENCES, "malformed x-state payload", InvalidStateError)
        try:
            values = [json_number(data[name], name) for name in POPULATIONS] + [as_complex(name) for name in COHERENCES]
        except ValueError as exc:
            raise InvalidStateError(f"malformed x-state payload: {exc}") from exc
        return cls(*values)


def x_state_matrices(params: XStateParams, rho14: np.ndarray, rho23: np.ndarray) -> np.ndarray:
    """X-pattern matrices with the populations of ``params`` and arrays of anti-diagonal coherences."""
    m = np.zeros((len(rho14), 4, 4), dtype=complex)
    m[:, range(4), range(4)] = [getattr(params, name) for name in POPULATIONS]
    m[:, 0, 3], m[:, 3, 0] = rho14, np.conj(rho14)
    m[:, 1, 2], m[:, 2, 1] = rho23, np.conj(rho23)
    return m


def x_state(params: XStateParams, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Density matrix with the X sparsity pattern described by ``params``."""
    return DensityMatrix(x_state_matrices(params, np.array([params.rho14]), np.array([params.rho23]))[0], tol)


def example2_matrices(x: np.ndarray) -> np.ndarray:
    """Three-level mixtures for an array of parameters x in [0, 1/2]; see ``example2``."""
    require_within(x, 0.0, 0.5, lambda v: ValueError(f"mixture parameter must lie in [0, 1/2], got {v}"))
    m = np.zeros((len(x), 4, 4), dtype=complex)
    m[:, 0, 0] = (1.0 - x) / 3.0
    m[:, 1, 1] = m[:, 2, 2] = m[:, 1, 2] = m[:, 2, 1] = 1.0 / 3.0
    m[:, 3, 3] = x / 3.0
    return m


def example2(x: float, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Rank-3 X-shaped mixture of |00>, the symmetric Bell state, and |11>.

    The state is ((1-x)|00><00| + 2|psi+><psi+| + x|11><11|) / 3 with
    |psi+> = (|01> + |10>)/sqrt(2) and x in [0, 1/2]; its eigenvalues are
    0, x/3, (1-x)/3 and 2/3.
    """
    return DensityMatrix(example2_matrices(np.array([x], dtype=float))[0], tol)


@dataclass(frozen=True)
class BlochCoefficients:
    """Local z components and the full 3x3 correlation matrix of a two-qubit state."""

    a3: float
    b3: float
    t: np.ndarray


def bloch_coefficients(rho: DensityMatrix) -> BlochCoefficients:
    """Pauli expectation values of a two-qubit state.

    Every coefficient is the trace inner product of the state with the
    corresponding Pauli tensor; imaginary residues above 1e-11 raise a
    numeric error since they cannot occur for a valid Hermitian input.
    """
    matrix = require_pair(rho).matrix

    def expectation(op: np.ndarray) -> float:
        value = np.trace(matrix @ op)
        if abs(value.imag) > RECONSTRUCTION_TOL:
            raise NumericError(f"Pauli expectation has imaginary residue {value.imag:.3e}")
        return float(value.real)

    a3 = expectation(np.kron(SIGMA_3, IDENTITY_2))
    b3 = expectation(np.kron(IDENTITY_2, SIGMA_3))
    t = np.array([[expectation(np.kron(si, sj)) for sj in PAULIS] for si in PAULIS])
    if np.max(np.abs(t)) > 1.0 + NEGLIGIBLE or max(abs(a3), abs(b3)) > 1.0 + NEGLIGIBLE:
        raise NumericError("Pauli expectation outside [-1, 1]")
    t.setflags(write=False)
    return BlochCoefficients(a3=a3, b3=b3, t=t)


_SIGNS = np.array([-1.0, 1.0])


def _qubit_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., 2) in closed form, (a + d)/2 -+ hypot((a - d)/2, |b|), of 2x2 matrices.

    They are those of the Hermitian matrix that ``np.linalg.eigvalsh`` reads
    from each: the real diagonal (a, d) and the lower entry b.
    """
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    half = np.hypot((a - d) / 2.0, np.abs(m[..., 1, 0]))
    return ((a + d) / 2.0)[..., None] + half[..., None] * _SIGNS  # mid + (-half) is mid - half, bit for bit


# Rows of the float view of a flattened pair matrix m, which holds the real part of flat entry k at 2k and its
# imaginary part at 2k + 1, that give the lower triangle of its partial transpose h; pt[(a, b), (a', b')] =
# m[(a, b'), (a', b)]. Of the principal blocks {0, 3} and {1, 2}, [[h00, h30], [h30, h33]] and
# [[h11, h21], [h21, h22]], they hold the real diagonals (h00, h11) and (h33, h22), then (h30, h21), real and
# imaginary parts; then the four entries h10, h20, h31, h32 outside the blocks, real and imaginary parts.
_PT_ROWS = 2 * np.array([0, 5, 15, 10, 9, 12, 9, 12, 1, 8, 13, 11, 1, 8, 13, 11]) + np.repeat([0, 1, 0, 1], [6, 2, 4, 4])
# The PPT certificate's margin per unit of c, the largest absolute real or imaginary part of an entry of h. As
# |h_ij| <= sqrt(2) c, it is at least 128 eps times the largest |h_ij|: that covers the rounding of the two bounds
# (at most 20 eps) plus LAPACK's error on the lowest eigenvalue (16 eps ||h||_2 <= 64 eps), with room to spare.
_PPT_MARGIN = 192 * np.finfo(float).eps
# The largest c of a point the certificate settles: below it no step of the bounds overflows (16 c^2 < 2^1024).
_PPT_MAX_ENTRY = 2.0**509


def ppt_entangled(matrices: np.ndarray) -> np.ndarray:
    """Partial-transpose verdict for each complex pair matrix of a stack, exact for a qubit pair.

    True exactly when ``np.linalg.eigvalsh`` finds an eigenvalue below -1e-10
    in the partial transpose over the second qubit, that is in h, the
    Hermitian matrix it reads: the lower triangle, mirrored, with the real
    diagonal. Most points are decided without it. The lowest eigenvalues of
    the 2x2 principal blocks {0, 3} and {1, 2} of h have the closed form
    (a + d)/2 - hypot((a - d)/2, |b|) of ``_qubit_spectra``, and their minimum
    ``upper`` bounds lambda_min(h) from above (Cauchy interlacing). With E the
    part of h outside the blocks, ``lower = upper - ||E||_F`` bounds it from
    below (Weyl's inequality). A point is entangled if upper < -1e-10 - margin
    and separable if lower > -1e-10 + margin, where margin, 192 eps times the
    largest real or imaginary part of an entry of h, exceeds the rounding of
    both bounds plus LAPACK's eigenvalue error. The entries are gathered once
    into contiguous (16, N) rows of real numbers (``_PT_ROWS``). Only the
    points left open take ``eigvalsh``, among them every point with an entry
    that is not finite or has a part above 2^509, where the bounds could overflow.
    """
    planes = matrices.reshape(-1, 16).view(float).T[_PT_ROWS]
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite entries leave their point open
        a, d = planes[0:2], planes[2:4]
        lowest = (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.hypot(planes[4:6], planes[6:8]))
        upper = np.minimum(lowest[0], lowest[1])
        off = np.sqrt(2.0 * np.square(planes[8:]).sum(axis=0))  # ||E||_F: each entry below the diagonal and its mirror
        largest = np.abs(planes).max(axis=0)
        margin = _PPT_MARGIN * largest
        entangled = upper < -PPT_NEG_TOL - margin
        settled = (entangled | (upper - off > -PPT_NEG_TOL + margin)) & (largest <= _PPT_MAX_ENTRY)
    if not settled.all():
        pending = matrices.reshape(-1, 4, 4)[~settled]
        transposed = pending.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(pending.shape)
        entangled[~settled] = np.linalg.eigvalsh(transposed)[:, 0] < -PPT_NEG_TOL
    return entangled.reshape(matrices.shape[:-2])


def is_entangled(rho: DensityMatrix) -> bool:
    """Partial-transpose criterion of one qubit pair; see ``ppt_entangled``."""
    return bool(ppt_entangled(require_pair(rho).matrix[None])[0])

"""Validated density matrices and the two-qubit state families used throughout.

A density matrix is a qubit (2x2) or a qubit pair (4x4). The families all
live on the pair: correlation-diagonal (Bell diagonal) states, Werner
states, X-shaped states given by their populations and anti-diagonal
coherences, and a one-parameter three-level mixture used by the bundled
parameter studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericError
from .linalg import IDENTITY_2, PAULIS, SIGMA_3, eigh
from .tolerances import NEGLIGIBLE, RECONSTRUCTION_TOL, validation_tol

# Threshold for calling a partial-transpose eigenvalue negative; fixed, not
# affected by the runtime validation-tolerance override.
PPT_NEG_TOL = 1e-10


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace qubit (2x2) or qubit-pair (4x4) matrix.

    The ascending eigenvalue list is computed once at construction and cached
    as ``spectrum``; round-off negatives above minus the validation tolerance
    are clamped to zero.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"matrix shape {matrix.shape} is neither a qubit (2, 2) nor a qubit pair (4, 4)")
        tol = validation_tol()
        if not np.all(np.isfinite(matrix)):
            raise InvalidStateError("matrix contains non-finite entries")
        defect = float(np.max(np.abs(matrix - matrix.conj().T)))
        if defect > tol:
            raise InvalidStateError(f"matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}")
        trace = matrix.trace()
        if abs(trace - 1.0) > tol:
            raise InvalidStateError(f"trace = {trace.real:.12g}, expected 1 within {tol:g}")
        values, vectors = eigh(matrix)
        if values[0] < -tol:
            raise InvalidStateError(f"negative eigenvalue {values[0]:.3e} below -{tol:g}")
        values = np.maximum(values, 0.0)
        values.setflags(write=False)
        matrix.setflags(write=False)
        self.matrix = matrix
        self.spectrum = values
        self.eigenvectors = vectors

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced_a(self) -> "DensityMatrix":
        """State of the first qubit after tracing out the second."""
        return DensityMatrix(require_pair(self).matrix.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3))

    def to_json(self) -> dict:
        """Serializable form of a qubit pair: dimensions plus row-major real and imaginary parts."""
        require_pair(self)
        return {"dim_a": 2, "dim_b": 2, "re": self.matrix.real.tolist(), "im": self.matrix.imag.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "DensityMatrix":
        """Inverse of :meth:`to_json`; ``dim_a`` and ``dim_b`` must each be the integer 2."""
        try:
            dims = {key: data[key] for key in ("dim_a", "dim_b")}
            re = np.array(data["re"], dtype=float)
            im = np.array(data["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidStateError(f"malformed density-matrix payload: {exc}") from exc
        for key, dim in dims.items():
            if type(dim) is not int or dim != 2:
                raise InvalidStateError(f"{key} must be the integer 2, got {dim!r}")
        if re.shape != im.shape:
            raise InvalidStateError(f"re/im shapes differ: {re.shape} vs {im.shape}")
        return require_pair(cls(re + 1j * im))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def require_pair(rho: DensityMatrix) -> DensityMatrix:
    """``rho`` itself if it is a qubit pair; a ValueError otherwise."""
    if rho.dim != 4:
        raise ValueError(f"expected a two-qubit state, got a {rho.dim}x{rho.dim} matrix")
    return rho


def bell_diagonal(c1: float, c2: float, c3: float) -> DensityMatrix:
    """Two-qubit state (I + c1 s1xs1 + c2 s2xs2 + c3 s3xs3) / 4.

    The triple is admissible exactly when all four closed-form eigenvalues
    (1 -+ c1 -+ c2 -+ c3)/4, with an odd number of minus signs, lie in [0, 1].
    """
    tol = validation_tol()
    lams = (
        (1.0 - c1 - c2 - c3) / 4.0,
        (1.0 - c1 + c2 + c3) / 4.0,
        (1.0 + c1 - c2 + c3) / 4.0,
        (1.0 + c1 + c2 - c3) / 4.0,
    )
    for j, lam in enumerate(lams):
        if lam < -tol or lam > 1.0 + tol:
            raise InvalidStateError(
                f"correlation triple ({c1}, {c2}, {c3}) gives eigenvalue lambda_{j} = {lam:.12g} outside [0, 1]"
            )
    matrix = 0.25 * (
        np.eye(4, dtype=complex)
        + c1 * np.kron(PAULIS[0], PAULIS[0])
        + c2 * np.kron(PAULIS[1], PAULIS[1])
        + c3 * np.kron(PAULIS[2], PAULIS[2])
    )
    return DensityMatrix(matrix)


def werner(a: float) -> DensityMatrix:
    """Singlet fraction a of the singlet projector plus (1 - a)/4 of the identity."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"werner parameter must lie in [0, 1], got {a}")
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    matrix = a * np.outer(singlet, singlet.conj()) + (1.0 - a) / 4.0 * np.eye(4, dtype=complex)
    return DensityMatrix(matrix)


@dataclass(frozen=True)
class XStateParams:
    """Populations and anti-diagonal coherences of an X-shaped two-qubit state.

    Positivity requires rho11*rho44 >= |rho14|^2 and rho22*rho33 >= |rho23|^2;
    violations are reported naming the failed inequality.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex = 0.0j
    rho23: complex = 0.0j

    def __post_init__(self):
        pops = (self.rho11, self.rho22, self.rho33, self.rho44)
        for name, p in zip(("rho11", "rho22", "rho33", "rho44"), pops):
            if p < -NEGLIGIBLE:
                raise InvalidStateError(f"population {name} = {p:.12g} is negative")
        total = sum(pops)
        if abs(total - 1.0) > NEGLIGIBLE:
            raise InvalidStateError(f"populations sum to {total:.12g}, expected 1 within 1e-12")
        if self.rho11 * self.rho44 - abs(self.rho14) ** 2 < -NEGLIGIBLE:
            raise InvalidStateError("positivity violated: rho11*rho44 < |rho14|^2")
        if self.rho22 * self.rho33 - abs(self.rho23) ** 2 < -NEGLIGIBLE:
            raise InvalidStateError("positivity violated: rho22*rho33 < |rho23|^2")

    def closed_form_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues from the two 2x2 blocks of the X pattern."""
        outer_half = np.hypot(self.rho11 - self.rho44, 2.0 * abs(self.rho14)) / 2.0
        inner_half = np.hypot(self.rho22 - self.rho33, 2.0 * abs(self.rho23)) / 2.0
        outer_mid = (self.rho11 + self.rho44) / 2.0
        inner_mid = (self.rho22 + self.rho33) / 2.0
        return np.sort(
            [
                outer_mid + outer_half,
                outer_mid - outer_half,
                inner_mid + inner_half,
                inner_mid - inner_half,
            ]
        )

    def to_json(self) -> dict:
        return {
            "rho11": self.rho11,
            "rho22": self.rho22,
            "rho33": self.rho33,
            "rho44": self.rho44,
            "rho14": [self.rho14.real, self.rho14.imag],
            "rho23": [self.rho23.real, self.rho23.imag],
        }

    @classmethod
    def from_json(cls, data: dict) -> "XStateParams":
        """Build from a dict; coherences may be bare reals or [re, im] pairs."""

        def as_complex(value) -> complex:
            if isinstance(value, (int, float)):
                return complex(value)
            re, im = value
            return complex(re, im)

        try:
            return cls(
                rho11=float(data["rho11"]),
                rho22=float(data["rho22"]),
                rho33=float(data["rho33"]),
                rho44=float(data["rho44"]),
                rho14=as_complex(data.get("rho14", 0.0)),
                rho23=as_complex(data.get("rho23", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidStateError(f"malformed x-state payload: {exc}") from exc


def x_state(params: XStateParams) -> DensityMatrix:
    """Density matrix with the X sparsity pattern described by ``params``."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = params.rho11
    m[1, 1] = params.rho22
    m[2, 2] = params.rho33
    m[3, 3] = params.rho44
    m[0, 3] = params.rho14
    m[3, 0] = np.conj(params.rho14)
    m[1, 2] = params.rho23
    m[2, 1] = np.conj(params.rho23)
    return DensityMatrix(m)


def example2(x: float) -> DensityMatrix:
    """Rank-3 X-shaped mixture of |00>, the symmetric Bell state, and |11>.

    The state is ((1-x)|00><00| + 2|psi+><psi+| + x|11><11|) / 3 with
    |psi+> = (|01> + |10>)/sqrt(2) and x in [0, 1/2]; its eigenvalues are
    0, x/3, (1-x)/3 and 2/3.
    """
    if not 0.0 <= x <= 0.5:
        raise ValueError(f"mixture parameter must lie in [0, 1/2], got {x}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (1.0 - x) / 3.0
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 1.0 / 3.0
    m[3, 3] = x / 3.0
    return DensityMatrix(m)


@dataclass(frozen=True)
class BlochCoefficients:
    """Local z components and the full 3x3 correlation matrix of a two-qubit state."""

    a3: float
    b3: float
    t: np.ndarray

    @property
    def c1(self) -> float:
        return float(self.t[0, 0])

    @property
    def c2(self) -> float:
        return float(self.t[1, 1])

    @property
    def c3(self) -> float:
        return float(self.t[2, 2])


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


def is_entangled(rho: DensityMatrix) -> bool:
    """Partial-transpose criterion, exact for a qubit pair.

    Returns True exactly when the partial transpose over the second qubit has
    an eigenvalue below -1e-10.
    """
    transposed = require_pair(rho).matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    smallest = float(np.linalg.eigvalsh(transposed)[0])
    return smallest < -PPT_NEG_TOL

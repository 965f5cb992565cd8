"""Rank-1 projective measurements on the second qubit and the induced final states.

A measurement splits the state into normalized outcome branches. Two mixing
rules turn the branches back into a single final state: the unweighted
average, and a convex combination with caller-chosen weights. The capacity
change of the whole pair and of the first qubit alone are reported side by
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .battery import QubitPairEnergies, capacity, qubit_pair_hamiltonian, subsystem_a_hamiltonian
from .errors import NumericError, UndefinedAverageError
from .linalg import IDENTITY_2
from .states import DensityMatrix, require_pair
from .tolerances import NEGLIGIBLE, validation_tol

# Branches below this probability are flagged instead of normalized.
ZERO_PROBABILITY = NEGLIGIBLE


class MeasurementBasis:
    """Rank-1 projective measurement of the second qubit along a Bloch direction.

    ``angles`` is None for the computational basis {|0>, |1>}, or the Bloch
    angles (theta, phi) of the first basis vector; theta = 0 is computational.
    """

    def __init__(self, angles: tuple[float, float] | None = None):
        if angles is None:
            v = np.eye(2, dtype=complex)
            self.description = "computational"
        else:
            theta, phi = angles
            if not (math.isfinite(theta) and math.isfinite(phi)):
                raise ValueError(f"basis angles must be finite, got theta={theta}, phi={phi}")
            c = np.cos(theta / 2.0)
            s = np.sin(theta / 2.0)
            v = np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex)
            self.description = f"rotated(theta={theta:.12g}, phi={phi:.12g})"
        self.angles = angles
        self.projectors = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(2))
        for p in self.projectors:
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
class Branch:
    """One measurement outcome; ``state`` is None when the probability vanishes."""

    probability: float
    state: DensityMatrix | None


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Outcome branches of a projective measurement, in basis order."""

    branches: tuple[Branch, ...]
    basis: MeasurementBasis

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(b.probability for b in self.branches)


def measure_b(rho: DensityMatrix, basis: MeasurementBasis) -> MeasurementEnsemble:
    """Measure the second subsystem, returning normalized branches and probabilities.

    The probability-weighted branch sum equals the dephasing of the input in
    the measured basis, and the probabilities close to 1; branches below the
    1e-12 probability floor are flagged rather than normalized.
    """
    matrix = require_pair(rho).matrix
    branches = []
    total = 0.0
    for proj in basis.projectors:
        op = np.kron(IDENTITY_2, proj)
        unnormalized = op @ matrix @ op
        p = float(np.trace(unnormalized).real)
        total += p
        if p < ZERO_PROBABILITY:
            branches.append(Branch(probability=p, state=None))
        else:
            branches.append(Branch(probability=p, state=DensityMatrix(unnormalized / p)))
    if abs(total - 1.0) > validation_tol():
        raise NumericError(f"outcome probabilities sum to {total:.12g}, expected 1")
    return MeasurementEnsemble(branches=tuple(branches), basis=basis)


@dataclass(frozen=True)
class MixingWeights:
    """Convex weights over measurement branches: nonnegative, summing to 1 within 1e-12."""

    mu: tuple[float, ...]

    def __post_init__(self):
        for k, w in enumerate(self.mu):
            if not math.isfinite(w):
                raise ValueError(f"weight mu_{k} = {w} is not a finite number")
            if w < -NEGLIGIBLE:
                raise ValueError(f"weight mu_{k} = {w:.12g} is negative")
        total = sum(self.mu)
        if abs(total - 1.0) > NEGLIGIBLE:
            raise ValueError(f"weights sum to {total:.12g}, expected 1 within 1e-12")


def _as_weights(weights: "MixingWeights | Sequence[float]") -> MixingWeights:
    if isinstance(weights, MixingWeights):
        return weights
    return MixingWeights(mu=tuple(float(w) for w in weights))


def final_state_uniform(ensemble: MeasurementEnsemble) -> DensityMatrix:
    """Unweighted average of the normalized outcome branches.

    Every branch enters with weight 1/n regardless of its probability, so a
    vanishing-probability branch leaves the average undefined.
    """
    matrices = []
    for k, branch in enumerate(ensemble.branches):
        if branch.state is None:
            raise UndefinedAverageError(
                f"branch {k} has probability {branch.probability:.3e}; the unweighted average is undefined"
            )
        matrices.append(branch.state.matrix)
    return DensityMatrix(sum(matrices) / len(matrices))


def final_state_weighted(
    ensemble: MeasurementEnsemble, weights: "MixingWeights | Sequence[float]"
) -> DensityMatrix:
    """Convex combination sum_k mu_k rho_k of the normalized branches.

    Flagged zero-probability branches must carry zero weight. Choosing
    mu_k equal to the outcome probabilities reproduces the dephased state.
    """
    w = _as_weights(weights)
    if len(w.mu) != len(ensemble.branches):
        raise ValueError(f"{len(w.mu)} weights for {len(ensemble.branches)} branches")
    accumulated = None
    for k, (mu_k, branch) in enumerate(zip(w.mu, ensemble.branches)):
        if branch.state is None:
            if mu_k > NEGLIGIBLE:
                raise ValueError(
                    f"weight mu_{k} = {mu_k:.12g} assigned to a branch with probability {branch.probability:.3e}"
                )
            continue
        if accumulated is None:
            accumulated = np.zeros_like(branch.state.matrix)
        accumulated = accumulated + mu_k * branch.state.matrix
    if accumulated is None:
        raise ValueError("all branches are flagged; nothing to mix")
    return DensityMatrix(accumulated)


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
    if scheme == "uniform":
        if weights is not None:
            raise ValueError("the uniform scheme takes no weights")
    elif scheme == "weighted":
        if weights is None:
            raise ValueError("the weighted scheme requires weights")
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected 'uniform' or 'weighted'")


def capacity_gain(
    rho: DensityMatrix,
    energies: QubitPairEnergies,
    basis: MeasurementBasis | None = None,
    scheme: str = "uniform",
    weights: "MixingWeights | Sequence[float] | None" = None,
) -> CapacityGainReport:
    """Measure the second qubit, mix the branches, and compare capacities.

    Parameters
    ----------
    rho : DensityMatrix
        Two-qubit input state.
    energies : QubitPairEnergies
        Level splittings defining the pair and single-qubit Hamiltonians.
    basis : MeasurementBasis, optional
        Defaults to the computational basis on the second qubit.
    scheme : str
        "uniform" for the unweighted branch average, "weighted" for a convex
        combination with ``weights``.
    weights : MixingWeights or sequence of float, optional
        Required exactly when scheme is "weighted".
    """
    require_pair(rho)
    check_scheme(scheme, weights)
    w = None if weights is None else _as_weights(weights)
    ensemble = measure_b(rho, basis or MeasurementBasis.computational())
    final = final_state_uniform(ensemble) if w is None else final_state_weighted(ensemble, w)
    h_pair = qubit_pair_hamiltonian(energies)
    h_a = subsystem_a_hamiltonian(energies)
    total = (capacity(rho, h_pair), capacity(final, h_pair))
    first = (capacity(rho.reduced_a(), h_a), capacity(final.reduced_a(), h_a))
    return CapacityGainReport(
        *total, *first, total[1] - total[0], first[1] - first[0], scheme, None if w is None else w.mu
    )

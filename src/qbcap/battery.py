"""Hamiltonians and the spectrum-pairing energy functionals.

Capacity is the spread between the largest and smallest average energies
reachable by unitaries; both extremes are rearrangement sums over the sorted
state spectrum and sorted energy levels, so no optimization is ever run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, raise_first
from .states import DensityMatrix, json_number
from .tolerances import NEGLIGIBLE


class Hamiltonian:
    """Hamiltonian diagonal in the computational basis, given by its levels there.

    ``energies`` holds the levels sorted ascending and ``basis`` the matching
    eigenvectors as columns, a permutation of the identity.
    """

    def __init__(self, levels):
        levels = np.array(levels, dtype=float)
        if levels.ndim != 1 or not np.all(np.isfinite(levels)):
            raise ValueError(f"Hamiltonian levels must be a finite 1-D vector, got {levels.tolist()}")
        order = np.argsort(levels, kind="stable")
        self.matrix = np.diag(levels)
        self.energies = levels[order]
        self.basis = np.eye(len(levels))[:, order]
        for m in (self.matrix, self.energies, self.basis):
            m.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.energies)

    def __repr__(self) -> str:
        return f"Hamiltonian(dim={self.dim})"


# The largest eps_a: pair levels stay within max/4 and capacities within max/2, so each level, capacity and gain is finite.
MAX_SPLITTING = sys.float_info.max / 8


@dataclass(frozen=True)
class QubitPairEnergies:
    """Finite level splittings of the two non-interacting qubits, MAX_SPLITTING >= eps_a >= eps_b >= 0.

    Each is a ``json_number`` (a float, or an int in float range, but not a bool); one that is not raises a
    ValueError naming it.
    """

    eps_a: float
    eps_b: float

    def __post_init__(self):
        a, b = json_number(self.eps_a, "eps_a"), json_number(self.eps_b, "eps_b")
        if not (math.isfinite(a) and math.isfinite(b) and a >= b >= 0.0):
            raise ValueError(f"require finite eps_a >= eps_b >= 0, got eps_a={self.eps_a}, eps_b={self.eps_b}")
        if self.eps_a > MAX_SPLITTING:
            raise ValueError(f"eps_a={self.eps_a} exceeds {MAX_SPLITTING!r}, beyond which capacities overflow")

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending levels of the pair Hamiltonian and of the first qubit's, the protocol's ``levels``.

        They are the ``energies`` of ``qubit_pair_hamiltonian(self)`` and
        ``subsystem_a_hamiltonian(self)``, sorted stably as those are, so that
        equal levels keep their order and their signs of zero; a call builds
        no Hamiltonian.
        """
        a, b = self.eps_a, self.eps_b
        return np.array(sorted([a + b, a - b, -a + b, -a - b])), np.array(sorted([a, -a]))


def qubit_pair_hamiltonian(energies: QubitPairEnergies) -> Hamiltonian:
    """Non-interacting pair eps_a s3 x I + eps_b I x s3.

    Its levels on |00>, |01>, |10>, |11> are eps_a + eps_b, eps_a - eps_b,
    -eps_a + eps_b and -eps_a - eps_b.
    """
    a, b = energies.eps_a, energies.eps_b
    return Hamiltonian([a + b, a - b, -a + b, -a - b])


def subsystem_a_hamiltonian(energies: QubitPairEnergies) -> Hamiltonian:
    """Hamiltonian eps_a s3 of the first qubit alone."""
    return Hamiltonian([energies.eps_a, -energies.eps_a])


def _checked_pair(rho: DensityMatrix, h: Hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    if rho.dim != h.dim:
        raise ValueError(f"state dimension {rho.dim} does not match Hamiltonian dimension {h.dim}")
    return rho.spectrum, h.energies


def clamp_round_off(values: np.ndarray, out=None) -> np.ndarray:
    """Set the round-off negatives of ``values``, those from -1e-12 to 0, to 0 in place; return the mask of the rest.

    The mask, written into ``out`` if given, marks the values below -1e-12,
    which are left as they are for ``negative_error`` to name.
    """
    bad = np.less(values, -NEGLIGIBLE, out=out)
    np.copyto(values, 0.0, where=(values < 0.0) ^ bad)
    return bad


def _clamp_nonnegative(values, what: str) -> np.ndarray:
    """A copy of ``values`` clamped by ``clamp_round_off``; the first value below -1e-12 raises (``negative_error``)."""
    values = np.array(values, dtype=float)
    raise_first(clamp_round_off(values), lambda *i: negative_error(what, values[i]))
    return values


def negative_error(what: str, value) -> NumericError:
    return NumericError(f"{what} = {value:.3e} is negative beyond round-off")


def capacities(spectra: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Capacity of each ascending spectrum along the last axis of ``spectra``, against ascending ``levels``.

    This is sum_i eps_i (lam_i - lam_{d-1-i}), equivalently the sum over
    mirrored index pairs i < d-1-i of (eps_{d-1-i} - eps_i)(lam_{d-1-i} -
    lam_i). Each pair multiplies two nonnegative gaps, so the value is
    nonnegative up to round-off, which callers clamp with ``clamp_round_off``,
    and insensitive to how ties inside degenerate eigenvalues are
    ordered.
    """
    return ((spectra - spectra[..., ::-1])[..., None, :] @ levels)[..., 0]


def capacity(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Largest minus smallest unitary-reachable average energy; see ``capacities``."""
    return float(_clamp_nonnegative(capacities(*_checked_pair(rho, h)), "capacity"))


def ergotropy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Average energy minus the passive floor reachable by unitaries.

    The passive energy pairs the largest populations with the lowest levels.
    """
    lam, eps = _checked_pair(rho, h)
    energy = float(np.trace(rho.matrix @ h.matrix).real)
    passive = float(np.dot(lam[::-1], eps))
    return float(_clamp_nonnegative(energy - passive, "ergotropy"))


def extremal_energies(rho: DensityMatrix, h: Hamiltonian) -> tuple[float, float]:
    """Smallest and largest average energies over all unitary orbits of the state.

    The minimum pairs populations descending with levels ascending; the
    maximum pairs both ascending.
    """
    lam, eps = _checked_pair(rho, h)
    lowest = float(np.dot(lam, eps[::-1]))
    highest = float(np.dot(lam, eps))
    return lowest, highest

import re
import sys

import numpy as np
import pytest

from helpers import random_bell_triple, random_density, random_energies

from qbcap import (
    DensityMatrix,
    Hamiltonian,
    QubitPairEnergies,
    bell_diagonal,
    capacity,
    ergotropy,
    extremal_energies,
    haar_unitary,
    qubit_pair_hamiltonian,
    subsystem_a_hamiltonian,
    werner,
)
from qbcap.battery import MAX_SPLITTING

PAIR_053 = QubitPairEnergies(eps_a=0.5, eps_b=0.3)


def pure_state(index):
    m = np.zeros((4, 4), dtype=complex)
    m[index, index] = 1.0
    return DensityMatrix(m)


@pytest.mark.parametrize(
    "eps_a, eps_b, field",
    [("0.5", 0.3, "eps_a"), (0.5, [0.3], "eps_b"), (True, 0.0, "eps_a"), (0.5, None, "eps_b"), (10**400, 0.0, "eps_a")],
)
def test_energies_must_be_numbers(eps_a, eps_b, field):
    # Once a TypeError or OverflowError from math.isfinite, or for a bool a pair of levels.
    value = eps_a if field == "eps_a" else eps_b
    with pytest.raises(ValueError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
        QubitPairEnergies(eps_a, eps_b)
    assert QubitPairEnergies(np.float64(0.5), 0).levels()[1].tolist() == [-0.5, 0.5]


def test_energies_validation():
    with pytest.raises(ValueError):
        QubitPairEnergies(eps_a=0.3, eps_b=0.5)
    with pytest.raises(ValueError):
        QubitPairEnergies(eps_a=-0.1, eps_b=-0.2)
    for eps_a, eps_b in ((float("inf"), 0.3), (float("inf"), float("inf")), (float("nan"), 0.3)):
        with pytest.raises(ValueError, match="finite"):
            QubitPairEnergies(eps_a=eps_a, eps_b=eps_b)
    QubitPairEnergies(eps_a=0.0, eps_b=0.0)
    # Finite splittings beyond MAX_SPLITTING would overflow the capacities; at it, the largest capacity is max/2.
    with pytest.raises(ValueError, match="beyond which capacities overflow"):
        QubitPairEnergies(eps_a=float(np.nextafter(MAX_SPLITTING, np.inf)), eps_b=0.0)
    edge = QubitPairEnergies(eps_a=MAX_SPLITTING, eps_b=MAX_SPLITTING)
    assert capacity(pure_state(0), qubit_pair_hamiltonian(edge)) == sys.float_info.max / 2


def test_pair_hamiltonian_spectra():
    np.testing.assert_allclose(qubit_pair_hamiltonian(PAIR_053).energies, [-0.8, -0.2, 0.2, 0.8], atol=1e-12)
    np.testing.assert_allclose(
        qubit_pair_hamiltonian(QubitPairEnergies(1.0, 0.0)).energies, [-1.0, -1.0, 1.0, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        qubit_pair_hamiltonian(QubitPairEnergies(0.5, 0.5)).energies, [-1.0, 0.0, 0.0, 1.0], atol=1e-12
    )


def test_subsystem_hamiltonian():
    h = subsystem_a_hamiltonian(PAIR_053)
    np.testing.assert_allclose(h.energies, [-0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(h.matrix, np.diag([0.5, -0.5]), atol=1e-15)


def test_levels_are_the_hamiltonians_energies(rng):
    # Bit for bit, signs of zero and their order among equal levels included.
    cases = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.5, 0.3), (MAX_SPLITTING, MAX_SPLITTING), (5e-324, 5e-324)]
    for eps_a, eps_b in cases + [tuple(sorted(rng.uniform(0.0, 2.0, 2), reverse=True)) for _ in range(50)]:
        e = QubitPairEnergies(float(eps_a), float(eps_b))
        pair, qubit = e.levels()
        assert pair.tobytes() == qubit_pair_hamiltonian(e).energies.tobytes()
        assert qubit.tobytes() == subsystem_a_hamiltonian(e).energies.tobytes()


def test_hamiltonian_rejects_non_hermitian():
    # A Hamiltonian is given by its diagonal levels, so a matrix, Hermitian or
    # not, is no valid input; neither are non-finite levels.
    for bad in (np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2), [0.5, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="levels"):
            Hamiltonian(bad)
    h = Hamiltonian([0.3, -0.1, 0.2])
    np.testing.assert_array_equal(h.energies, [-0.1, 0.2, 0.3])
    np.testing.assert_array_equal(h.basis.T @ h.matrix @ h.basis, np.diag(h.energies))


def test_capacity_frozen_values():
    h = qubit_pair_hamiltonian(PAIR_053)
    assert capacity(DensityMatrix(np.eye(4) / 4.0), h) == 0.0
    assert abs(capacity(werner(0.6), h) - 0.96) < 1e-12
    assert abs(capacity(bell_diagonal(0.6, 0.3, 0.1), h) - 0.78) < 1e-12


def test_capacity_of_maximally_mixed_qubit():
    h = subsystem_a_hamiltonian(PAIR_053)
    assert capacity(DensityMatrix(np.eye(2) / 2.0), h) == 0.0


def test_capacity_dimension_mismatch():
    with pytest.raises(ValueError):
        capacity(werner(0.5), subsystem_a_hamiltonian(PAIR_053))


def test_ergotropy_frozen_values():
    h = qubit_pair_hamiltonian(PAIR_053)
    # |00> carries the top level eps_a + eps_b of the pair Hamiltonian, |11>
    # the ground level, so their ergotropies are 1.6 and 0.
    assert abs(ergotropy(pure_state(0), h) - 1.6) < 1e-12
    assert ergotropy(pure_state(3), h) == 0.0
    assert ergotropy(DensityMatrix(np.eye(4) / 4.0), h) == 0.0


def test_extremal_energies_frozen_values():
    h = qubit_pair_hamiltonian(PAIR_053)
    assert extremal_energies(DensityMatrix(np.eye(4) / 4.0), h) == (0.0, 0.0)
    lo, hi = extremal_energies(werner(0.6), h)
    assert abs(lo + 0.48) < 1e-12 and abs(hi - 0.48) < 1e-12
    lo, hi = extremal_energies(DensityMatrix(np.diag([0.0, 0.2, 0.35, 0.45])), h)
    assert abs(lo + 0.39) < 1e-12 and abs(hi - 0.39) < 1e-12


def test_capacity_equals_energy_spread(rng):
    # capacity = (max - Tr[rho H]) + ergotropy for any state and Hamiltonian.
    for _ in range(100):
        rho = random_density(rng)
        energies = random_energies(rng)
        h = qubit_pair_hamiltonian(energies)
        lo, hi = extremal_energies(rho, h)
        mean_energy = float(np.trace(rho.matrix @ h.matrix).real)
        assert lo - 1e-10 <= mean_energy <= hi + 1e-10
        assert abs(capacity(rho, h) - (hi - lo)) < 1e-10
        assert abs(ergotropy(rho, h) - (mean_energy - lo)) < 1e-10


def test_capacity_unitary_invariance(rng):
    for _ in range(200):
        rho = random_density(rng)
        h = qubit_pair_hamiltonian(random_energies(rng))
        u = haar_unitary(4, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert abs(capacity(rotated, h) - capacity(rho, h)) < 1e-10


def test_permutation_unitaries_attain_extremes(rng):
    # Mapping the state eigenbasis onto the energy eigenbasis in ascending
    # (resp. reversed) order reaches the closed-form max (resp. min).
    for _ in range(200):
        rho = random_density(rng)
        h = qubit_pair_hamiltonian(random_energies(rng))
        lo, hi = extremal_energies(rho, h)
        u_max = h.basis @ rho.eigenvectors.conj().T
        u_min = h.basis[:, ::-1] @ rho.eigenvectors.conj().T
        reached_hi = float(np.trace(u_max @ rho.matrix @ u_max.conj().T @ h.matrix).real)
        reached_lo = float(np.trace(u_min @ rho.matrix @ u_min.conj().T @ h.matrix).real)
        assert abs(reached_hi - hi) < 1e-10
        assert abs(reached_lo - lo) < 1e-10


def test_haar_orbit_respects_bounds(rng):
    rho = random_density(rng)
    h = qubit_pair_hamiltonian(PAIR_053)
    lo, hi = extremal_energies(rho, h)
    for _ in range(10_000):
        u = haar_unitary(4, rng)
        energy = float(np.trace(u @ rho.matrix @ u.conj().T @ h.matrix).real)
        assert lo - 1e-10 <= energy <= hi + 1e-10


def test_capacity_decreases_under_mixing(rng):
    # Blending toward the maximally mixed state can only shrink the capacity.
    for _ in range(10):
        rho = random_density(rng)
        h = qubit_pair_hamiltonian(random_energies(rng))
        caps = []
        for p in np.linspace(0.0, 1.0, 50):
            blended = DensityMatrix((1.0 - p) * rho.matrix + p * np.eye(4) / 4.0)
            caps.append(capacity(blended, h))
        assert np.all(np.diff(caps) <= 1e-12)


def test_bell_diagonal_capacity_closed_form(rng):
    for _ in range(500):
        c = random_bell_triple(rng)
        energies = random_energies(rng)
        mags = sorted((abs(v) for v in c), reverse=True)
        expected = (mags[0] + mags[1]) * (energies.eps_a + energies.eps_b) + (mags[0] - mags[1]) * (
            energies.eps_a - energies.eps_b
        )
        got = capacity(bell_diagonal(*c), qubit_pair_hamiltonian(energies))
        assert abs(got - expected) < 1e-10

#!/usr/bin/env python3
"""Walk through the capacity functional on a two-qubit battery.

Capacity is the spread between the highest and lowest mean energies
reachable from a state by unitary control. It depends only on the state's
spectrum and the energy levels, so every unitary orbit shares one value.
This script computes it for a few standard states, checks it against
ergotropy and the extremal energies, and confirms the invariance claim
numerically.
"""

import numpy as np

from qbcap import (
    DensityMatrix,
    QubitPairEnergies,
    bell_diagonal,
    capacity,
    ergotropy,
    extremal_energies,
    haar_unitary,
    qubit_pair_hamiltonian,
    werner,
)

ENERGIES = QubitPairEnergies(eps_a=0.5, eps_b=0.3)


def show(label, rho, h):
    c = capacity(rho, h)
    w = ergotropy(rho, h)
    lo, hi = extremal_energies(rho, h)
    print(f"{label:<28s} capacity={c:.6f}  ergotropy={w:.6f}  energy range=[{lo:+.6f}, {hi:+.6f}]")
    return c


def main():
    h = qubit_pair_hamiltonian(ENERGIES)
    print("two-qubit level energies:", np.round(h.energies, 6))
    print()

    maximally_mixed = DensityMatrix(np.eye(4) / 4.0)
    singlet = werner(1.0)

    show("maximally mixed", maximally_mixed, h)
    show("singlet", singlet, h)
    show("werner a=0.5", werner(0.5), h)
    c = show("bell diag (0.3, 0.2, 0.4)", bell_diagonal(0.3, 0.2, 0.4), h)
    print()

    # The singlet is pure, so its orbit covers every pure-state energy:
    # capacity there equals the full spectral width of the Hamiltonian.
    width = h.energies[-1] - h.energies[0]
    print(f"singlet capacity equals Hamiltonian width {width:.6f}:",
          abs(capacity(singlet, h) - width) < 1e-12)

    # Unitary invariance: rotate a state and watch the capacity stay put.
    rng = np.random.default_rng(7)
    rho = bell_diagonal(0.3, 0.2, 0.4)
    drift = 0.0
    for _ in range(200):
        u = haar_unitary(4, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        drift = max(drift, abs(capacity(rotated, h) - c))
    print(f"max capacity drift over 200 random rotations: {drift:.2e}")

    # Capacity upper-bounds ergotropy minus anti-ergotropy by construction;
    # sampling the orbit shows every reachable energy inside the bracket.
    lo, hi = extremal_energies(rho, h)
    energies = []
    for _ in range(2000):
        u = haar_unitary(4, rng)
        energies.append(float(np.trace(u @ rho.matrix @ u.conj().T @ h.matrix).real))
    print(f"sampled orbit energies span [{min(energies):+.6f}, {max(energies):+.6f}]"
          f" inside [{lo:+.6f}, {hi:+.6f}]")


if __name__ == "__main__":
    main()

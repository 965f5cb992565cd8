#!/usr/bin/env python3
"""Measure one qubit of a correlated pair, then recombine the branches.

A rank-1 projective measurement on qubit B splits the pair state into
normalized outcome branches. Mixing those branches back together, either
uniformly or with chosen weights, gives the post-measurement battery
state. The gain report compares capacities before and after:

    big_f   = change for the whole pair
    small_f = change for qubit A alone

For correlation-diagonal states the uniform recipe can only lose whole-pair
capacity, while weighted mixing with enough bias can beat the original.
"""

import numpy as np

from qbcap import (
    MeasurementBasis,
    QubitPairEnergies,
    bell_diagonal,
    capacity_gain,
    final_state_uniform,
    final_state_weighted,
    measure_b,
)

np.set_printoptions(precision=4, suppress=True)

ENERGIES = QubitPairEnergies(eps_a=0.5, eps_b=0.3)
RHO = bell_diagonal(0.3, 0.2, 0.4)

basis = MeasurementBasis.computational()
ensemble = measure_b(RHO, basis)

print("state spectrum:", np.round(RHO.spectrum, 4))
print("outcome probabilities:", [round(p, 4) for p in ensemble.probabilities])
for k, branch in enumerate(ensemble.branches):
    print(f"branch {k} (diagonal):", np.round(np.diag(branch).real, 4))
print()

# Uniform recombination: each branch enters with weight 1/2.
uniform = final_state_uniform(ensemble)
print("uniform final state diagonal:", np.round(np.diag(uniform.matrix).real, 4))

report = capacity_gain(RHO, ENERGIES, basis=basis, scheme="uniform")
print(f"uniform:  c_before={report.c_before_total:.6f}  c_after={report.c_after_total:.6f}"
      f"  big_f={report.big_f:+.6f}  small_f={report.small_f:+.6f}")

# Weighted recombination: bias toward the first outcome. The dephasing
# weights mu_k = p_k reproduce the measured-and-forgotten state exactly.
weighted = final_state_weighted(ensemble, ensemble.probabilities)
print("\nweights = probabilities reproduces dephasing:",
      np.allclose(np.diag(weighted.matrix), np.diag(RHO.matrix), atol=1e-12))

for mu0 in (0.5, 0.6, 0.8, 0.95):
    report = capacity_gain(RHO, ENERGIES, basis=basis, scheme="weighted", weights=(mu0, 1.0 - mu0))
    print(f"weighted mu=({mu0:.2f}, {1 - mu0:.2f}):  big_f={report.big_f:+.6f}"
          f"  small_f={report.small_f:+.6f}")

# With |c3| = 0.4 the whole-pair gain turns positive once the weight bias
# mu0 - mu1 exceeds the sorted middle correlation magnitude, here 0.3.
print("\nbias needed here: mu0 - mu1 > 0.3, i.e. mu0 > 0.65")

# A rotated measurement direction changes the picture entirely.
tilted = MeasurementBasis.rotated(theta=np.pi / 4, phi=0.0)
report = capacity_gain(RHO, ENERGIES, basis=tilted, scheme="weighted", weights=(0.95, 0.05))
print(f"rotated basis, mu=(0.95, 0.05):  big_f={report.big_f:+.6f}  small_f={report.small_f:+.6f}")

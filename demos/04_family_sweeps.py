#!/usr/bin/env python3
"""Drive parameter sweeps through the library API.

The same machinery behind `qbcap sweep` is available in-process: build a
SweepSpec (or grab a figure preset), call run_sweep, and work with the
result's columns directly. Two stories below:

  * the mixed three-level family rho(x) where measuring qubit B always
    helps qubit A but stops helping at the product point x = 1/2, and
  * a biased-weights window where the whole pair gains as well.
"""

from qbcap import QubitPairEnergies, SweepSpec, figure_preset, run_sweep


def crossing(result, field):
    """First parameter value where gain `field` drops to zero or below."""
    below = result.gain(field) <= 1e-12
    return float(result.values[below.argmax()]) if below.any() else None


# Preset 1: uniform mixing, qubit A viewpoint. small_f starts at 1/6 of
# the level pair splitting over eps_a and decays to zero at x = 1/2.
spec = figure_preset("fig2")
result = run_sweep(spec)
small_f = result.gain("small_f")
print(f"family={spec.family}, scheme={spec.scheme}, {len(result.values)} points"
      f" on [{spec.start}, {spec.stop}]")
print(f"  small_f(0)      = {small_f[0]:.6f}  (eps_a/3 = {spec.energies.eps_a / 3:.6f})")
print(f"  small_f(0.25)   = {small_f[abs(result.values - 0.25) < 1e-12][0]:.6f}")
print(f"  small_f(0.5)    = {small_f[-1]:.2e}")
print(f"  first non-gain at x = {crossing(result, 'small_f')}")
print(f"  entangled everywhere below 1/2: {result.entangled[:-1].all()}")
print()

# Preset 2: weighted mixing with mu = (0.1, 0.9). Favoring the second
# outcome keeps the whole-pair gain positive on a narrow window in x.
spec = figure_preset("fig3")
big_f = run_sweep(spec).gain("big_f")
print(f"family={spec.family}, scheme={spec.scheme}, weights={spec.weights}")
print(f"  big_f range on window: [{big_f.min():.6f},"
      f" {big_f.max():.6f}]")
print(f"  big_f(0) = {big_f[0]:.6f}, big_f({spec.stop}) = {big_f[-1]:.6f}")
print()
# Custom spec: sweep the third correlation component of a Bell-diagonal
# state and watch both gains track |c3|.
spec = SweepSpec(
    family="bell_diagonal",
    param="c3",
    start=-0.5,
    stop=0.5,
    count=11,
    energies=QubitPairEnergies(eps_a=0.5, eps_b=0.3),
    scheme="weighted",
    weights=(0.8, 0.2),
    bell_diag=(0.1, 0.1, 0.0),
)
print("bell_diagonal sweep over c3 with base (0.1, 0.1, *), mu=(0.8, 0.2):")
print(f"{'c3':>6s} {'c_before':>10s} {'c_after':>10s} {'big_f':>10s} {'small_f':>10s}")
result = run_sweep(spec)
columns = [result.gain(name) for name in ("c_before_total", "c_after_total", "big_f", "small_f")]
for value, c_before, c_after, big_f, small_f in zip(result.values, *columns):
    print(f"{value:6.2f} {c_before:10.6f} {c_after:10.6f} {big_f:10.6f} {small_f:10.6f}")

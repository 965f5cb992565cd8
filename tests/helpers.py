"""Seeded samplers and the subprocess environment shared across the test modules."""

import os
from pathlib import Path

import numpy as np

from qbcap import DensityMatrix, MeasurementBasis, QubitPairEnergies, XStateParams

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env(extra=None):
    """Environment for a child Python: ``QBCAP_TOL`` unset, ``src`` first on PYTHONPATH, then ``extra``."""
    env = dict(os.environ)
    env.pop("QBCAP_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def random_density(rng, dim=4):
    """Full-rank random qubit (dim 2) or qubit-pair (dim 4) state from the normalized Ginibre square."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_bell_triple(rng):
    """Uniform triple from the admissible correlation tetrahedron, by rejection."""
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        lams = (
            (1 - c[0] - c[1] - c[2]) / 4,
            (1 - c[0] + c[1] + c[2]) / 4,
            (1 + c[0] - c[1] + c[2]) / 4,
            (1 + c[0] + c[1] - c[2]) / 4,
        )
        if all(0.0 <= lam <= 1.0 for lam in lams):
            return tuple(float(v) for v in c)


def random_energies(rng):
    """Valid splitting pair with eps_a >= eps_b >= 0 and eps_a bounded away from 0."""
    eps_a = rng.uniform(0.1, 1.0)
    eps_b = rng.uniform(0.0, eps_a)
    return QubitPairEnergies(eps_a=float(eps_a), eps_b=float(eps_b))


def random_x_params(rng, real_coherences=False):
    """Valid X-state parameters: Dirichlet populations, coherences inside the PSD disks."""
    pops = rng.dirichlet(np.ones(4))
    r14 = rng.uniform(0.0, 0.999) * np.sqrt(pops[0] * pops[3])
    r23 = rng.uniform(0.0, 0.999) * np.sqrt(pops[1] * pops[2])
    if real_coherences:
        ph14 = ph23 = 1.0
    else:
        ph14 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        ph23 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return XStateParams(
        rho11=float(pops[0]),
        rho22=float(pops[1]),
        rho33=float(pops[2]),
        rho44=float(pops[3]),
        rho14=complex(r14 * ph14),
        rho23=complex(r23 * ph23),
    )


def random_rotated_basis(rng):
    theta = float(rng.uniform(0.0, np.pi))
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    return MeasurementBasis.rotated(theta, phi)

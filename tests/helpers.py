"""Seeded samplers, the subprocess environment and the reference CLI parser shared across the test modules."""

import argparse
import ctypes
import os
from pathlib import Path

import numpy as np

from qbcap import DensityMatrix, MeasurementBasis, QubitPairEnergies, XStateParams
from qbcap import cli

SRC = Path(__file__).resolve().parent.parent / "src"
# The OpenBLAS kernel the byte pins (golden CLI digests, demo digests) were recorded under.
PINNED_KERNEL = "SkylakeX"


def blas_kernel():
    """The OpenBLAS kernel numpy's bundled scipy-openblas picked at run time, e.g. "SkylakeX" or "Haswell".

    None where that library or its ``scipy_openblas_get_corename64_`` symbol is missing.
    """
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


# Kernels that OpenBLAS reports under another name than the OPENBLAS_CORETYPE value that selects them: its generic
# core, selected by Prescott (or Core2), calls itself Katmai.
KERNEL_NAMES = {"Katmai": "Katmai (the generic core, OPENBLAS_CORETYPE=Prescott)"}


def kernel_note():
    """The kernel a byte-pin check ran under, by both its names where they differ, for its failure message."""
    kernel = blas_kernel()
    return f"ran under BLAS kernel {KERNEL_NAMES.get(kernel, kernel)}; the pins were recorded under {PINNED_KERNEL}"


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


def classical_quantum(conditionals, probabilities, basis):
    """sum_k p_k rho_k x P_k for 2x2 conditional states rho_k and the projectors P_k of ``basis``."""
    return sum(p * np.kron(rho, proj) for rho, p, proj in zip(conditionals, probabilities, basis.projectors))


def eigh_check_oracle(matrices, tol=1e-10):
    """The state check of every matrix by its full eigendecomposition, as qbcap ran it on measurement branches.

    Returns None if every matrix of the stack passes, else the message of the
    first failing one in stack order, its causes tried in the order non-finite,
    non-Hermitian, trace, lowest eigenvalue.
    """
    for m in matrices.reshape(-1, *matrices.shape[-2:]):
        if not np.isfinite(m).all():
            return "matrix contains non-finite entries"
        defect = np.abs(m - m.conj().T).max()
        if defect > tol:
            return f"matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}"
        if abs(np.trace(m) - 1.0) > tol:
            return f"trace = {np.trace(m).real:.12g}, expected 1 within {tol:g}"
        lowest = np.linalg.eigh(m)[0][0]
        if lowest < -tol:
            return f"negative eigenvalue {lowest:.3e} below -{tol:g}"
    return None


def family_matrix(family, value, bell_diag=None, param=None, x=None):
    """The family state at one grid value, built from its definition in plain numpy."""
    if family == "werner":
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        return value * np.outer(psi, psi) + (1.0 - value) / 4.0 * np.eye(4)
    if family == "example2":
        psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        return (np.diag([1.0 - value, 0.0, 0.0, value]) + 2.0 * np.outer(psi, psi)) / 3.0
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
    if family == "bell_diagonal":
        c = list(bell_diag)
        c[("c1", "c2", "c3").index(param)] = value
        return (np.eye(4) + sum(ck * np.kron(p, p) for ck, p in zip(c, paulis))) / 4.0
    m = np.diag([x.rho11, x.rho22, x.rho33, x.rho44]).astype(complex)
    m[0, 3], m[1, 2] = value * x.rho14, value * x.rho23
    return m + np.triu(m, 1).conj().T


def protocol_oracle(matrix, eps_a, eps_b, angles, weights):
    """Spectrum, the six gains and the PPT verdict of one state, without qbcap.

    The measured direction n has Bloch angles ``angles`` (None: the z axis);
    outcome k projects the second qubit on (I + (-1)^k n.sigma) / 2. Capacity
    is the highest minus the lowest energy over the unitary orbit: sorted
    levels against ascending, then descending, eigenvalues.
    """
    theta, phi = angles or (0.0, 0.0)
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
    n_sigma = sum(nk * p for nk, p in zip(n, paulis))
    branches = []
    for sign in (1.0, -1.0):
        op = np.kron(np.eye(2), (np.eye(2) + sign * n_sigma) / 2.0)
        unnormalized = op @ matrix @ op
        branches.append(unnormalized / np.trace(unnormalized).real)
    final = sum(w * b for w, b in zip(weights or (0.5, 0.5), branches))

    def capacity(m, levels):
        lam, eps = np.linalg.eigvalsh(m), np.sort(levels)
        return float(eps @ lam - eps @ lam[::-1])

    def first_qubit(m):
        return np.einsum("ijkj->ik", m.reshape(2, 2, 2, 2))

    pair = (eps_a + eps_b, eps_a - eps_b, eps_b - eps_a, -eps_a - eps_b)
    c_total = [capacity(m, pair) for m in (matrix, final)]
    c_a = [capacity(first_qubit(m), (eps_a, -eps_a)) for m in (matrix, final)]
    gains = (*c_total, *c_a, c_total[1] - c_total[0], c_a[1] - c_a[0])
    transposed = matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return np.linalg.eigvalsh(matrix), gains, bool(np.linalg.eigvalsh(transposed)[0] < -1e-10)


class ReferenceParser(argparse.ArgumentParser):
    """qbcap's parser class through public argparse alone: the help flag of ``add_help``, usage errors exiting
    64 as ``cli._Parser``'s do, and negative numbers in exponent notation read as values."""

    error = cli._Parser.error

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = cli.NEGATIVE_NUMBER


def add_reference_arguments(parser, name):
    """The flags of subcommand ``name``, from its ``cli.SUBCOMMANDS`` entry, added by ``add_argument``; returns ``parser``."""
    _, _, sources, flags = cli.SUBCOMMANDS[name]
    if sources:
        group = parser.add_mutually_exclusive_group(required=True)
        for option, keywords in sources.items():
            group.add_argument(option, **keywords)
    for option, keywords in flags.items():
        parser.add_argument(option, **keywords)
    return parser


def reference_parser():
    """The whole qbcap parser, every subcommand built, by public argparse calls on the ``cli.SUBCOMMANDS`` table.

    Its parsers wrap help to the width argparse's own ``HelpFormatter`` reads
    from the terminal, and ``add_subparsers`` computes the subcommands' prog.
    """
    parser = ReferenceParser(prog="qbcap", description=cli.build_parser([]).description)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in cli.SUBCOMMANDS.items():
        add_reference_arguments(subs.add_parser(name, help=help_text), name)
    return parser

"""Plain-numpy reference for the values qbcap prints.

Nothing here imports qbcap. States are built from their definitions, and the
measure-and-mix protocol is evaluated on stacks of 4x4 matrices with the
capacity C(rho, H) = sum_i eps_i (lam_i - lam_{d-1-i}) of Yang et al.,
PRL 131, 030402 (2023). The first-qubit capacity uses the closed form
2 eps_a (lam_1 - lam_0) of a 2x2 state instead of an eigensolver.
"""

from __future__ import annotations

import numpy as np

# Columns of a sweep table, in CSV order after the swept parameter.
FIELDS = (
    "lambda0",
    "lambda1",
    "lambda2",
    "lambda3",
    "c_before_total",
    "c_after_total",
    "c_before_a",
    "c_after_a",
    "big_f",
    "small_f",
)

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def werner(a) -> np.ndarray:
    """a |psi-><psi-| + (1 - a) I / 4 for each a."""
    a = np.asarray(a, dtype=float).reshape(-1, 1, 1)
    return a * np.outer(_SINGLET, _SINGLET) + (1.0 - a) / 4.0 * np.eye(4)


def bell_diagonal(c1, c2, c3) -> np.ndarray:
    """(I + c1 XX + c2 YY + c3 ZZ) / 4 for each broadcast triple."""
    c = np.stack(np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (c1, c2, c3))), axis=-1)
    corr = np.stack([np.kron(p, p) for p in _PAULI])
    return (np.eye(4) + np.einsum("nk,kij->nij", c, corr)) / 4.0


def example2(x) -> np.ndarray:
    """((1-x)|00><00| + 2|psi+><psi+| + x|11><11|) / 3 for each x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = np.zeros((x.size, 4, 4), dtype=complex)
    m[:, 0, 0] = (1.0 - x) / 3.0
    m[:, 1, 1] = m[:, 2, 2] = m[:, 1, 2] = m[:, 2, 1] = 1.0 / 3.0
    m[:, 3, 3] = x / 3.0
    return m


def x_state(params: dict, scale) -> np.ndarray:
    """X-shaped state from JSON-style params, both coherences multiplied by each scale."""
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    rho14 = complex(*params["rho14"]) * scale
    rho23 = complex(*params["rho23"]) * scale
    m = np.zeros((scale.size, 4, 4), dtype=complex)
    for k, key in enumerate(("rho11", "rho22", "rho33", "rho44")):
        m[:, k, k] = params[key]
    m[:, 0, 3], m[:, 3, 0] = rho14, rho14.conj()
    m[:, 1, 2], m[:, 2, 1] = rho23, rho23.conj()
    return m


def projectors(basis) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors on the second qubit: "computational" or {"theta", "phi"}."""
    if basis == "computational":
        return np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    c, s = np.cos(basis["theta"] / 2.0), np.sin(basis["theta"] / 2.0)
    v0 = np.array([c, s * np.exp(1j * basis["phi"])])
    v1 = np.array([-s * np.exp(-1j * basis["phi"]), c])
    return np.outer(v0, v0.conj()), np.outer(v1, v1.conj())


def _spectrum(m: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.eigvalsh(m), 0.0)


def protocol(rho: np.ndarray, eps_a: float, eps_b: float, basis, weights) -> tuple[np.ndarray, np.ndarray]:
    """Expected table (N, len(FIELDS)) and the smallest partial-transpose eigenvalue per state.

    ``weights`` is None for the uniform branch average.
    """
    levels = np.array([-eps_a - eps_b, -eps_a + eps_b, eps_a - eps_b, eps_a + eps_b])

    def c_total(m):
        lam = _spectrum(m)
        return (lam - lam[:, ::-1]) @ levels

    def c_a(m):
        ra = np.einsum("nabcb->nac", m.reshape(-1, 2, 2, 2, 2))
        return 2.0 * eps_a * np.hypot(ra[:, 0, 0].real - ra[:, 1, 1].real, 2.0 * np.abs(ra[:, 0, 1]))

    branches = []
    for p in projectors(basis):
        op = np.kron(_I2, p)
        unnormalized = op @ rho @ op
        prob = np.trace(unnormalized, axis1=1, axis2=2).real
        branches.append(unnormalized / prob[:, None, None])
    if weights is None:
        final = sum(branches) / len(branches)
    else:
        final = sum(w * b for w, b in zip(weights, branches))
    before_t, after_t, before_a, after_a = c_total(rho), c_total(final), c_a(rho), c_a(final)
    table = np.column_stack(
        [_spectrum(rho), before_t, after_t, before_a, after_a, after_t - before_t, after_a - before_a]
    )
    transposed = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return table, np.linalg.eigvalsh(transposed)[:, 0]


def sweep(spec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid, expected table and partial-transpose minima of a sweep given as a JSON-style spec."""
    grid = np.linspace(spec["start"], spec["stop"], spec["count"])
    family = spec["family"]
    if family == "werner":
        rho = werner(grid)
    elif family == "example2":
        rho = example2(grid)
    elif family == "bell_diagonal":
        triple = [np.full_like(grid, c) for c in spec["bell_diag"]]
        triple[("c1", "c2", "c3").index(spec["param"])] = grid
        rho = bell_diagonal(*triple)
    elif family == "x_state":
        rho = x_state(spec["x_state"], grid)
    else:
        raise ValueError(f"no reference for family {family!r}")
    table, ppt_min = protocol(rho, spec["eps_a"], spec["eps_b"], spec["basis"], spec.get("weights"))
    return grid, table, ppt_min

"""Centralized numerical tolerances.

VALIDATION_TOL      Default validation tolerance: unit trace, positivity, probability closure, Bell triples.
RECONSTRUCTION_TOL  Round-off allowance: eigendecomposition round trip, branch residue, closed forms, identities.
NEGLIGIBLE          Weight sums, Pauli expectation bounds, round-off clamps.
ZERO_PROBABILITY    Measurement branches below it are flagged instead of normalized.
PPT_NEG_TOL         A partial-transpose eigenvalue below minus it counts as negative.

The validation tolerance is the one settable value, passed as ``tol``: a
validated state keeps it and checks every state derived from it at it.
Hermiticity follows it too: the state screen bounds max |m - m^dagger| by
it, and no later check counts the defect again, since an eigendecomposition
is checked against the lower triangle that LAPACK reads and a measurement
branch by its Hermitian part.
"""

VALIDATION_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-11
NEGLIGIBLE = 1e-12
ZERO_PROBABILITY = NEGLIGIBLE
PPT_NEG_TOL = 1e-10


def checked_tol(tol: float) -> float:
    """``tol`` as a float if it is finite, above 0 and below 1, as a validation tolerance must be; else a ValueError."""
    if not 0.0 < tol < 1.0:  # false for NaN too
        raise ValueError(f"validation tolerance must be finite, above 0 and below 1, got {tol}")
    return float(tol)

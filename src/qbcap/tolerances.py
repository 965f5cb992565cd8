"""Centralized numerical tolerances.

VALIDATION_TOL      Default validation tolerance: unit trace, positivity, probability closure, Bell triples.
RECONSTRUCTION_TOL  Eigendecomposition round-trip bound and entrywise identities.
NEGLIGIBLE          Weight sums, X-state checks, round-off clamps.
ZERO_PROBABILITY    Measurement branches below it are flagged instead of normalized.
PPT_NEG_TOL         A partial-transpose eigenvalue below minus it counts as negative.

The validation tolerance is the one settable value, passed as ``tol``: a
validated state keeps it and checks every state derived from it at it.
Hermiticity follows it only nominally, since the eigendecomposition bound
takes the whole matrix: a defect above RECONSTRUCTION_TOL always raises.
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

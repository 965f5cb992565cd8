"""Centralized numerical tolerances.

VALIDATION_TOL      Hermiticity, unit trace and positivity checks.
RECONSTRUCTION_TOL  Eigendecomposition round-trip bound and entrywise identities.
NEGLIGIBLE          Weight sums, X-state checks, round-off clamps.
ZERO_PROBABILITY    Measurement branches below it are flagged instead of normalized.
PPT_NEG_TOL         A partial-transpose eigenvalue below minus it counts as negative.

The validation tolerance can be overridden at runtime (the command-line tool
does this from the QBCAP_TOL environment variable); the others are fixed.
"""

VALIDATION_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-11
NEGLIGIBLE = 1e-12
ZERO_PROBABILITY = NEGLIGIBLE
PPT_NEG_TOL = 1e-10

_active_validation_tol = VALIDATION_TOL


def validation_tol() -> float:
    """Validation tolerance currently in effect."""
    return _active_validation_tol


def set_validation_tol(tol: float) -> None:
    """Override the validation tolerance for subsequent state checks."""
    global _active_validation_tol
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    _active_validation_tol = float(tol)

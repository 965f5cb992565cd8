"""Centralized numerical tolerances.

VALIDATION_TOL      Hermiticity, unit trace and positivity checks.
RECONSTRUCTION_TOL  Eigendecomposition round-trip bound and entrywise identities.
NEGLIGIBLE          Zero-probability branches, weight sums, round-off clamps.

The validation tolerance can be overridden at runtime (the command-line tool
does this from the QBCAP_TOL environment variable); the other two are fixed.
"""

VALIDATION_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-11
NEGLIGIBLE = 1e-12

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

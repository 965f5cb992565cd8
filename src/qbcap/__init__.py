"""Battery capacity of two-qubit states under local projective measurements.

The package provides validated density matrices for the common two-qubit
families, the spectrum-pairing capacity and ergotropy functionals for
non-interacting qubit pairs, and the measure-and-mix protocol that compares
capacities before and after a rank-1 projective measurement on the second
qubit. A small CLI (``qbcap``) exposes the same operations and two bundled
parameter studies.
"""

from .battery import (
    Hamiltonian,
    QubitPairEnergies,
    capacity,
    ergotropy,
    extremal_energies,
    qubit_pair_hamiltonian,
    subsystem_a_hamiltonian,
)
from .errors import InvalidStateError, NumericError, UndefinedAverageError
from .linalg import IDENTITY_2, PAULIS, SIGMA_1, SIGMA_2, SIGMA_3, eigh, haar_unitary
from .measurement import (
    Branch,
    CapacityGainReport,
    MeasurementBasis,
    MeasurementEnsemble,
    MixingWeights,
    capacity_gain,
    final_state_uniform,
    final_state_weighted,
    measure_b,
)
from .states import (
    BlochCoefficients,
    DensityMatrix,
    XStateParams,
    bell_diagonal,
    bloch_coefficients,
    example2,
    is_entangled,
    werner,
    x_state,
)
from .sweep import SweepRow, SweepSpec, figure_preset, rows_to_json, run_sweep, write_csv
from .tolerances import NEGLIGIBLE, RECONSTRUCTION_TOL, VALIDATION_TOL, set_validation_tol, validation_tol

__version__ = "0.1.0"

__all__ = [
    "BlochCoefficients",
    "Branch",
    "CapacityGainReport",
    "DensityMatrix",
    "Hamiltonian",
    "IDENTITY_2",
    "InvalidStateError",
    "MeasurementBasis",
    "MeasurementEnsemble",
    "MixingWeights",
    "NEGLIGIBLE",
    "NumericError",
    "PAULIS",
    "QubitPairEnergies",
    "RECONSTRUCTION_TOL",
    "SIGMA_1",
    "SIGMA_2",
    "SIGMA_3",
    "SweepRow",
    "SweepSpec",
    "UndefinedAverageError",
    "VALIDATION_TOL",
    "XStateParams",
    "bell_diagonal",
    "bloch_coefficients",
    "capacity",
    "capacity_gain",
    "eigh",
    "ergotropy",
    "example2",
    "extremal_energies",
    "figure_preset",
    "final_state_uniform",
    "final_state_weighted",
    "haar_unitary",
    "is_entangled",
    "measure_b",
    "qubit_pair_hamiltonian",
    "rows_to_json",
    "run_sweep",
    "set_validation_tol",
    "subsystem_a_hamiltonian",
    "validation_tol",
    "werner",
    "write_csv",
    "x_state",
]

"""Battery capacity of two-qubit states under local projective measurements.

The package provides validated density matrices for the common two-qubit
families, the spectrum-pairing capacity and ergotropy functionals for
non-interacting qubit pairs, and the measure-and-mix protocol that compares
capacities before and after a rank-1 projective measurement on the second
qubit. A small CLI (``qbcap``) exposes the same operations and two bundled
parameter studies.
"""

from types import ModuleType as _ModuleType

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
    CapacityGainReport,
    MeasurementBasis,
    MeasurementEnsemble,
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
from .sweep import SweepResult, SweepSpec, figure_preset, rows_to_json, run_sweep, write_csv, write_json
from .tolerances import NEGLIGIBLE, RECONSTRUCTION_TOL, VALIDATION_TOL

__version__ = "0.1.0"

# The public API is exactly the names imported above.
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))

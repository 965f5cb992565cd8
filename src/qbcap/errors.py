"""Exception types shared across the package, and the rule that picks the failure a stacked check reports."""

import numpy as np


class InvalidStateError(ValueError):
    """Raised when a matrix or parameter set fails density-matrix validation."""


class NumericError(ArithmeticError):
    """Raised when a numerical guarantee is violated beyond round-off."""


class UndefinedAverageError(ValueError):
    """Raised when the unweighted branch average would divide by a vanishing probability."""


def raise_first(bad, error) -> None:
    """Raise ``error(*index)`` for the first set entry of the boolean mask ``bad`` in C order; a 0-d mask passes ``()``."""
    if bad.any():
        raise error(*np.unravel_index(np.argmax(bad), bad.shape))


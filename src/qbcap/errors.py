"""Exception types shared across the package, and the rules that pick the failure a stacked check reports."""

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


def first_failure(table: np.ndarray, stage_ends) -> tuple[int, int]:
    """(point, column) of the failure an (N, K) boolean check table with a set entry reports.

    The table has a row per point of a stack and a column per entry of a
    check, checks in order of precedence; ``stage_ends`` end the columns of
    its stages, which are raised in order. Of the first stage with a set
    entry, that is the first point in stack order that fails any of its
    columns, and its first set column there.
    """
    start = 0
    for end in stage_ends:
        if (stage := table[:, start:end]).any():
            point = int(np.argmax(stage.any(axis=1)))
            return point, start + int(np.argmax(stage[point]))
        start = end

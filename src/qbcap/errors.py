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


def raise_first_point(*checks) -> None:
    """Raise for the first point that fails any of ``checks``: the error of the first check it fails.

    ``checks`` are ``raise_first``'s (bad, error) pairs in their order of precedence within a point; every mask
    has the points along its first axis. The error raised is that of the failing check's first set entry of
    the point, in C order.
    """
    bad = np.concatenate([mask.reshape(len(mask), -1) for mask, _ in checks], axis=1)
    if bad.any():
        point = int(np.argmax(bad.any(axis=1)))
        for mask, error in checks:
            raise_first(mask[point], lambda *i: error(point, *i))

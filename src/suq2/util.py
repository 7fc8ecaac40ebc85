"""Small numerical helpers shared across modules."""

import numpy as np


def max_abs(m) -> float:
    """Max-absolute-entry norm, 0.0 when empty; the residual norm used everywhere here."""
    return float(np.max(np.abs(np.asarray(m)), initial=0.0))


def worst(values) -> float:
    """Largest of an iterable of residuals, 0.0 when it is empty.

    NaN and inf propagate from any position, unlike Python's ``max``,
    which keeps its first argument against a NaN; this is the one fold
    every residual of the package goes through.
    """
    return float(np.max(np.fromiter(values, float), initial=0.0))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, the same single products, as one
    broadcast product without the general-rank wrapper that costs more
    than the small products made here."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` with writes disabled; for arrays a cache hands to every
    caller, so that an in-place edit raises instead of corrupting later
    results."""
    array.flags.writeable = False
    return array


def weights(two_n: int) -> np.ndarray:
    """Doubled weights of the spin-(two_n/2) module, highest first.

    ``weights(3) == [3, 1, -1, -3]``; the basis of every representation in
    this package is ordered the same way (j = n down to j = -n).
    """
    if not isinstance(two_n, (int, np.integer)) or two_n < 0:
        raise ValueError(f"doubled spin must be a nonnegative integer, got {two_n!r}")
    return np.arange(two_n, -two_n - 1, -2, dtype=int)


def weight_index(two_n: int, two_j: int) -> int:
    """Basis position of weight two_j inside the spin-(two_n/2) module."""
    if (two_n - two_j) % 2 != 0 or abs(two_j) > two_n:
        raise ValueError(f"weight {two_j} does not occur in the spin module {two_n}")
    return (two_n - two_j) // 2


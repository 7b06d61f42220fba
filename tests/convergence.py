"""Test oracle: the observed convergence order of an error sequence."""
import numpy as np


def convergence_slope(levels, errors) -> float:
    """Least-squares slope of log2(error) against refinement level.

    Positive values mean error decays as h^slope with h = 2^-level.
    """
    levels = np.asarray(levels, dtype=float)
    errors = np.asarray(errors, dtype=float)
    # error ~ C * h^s = C * 2^(-level * s): regress log2(err) on -level
    coeffs = np.polyfit(-levels, np.log2(errors), 1)
    return float(coeffs[0])

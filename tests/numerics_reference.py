"""Independent references for the numerics and operator tests.

``finite_diff_jacobian`` is the central-difference Jacobian that the
analytic ``Operator.jacobian`` of every operator is checked against.
"""

import numpy as np

from vicert.numerics import as_vector


def finite_diff_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian: column j is ``(f(x+h e_j) - f(x-h e_j)) / (2h)``."""
    x = as_vector(x)
    h = 1e-6 * (1.0 + float(np.abs(x).max(initial=0.0)))
    cols = []
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        hi = np.asarray(f(x + step), dtype=np.float64)
        lo = np.asarray(f(x - step), dtype=np.float64)
        cols.append((hi - lo) / (2.0 * h))
    return np.array(cols).T

"""Finite-difference stencils on uniform grids.

Interior points use the 4th-order central stencil; the two points at each
end fall back to one-sided stencils (2nd or 4th order, caller's choice).
"""
from __future__ import annotations

import numpy as np


def diff_uniform(y: np.ndarray, h: float, edge_order: int = 2) -> np.ndarray:
    """First derivative of samples on a uniform grid with spacing h.

    Works along axis 0, so y may be (n,) or (n, k).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 5:
        raise ValueError("diff_uniform needs at least 5 samples")
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    if edge_order == 2:
        for i in (0, 1):
            out[i] = (-3.0 * y[i] + 4.0 * y[i + 1] - y[i + 2]) / (2.0 * h)
        for i in (n - 2, n - 1):
            out[i] = (3.0 * y[i] - 4.0 * y[i - 1] + y[i - 2]) / (2.0 * h)
    elif edge_order == 4:
        for i in (0, 1):
            out[i] = (-25.0 * y[i] + 48.0 * y[i + 1] - 36.0 * y[i + 2]
                      + 16.0 * y[i + 3] - 3.0 * y[i + 4]) / (12.0 * h)
        for i in (n - 2, n - 1):
            out[i] = (25.0 * y[i] - 48.0 * y[i - 1] + 36.0 * y[i - 2]
                      - 16.0 * y[i - 3] + 3.0 * y[i - 4]) / (12.0 * h)
    else:
        raise ValueError("edge_order must be 2 or 4")
    return out


def check_uniform(s: np.ndarray) -> float:
    """Return the grid spacing h, raising if a step is off h by > 2e-9 |h|."""
    s = np.asarray(s, dtype=float)
    d = np.diff(s)
    h = float(d[0])
    if not np.allclose(d, h, rtol=1e-9, atol=abs(h) * 1e-9):
        raise ValueError("sample grid is not uniform")
    return h

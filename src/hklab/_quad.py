"""The one quadrature rule of the package: Gauss-Legendre on [0, 1], which
the edge rules of the kernel and trace modules and the first-exit time
integral scale to their intervals."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre on [0, 1], read-only."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    x, w = 0.5 * x + 0.5, 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w

"""Quadrature helpers shared by the kernel and trace modules."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .graph import _check_time


def simpson_nodes(length: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson on [0, length] with ~step spacing."""
    _check_time(step, "step")
    n = max(2, int(math.ceil(length / step)))
    n += n % 2
    w = np.ones(n + 1)  # 1, 4, 2, ..., 4, 1
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= length / (3.0 * n)
    return np.linspace(0.0, length, n + 1), w


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre on [0, 1], read-only."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    x, w = 0.5 * x + 0.5, 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w

"""Composite quadrature helpers shared by the kernel and trace modules."""

from __future__ import annotations

import math

import numpy as np

from .graph import _check_time


def simpson_nodes(length: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson on [0, length] with ~step spacing."""
    _check_time(step, "step")
    n = max(2, int(math.ceil(length / step)))
    if n % 2:
        n += 1
    s = np.linspace(0.0, length, n + 1)
    w = simpson_weights(n)
    w *= length / (3.0 * n)
    return s, w


def simpson_weights(n: int) -> np.ndarray:
    """Unscaled composite Simpson weights 1, 4, 2, ..., 4, 1 on n (even) intervals."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


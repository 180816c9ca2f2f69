"""Reference root search by bisection alone, for the tests of ``spectral.eigen``.

``phase_count`` is the exact eigenphase count N(k) read off
``eigenphases``, the eigenvalues of U(k) = sigma e^{ikL} by the general
complex eigensolver (LAPACK ZGEEV), not by the Cayley transform ``eigen``
counts with.  ``bisect_roots`` brackets the
roots of the secular equation with it and bisects every bracket over which N
jumps, all at once, until it is 1e-13 relative wide: about fifty rounds of
the count, where ``eigen`` hands each bracket to Newton once it is isolated.
It is slow, and ``eigen``'s roots are checked against it.
"""

from __future__ import annotations

import math

import numpy as np

from hklab.graph import MetricGraph
from hklab.spectral import _bond_unitary, _count


def eigenphases(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """The eigenphases in [0, 2pi) of U(k) by ZGEEV, one row per k of ks."""
    return np.angle(np.linalg.eigvals(_bond_unitary(g, ks))) % (2.0 * math.pi)


def phase_count(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """``spectral._count`` at each k of ks from the ZGEEV eigenphases."""
    return _count(g, ks, eigenphases(g, ks))


def bisect_roots(g: MetricGraph, k_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, m): the distinct roots in (0, k_max] and their multiplicities.

    Each root is the midpoint of its bracket and m is the jump of N across
    it.  A run of adjacent jumping brackets is one root, at the midpoint of
    the run with the summed jump: rounding can pull the eigenphases of a
    multiple root apart by less than a bracket.
    """
    k_lo = min(k_max, math.pi / (4.0 * g.total_length))
    base, top = phase_count(g, np.array([k_lo, k_max]))
    ks, ns = np.array([k_lo, k_max]), np.array([0, round(top - base)])
    while True:
        jump = np.diff(ns) > 0
        wide = np.flatnonzero(jump & (np.diff(ks) > 1e-13 * ks[1:]))
        if not wide.size:
            break
        mid = 0.5 * (ks[wide] + ks[wide + 1])
        ks = np.insert(ks, wide + 1, mid)
        ns = np.insert(ns, wide + 1, np.rint(phase_count(g, mid) - base).astype(int))
    roots, mult = [], []
    starts = np.flatnonzero(jump & ~np.r_[False, jump[:-1]])
    stops = np.flatnonzero(jump & ~np.r_[jump[1:], False]) + 1
    for lo, hi in zip(starts, stops):
        roots.append(0.5 * (ks[lo] + ks[hi]))
        mult.append(int(ns[hi] - ns[lo]))
    return np.array(roots), np.array(mult, dtype=int)

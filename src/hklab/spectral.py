"""Eigenvalues and eigenfunctions of the graph Laplacian; spectral heat kernel.

Roots k of the secular equation are counted exactly, with multiplicity, by
the eigenphases of the bond-scattering matrix U(k) = sigma e^{ikL}; bisection
on that count brackets every root, its jump gives the multiplicity, and the
modes come from the null space of I - U(k)^T at the root.

``eigen`` returns a ``ModeTable``: the frequencies and per-edge coefficients
of every mode as read-only arrays.  The vertex check, the eigen report, the
traces and ``kernel_spectral`` all read those arrays.
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from .graph import DIRICHLET, GraphError, GraphPoint, MetricGraph, _bond_table, _check_time
from .kernels import KernelEval, TruncationError


class ModeTable:
    """The modes of one graph, as read-only arrays.

    On edge e mode m is A cos(k s) + B sin(k s), s the arclength from the
    u-endpoint; for k = 0 it is affine, A + B s.  ``k`` holds the
    frequencies, shape (M,), and ``k_max`` the largest (0 without modes);
    ``coef[m, i]`` is the (A, B) of mode m on edge i of ``g.edges``, shape
    (M, E, 2); ``col`` maps an edge id to i; ``graph`` is g.
    """

    def __init__(self, g: MetricGraph, k, coef):
        self.graph = g
        self.col = {e.id: i for i, e in enumerate(g.edges)}
        self.k = np.array(k, dtype=float)
        self.k_max = float(self.k.max(initial=0.0))
        self.coef = np.array(coef, dtype=float).reshape(len(self.k), len(g.edges), 2)
        # per edge and mode: the cos and sin coefficients, and the slope of
        # the affine k = 0 modes, shape (E, 3, M)
        a, b = self.coef.T
        affine = self.k == 0.0
        self._basis = np.stack([a, np.where(affine, 0.0, b), np.where(affine, b, 0.0)],
                               axis=1)
        for arr in (self.k, self.coef, self._basis):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.k)

    def __reduce__(self):
        return ModeTable, (self.graph, self.k, self.coef)

    def at(self, edges, s: np.ndarray) -> np.ndarray:
        """Every mode at the points (edges[j], s[j]), shape (len(s), M)."""
        try:
            rows = self._basis[[self.col[eid] for eid in edges]]
        except KeyError as exc:
            raise GraphError(f"mode table has no edge {exc.args[0]!r}") from None
        ks = np.multiply.outer(s, self.k)
        return rows[:, 0] * np.cos(ks) + rows[:, 1] * np.sin(ks) + rows[:, 2] * s[:, None]


# -- the modes of one root ------------------------------------------------------


def _norm_matrix(g: MetricGraph, k: float) -> np.ndarray:
    """Gram matrix of the per-edge (cos, sin) basis in L2(G) (block diagonal)."""
    m = 2 * len(g.edges)
    gram = np.zeros((m, m))
    for i, e in enumerate(g.edges):
        ell = e.length
        if k == 0.0:
            icc, iss, ics = ell, ell**3 / 3.0, ell**2 / 2.0  # basis (1, s)
        else:
            icc = ell / 2.0 + math.sin(2 * k * ell) / (4 * k)
            iss = ell / 2.0 - math.sin(2 * k * ell) / (4 * k)
            ics = math.sin(k * ell) ** 2 / (2 * k)
        gram[2 * i, 2 * i] = icc
        gram[2 * i + 1, 2 * i + 1] = iss
        gram[2 * i, 2 * i + 1] = gram[2 * i + 1, 2 * i] = ics
    return gram


def _null_modes(g: MetricGraph, k: float, m: int) -> np.ndarray:
    """Coefficient rows of the m modes of a root k of multiplicity m,
    orthonormal in L2(G), shape (m, 2E) with (A, B) per edge.

    The incoming bond amplitudes of a mode satisfy a = U(k)^T a, so the m
    smallest right-singular vectors of I - U(k)^T, conjugated, span them.  On
    edge i the mode is alpha e^{iks} + beta e^{-iks} with beta = a[2i], coming
    in at s = 0, and alpha = a[2i+1] e^{-ik l_i}, coming in at s = l_i; so
    A = alpha + beta and B = i(alpha - beta).  The real and imaginary parts of
    these rows span the real modes; the Gram matrix of _norm_matrix
    orthonormalizes them, keeping its m largest eigenvalues.
    """
    n = 2 * len(g.edges)
    a = np.linalg.svd(np.eye(n) - _bond_unitary(g, np.array([k]))[0].T)[2][-m:].conj()
    beta = a[:, 0::2]
    alpha = a[:, 1::2] * np.exp(-1j * k * np.array([e.length for e in g.edges]))
    coef = np.stack([alpha + beta, 1j * (alpha - beta)], axis=2).reshape(m, n)
    rows = np.concatenate([coef.real, coef.imag])
    evals, evecs = np.linalg.eigh(rows @ _norm_matrix(g, k) @ rows.T)
    return (evecs[:, -m:] / np.sqrt(evals[-m:])).T @ rows


def _constant_modes(g: MetricGraph) -> np.ndarray:
    """Coefficient rows, shape (c, 2E), of one k = 0 mode per connected
    component without a Dirichlet vertex."""
    dvv = g.vertex_distances()
    comps: list[set[str]] = []
    for v in g.vertices:
        for comp in comps:
            if dvv[(v.id, next(iter(comp)))] < math.inf:
                comp.add(v.id)
                break
        else:
            comps.append({v.id})
    rows = []
    for comp in comps:
        if any(g.condition(vid) == DIRICHLET for vid in comp):
            continue
        vol = sum(e.length for e in g.edges if e.u in comp)
        amp = 1.0 / math.sqrt(vol)
        rows.append([x for e in g.edges for x in (amp if e.u in comp else 0.0, 0.0)])
    return np.array(rows, dtype=float).reshape(len(rows), 2 * len(g.edges))


# eigen refuses a k_max whose Weyl count L k_max / pi is above this many modes
_MAX_MODES = 100_000
# matrix entries per stack of bond-scattering matrices (32 MiB of complex)
_STACK = 2**21


def _bond_unitary(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """The bond-scattering matrices U(k) = sigma e^{ikL} on ``graph._bond_table``,
    one per k of a stack, shape (len(ks), 2E, 2E)."""
    rows, cols, sigma, lengths = _bond_table(g)
    n = 2 * len(g.edges)
    u = np.zeros((ks.size, n, n), dtype=complex)
    u[:, rows, cols] = sigma * np.exp(1j * np.outer(ks, lengths))
    return u


def _phase_count(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """(k sum_b L_b - sum_j theta_j(k)) / 2pi for each k of a stack.

    theta_j in [0, 2pi) are the eigenphases of the bond-scattering matrix U(k)
    (``_bond_unitary``).  U is unitary and det U turns as e^{ik sum_b L_b} with
    sum_b L_b twice the total length, while each eigenphase turns forward; so
    this is an integer plus a constant, and it steps up by m where m
    eigenphases pass through 0: at a root k of multiplicity m (Kottos &
    Smilansky, Ann. Phys. 274, 1999).
    """
    n = 2 * len(g.edges)
    chunks = np.array_split(ks, -(-ks.size * n * n // _STACK))
    phases = [np.angle(np.linalg.eigvals(_bond_unitary(g, c))) % (2.0 * math.pi) for c in chunks]
    return (2.0 * g.total_length * ks - np.concatenate(phases).sum(axis=1)) / (2.0 * math.pi)


def eigen(g: MetricGraph, k_max: float) -> ModeTable:
    """All modes with frequency k <= k_max, orthonormal in L2(G).

    N(k), the number of roots in (0, k] with multiplicity, is counted exactly
    by ``_phase_count`` from k_lo = pi/4L, below every positive root (the
    first eigenvalue is at least (pi/2L)^2, Nicaise 1987).  Every bracket of
    (k_lo, k_max] over which N jumps is bisected, all at once, until it is
    1e-13 relative wide; its midpoint is one distinct root and the jump is its
    multiplicity.  Adjacent jumping brackets are merged into one root, at the
    midpoint of their span with their summed jump: rounding can pull the
    eigenphases of a multiple root apart by less than a bracket, and the
    brackets' separate null spaces would then give modes that are not
    orthogonal.  The modes found must number N(k_max) plus the constant
    modes, and each must meet every vertex condition (``vertex_residuals``
    within 1e-10 for the value and 1e-8 for the flux), or ``GraphError`` is
    raised.
    """
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be finite and positive")
    weyl = g.total_length * k_max / math.pi
    if weyl > _MAX_MODES:
        raise ValueError(
            f"k_max={k_max:g} asks for about {weyl:.3g} modes, above {_MAX_MODES}"
        )
    k_lo = min(k_max, math.pi / (4.0 * g.total_length))
    base, top = _phase_count(g, np.array([k_lo, k_max]))
    ks, ns = np.array([k_lo, k_max]), np.array([0, round(top - base)])
    while True:
        jump = np.diff(ns) > 0
        wide = np.flatnonzero(jump & (np.diff(ks) > 1e-13 * ks[1:]))
        if not wide.size:
            break
        mid = 0.5 * (ks[wide] + ks[wide + 1])
        ks = np.insert(ks, wide + 1, mid)
        ns = np.insert(ns, wide + 1, np.rint(_phase_count(g, mid) - base).astype(int))
    rows = [_constant_modes(g)]
    freqs = [0.0] * len(rows[0])
    # a run of adjacent jumping brackets is one root that rounding split
    starts = np.flatnonzero(jump & ~np.r_[False, jump[:-1]])
    stops = np.flatnonzero(jump & ~np.r_[jump[1:], False]) + 1
    for lo, hi in zip(starts, stops):
        k = 0.5 * (ks[lo] + ks[hi])
        rows.append(_null_modes(g, k, int(ns[hi] - ns[lo])))
        freqs += [k] * len(rows[-1])
    expected = ns[-1] + len(rows[0])
    if len(freqs) != expected:
        raise GraphError(
            f"found {len(freqs)} modes up to k={k_max:g}, exact count {expected}"
        )
    modes = ModeTable(g, freqs, np.concatenate(rows))
    value, flux = vertex_residuals(modes)
    bad = (value > 1e-10) | (flux > 1e-8)
    if bad.any():
        m, j = np.argwhere(bad)[0]
        v = g.vertices[j]
        if value[m, j] > 1e-10:
            what = "Dirichlet" if v.condition == DIRICHLET else "continuity"
        else:
            what = "flux condition"
        raise GraphError(f"mode k={modes.k[m]}: {what} violated at {v.id}")
    return modes


def vertex_residuals(modes: ModeTable) -> tuple[np.ndarray, np.ndarray]:
    """(value, flux) residuals of every mode at every vertex, each (M, V).

    ``value`` is the largest |end value| at a Dirichlet vertex and the spread
    of the end values at any other; ``flux`` is |sum of outward derivatives|,
    or 0 at a Dirichlet vertex.  Columns follow ``g.vertices``.
    """
    g = modes.graph
    halves = [h for v in g.vertices for h in g.incidence(v.id)]
    starts = np.cumsum([0] + [g.degree(v.id) for v in g.vertices[:-1]])
    far = np.array([end == 1 for _, end in halves])
    s = np.where(far, [g.edge_obj(eid).length for eid, _ in halves], 0.0)
    rows = modes._basis[[modes.col[eid] for eid, _ in halves]]
    ks = np.multiply.outer(s, modes.k)
    cos, sin = np.cos(ks), np.sin(ks)
    val = rows[:, 0] * cos + rows[:, 1] * sin + rows[:, 2] * s[:, None]
    der = modes.k * (rows[:, 1] * cos - rows[:, 0] * sin) + rows[:, 2]
    der = np.where(far[:, None], -der, der)
    dirichlet = np.array([[v.condition == DIRICHLET] for v in g.vertices])
    hi, lo = np.maximum.reduceat(val, starts), np.minimum.reduceat(val, starts)
    value = np.where(dirichlet, np.maximum(hi, -lo), hi - lo)
    flux = np.where(dirichlet, 0.0, np.abs(np.add.reduceat(der, starts)))
    return value.T, flux.T


# -- derived quantities ---------------------------------------------------------


def kernel_spectral(
    g: MetricGraph,
    t: float,
    x: GraphPoint,
    y: GraphPoint,
    modes: ModeTable,
    tol: float | None = None,
) -> KernelEval:
    """Spectral heat kernel sum over a mode table, with a tail estimate.

    Every mode is evaluated at x and y at once from the table's arrays.
    """
    _check_time(t)
    g.check_point(x)
    g.check_point(y)
    phi_x, phi_y = modes.at((x.edge, y.edge), np.array([x.s, y.s], dtype=float))
    val = np.dot(np.exp(-modes.k**2 * t), phi_x * phi_y)
    k_max = modes.k_max
    bound = spectral_tail_bound(g, t, k_max)
    if tol is not None and bound > tol:
        raise TruncationError(
            f"k_max={k_max:.3g} insufficient for tolerance {tol:g} at t={t:g}"
        )
    return KernelEval(t, x, y, float(val), bound)


def spectral_tail_bound(g: MetricGraph, t: float, k_max: float) -> float:
    """Gaussian-in-k estimate for the spectral sum beyond k_max."""
    _check_time(t)
    if k_max <= 2.0 / g.min_edge_length:
        return math.inf
    density = g.total_length / math.pi + len(g.vertices) + 2
    sup_sq = 8.0 / g.min_edge_length
    return density * sup_sq * math.exp(-(k_max**2) * t) / (2.0 * k_max * t)


def eigen_report(modes: ModeTable) -> list[dict]:
    """Rows for the eigen CSV: k, lambda, multiplicity, residuals.

    The modes of one root share one k, so consecutive equal k form a row.
    """
    value, flux = vertex_residuals(modes)
    rows, start = [], 0
    for k, group in groupby(modes.k.tolist()):
        stop = start + len(list(group))
        rows.append(
            {
                "k": k,
                "lambda": k**2,
                "multiplicity": stop - start,
                "continuity_residual": float(value[start:stop].max(initial=0.0)),
                "kirchhoff_residual": float(flux[start:stop].max(initial=0.0)),
            }
        )
        start = stop
    return rows

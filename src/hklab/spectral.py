"""Eigenvalues and eigenfunctions of the graph Laplacian; spectral heat kernel.

Modes are located as dips of the smallest singular value of the vertex
condition system, which also catches eigenvalues of even multiplicity that a
determinant sign scan would miss; multiplicities come from the rank
deficiency at the located root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DIRICHLET, GraphError, GraphPoint, MetricGraph, _check_time
from .kernels import KernelEval, TruncationError


@dataclass(frozen=True)
class EigenMode:
    """One L2-normalized eigenfunction.

    On edge e the function is A cos(k s) + B sin(k s) with s the arclength
    from the u-endpoint; for k = 0 the coefficients are affine: A + B s.
    """

    graph: MetricGraph
    k: float
    coeffs: tuple[tuple[str, float, float], ...]  # (edge, A, B)

    def coeff(self, edge_id: str) -> tuple[float, float]:
        for eid, a, b in self.coeffs:
            if eid == edge_id:
                return a, b
        raise GraphError(f"mode has no coefficients for edge {edge_id!r}")

    def eval_edge(self, edge_id: str, s):
        a, b = self.coeff(edge_id)
        s = np.asarray(s, dtype=float)
        if self.k == 0.0:
            out = a + b * s
        else:
            out = a * np.cos(self.k * s) + b * np.sin(self.k * s)
        return float(out) if out.ndim == 0 else out

    def __call__(self, p: GraphPoint):
        return self.eval_edge(p.edge, p.s)

    def outward_derivative(self, edge_id: str, end: int) -> float:
        """Derivative at an edge end, oriented away from the vertex."""
        a, b = self.coeff(edge_id)
        length = self.graph.edge_obj(edge_id).length
        if self.k == 0.0:
            return b if end == 0 else -b
        if end == 0:
            return self.k * b
        return self.k * (a * math.sin(self.k * length) - b * math.cos(self.k * length))


# -- vertex-condition system ---------------------------------------------------


def _condition_matrix(g: MetricGraph, k: float) -> np.ndarray:
    m = 2 * len(g.edges)
    eidx = {e.id: i for i, e in enumerate(g.edges)}
    rows = []

    def val_row(h):
        row = np.zeros(m)
        e = g.edge_obj(h[0])
        i = eidx[h[0]]
        if h[1] == 0:
            row[2 * i] = 1.0
        else:
            row[2 * i] = math.cos(k * e.length)
            row[2 * i + 1] = math.sin(k * e.length)
        return row

    def der_row(h):
        # outward derivative divided by k, keeping rows O(1)
        row = np.zeros(m)
        e = g.edge_obj(h[0])
        i = eidx[h[0]]
        if h[1] == 0:
            row[2 * i + 1] = 1.0
        else:
            row[2 * i] = math.sin(k * e.length)
            row[2 * i + 1] = -math.cos(k * e.length)
        return row

    for v in g.vertices:
        hs = g.incidence(v.id)
        if v.condition == DIRICHLET:
            rows.extend(val_row(h) for h in hs)
        else:
            for h1, h2 in zip(hs, hs[1:]):
                rows.append(val_row(h1) - val_row(h2))
            rows.append(sum(der_row(h) for h in hs))
    return np.array(rows)


def _sigma_min(g: MetricGraph, k: float) -> float:
    return float(np.linalg.svd(_condition_matrix(g, k), compute_uv=False)[-1])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(f, a: float, b: float, iters: int = 90) -> tuple[float, float]:
    """Golden-section minimum of a V-shaped function, absolute convergence.

    scipy's bounded minimizer stops at sqrt(eps) relative width, which is not
    enough for the 1e-12 frequency refinement; plain golden section has no
    such floor.
    """
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if b - a < 1e-14:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    x = x1 if f1 <= f2 else x2
    return x, min(f1, f2)


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


def _null_modes(g: MetricGraph, k: float, rank_tol: float = 1e-8) -> list[EigenMode]:
    mat = _condition_matrix(g, k)
    _, svals, vt = np.linalg.svd(mat)
    smax = svals[0] if svals[0] > 0 else 1.0
    null = vt[svals < rank_tol * smax]
    if null.size == 0:
        null = vt[-1:]
    gram = _norm_matrix(g, k)
    overlap = null @ gram @ null.T
    evals, evecs = np.linalg.eigh(overlap)
    keep = evals > 1e-12 * evals.max()
    basis = (evecs[:, keep] / np.sqrt(evals[keep])).T @ null
    modes = []
    for row in basis:
        coeffs = tuple(
            (e.id, float(row[2 * i]), float(row[2 * i + 1]))
            for i, e in enumerate(g.edges)
        )
        modes.append(EigenMode(g, k, coeffs))
    return modes


def _constant_modes(g: MetricGraph) -> list[EigenMode]:
    if any(v.condition == DIRICHLET for v in g.vertices):
        return []
    dvv = g.vertex_distances()
    comps: list[set[str]] = []
    for v in g.vertices:
        for comp in comps:
            if dvv[(v.id, next(iter(comp)))] < math.inf:
                comp.add(v.id)
                break
        else:
            comps.append({v.id})
    modes = []
    for comp in comps:
        vol = sum(e.length for e in g.edges if e.u in comp)
        amp = 1.0 / math.sqrt(vol)
        coeffs = tuple(
            (e.id, amp if e.u in comp else 0.0, 0.0) for e in g.edges
        )
        modes.append(EigenMode(g, 0.0, coeffs))
    return modes


def eigen(g: MetricGraph, k_max: float, accept_tol: float = 1e-6) -> list[EigenMode]:
    """All modes with frequency k <= k_max, orthonormal in L2(G).

    The count is cross-checked against the Weyl estimate N(k) ~ L k / pi; a
    mismatch beyond the O(1) allowance raises "missed eigenvalue".
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    modes = _constant_modes(g)
    step = math.pi / (8.0 * g.total_length)
    ks = np.arange(step / 2.0, k_max + step, step)
    sig = np.array([_sigma_min(g, k) for k in ks])
    found: list[float] = []
    for i in range(1, len(ks) - 1):
        if sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]:
            k_root, f_root = _golden_refine(
                lambda k: _sigma_min(g, k), ks[i - 1], ks[i + 1], iters=120
            )
            if f_root < accept_tol and k_root <= k_max and k_root > 10 * step / 8:
                if not found or abs(k_root - found[-1]) > 1e-9:
                    found.append(k_root)
    for k_root in found:
        modes.extend(_null_modes(g, k_root))
    modes.sort(key=lambda md: md.k)
    weyl = g.total_length * k_max / math.pi
    allowance = len(g.vertices) + 2
    if abs(len(modes) - weyl) > allowance:
        raise GraphError(
            f"missed eigenvalue: found {len(modes)} modes, Weyl estimate {weyl:.2f} "
            f"(allowance {allowance}); scan step {step:.4g}"
        )
    _validate_modes(g, modes)
    return modes


def _mode_residuals(g: MetricGraph, mode: EigenMode, vertex_id: str) -> tuple[float, float]:
    """(Dirichlet |value| or continuity spread, flux residual) of a mode at a vertex."""
    vals = [
        mode.eval_edge(h[0], 0.0 if h[1] == 0 else g.edge_obj(h[0]).length)
        for h in g.incidence(vertex_id)
    ]
    if g.condition(vertex_id) == DIRICHLET:
        return max(abs(x) for x in vals), 0.0
    return max(vals) - min(vals), kirchhoff_residual(mode, vertex_id)


def _validate_modes(g, modes, cont_tol=1e-10, kirch_tol=1e-8):
    for mode in modes:
        for v in g.vertices:
            cont, flux = _mode_residuals(g, mode, v.id)
            if cont > cont_tol:
                what = "Dirichlet" if v.condition == DIRICHLET else "continuity"
                raise GraphError(f"mode k={mode.k}: {what} violated at {v.id}")
            if flux > kirch_tol:
                raise GraphError(f"mode k={mode.k}: flux condition violated at {v.id}")


# -- derived quantities ---------------------------------------------------------


def kirchhoff_residual(mode: EigenMode, vertex_id: str) -> float:
    """|sum of outward derivatives| at a vertex, from the mode coefficients."""
    g = mode.graph
    total = sum(mode.outward_derivative(h[0], h[1]) for h in g.incidence(vertex_id))
    return abs(total)


def kirchhoff_residual_fd(mode: EigenMode, vertex_id: str, h: float = 1e-6) -> float:
    """Same residual by central differences of the mode along each edge."""
    g = mode.graph
    total = 0.0
    for eid, end in g.incidence(vertex_id):
        length = g.edge_obj(eid).length
        s0 = 0.0 if end == 0 else length
        sgn = 1.0 if end == 0 else -1.0
        total += sgn * (mode.eval_edge(eid, s0 + h) - mode.eval_edge(eid, s0 - h)) / (2 * h)
    return abs(total)


def mode_gram(modes: list[EigenMode]) -> np.ndarray:
    """L2 Gram matrix of a mode list (closed form per edge)."""
    n = len(modes)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = _l2_inner(modes[i], modes[j])
    return gram


def _l2_inner(m1: EigenMode, m2: EigenMode) -> float:
    from ._quad import simpson_nodes

    g = m1.graph
    total = 0.0
    for e in g.edges:
        k_scale = max(m1.k, m2.k, 1.0)
        step = min(e.length / 8.0, math.pi / (20.0 * k_scale))
        s, w = simpson_nodes(e.length, step)
        total += float(np.dot(w, m1.eval_edge(e.id, s) * m2.eval_edge(e.id, s)))
    return total


def kernel_spectral(
    g: MetricGraph,
    t: float,
    x: GraphPoint,
    y: GraphPoint,
    modes: list[EigenMode],
    tol: float | None = None,
) -> KernelEval:
    """Spectral heat kernel sum over the supplied modes, with a tail estimate."""
    _check_time(t)
    val = 0.0
    k_max = 0.0
    for mode in modes:
        val += math.exp(-mode.k**2 * t) * mode(x) * mode(y)
        k_max = max(k_max, mode.k)
    bound = spectral_tail_bound(g, t, k_max)
    if tol is not None and bound > tol:
        raise TruncationError(
            f"k_max={k_max:.3g} insufficient for tolerance {tol:g} at t={t:g}"
        )
    return KernelEval(t, x, y, float(val), bound)


def spectral_tail_bound(g: MetricGraph, t: float, k_max: float) -> float:
    """Gaussian-in-k estimate for the spectral sum beyond k_max."""
    if k_max <= 2.0 / g.min_edge_length:
        return math.inf
    density = g.total_length / math.pi + len(g.vertices) + 2
    sup_sq = 8.0 / g.min_edge_length
    return density * sup_sq * math.exp(-(k_max**2) * t) / (2.0 * k_max * t)


def eigen_report(g: MetricGraph, modes: list[EigenMode]) -> list[dict]:
    """Rows for the eigen CSV: k, lambda, multiplicity, residuals."""
    rows = []
    by_k: list[list[EigenMode]] = []
    for mode in modes:
        if by_k and abs(mode.k - by_k[-1][0].k) < 1e-9:
            by_k[-1].append(mode)
        else:
            by_k.append([mode])
    for group in by_k:
        res = [_mode_residuals(g, mode, v.id) for mode in group for v in g.vertices]
        rows.append(
            {
                "k": group[0].k,
                "lambda": group[0].k ** 2,
                "multiplicity": len(group),
                "continuity_residual": max([0.0] + [cont for cont, _ in res]),
                "kirchhoff_residual": max([0.0] + [flux for _, flux in res]),
            }
        )
    return rows

"""Closed-form and walk-sum heat kernels on metric graphs.

All kernels follow the variance-2t normalization: the free-line kernel is
exp(-d^2/4t)/sqrt(4 pi t).  The walk-sum kernel truncates the scattering-walk
expansion at a geometric length that is certified against a rigorous Gaussian
tail bound; the certified remainder is reported on every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import simpson_nodes
from .graph import (
    _WEIGHT_FLOOR,
    KIRCHHOFF,
    GraphPoint,
    MetricGraph,
    ScatteringMatrix,
    _check_time,
    _sigma_cache,
    sigma_entries,
    star_sigma,  # noqa: F401  (part of this module's interface)
)


class TruncationError(RuntimeError):
    """Raised when no walk-sum truncation can certify the requested tolerance."""


@dataclass(frozen=True)
class KernelEval:
    """A single kernel evaluation with its certified truncation remainder."""

    t: float
    x: object
    y: object
    value: float
    tail_bound: float


def gauss_free(t: float, d):
    """Free-line heat kernel exp(-d^2/4t)/sqrt(4 pi t); even in d."""
    _check_time(t)
    d = np.asarray(d, dtype=float)
    out = np.exp(-(d * d) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


def kernel_star(degree, sigma, t, x, y) -> float:
    """Heat kernel of the star of half-lines joined at one vertex.

    ``x`` and ``y`` are (edge-index, arclength-from-vertex) pairs; ``sigma``
    may be a ScatteringMatrix or a plain matrix.
    """
    _check_time(t)
    alpha, s1 = x
    beta, s2 = y
    if not (0 <= alpha < degree and 0 <= beta < degree):
        raise ValueError("edge index out of range")
    if s1 < 0 or s2 < 0:
        raise ValueError("arclengths must be nonnegative")
    mat = sigma.entries if isinstance(sigma, ScatteringMatrix) else np.asarray(sigma)
    direct = gauss_free(t, s1 - s2) if alpha == beta else 0.0
    return float(direct + mat[alpha, beta] * gauss_free(t, s1 + s2))


# -- interval kernel via images ----------------------------------------------

_IMAGE_TOL = 1e-14


def _condition_sign(cond: str) -> int:
    """Image sign at an interval end: the scattering entry of a degree-1 vertex."""
    c = cond.lower()
    diag, _ = sigma_entries(KIRCHHOFF if c == "neumann" else c, 1)
    return int(diag)


def kernel_interval(L, cond_left, cond_right, t, x, y) -> KernelEval:
    """Heat kernel of [0, L] with the given end conditions, by image summation.

    The image sum is truncated once a rigorous Gaussian envelope for the
    remainder drops below 1e-14.
    """
    _check_time(t)
    if not (0 <= x <= L and 0 <= y <= L):
        raise ValueError("point outside the interval")
    e0 = _condition_sign(cond_left)
    eL = _condition_sign(cond_right)
    n_img = int(math.ceil((2 * L + math.sqrt(4 * t * math.log(1e16))) / (2 * L))) + 1
    while _image_tail(L, t, n_img) > _IMAGE_TOL:
        n_img += 2
        if n_img > 100000:
            raise TruncationError("image sum will not certify 1e-14 at this t")
    n = np.arange(-n_img, n_img + 1)
    s = e0 * eL
    c_plus = np.where(n % 2 == 0, 1.0, float(s))
    c_minus = e0 * c_plus
    val = np.sum(c_plus * gauss_free(t, x - y - 2 * L * n))
    val += np.sum(c_minus * gauss_free(t, x + y - 2 * L * n))
    return KernelEval(t, x, y, float(val), _image_tail(L, t, n_img))


def _image_tail(L, t, n_img):
    # terms with |n| > n_img have argument at least 2(|n|-1)L
    total = 0.0
    m = n_img
    term = 4.0 * gauss_free(t, 2 * m * L)
    for _ in range(100000):
        total += term
        ratio = math.exp(-(2 * m + 1) * L * L / t)
        if ratio < 0.5:
            total += term * ratio / (1.0 - ratio)
            return total
        m += 1
        term = 4.0 * gauss_free(t, 2 * m * L)
    return math.inf


# -- walk-sum kernel -----------------------------------------------------------


def pathsum_tail_bound(g: MetricGraph, t: float, lam: float) -> float:
    """Rigorous bound on the total mass of walks with geometric length > lam.

    Uses the crude count 2*d^k for walks with k bounces together with the
    fact that k bounces force length >= (k-1) * (shortest edge).
    """
    d = max(g.max_degree, 2)  # degree 1 still allows the return bounce
    lmin = g.min_edge_length
    log_norm = 0.5 * math.log(4.0 * math.pi * t)

    def log_term(count_log, u):
        return count_log - u * u / (4.0 * t) - log_norm

    k_star = int(lam // lmin) + 1
    # k = 1 .. k_star bounces, each missing walk longer than lam
    head_log = math.log(2.0) + (k_star + 1) * math.log(d) - math.log(d - 1 if d > 1 else 1)
    lt = log_term(head_log, lam)
    if lt > 500:
        return math.inf
    total = math.exp(lt)
    k = k_star + 1
    for _ in range(100000):
        lt = log_term(math.log(2.0) + k * math.log(d), (k - 1) * lmin)
        if lt > 500:
            return math.inf
        term = math.exp(lt)
        ratio = d * math.exp(-(2 * k - 1) * lmin * lmin / (4.0 * t))
        if ratio < 0.5:
            total += term / (1.0 - ratio)
            return total
        total += term
        k += 1
    return math.inf


def _certified_lambda(g: MetricGraph, t: float, tol: float) -> tuple[float, float]:
    """(lambda, tail bound): the first doubled truncation length certifying tol.

    Depends only on (graph, t, tol) so that grid evaluations at one time
    reuse the cached walk families.
    """
    _check_time(t)
    if tol <= 0:
        raise ValueError("tol must be positive")
    peak = 1.0 / math.sqrt(4.0 * math.pi * t)
    lam = max(g.min_edge_length,
              math.sqrt(max(4.0 * t * math.log(max(2.0 * peak / tol, 1.0)), 0.0)))
    for _ in range(200):
        bound = pathsum_tail_bound(g, t, lam)
        if bound <= tol:
            return lam, bound
        lam *= 2.0
    raise TruncationError(f"tail bound will not certify tolerance {tol:g} at t={t:g}")


@lru_cache(maxsize=4096)
def _families(g: MetricGraph, edge_x: str, edge_y: str, lam: float):
    """Scattering-walk families from edge_x into edge_y with mid-length <= lam.

    A family fixes the departure end d1 of edge_x and the entry end d2 of
    edge_y; a walk of the family evaluated at positions (sx, sy) has total
    length a_{d1}(sx) + L_mid + b_{d2}(sy).
    """
    sigmas = _sigma_cache(g)
    dvv = g.vertex_distances()
    eex = g.edge_obj(edge_x)
    eey = g.edge_obj(edge_y)

    def remaining(vid):
        return min(dvv[(vid, eey.u)], dvv[(vid, eey.v)])

    groups = {(a, b): ([], []) for a in (0, 1) for b in (0, 1)}
    frontier = []
    for d1 in (0, 1):
        vid = eex.u if d1 == 0 else eex.v
        if remaining(vid) <= lam:
            frontier.append((vid, (edge_x, d1), 0.0, 1.0, d1))
    visited = 0
    while frontier:
        visited += len(frontier)
        if visited > 5_000_000:
            raise TruncationError(
                "walk count grows faster than the Gaussian tail shrinks "
                f"(truncation length {lam:.3g} is not enumerable)"
            )
        nxt = []
        for vid, h_in, acc, w, d1 in frontier:
            sig = sigmas[vid]
            i = sig.halfedges.index(h_in)
            for j, h_out in enumerate(sig.halfedges):
                w2 = w * float(sig.entries[i, j])
                if abs(w2) < _WEIGHT_FLOOR:
                    continue
                if h_out[0] == edge_y and acc <= lam:
                    ls, ws = groups[(d1, h_out[1])]
                    ls.append(acc)
                    ws.append(w2)
                e_out = g.edge_obj(h_out[0])
                acc2 = acc + e_out.length
                far_vid = e_out.v if h_out[1] == 0 else e_out.u
                if acc2 + remaining(far_vid) <= lam:
                    nxt.append((far_vid, (h_out[0], 1 - h_out[1]), acc2, w2, d1))
        frontier = nxt
    return {
        key: (np.asarray(ls), np.asarray(ws))
        for key, (ls, ws) in groups.items()
        if ls
    }


def _eval_pathsum(g, t, edge_x, sx, edge_y, sy, lam, grid=False):
    """Walk-sum value(s); with grid=True, (sx, sy) arrays form an outer grid."""
    fams = _families(g, edge_x, edge_y, lam)
    lx = g.edge_obj(edge_x).length
    ly = g.edge_obj(edge_y).length
    sx_a = np.asarray(sx, dtype=float)
    sy_a = np.asarray(sy, dtype=float)
    ax = {0: sx_a, 1: lx - sx_a}
    by = {0: sy_a, 1: ly - sy_a}
    if grid:
        total = np.zeros((sx_a.size, sy_a.size))
        if edge_x == edge_y:
            total += gauss_free(t, sx_a[:, None] - sy_a[None, :])
        for (d1, d2), (ls, ws) in fams.items():
            base_x = ax[d1][:, None]
            base_y = by[d2][None, :]
            for mid, wgt in zip(ls, ws):
                total += wgt * gauss_free(t, base_x + mid + base_y)
        return total
    total = np.zeros(np.broadcast(sx_a, sy_a).shape)
    if edge_x == edge_y:
        total = total + gauss_free(t, sx_a - sy_a)
    for (d1, d2), (ls, ws) in fams.items():
        base = np.asarray(ax[d1] + by[d2], dtype=float)
        total = total + gauss_free(t, base[..., None] + ls) @ ws
    return float(total) if total.ndim == 0 else total


def kernel_pathsum(
    g: MetricGraph, t: float, x: GraphPoint, y: GraphPoint, tol: float = 1e-10
) -> KernelEval:
    """Heat kernel by truncated scattering-walk summation.

    The truncation length is grown until a rigorous Gaussian tail bound falls
    below ``tol``; the certified remainder is returned in ``tail_bound``.
    """
    g.check_point(x)
    g.check_point(y)
    lam, tail = _certified_lambda(g, t, tol)
    val = _eval_pathsum(g, t, x.edge, x.s, y.edge, y.s, lam)
    return KernelEval(t, x, y, float(val), tail)


def pathsum_profile(
    g: MetricGraph,
    t: float,
    x: GraphPoint,
    edge_y: str,
    s_values: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Vectorized p_t(x, .) along one edge; returns (values, tail bound)."""
    g.check_point(x)
    lam, tail = _certified_lambda(g, t, tol)
    vals = _eval_pathsum(g, t, x.edge, x.s, edge_y, np.asarray(s_values, float), lam)
    return np.atleast_1d(vals), tail


def pathsum_diag(
    g: MetricGraph,
    t: float,
    edge: str,
    s_values: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """On-diagonal kernel p_t(z, z) along one edge; returns (values, tail)."""
    lam, tail = _certified_lambda(g, t, tol)
    s = np.asarray(s_values, dtype=float)
    vals = _eval_pathsum(g, t, edge, s, edge, s, lam)
    return np.atleast_1d(vals), tail


def pathsum_cross(
    g: MetricGraph,
    t: float,
    edge_x: str,
    sx: np.ndarray,
    edge_y: str,
    sy: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Kernel values on the grid edge_x x edge_y; returns (matrix, tail bound)."""
    lam, tail = _certified_lambda(g, t, tol)
    vals = _eval_pathsum(
        g, t, edge_x, np.asarray(sx, float), edge_y, np.asarray(sy, float), lam,
        grid=True,
    )
    return vals, tail


# -- kernel functionals --------------------------------------------------------


def kernel_mass(g: MetricGraph, t: float, x: GraphPoint, step_frac: float = 1e-3,
                tol: float = 1e-12) -> float:
    """Integral of p_t(x, .) over the whole graph (composite Simpson per edge)."""
    total = 0.0
    for e in g.edges:
        s, w = simpson_nodes(e.length, step_frac * e.length)
        vals, _ = pathsum_profile(g, t, x, e.id, s, tol=tol)
        total += float(np.dot(w, vals))
    return total


def kernel_semigroup_residual(
    g: MetricGraph,
    t: float,
    s: float,
    x: GraphPoint,
    y: GraphPoint,
    quadrature_step: float | None = None,
    tol: float = 1e-12,
) -> float:
    """|p_{t+s}(x,y) - int_G p_t(x,z) p_s(z,y) dz| with per-edge Simpson."""
    _check_time(t)
    _check_time(s, "s")
    if quadrature_step is not None and quadrature_step <= 0:
        raise ValueError("quadrature_step must be positive")
    conv = 0.0
    for e in g.edges:
        step = quadrature_step if quadrature_step is not None else 1e-3 * e.length
        nodes, w = simpson_nodes(e.length, step)
        row_t, _ = pathsum_profile(g, t, x, e.id, nodes, tol=tol)
        row_s, _ = pathsum_profile(g, s, y, e.id, nodes, tol=tol)
        conv += float(np.dot(w, row_t * row_s))
    direct = kernel_pathsum(g, t + s, x, y, tol=tol).value
    return abs(direct - conv)

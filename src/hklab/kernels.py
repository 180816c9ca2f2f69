"""Closed-form and walk-sum heat kernels on metric graphs.

All kernels follow the variance-2t normalization: the free-line kernel is
exp(-d^2/4t)/sqrt(4 pi t).  The walk-sum kernel truncates the scattering-walk
expansion at the closed-form length where a rigorous Gaussian tail bound meets
the tolerance, and enumerates the walks on ``graph._bond_table``.
``kernel_pathsum`` evaluates one point pair and reports the remainder, length
and walk count; ``pathsum`` broadcasts arclengths sx against sy, so that one
call gives a profile, a diagonal or a grid.
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
    GraphError,
    GraphPoint,
    MetricGraph,
    _bond_table,
    _check_time,
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
    lam: float | None = None  # walk sums: truncation length
    walks: int | None = None  # walk sums: number of walks summed


def gauss_free(t: float, d):
    """Free-line heat kernel exp(-d^2/4t)/sqrt(4 pi t); even in d."""
    _check_time(t)
    d = np.asarray(d, dtype=float)
    out = np.exp(-(d * d) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return float(out) if out.ndim == 0 else out


def kernel_star(degree, sigma, t, x, y) -> float:
    """Heat kernel of the star of half-lines joined at one vertex.

    ``x`` and ``y`` are (edge-index, arclength-from-vertex) pairs; ``sigma``
    is the degree x degree vertex matrix.
    """
    _check_time(t)
    mat = np.asarray(sigma)
    if mat.shape != (degree, degree):
        raise ValueError(f"sigma must be {degree} x {degree}, got shape {mat.shape}")
    alpha, s1 = x
    beta, s2 = y
    if not all(isinstance(i, (int, np.integer)) and 0 <= i < degree for i in (alpha, beta)):
        raise ValueError("edge index must be an integer in range")
    if not (0 <= s1 < math.inf and 0 <= s2 < math.inf):
        raise ValueError("arclengths must be finite and nonnegative")
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


def _resolvent_table(g: MetricGraph) -> tuple[np.ndarray, np.ndarray]:
    """(r, ln Z(r)) of the weighted scattering resolvent, cached per graph.

    On the bond table of ``graph._bond_table`` (states are incoming
    half-edges), the transition from h through the outgoing half-edge j into
    state k gives M(r)[h, k] = |sigma_v[h, j]| e^{-r L_j}, and
    rho_h = sum_j |sigma_v[h, j]|.  (I - M(r)) z = rho is solved at once
    for 64 geometric r from 1e-3/(total length) to where M's rows sum below
    e^-40.  A row is kept if z > 0 and (I - M) z >= rho (z inflated by 1e-9
    against rounding): by Collatz-Wielandt M's spectral radius is below 1, so
    z bounds sum |w| e^{-r L_mid} over the walks from h.  A point on edge e
    starts in the states (e, 0) and (e, 1): Z(r) = max_e z[(e, 0)] + z[(e, 1)].
    """
    tables = g._tables
    if tables.get("resolvent") is None:
        rows, cols, sigma, lengths = _bond_table(g)
        weights = np.abs(sigma)
        n = 2 * len(g.edges)
        rho = np.bincount(rows, weights=weights, minlength=n)
        r = np.geomspace(1e-3 / g.total_length,
                         (math.log(rho.max()) + 40.0) / g.min_edge_length, 64)
        m = np.zeros((r.size, n, n))
        m[:, rows, cols] = weights * np.exp(-np.outer(r, lengths))
        z = np.linalg.solve(np.eye(n) - m, rho[:, None])[..., 0] * (1.0 + 1e-9)
        ok = (z > 0).all(axis=1) & (z - (m @ z[..., None])[..., 0] >= rho).all(axis=1)
        pairs = z[ok][:, 0::2] + z[ok][:, 1::2]
        tables["resolvent"] = (r[ok], np.log(pairs.max(axis=1)))
    return tables["resolvent"]


def pathsum_tail_bound(g: MetricGraph, t: float, lam: float) -> float:
    """Rigorous bound on the total mass of walks with mid-length > lam.

    For r <= lam/2t the tangent of l^2/4t at lam gives the bound
    e^{-lam^2/4t + r lam} Z(r) / sqrt(4 pi t), Z from ``_resolvent_table``.
    It drops the end pieces a + b >= 0 of each walk, so it holds for every
    point pair.  Minimum over the tabulated r; inf if none is admissible.
    """
    _check_time(t)
    r, log_z = _resolvent_table(g)
    ok = 2.0 * t * r <= lam
    if not ok.any():
        return math.inf
    log_b = float(np.min(r[ok] * lam + log_z[ok])) - lam * lam / (4.0 * t)
    return math.exp(min(log_b - 0.5 * math.log(4.0 * math.pi * t), 700.0))


@lru_cache(maxsize=4096)
def _certified_lambda(g: MetricGraph, t: float, tol: float) -> tuple[float, float]:
    """(lambda, tail bound): the shortest truncation length certifying tol.

    At each tabulated r the bound meets tol at the larger root
    lam = 2tr + sqrt(4t^2 r^2 + 4t C(r)), C(r) = ln Z(r) - ln(tol sqrt(4 pi t)),
    or, with no real root, at the validity floor 2tr; lambda is the minimum
    over r.  Memoized per (graph, t, tol), so grid evaluations reuse the
    cached walk families.
    """
    _check_time(t)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    r, log_z = _resolvent_table(g)
    # aim at tol (1 - 1e-9), so that rounding cannot lift the bound above tol
    c = log_z - math.log(tol) + 1e-9 - 0.5 * math.log(4.0 * math.pi * t)
    lam = float(np.min(2.0 * t * r + np.sqrt(np.maximum(4.0 * t * (t * r * r + c), 0.0))))
    bound = pathsum_tail_bound(g, t, lam)
    if not bound <= tol:
        raise TruncationError(f"tail bound will not certify tolerance {tol:g} at t={t:g}")
    return lam, bound


@lru_cache(maxsize=4096)
def _families(g: MetricGraph, edge_x: str, edge_y: str, lam: float):
    """Scattering-walk families from edge_x into edge_y with mid-length <= lam.

    A family fixes the departure end d1 of edge_x and the entry end d2 of
    edge_y; a walk of the family evaluated at positions (sx, sy) has total
    length a_{d1}(sx) + L_mid + b_{d2}(sy).  Walks step on the bond table
    (``graph._bond_table``): a walk is at an incoming half-edge k = 2i + end,
    and its moves are the table rows first[k] to first[k + 1].
    """
    rows, cols, sigma, lengths = _bond_table(g)
    first = np.searchsorted(rows, np.arange(2 * len(g.edges) + 1)).tolist()
    cols, sigma, lengths = cols.tolist(), sigma.tolist(), lengths.tolist()
    ix = g.edges.index(g.edge_obj(edge_x))
    eey = g.edge_obj(edge_y)
    iy = g.edges.index(eey)
    dvv = g.vertex_distances()
    # distance from the vertex of each state to the nearer end of edge_y
    remaining = [min(dvv[(v, eey.u)], dvv[(v, eey.v)]) for e in g.edges for v in (e.u, e.v)]

    groups = {(a, b): ([], []) for a in (0, 1) for b in (0, 1)}
    frontier = [(2 * ix + d1, 0.0, 1.0, d1) for d1 in (0, 1)
                if remaining[2 * ix + d1] <= lam]
    visited = 0
    while frontier:
        visited += len(frontier)
        if visited > 5_000_000:
            raise TruncationError(
                "walk count grows faster than the Gaussian tail shrinks "
                f"(truncation length {lam:.3g} is not enumerable)"
            )
        nxt = []
        for state, acc, w, d1 in frontier:
            for m in range(first[state], first[state + 1]):
                w2 = w * sigma[m]
                if abs(w2) < _WEIGHT_FLOOR:
                    continue
                k = cols[m]
                if k >> 1 == iy and acc <= lam:
                    ls, ws = groups[(d1, 1 - (k & 1))]
                    ls.append(acc)
                    ws.append(w2)
                acc2 = acc + lengths[m]
                if acc2 + remaining[k] <= lam:
                    nxt.append((k, acc2, w2, d1))
        frontier = nxt
    return {
        key: (np.asarray(ls), np.asarray(ws))
        for key, (ls, ws) in groups.items()
        if ls
    }


# Walk blocks hold at most _BLOCK Gaussians (one walk if the points alone are more);
# blocks above _IN_PLACE are updated in place, smaller ones cost less to reallocate
_BLOCK = 1 << 16
_IN_PLACE = 1 << 10


def _eval_pathsum(g, t, edge_x, sx, edge_y, sy, lam):
    """Walk sum at flat arclengths sx, sy (equal sizes, or size 1) and the
    number of walks summed; a lone point takes one dot product per family."""
    fams = _families(g, edge_x, edge_y, lam)
    sizes = [ls.size for ls, _ in fams.values()]
    same = edge_x == edge_y
    ax = (sx, g.edge_obj(edge_x).length - sx)
    by = (sy, g.edge_obj(edge_y).length - sy)
    c = -4.0 * t  # exp(d*d/c) / norm is gauss_free(t, d), bit for bit
    norm = math.sqrt(4.0 * math.pi * t)
    total = gauss_free(t, sx - sy) if same else np.zeros(max(sx.size, sy.size))
    step = max(1, _BLOCK // max(1, total.size))
    for (d1, d2), (ls, ws) in fams.items():
        base = ax[d1] + by[d2]
        for k in range(0, ls.size, step):
            d = ls[k:k + step, None] + base
            o = d if d.size > _IN_PLACE else None
            d = np.divide(np.exp(np.divide(np.multiply(d, d, o), c, o), o), norm, o)
            total += np.dot(ws[k:k + step], d)
    return total, sum(sizes) + same


def kernel_pathsum(
    g: MetricGraph, t: float, x: GraphPoint, y: GraphPoint, tol: float = 1e-10
) -> KernelEval:
    """Heat kernel by truncated scattering-walk summation.

    The truncation length is the shortest one whose rigorous Gaussian tail
    bound is at most ``tol``; the certified remainder is returned in
    ``tail_bound``.
    """
    g.check_point(x)
    g.check_point(y)
    lam, tail = _certified_lambda(g, t, tol)
    xs, ys = np.array([x.s], dtype=float), np.array([y.s], dtype=float)
    val, walks = _eval_pathsum(g, t, x.edge, xs, y.edge, ys, lam)
    return KernelEval(t, x, y, float(val[0]), tail, lam, walks)


def pathsum(
    g: MetricGraph, t: float, edge_x: str, sx, edge_y: str, sy, tol: float = 1e-10
) -> tuple[np.ndarray, float]:
    """p_t between arclengths sx on edge_x and sy on edge_y, numpy-broadcast.

    A scalar against an array gives a profile, two equal arrays the diagonal,
    ``sx[:, None]`` against ``sy[None, :]`` a grid.  Returns (values, tail
    bound); the values agree with ``kernel_pathsum`` to rounding.
    """
    lam, tail = _certified_lambda(g, t, tol)
    sx, sy = np.broadcast_arrays(np.asarray(sx, dtype=float), np.asarray(sy, dtype=float))
    for edge, s in ((edge_x, sx), (edge_y, sy)):
        length = g.edge_obj(edge).length
        off = ~((s >= 0.0) & (s <= length))
        if off.any():
            raise GraphError(f"point s={s[off][0]} off edge {edge!r} of length {length}",
                             offending=edge)
    values, _ = _eval_pathsum(g, t, edge_x, sx.ravel(), edge_y, sy.ravel(), lam)
    return values.reshape(sx.shape), tail


# -- kernel functionals --------------------------------------------------------


def kernel_mass(g: MetricGraph, t: float, x: GraphPoint, step_frac: float = 1e-3,
                tol: float = 1e-12) -> float:
    """Integral of p_t(x, .) over the whole graph (composite Simpson per edge)."""
    total = 0.0
    for e in g.edges:
        s, w = simpson_nodes(e.length, step_frac * e.length)
        vals, _ = pathsum(g, t, x.edge, x.s, e.id, s, tol=tol)
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
    conv = 0.0
    for e in g.edges:
        step = quadrature_step if quadrature_step is not None else 1e-3 * e.length
        nodes, w = simpson_nodes(e.length, step)
        row_t, _ = pathsum(g, t, x.edge, x.s, e.id, nodes, tol=tol)
        row_s, _ = pathsum(g, s, y.edge, y.s, e.id, nodes, tol=tol)
        conv += float(np.dot(w, row_t * row_s))
    direct = kernel_pathsum(g, t + s, x, y, tol=tol).value
    return abs(direct - conv)

"""Closed-form and walk-sum heat kernels on metric graphs.

All kernels follow the variance-2t normalization: the free-line kernel is
exp(-d^2/4t)/sqrt(4 pi t).  The walk-sum kernel truncates the scattering-walk
expansion at the closed-form length where a rigorous Gaussian tail bound meets
the tolerance, and enumerates the walks on ``graph._bond_table`` into one flat
table per edge pair (``_WalkTable``).  ``pathsum`` broadcasts arclengths sx
against sy, so that one call gives a profile, a diagonal or a grid, and times t
against both, so that one walk enumeration serves every time of an array;
``kernel_pathsum`` is its one-pair view, bit for bit.  Both sum on
``_gauss_sum``, which takes a small table's Gaussians in one fused pass.
Truncation lengths and walk tables are memoized in the graph's own tables, up
to ``_MEMO_BYTES`` per graph, and are freed with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from typing import NamedTuple

import numpy as np

from ._quad import gauss_legendre
from .graph import (
    _WEIGHT_FLOOR,
    KIRCHHOFF,
    GraphPoint,
    MetricGraph,
    _bond_table,
    _check_time,
    _one_time,
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
_MAX_IMAGES = 100_000


def _condition_sign(cond: str) -> int:
    """Image sign at an interval end: the scattering entry of a degree-1 vertex."""
    c = cond.lower()
    diag, _ = sigma_entries(KIRCHHOFF if c == "neumann" else c, 1)
    return int(diag)


def kernel_interval(L, cond_left, cond_right, t, x, y) -> KernelEval:
    """Heat kernel of [0, L] with the given end conditions, by image summation.

    The image sum is truncated at the first n whose remainder bound
    ``_image_tail`` is at most 1e-14; past _MAX_IMAGES images
    ``TruncationError`` is raised.
    """
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be finite and positive, got {L!r}")
    _check_time(t)
    if not (0 <= x <= L and 0 <= y <= L):
        raise ValueError("point outside the interval")
    e0 = _condition_sign(cond_left)
    eL = _condition_sign(cond_right)
    # start where the first omitted image's Gaussian reaches _IMAGE_TOL
    n_img = max(1, math.ceil(math.sqrt(t * math.log(1.0 / _IMAGE_TOL)) / L))
    while n_img <= _MAX_IMAGES and _image_tail(L, t, n_img) > _IMAGE_TOL:
        n_img += 1
    if n_img > _MAX_IMAGES:
        raise TruncationError(f"image sum needs over {_MAX_IMAGES} images at t={t:g}")
    n = np.arange(-n_img, n_img + 1)
    c_plus = np.where(n % 2 == 0, 1.0, float(e0 * eL))
    c_minus = e0 * c_plus
    val = np.sum(c_plus * gauss_free(t, x - y - 2 * L * n))
    val += np.sum(c_minus * gauss_free(t, x + y - 2 * L * n))
    return KernelEval(t, x, y, float(val), _image_tail(L, t, n_img))


def _image_tail(L, t, n_img):
    """Bound on the images |n| > n_img: four per |n|, each with argument at
    least 2(|n| - 1)L, so at most sum_{m >= n_img} 4 g(2mL), g the free
    kernel.  g falls in m, so the terms past the first sum to at most
    4 int_{n_img}^inf g(2xL) dx = erfc(n_img L / sqrt t) / L."""
    return 4.0 * gauss_free(t, 2 * n_img * L) + math.erfc(n_img * L / math.sqrt(t)) / L


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


# each graph memoizes truncation lengths, edge envelopes and walk tables up to
# this many bytes: an entry counts the bytes of its arrays and 256 for the rest
_MEMO_BYTES = 1 << 24


def _memo_per_graph(fn):
    """Memoize fn(g, *args) in ``g._tables``, cleared when it would pass _MEMO_BYTES."""

    @wraps(fn)
    def memoized(g: MetricGraph, *args):
        tables = g._tables
        memo = tables.setdefault("walk_memo", {})
        key = (fn.__name__, *args)
        value = memo.get(key)
        if value is None:
            value = fn(g, *args)
            size = 256 + sum(a.nbytes for a in value if isinstance(a, np.ndarray))
            used = tables.get("walk_memo_bytes", 0) + size
            if used > _MEMO_BYTES:
                memo.clear()
                used = size
            tables["walk_memo_bytes"], memo[key] = used, value
        return value

    return memoized


def _check_tol(tol):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


@_memo_per_graph
def _certified_lambda(g: MetricGraph, t: float, tol: float) -> tuple[float, float]:
    """(lambda, tail bound): the shortest truncation length certifying tol.

    At each tabulated r the bound meets tol at the larger root
    lam = 2tr + sqrt(4t^2 r^2 + 4t C(r)), C(r) = ln Z(r) - ln(tol sqrt(4 pi t)),
    or, with no real root, at the validity floor 2tr; lambda is the minimum
    over r.  Memoized per graph and (t, tol), so evaluations at one time
    reuse the memoized walk tables.
    """
    _check_time(t)
    _check_tol(tol)
    r, log_z = _resolvent_table(g)
    # aim at tol (1 - 1e-9), so that rounding cannot lift the bound above tol
    c = log_z - math.log(tol) + 1e-9 - 0.5 * math.log(4.0 * math.pi * t)
    lam = float(np.min(2.0 * t * r + np.sqrt(np.maximum(4.0 * t * (t * r * r + c), 0.0))))
    bound = pathsum_tail_bound(g, t, lam)
    if not bound <= tol:
        raise TruncationError(f"tail bound will not certify tolerance {tol:g} at t={t:g}")
    return lam, bound


# the Bernstein-ellipse parameters rho of the edge rules, and their node cap
_RHO = 1.0 + np.geomspace(1e-4, 1e2, 100)
_MAX_NODES = 1024


@_memo_per_graph
def _edge_envelope(g: MetricGraph, t: float, length: float):
    """(log D, log P) per rho of ``_RHO``: bounds on the Bernstein ellipse of
    an edge of length l, on the diagonal walk sum and on p_t(x, .).

    The ellipse of foci 0, l and semi-axes (l/4)(rho +- 1/rho) reaches
    b = (l/4)(rho - 1/rho) off the axis and d = (l/4)(rho + 1/rho) - l/2 past
    each end.  There a walk term e^{-u^2/4t} of mid-length m and slope beta
    in the arclength is at most e^{beta^2 b^2/4t} e^{r^2 t + r beta d - r m},
    and all walks sum to at most e^{r^2 t + r beta d} Z(r)
    (``_resolvent_table``), each over sqrt(4 pi t).  On the diagonal p(z, z)
    beta <= 2, and the direct term is a constant, which every rule integrates
    exactly; in p(x, .) beta = 1, and the direct term is at most e^{b^2/4t}.
    Memoized per graph, so edges of one length share it.
    """
    r, log_z = _resolvent_table(g)
    b2 = (0.25 * length * (_RHO - 1.0 / _RHO)) ** 2
    d = 0.25 * length * (_RHO + 1.0 / _RHO) - 0.5 * length
    diag, row = (np.min(r * r * t + beta * np.outer(d, r) + log_z, axis=1) for beta in (2.0, 1.0))
    log_g = -0.5 * math.log(4.0 * math.pi * t)
    return b2 / t + diag + log_g, b2 / (4.0 * t) + np.logaddexp(0.0, row) + log_g


def _edge_rule(t: float, length: float, log_m, tol: float):
    """(nodes, weights, bounds): Gauss-Legendre on [0, l] with the least node
    count n whose error bound on each integrand is at most tol/2.

    Row i of log_m is ln sup |f_i| on the ellipse at each rho of ``_RHO``
    (``_edge_envelope``); n >= 2 nodes err by at most (l/2)(64/15) M
    rho^(2-2n) / (rho^2 - 1) (Trefethen, SIAM Rev. 50, 2008, Thm 4.5), each
    bound minimized over rho.  Past ``_MAX_NODES`` nodes, ValueError.
    """
    log_c = np.asarray(log_m) + np.log(length * 32.0 / 15.0 / (_RHO * _RHO - 1.0))
    log_rho = np.log(_RHO)
    n = (1.0 + (log_c - math.log(0.5 * tol)) / (2.0 * log_rho)).min(axis=1).max()
    n = max(2, math.ceil(n))
    if n > _MAX_NODES:
        raise ValueError(f"Gauss-Legendre needs {n} nodes on an edge at t={t:g}, "
                         f"more than {_MAX_NODES}")
    x, w = gauss_legendre(n)
    bounds = np.exp(np.min(log_c + (2.0 - 2.0 * n) * log_rho, axis=1)).tolist()
    return length * x, length * w, bounds


class _Split(NamedTuple):
    """Which walks x -> y leave an open set U: those whose first leg, last leg
    or some crossed edge is not in U.  The default, U empty, keeps them all."""

    direct: bool = True  # the direct term x -> y leaves U
    x_ends: tuple = (False, False)  # x's piece of U reaches end 0, end 1 of edge_x
    y_ends: tuple = (False, False)  # y's piece of U reaches end 0, end 1 of edge_y
    edges: frozenset = frozenset()  # indices of the edges that U covers whole


class _WalkTable(NamedTuple):
    """The walks of ``_families`` grouped by family code: 0 for the direct
    walk, 1 + 2 d1 + d2 for the family (d1, d2).  ``bounds`` holds (code,
    start, stop) of each nonempty family, in code order."""

    lengths: np.ndarray  # (N, 1) mid-lengths
    weights: np.ndarray  # (N,)
    code: np.ndarray  # (N,)
    bounds: tuple

    def families(self):
        """((d1, d2), mid-lengths, weights) of each nonempty family (d1, d2)."""
        return [(divmod(c - 1, 2), self.lengths[a:b, 0], self.weights[a:b])
                for c, a, b in self.bounds if c]


@_memo_per_graph
def _families(g: MetricGraph, edge_x: str, edge_y: str, lam: float, left=_Split()):
    """The scattering walks from edge_x into edge_y with mid-length <= lam
    that leave U (``_Split``; by default every walk), as one ``_WalkTable``.

    A family fixes the departure end d1 of edge_x and the entry end d2 of
    edge_y; a walk of the family evaluated at positions (sx, sy) has total
    length a_{d1}(sx) + L_mid + b_{d2}(sy); the direct walk, on one edge,
    has mid-length 0, weight 1 and length |sx - sy|.  Walks step on the bond
    table (``graph._bond_table``): a walk is at an incoming half-edge
    k = 2i + end, and its moves are the table rows first[k] to first[k + 1];
    it carries its code less d2 and whether it has left U.
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
    y_ends, inside = left.y_ends, left.edges

    direct = edge_x == edge_y and left.direct
    groups = [([0.0], [1.0]) if direct else ([], [])] + [([], []) for _ in range(4)]
    frontier = [(2 * ix + d1, 0.0, 1.0, 1 + 2 * d1, not left.x_ends[d1]) for d1 in (0, 1)
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
        for state, acc, w, c1, out in frontier:
            for m in range(first[state], first[state + 1]):
                w2 = w * sigma[m]
                if abs(w2) < _WEIGHT_FLOOR:
                    continue
                k = cols[m]
                if k >> 1 == iy and acc <= lam and (out or not y_ends[1 - (k & 1)]):
                    ls, ws = groups[c1 + 1 - (k & 1)]
                    ls.append(acc)
                    ws.append(w2)
                acc2 = acc + lengths[m]
                if acc2 + remaining[k] <= lam:
                    nxt.append((k, acc2, w2, c1, out or k >> 1 not in inside))
        frontier = nxt
    bounds, stop = [], 0
    for c, (ls, _) in enumerate(groups):
        if ls:
            bounds.append((c, stop, stop + len(ls)))
            stop += len(ls)
    return _WalkTable(
        np.array([x for ls, _ in groups for x in ls], dtype=float).reshape(-1, 1),
        np.array([x for _, ws in groups for x in ws], dtype=float),
        np.array([c for c, a, b in bounds for _ in range(a, b)], dtype=np.intp),
        tuple(bounds))


# Walk blocks hold at most _BLOCK Gaussians (one walk if the points alone are more);
# blocks above _IN_PLACE are updated in place, smaller ones cost less to reallocate
_BLOCK = 1 << 16
_IN_PLACE = 1 << 10


def _eval_pathsum(g, t, edge_x, sx, edge_y, sy, lam, left=_Split()):
    """Walk sum at arclengths sx, sy and times t and the number of walks
    summed: sx and sy are two floats, or two flat arrays of one size, which t,
    a scalar or an array, matches.  Only the walks that leave U (``left``)
    are summed."""
    table = _families(g, edge_x, edge_y, lam, left)
    ax = (sx, g.edge_obj(edge_x).length - sx)
    by = (sy, g.edge_obj(edge_y).length - sy)
    return _gauss_sum(table, ax, by, sx - sy, t), table.weights.size


def _gauss_sum(table, ax, by, direct, t):
    """Sum over the walks of a ``_WalkTable`` of w times the free kernel at
    l_mid plus the walk's end offset: direct for code 0, ax[d1] + by[d2] for
    the family (d1, d2); direct, ax, by and t broadcast flat.  At most
    _IN_PLACE Gaussians, as at one pair, take one pass, the offsets gathered
    by code; more go by blocks cut at family boundaries.  Both add one dot
    product per family and block, in code order, so they give the same bits."""
    c = -4.0 * t  # exp(d*d/c) / norm is gauss_free(t, d), bit for bit
    norm = np.sqrt(4.0 * math.pi * t)
    total = np.zeros(np.size(direct))
    step = max(1, _BLOCK // max(1, total.size))
    lengths, weights = table.lengths, table.weights
    if weights.size * total.size <= _IN_PLACE:
        offsets = np.array([direct] + [a + b for a in ax for b in by]).reshape(5, -1)
        d = lengths + offsets.take(table.code, axis=0)
        d = np.exp(d * d / c) / norm
        for _, a, b in table.bounds:  # a short total adds faster than in place
            total = total + np.dot(weights[a:b], d[a:b])
        return total
    for code, a, b in table.bounds:
        base = ax[(code - 1) >> 1] + by[(code - 1) & 1] if code else direct
        for k in range(a, b, step):
            m = min(k + step, b)
            # d lives until the next block is made: freeing a large block first
            # lets the allocator hand its pages back, to be faulted in again
            d = lengths[k:m] + base
            o = d if d.size > _IN_PLACE else None
            d = np.divide(np.exp(np.divide(np.multiply(d, d, o), c, o), o), norm, o)
            total += np.dot(weights[k:m], d)
    return total


def kernel_pathsum(
    g: MetricGraph, t: float, x: GraphPoint, y: GraphPoint, tol: float = 1e-10
) -> KernelEval:
    """Heat kernel by truncated scattering-walk summation: ``pathsum`` at one
    time and pair, bit for bit.

    The truncation length is the shortest one whose rigorous Gaussian tail
    bound is at most ``tol``; the certified remainder is returned in
    ``tail_bound``.
    """
    t = _one_time(t)
    g.check_point(x)
    g.check_point(y)
    lam, tail = _certified_lambda(g, t, tol)
    val, walks = _eval_pathsum(g, t, x.edge, float(x.s), y.edge, float(y.s), lam)
    return KernelEval(t, x, y, float(val[0]), tail, lam, walks)


def _time_lambda(g: MetricGraph, t, tol: float):
    """(t, lambda, tail bound): one time as a float, with its certified
    lambda; or an array of times, which one lambda serves: the one certified
    at t_max, raised to sqrt(2 t_max) if shorter.  At each admissible r the
    tail bound goes as e^{-lambda^2/4s}/sqrt(s), nondecreasing in s while
    lambda^2 >= 2s, and each r admissible at t_max (2 t_max r <= lambda) is
    admissible at every s < t_max; so the bound at t_max, which is returned,
    holds at every time.
    """
    if np.ndim(t) == 0:
        t = float(t)
        return (t, *_certified_lambda(g, t, tol))
    t = np.asarray(t, dtype=float)
    _check_time(t)
    t_max = float(t.max())
    lam, tail = _certified_lambda(g, t_max, tol)
    if lam * lam < 2.0 * t_max:
        lam = math.sqrt(2.0 * t_max)
        tail = pathsum_tail_bound(g, t_max, lam)
    return t, lam, tail


def pathsum(
    g: MetricGraph, t, edge_x: str, sx, edge_y: str, sy, tol: float = 1e-10
) -> tuple[np.ndarray, float]:
    """p_t between arclengths sx on edge_x and sy on edge_y, numpy-broadcast.

    A scalar against an array gives a profile, two equal arrays the diagonal,
    ``sx[:, None]`` against ``sy[None, :]`` a grid.  Returns (values, tail
    bound); the values agree with ``kernel_pathsum`` to rounding, and at one
    pair equal it.

    ``t`` may be an array too, broadcast with sx and sy; one truncation
    length then serves every time (``_time_lambda``).
    """
    t, lam, tail = _time_lambda(g, t, tol)
    ts, sx, sy = np.broadcast_arrays(t, np.asarray(sx, dtype=float),
                                     np.asarray(sy, dtype=float))
    g.check_arclengths(edge_x, sx)
    g.check_arclengths(edge_y, sy)
    values, _ = _eval_pathsum(g, t if np.ndim(t) == 0 else ts.ravel(), edge_x, sx.ravel(),
                              edge_y, sy.ravel(), lam)
    return values.reshape(sx.shape), tail


# -- kernel functionals --------------------------------------------------------


def kernel_mass(g: MetricGraph, t: float, x: GraphPoint, tol: float = 1e-12) -> float:
    """Integral of p_t(x, .) over the graph by Gauss-Legendre on each edge, each
    edge's rule within tol/2 (``_edge_rule``) and each value within tol."""
    t = _one_time(t)
    _check_tol(tol)
    total = 0.0
    for e in g.edges:
        s, w, _ = _edge_rule(t, e.length, [_edge_envelope(g, t, e.length)[1]], tol)
        vals, _ = pathsum(g, t, x.edge, x.s, e.id, s, tol=tol)
        total += float(np.dot(w, vals))
    return total


def kernel_semigroup_residual(
    g: MetricGraph, t: float, s: float, x: GraphPoint, y: GraphPoint, tol: float = 1e-12
) -> float:
    """|p_{t+s}(x,y) - int_G p_t(x,z) p_s(z,y) dz|, the integral by
    Gauss-Legendre on each edge, within tol/2 per edge (``_edge_rule``)."""
    t, s = _one_time(t), _one_time(s, "s")
    _check_tol(tol)
    conv = 0.0
    for e in g.edges:
        log_m = _edge_envelope(g, t, e.length)[1] + _edge_envelope(g, s, e.length)[1]
        nodes, w, _ = _edge_rule(min(t, s), e.length, [log_m], tol)
        row_t, _ = pathsum(g, t, x.edge, x.s, e.id, nodes, tol=tol)
        row_s, _ = pathsum(g, s, y.edge, y.s, e.id, nodes, tol=tol)
        conv += float(np.dot(w, row_t * row_s))
    direct = kernel_pathsum(g, t + s, x, y, tol=tol).value
    return abs(direct - conv)

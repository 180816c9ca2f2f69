"""Two indistinguishable particles on a metric graph.

The state space is the symmetric product of the graph with itself; its heat
kernel is the symmetrized product of single-particle kernels.  The module
computes heat traces by quadrature and by eigenvalue-pair sums, the
closed-form small-time contributions of an epsilon-decomposition of the state
space, and the predicted trace coefficients of any graph, which follow from
the total length and the constant term of the one-particle trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np

from ._quad import gauss_legendre
from .graph import GraphError, MetricGraph, _check_time, sigma_entries
from .kernels import _certified_lambda, _memo_per_graph, _resolvent_table, pathsum
from .spectral import ModeTable, _certified_k_max, eigen, trace_tail_bound

SQRT2 = math.sqrt(2.0)


# -- traces ---------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSeries:
    """Heat-trace values on a time grid with per-point error bounds."""

    t: tuple[float, ...]
    Z: tuple[float, ...]
    quad_error: tuple[float, ...]

    def __post_init__(self):
        if any(z <= 0 for z in self.Z):
            raise ValueError("trace values must be positive")


# node count past which an edge's rule is refused
_MAX_NODES = 1024


@_memo_per_graph
def _edge_rule(g: MetricGraph, t: float, length: float, tol: float):
    """(n, diagonal bound, pair bound): the least Gauss-Legendre node count on
    an edge of length l whose two error bounds are each at most tol/2.

    n >= 2 nodes err by at most (l/2)(64/15) M rho^(2-2n) / (rho^2 - 1) on
    [0, l] (Trefethen, SIAM Rev. 50, 2008, Thm 4.5), M = sup |f| on the
    ellipse of foci 0, l and semi-axes (l/4)(rho +- 1/rho): it reaches
    b = (l/4)(rho - 1/rho) off the axis and d = (l/4)(rho + 1/rho) - l/2 past
    each end.  There a walk term e^{-u^2/4t} of mid-length m and x-slope beta
    is at most e^{beta^2 b^2/4t} e^{r^2 t + r beta d - r m}, and all walks sum
    to at most e^{r^2 t + r beta d} Z(r) (``kernels._resolvent_table``).  On
    the diagonal beta <= 2 beside the constant direct term, which the rule
    integrates exactly.  In p(x, y)^2 beta = 1 and the direct term is at most
    e^{b^2/4t}; over the other edge and all ordered edge pairs its bound
    counts 2L times, L the total length.  Each bound is minimized over rho
    on a grid; memoized per graph, so edges of one length share it.
    """
    r, log_z = _resolvent_table(g)
    rho = 1.0 + np.geomspace(1e-4, 1e2, 100)
    b2 = (0.25 * length * (rho - 1.0 / rho)) ** 2
    d = 0.25 * length * (rho + 1.0 / rho) - 0.5 * length
    walks = [np.min(r * r * t + beta * np.outer(d, r) + log_z, axis=1) for beta in (2.0, 1.0)]
    log_g = -0.5 * math.log(4.0 * math.pi * t)
    log_m = np.array([b2 / t + walks[0] + log_g,  # the diagonal; then p^2, counted 2L times
                      2.0 * (b2 / (4.0 * t) + np.logaddexp(0.0, walks[1]) + log_g)
                      + math.log(2.0 * g.total_length)])
    log_c, log_rho = log_m + np.log(length * 32.0 / 15.0 / (rho * rho - 1.0)), np.log(rho)
    # per bound, the least n with log_c + (2 - 2n) log rho <= log(tol/2) at some rho
    n = (1.0 + (log_c - math.log(0.5 * tol)) / (2.0 * log_rho)).min(axis=1).max()
    n = max(2, math.ceil(n))
    if n > _MAX_NODES:
        raise ValueError(f"Gauss-Legendre needs {n} nodes on an edge at t={t:g}, "
                         f"more than {_MAX_NODES}")
    return n, *np.exp(np.min(log_c + (2.0 - 2.0 * n) * log_rho, axis=1)).tolist()


def _trace_parts(g: MetricGraph, t: float, tol: float):
    """(Z, bound on |Z - exact Z|) with Z = (A^2 + B)/2, A = int p(z,z) dz and
    B = int int p^2, by tensor Gauss-Legendre sized by ``_edge_rule``.

    The bound adds the quadrature bounds to the walk-sum tail tau, which moves
    A by at most L tau and B by at most tau (2L + L^2 tau), as p >= 0 and the
    heat mass is at most 1, and allows 1e-13 Z for rounding.  p is symmetric,
    so each unordered edge pair is evaluated once.
    """
    _, tail = _certified_lambda(g, t, tol)
    L = g.total_length
    err_a, err_b, rules = L * tail, tail * (2.0 * L + L * L * tail), {}
    for e in g.edges:
        n, e_diag, e_pair = _edge_rule(g, t, e.length, tol)
        x, w = gauss_legendre(n)
        rules[e.id] = (e.length * x, e.length * w)
        err_a, err_b = err_a + e_diag, err_b + e_pair
    diag = sum(float(w @ pathsum(g, t, eid, s, eid, s, tol=tol)[0])
               for eid, (s, w) in rules.items())
    pair = 0.0
    for e1, e2 in combinations_with_replacement(g.edges, 2):
        (s1, w1), (s2, w2) = rules[e1.id], rules[e2.id]
        mat, _ = pathsum(g, t, e1.id, s1[:, None], e2.id, s2[None, :], tol=tol)
        pair += (1.0 if e1 is e2 else 2.0) * float(w1 @ (mat * mat) @ w2)
    z = 0.5 * (diag * diag + pair)
    return z, err_a * (abs(diag) + 0.5 * err_a) + 0.5 * err_b + 1e-13 * z


def trace_two_particle(g: MetricGraph, t: float, step: float | None = None,
                       tol: float = 1e-10) -> float:
    """Two-particle heat trace by Gauss-Legendre quadrature over the state
    space, half the product-space integral of the symmetrized diagonal; each
    edge's node count certifies ``tol`` (``_edge_rule``).  ``step``, the old
    Simpson spacing, is only validated: ``perfbench/workloads.py`` passes it
    in third place, and it stays until ROADMAP item 1's benchmark change.
    """
    if step is not None:
        _check_time(step, "step")
    return _trace_parts(g, t, tol)[0]


def trace_series(g: MetricGraph, t_grid, tol: float = 1e-10) -> TraceSeries:
    """Quadrature traces on a time grid, each with its certified error bound."""
    ts = tuple(float(t) for t in t_grid)
    parts = [_trace_parts(g, t, tol) for t in ts]
    return TraceSeries(ts, tuple(z for z, _ in parts), tuple(e for _, e in parts))


def single_trace_eigen(modes: ModeTable, t):
    """Z_1(t) = sum_m e^{-k_m^2 t} over the table; t a time or an array."""
    t = np.asarray(t, dtype=float)
    _check_time(t)
    return np.exp(-np.multiply.outer(t, modes.k**2)).sum(axis=-1)


def trace_two_particle_eigen(modes: ModeTable, t):
    """Eigen-pair trace sum over unordered mode pairs, via the symmetrization
    identity Z_M(t) = (Z_1(t)^2 + Z_1(2t)) / 2; t a time or an array."""
    t = np.asarray(t, dtype=float)
    z1, z2 = single_trace_eigen(modes, np.stack([t, 2.0 * t]))
    return 0.5 * (z1 * z1 + z2)


def eigen_trace_series(g: MetricGraph, t_grid) -> TraceSeries:
    """TraceSeries from the eigenvalue-pair oracle, with truncation bounds."""
    ts = np.asarray(t_grid, dtype=float)
    _check_time(ts)
    k_max = _certified_k_max(g, float(ts.min()), 1e-18)
    modes = eigen(g, k_max)
    errs = trace_tail_bound(g, ts, k_max) * (2.0 * single_trace_eigen(modes, ts) + 1.0)
    return TraceSeries(tuple(ts.tolist()), tuple(trace_two_particle_eigen(modes, ts).tolist()),
                       tuple(errs.tolist()))


# -- exact coefficient arithmetic -------------------------------------------------


@dataclass(frozen=True)
class SymCoeff:
    """Exact value q + r2*sqrt(2) + ip/pi with rational slots."""

    q: Fraction = Fraction(0)
    r2: Fraction = Fraction(0)
    ip: Fraction = Fraction(0)

    def __add__(self, other):
        other = _as_coeff(other)
        return SymCoeff(self.q + other.q, self.r2 + other.r2, self.ip + other.ip)

    __radd__ = __add__

    def __float__(self):
        return float(self.q) + float(self.r2) * SQRT2 + float(self.ip) / math.pi

    def __eq__(self, other):
        other = _as_coeff(other)
        return (self.q, self.r2, self.ip) == (other.q, other.r2, other.ip)


def _as_coeff(x) -> SymCoeff:
    if isinstance(x, SymCoeff):
        return x
    return SymCoeff(Fraction(x))


def _sigma_sums(g: MetricGraph, vertex_id: str):
    """(deg, sum sigma_aa, sum sigma_aa^2, sum_{a<b} sigma_aa sigma_bb,
    sum_{a<b} sigma_ab^2) with exact rational entries."""
    d = g.degree(vertex_id)
    diag, off = sigma_entries(g.condition(vertex_id), d)
    s1 = d * diag
    s2 = d * diag * diag
    pairs = Fraction(d * (d - 1), 2)
    return d, s1, s2, pairs * diag * diag, pairs * off * off


# -- region contributions ----------------------------------------------------------


def _check_eps(g: MetricGraph, eps) -> Fraction:
    if not math.isfinite(eps):
        raise GraphError(f"eps must be finite, got {eps!r}")
    eps = Fraction(eps)
    if not 0 < eps < Fraction(g.min_edge_length) / 4:
        raise GraphError("eps must be positive and below a quarter edge length")
    return eps


def region_coefficients(g: MetricGraph, region: str, params: dict):
    """Closed-form contribution of one decomposition piece to the heat trace.

    Returns exact (vol, half, const) such that the piece contributes
    vol/(4 pi t) + half/(8 sqrt(pi t)) + const + O(t^inf).  Region types:
    A two bulk edges, B one edge with the fold strip along the diagonal,
    C vertex neighbourhood times a bulk edge, D two distinct vertex
    neighbourhoods, E one vertex neighbourhood folded on itself.
    """
    eps = _check_eps(g, params["eps"])
    zero = SymCoeff()
    if region == "A":
        e1, e2 = params["edges"]
        if e1 == e2:
            raise GraphError("region A needs two distinct edges")
        b1 = Fraction(g.edge_obj(e1).length) - 2 * eps
        b2 = Fraction(g.edge_obj(e2).length) - 2 * eps
        return SymCoeff(b1 * b2), zero, zero
    if region == "B":
        bulk = Fraction(g.edge_obj(params["edge"]).length) - 2 * eps
        # bulk fold triangle plus the two corner slivers left over by the
        # orthogonal cuts of the vertex regions
        vol = SymCoeff(bulk * bulk / 2 + eps * eps * 3, -eps * eps * 2)
        half = SymCoeff(0, bulk) + SymCoeff(-2 * eps, 2 * eps)
        const = SymCoeff(0, 0, Fraction(-1, 2))
        return vol, half, const
    if region == "C":
        v, gamma = params["vertex"], params["edge"]
        d, s1, *_ = _sigma_sums(g, v)
        bulk = Fraction(g.edge_obj(gamma).length) - 2 * eps
        n_inc = sum(1 for eid, _ in g.incidence(v) if eid == gamma)
        vol = SymCoeff(d * eps * bulk)
        half = SymCoeff(bulk * s1)
        # same-edge corner where the neighbourhood meets the bulk across the
        # diagonal: the exchange term integrates to 1/(4 pi) per incidence
        const = SymCoeff(0, 0, Fraction(n_inc, 4))
        return vol, half, const
    if region == "D":
        v1, v2 = params["vertices"]
        if v1 == v2:
            raise GraphError("region D needs two distinct vertices")
        d1, s1, *_ = _sigma_sums(g, v1)
        d2, s2, *_ = _sigma_sums(g, v2)
        vol = SymCoeff(Fraction(d1 * d2) * eps * eps)
        half = SymCoeff(eps * (d2 * s1 + d1 * s2))
        const = SymCoeff(s1 * s2 / 16)
        return vol, half, const
    if region == "E":
        v = params["vertex"]
        d, s1, s2, s_cross, s_off = _sigma_sums(g, v)
        vol = SymCoeff(Fraction(d * (d - 1), 2) * eps * eps - d * eps * eps,
                       d * eps * eps)
        half = SymCoeff((d * s1 + d) * eps)
        const = (
            SymCoeff(0, 0, Fraction(-d, 8))
            + SymCoeff(s1 / 8)
            + SymCoeff(s2 / 32, 0, s2 / 8)
            + SymCoeff(s_cross / 16)
            + SymCoeff(0, 0, s_off / 4)
        )
        return vol, half, const
    raise GraphError(f"unknown region type {region!r}")


def decomposition_coefficients(g: MetricGraph, eps):
    """Exact (vol, half, const) of the full epsilon-decomposition, all regions."""
    eps = _check_eps(g, eps)
    eids = [e.id for e in g.edges]
    vids = [v.id for v in g.vertices]
    regions = (
        [("A", {"edges": pair}) for pair in combinations(eids, 2)]
        + [("B", {"edge": e}) for e in eids]
        + [("C", {"vertex": v, "edge": e}) for v in vids for e in eids]
        + [("D", {"vertices": pair}) for pair in combinations(vids, 2)]
        + [("E", {"vertex": v}) for v in vids]
    )
    vol, half, const = SymCoeff(), SymCoeff(), SymCoeff()
    for region, params in regions:
        c = region_coefficients(g, region, {"eps": eps, **params})
        vol, half, const = vol + c[0], half + c[1], const + c[2]
    return vol, half, const


# -- predicted coefficients ---------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticFit:
    """Coefficients of Z(t) ~ a_minus1/t + a_half/sqrt(t) + a_0."""

    a_minus1: float
    a_half: float
    a_0: float
    residual: float


def predicted_coefficients_exact(g: MetricGraph):
    """Exact (vol, half, const) of the small-time trace expansion, on any graph.

    Same units as region_coefficients: the trace tends to
    vol/(4 pi t) + half/(8 sqrt(pi t)) + const.  The one-particle trace is
    Z_1(t) = L/(2 sqrt(pi t)) + c0 + O(exp(-l_min^2/4t)) with
    c0 = 1/4 sum_v tr sigma_v (Kottos & Smilansky 1999), so the
    symmetrization identity Z(t) = (Z_1(t)^2 + Z_1(2t))/2 gives
    vol = L^2/2, half = 4 L c0 + sqrt(2) L and const = c0^2/2 + c0/2.
    """
    L = sum(Fraction(e.length) for e in g.edges)
    c0 = sum(_sigma_sums(g, v.id)[1] for v in g.vertices) / 4
    return SymCoeff(L * L / 2), SymCoeff(4 * L * c0, L), SymCoeff(c0 * c0 / 2 + c0 / 2)


def predicted_coefficients(g: MetricGraph) -> AsymptoticFit:
    """Predicted trace coefficients (a_minus1, a_half, a_0) from the total
    length L and the one-particle constant c0, on any graph."""
    vol, half, const = predicted_coefficients_exact(g)
    return AsymptoticFit(
        float(vol) / (4.0 * math.pi),
        float(half) / (8.0 * math.sqrt(math.pi)),
        float(const),
        0.0,
    )


# -- fitting --------------------------------------------------------------------------


def asymptotic_fit(series: TraceSeries) -> AsymptoticFit:
    """Least-squares fit of Z(t) against {1/t, 1/sqrt(t), 1}."""
    if len(series.t) < 6:
        raise ValueError("need at least 6 grid points for the fit")
    z = np.array(series.Z)
    for t, zz, err in zip(series.t, series.Z, series.quad_error):
        if err > 1e-3 * zz:
            raise ValueError(
                f"trace value at t={t:g} carries error {err:.3g} > 0.1% of Z"
            )
    ts = np.array(series.t)
    design = np.column_stack([1.0 / ts, 1.0 / np.sqrt(ts), np.ones_like(ts)])
    scale = np.linalg.norm(design, axis=0)
    cond = np.linalg.cond(design / scale)
    if cond > 1e8:
        raise ValueError(f"ill-conditioned fit design (cond={cond:.3g}); widen the t-range")
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    resid = float(np.linalg.norm(design @ coef - z))
    return AsymptoticFit(float(coef[0]), float(coef[1]), float(coef[2]), resid)

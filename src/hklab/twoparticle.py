"""Two indistinguishable particles on a metric graph.

The state space is the symmetric product of the graph with itself; its heat
kernel is the symmetrized product of single-particle kernels.  The module
computes heat traces by quadrature and by eigenvalue-pair sums, the
closed-form small-time contributions of an epsilon-decomposition of the state
space, and the predicted trace coefficients for all-Kirchhoff graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._quad import _check_step, simpson_weights
from .graph import KIRCHHOFF, GraphError, GraphPoint, MetricGraph, _check_time, sigma_entries
from .kernels import kernel_pathsum, pathsum
from .spectral import ModeTable, eigen, spectral_tail_bound

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SymPoint:
    """Unordered pair of graph points, stored in canonical (edge, s) order."""

    x1: GraphPoint
    x2: GraphPoint

    def canonical(self) -> "SymPoint":
        a, b = sorted((self.x1, self.x2), key=lambda p: (p.edge, p.s))
        return SymPoint(a, b)

    def __iter__(self):
        yield self.x1
        yield self.x2


def kernel_two_particle(
    g: MetricGraph, t: float, p: SymPoint, q: SymPoint, tol: float = 1e-10
) -> float:
    """Symmetrized product kernel between two unordered pairs."""

    def k(a, b):
        return kernel_pathsum(g, t, a, b, tol=tol).value

    x1, x2 = p
    y1, y2 = q
    return k(x1, y1) * k(x2, y2) + k(x2, y1) * k(x1, y2)


# -- traces ---------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSeries:
    """Heat-trace values on a time grid with per-point error estimates."""

    t: tuple[float, ...]
    Z: tuple[float, ...]
    step: float
    quad_error: tuple[float, ...]

    def __post_init__(self):
        if any(z <= 0 for z in self.Z):
            raise ValueError("trace values must be positive")


def _trace_parts(g: MetricGraph, t: float, step: float, tol: float):
    """Diagonal integral A = int p(z,z) dz and pair integral B = int int p^2."""
    strides = (1, 2)  # the full grid, and its half grid for the error estimate
    diag = [0.0, 0.0]
    grids = {}
    for e in g.edges:
        n = max(4, int(math.ceil(e.length / step)))
        n += (-n) % 4  # divisible by 4 so the half grid is Simpson-compatible
        s = np.linspace(0.0, e.length, n + 1)
        grids[e.id] = s
        vals, _ = pathsum(g, t, e.id, s, e.id, s, tol=tol)
        for i, k in enumerate(strides):
            m = n // k
            diag[i] += float(np.dot(simpson_weights(m), vals[::k])) * e.length / (3.0 * m)
    pair = [0.0, 0.0]
    for e1 in g.edges:
        for e2 in g.edges:
            s1, s2 = grids[e1.id], grids[e2.id]
            mat, _ = pathsum(g, t, e1.id, s1[:, None], e2.id, s2[None, :], tol=tol)
            sq = mat * mat
            for i, k in enumerate(strides):
                m1, m2 = (len(s1) - 1) // k, (len(s2) - 1) // k
                inner = simpson_weights(m1) @ sq[::k, ::k] @ simpson_weights(m2)
                pair[i] += float(inner) * e1.length * e2.length / (9.0 * m1 * m2)
    z, z_half = [0.5 * (a * a + b) for a, b in zip(diag, pair)]
    return z, abs(z - z_half) / 15.0


def trace_two_particle(
    g: MetricGraph, t: float, step: float, tol: float = 1e-10
) -> float:
    """Two-particle heat trace by composite quadrature over the state space.

    The integral over the fundamental domain of unordered pairs is evaluated
    as half the product-space integral of the symmetrized diagonal.  Raises
    when the half-grid error estimate exceeds 1% of the value.
    """
    _check_time(t)
    _check_step(step)
    z, err = _trace_parts(g, t, step, tol)
    if err > 0.01 * z:
        raise ValueError(
            f"quadrature step {step:g} too coarse at t={t:g}: "
            f"error estimate {err:.3g} exceeds 1% of Z={z:.6g}"
        )
    return z


def trace_series(
    g: MetricGraph, t_grid, step: float, tol: float = 1e-10
) -> TraceSeries:
    _check_step(step)
    zs, errs = [], []
    for t in t_grid:
        z, err = _trace_parts(g, float(t), step, tol)
        zs.append(z)
        errs.append(err)
    return TraceSeries(tuple(float(t) for t in t_grid), tuple(zs), step, tuple(errs))


def single_trace_eigen(modes: ModeTable, t: float) -> float:
    _check_time(t)
    return sum(math.exp(-k**2 * t) for k in modes.k.tolist())


def trace_two_particle_eigen(modes: ModeTable, t: float) -> float:
    """Eigen-pair trace sum over unordered mode pairs, via the symmetrization
    identity Z_M(t) = (Z_1(t)^2 + Z_1(2t)) / 2."""
    _check_time(t)
    z1 = single_trace_eigen(modes, t)
    return 0.5 * (z1 * z1 + single_trace_eigen(modes, 2.0 * t))


def eigen_trace_series(
    g: MetricGraph, t_grid, k_max: float | None = None
) -> TraceSeries:
    """TraceSeries from the eigenvalue-pair oracle, with truncation estimates."""
    for t in t_grid:
        _check_time(t)
    t_min = min(float(t) for t in t_grid)
    if k_max is None:
        k_max = math.sqrt(math.log(1e18) / t_min)
    modes = eigen(g, k_max)
    zs, errs = [], []
    for t in t_grid:
        t = float(t)
        z1_tail = spectral_tail_bound(g, t, k_max)
        z = trace_two_particle_eigen(modes, t)
        zs.append(z)
        errs.append(z1_tail * (2.0 * single_trace_eigen(modes, t) + 1.0))
    return TraceSeries(tuple(float(t) for t in t_grid), tuple(zs), 0.0, tuple(errs))


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

    def __sub__(self, other):
        other = _as_coeff(other)
        return SymCoeff(self.q - other.q, self.r2 - other.r2, self.ip - other.ip)

    def scale(self, factor) -> "SymCoeff":
        f = Fraction(factor)
        return SymCoeff(self.q * f, self.r2 * f, self.ip * f)

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


def region_contributions(g: MetricGraph, region: str, params: dict, t: float) -> float:
    """Value at time t of a region's closed-form trace contribution."""
    _check_time(t)
    vol, half, const = region_coefficients(g, region, params)
    return (
        float(vol) / (4.0 * math.pi * t)
        + float(half) / (8.0 * math.sqrt(math.pi * t))
        + float(const)
    )


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
    """Exact (vol, half, const) of the small-time trace expansion.

    Same units as region_coefficients: the trace tends to
    vol/(4 pi t) + half/(8 sqrt(pi t)) + const.  All vertices Kirchhoff.
    """
    if any(v.condition != KIRCHHOFF for v in g.vertices):
        raise GraphError("predicted coefficients require all-Kirchhoff vertices")
    L = Fraction(0)
    for e in g.edges:
        L += Fraction(e.length)
    n_v = len(g.vertices)
    n_e = len(g.edges)
    vol = SymCoeff(L * L / 2)
    half = SymCoeff(2 * L * (n_v - n_e), L)
    const = SymCoeff()
    degs = [g.degree(v.id) for v in g.vertices]
    for i, d1 in enumerate(degs):
        for d2 in degs[i + 1:]:
            const = const + SymCoeff(Fraction((2 - d1) * (2 - d2), 16))
    for d in degs:
        const = const + SymCoeff(Fraction(3, 8) - Fraction(d, 4) + Fraction(d * d, 32))
    return vol, half, const


def predicted_coefficients(g: MetricGraph) -> AsymptoticFit:
    """Predicted trace coefficients (a_minus1, a_half, a_0) for Kirchhoff graphs."""
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

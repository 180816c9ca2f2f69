"""Killed kernels, first-exit densities, and locality certificates.

An open subdomain U of a metric graph is a union of open arclength intervals
whose boundary avoids vertices.  The killed kernel is computed on the cut
graph in which each boundary point becomes a Dirichlet vertex, so the walk
sum and the spectral solver both apply unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import simpson_nodes
from .graph import (
    DIRICHLET,
    Edge,
    GraphError,
    GraphPoint,
    MetricGraph,
    Vertex,
    _check_time,
)
from .kernels import KernelEval, kernel_pathsum


class SubdomainError(GraphError):
    pass


@dataclass(frozen=True)
class SubdomainSpec:
    """An open subset of a graph given by per-edge open intervals.

    Interval ends strictly inside an edge are cut points; an end at 0 or at
    the edge length extends U up to the vertex, and a vertex is inside U only
    if every incident edge end is covered.  Partially covered vertices are
    rejected: boundary points must sit in open edge interiors.
    """

    parent: MetricGraph
    pieces: tuple[tuple[str, float, float], ...]
    _aux: dict = field(default=None, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        g = self.parent
        by_edge: dict[str, list[tuple[float, float]]] = {}
        for eid, lo, hi in self.pieces:
            e = g.edge_obj(eid)
            if not (0.0 <= lo < hi <= e.length):
                raise SubdomainError(
                    f"bad interval ({lo}, {hi}) on edge {eid!r} of length {e.length}"
                )
            by_edge.setdefault(eid, []).append((lo, hi))
        for eid, ivals in by_edge.items():
            ivals.sort()
            for (a1, b1), (a2, b2) in zip(ivals, ivals[1:]):
                if b1 >= a2:
                    raise SubdomainError(f"overlapping intervals on edge {eid!r}")
        # a vertex is interior iff all incident edge-ends are covered; reject
        # the mixed case, where the boundary would sit on the vertex itself
        inside = {}
        for v in g.vertices:
            cover = []
            for eid, end in g.incidence(v.id):
                e = g.edge_obj(eid)
                ivals = by_edge.get(eid, [])
                if end == 0:
                    cover.append(any(lo == 0.0 for lo, _ in ivals))
                else:
                    cover.append(any(hi == e.length for _, hi in ivals))
            if all(cover):
                inside[v.id] = True
            elif not any(cover):
                inside[v.id] = False
            else:
                raise SubdomainError(
                    f"boundary of U touches vertex {v.id!r}; cut points must "
                    "lie in open edge interiors"
                )
        cuts = []
        for eid in sorted(by_edge):
            e = g.edge_obj(eid)
            for lo, hi in by_edge[eid]:
                if lo > 0.0:
                    cuts.append(GraphPoint(eid, lo))
                if hi < e.length:
                    cuts.append(GraphPoint(eid, hi))
        object.__setattr__(
            self,
            "_aux",
            {"by_edge": {k: tuple(v) for k, v in by_edge.items()},
             "inside": inside, "cuts": tuple(cuts), "cut_graph": None},
        )

    @property
    def cut_points(self) -> tuple[GraphPoint, ...]:
        return self._aux["cuts"]

    def contains(self, p: GraphPoint, strict: bool = True) -> bool:
        """Whether p lies in U (strict=False includes the closure)."""
        self.parent.check_point(p)
        slack = 0.0 if strict else 1e-12
        vid = self.parent.point_at_vertex(p)
        if vid is not None and self._aux["inside"].get(vid, False):
            return True
        for lo, hi in self._aux["by_edge"].get(p.edge, ()):
            if lo - slack < p.s < hi + slack or (
                not strict and (abs(p.s - lo) <= slack or abs(p.s - hi) <= slack)
            ):
                return True
        return False

    def volume(self) -> float:
        return sum(hi - lo for _, lo, hi in self.pieces)

    # -- cut graph -------------------------------------------------------

    def cut_graph(self):
        """Graph of the U pieces with Dirichlet vertices at all cut points.

        Returns (graph, to_cut, from_cut) where to_cut maps a GraphPoint of U
        into the cut graph.
        """
        if self._aux["cut_graph"] is None:
            self._aux["cut_graph"] = self._build_cut_graph()
        return self._aux["cut_graph"]

    def _build_cut_graph(self):
        g = self.parent
        vertices = [v for v in g.vertices if self._aux["inside"][v.id]]
        edges = []
        piece_table = []  # (edge, lo, hi, sub-id, u-sub, v-sub)
        for eid in sorted(self._aux["by_edge"]):
            e = g.edge_obj(eid)
            for i, (lo, hi) in enumerate(self._aux["by_edge"][eid]):
                sub_id = f"{eid}#{i}"
                if lo == 0.0:
                    u_id = e.u
                else:
                    u_id = f"cut:{eid}:{i}:lo"
                    vertices.append(Vertex(u_id, DIRICHLET))
                if hi == e.length:
                    v_id = e.v
                else:
                    v_id = f"cut:{eid}:{i}:hi"
                    vertices.append(Vertex(v_id, DIRICHLET))
                edges.append(Edge(sub_id, u_id, v_id, hi - lo))
                piece_table.append((eid, lo, hi, sub_id))
        cg = MetricGraph(tuple(vertices), tuple(edges))

        def to_cut(p: GraphPoint) -> GraphPoint:
            for peid, lo, hi, sub_id in piece_table:
                if p.edge == peid and lo <= p.s <= hi:
                    return GraphPoint(sub_id, p.s - lo)
            raise SubdomainError(f"point {p} is not in the closure of U")

        def from_cut(p: GraphPoint) -> GraphPoint:
            for peid, lo, hi, sub_id in piece_table:
                if p.edge == sub_id:
                    return GraphPoint(peid, p.s + lo)
            raise SubdomainError(f"point {p} is not on the cut graph")

        return cg, to_cut, from_cut


def interval_subdomain(g: MetricGraph, edge_id: str, lo: float, hi: float) -> SubdomainSpec:
    return SubdomainSpec(g, ((edge_id, lo, hi),))


def ball_subdomain(g: MetricGraph, vertex_id: str, radius: float) -> SubdomainSpec:
    """Open metric ball around a vertex, one piece per incident half-edge."""
    pieces = []
    for eid, end in g.incidence(vertex_id):
        e = g.edge_obj(eid)
        if radius >= e.length:
            raise SubdomainError("ball radius must be below incident edge lengths")
        if end == 0:
            pieces.append((eid, 0.0, radius))
        else:
            pieces.append((eid, e.length - radius, e.length))
    return SubdomainSpec(g, tuple(pieces))


# -- killed kernel and exit density --------------------------------------------


def kernel_killed(
    spec: SubdomainSpec, t: float, x: GraphPoint, y: GraphPoint, tol: float = 1e-10
) -> KernelEval:
    """Heat kernel of U with absorption at the cut points."""
    if not spec.contains(x, strict=False) or not spec.contains(y, strict=False):
        raise SubdomainError("killed kernel arguments must lie in U")
    cg, to_cut, _ = spec.cut_graph()
    ev = kernel_pathsum(cg, t, to_cut(x), to_cut(y), tol=tol)
    return KernelEval(t, x, y, ev.value, ev.tail_bound)


def _cut_inward(spec: SubdomainSpec, b: GraphPoint):
    """The U piece adjacent to a cut point and the inward direction sign."""
    for eid, lo, hi in spec.pieces:
        if eid == b.edge:
            if b.s == lo and lo > 0.0:
                return eid, lo, hi, +1.0
            if b.s == hi and hi < spec.parent.edge_obj(eid).length:
                return eid, lo, hi, -1.0
    raise SubdomainError(f"{b} is not a cut point of U")


def exit_density(
    spec: SubdomainSpec, x: GraphPoint, b: GraphPoint, s: float, tol: float = 1e-12
) -> float:
    """Density in s of the first exit through cut point b, started from x.

    Computed as the inward derivative of the killed kernel at b, by one-sided
    differences with Richardson extrapolation (steps 1e-4 and 5e-5).
    """
    _check_time(s, "s")
    _, _, _, sgn = _cut_inward(spec, b)
    h1, h2 = 1e-4, 5e-5
    v1 = kernel_killed(spec, s, x, GraphPoint(b.edge, b.s + sgn * h1), tol=tol).value
    v2 = kernel_killed(spec, s, x, GraphPoint(b.edge, b.s + sgn * h2), tol=tol).value
    d1, d2 = v1 / h1, v2 / h2
    return 2.0 * d2 - d1


def decomposition_residual(
    spec: SubdomainSpec,
    t: float,
    x: GraphPoint,
    y: GraphPoint,
    time_step: float = 1e-4,
    tol: float = 1e-12,
) -> float:
    """Defect of the first-exit decomposition of the heat kernel.

    |p_t(x,y) - p^U_t(x,y) - sum_b int_0^t q_b(s) p_{t-s}(b,y) ds| with q_b the
    exit density through cut point b; the time integral uses composite Simpson
    with the given step.
    """
    if time_step <= 0:
        raise ValueError("time_step must be positive")
    g = spec.parent
    full = kernel_pathsum(g, t, x, y, tol=tol).value
    killed = kernel_killed(spec, t, x, y, tol=tol).value
    s_nodes, w = simpson_nodes(t, time_step)
    flux = 0.0
    for b in spec.cut_points:
        integrand = np.zeros_like(s_nodes)
        for i, s in enumerate(s_nodes):
            if s <= 0.0 or s >= t:
                continue  # both factors vanish in the limits
            q = exit_density(spec, x, b, float(s), tol=tol)
            integrand[i] = q * kernel_pathsum(g, t - float(s), b, y, tol=tol).value
        flux += float(np.dot(w, integrand))
    return abs(full - killed - flux)


# -- decay bound ---------------------------------------------------------------


@dataclass(frozen=True)
class DecayBoundParams:
    """Envelope p_t(x,y) <= C t^{-n/2} exp(-d^2/(c t)) valid for 0 < t < T."""

    C: float
    c: float
    n: float
    T: float

    def __post_init__(self):
        if self.C <= 0 or self.c <= 0 or self.n < 0 or self.T <= 0:
            raise ValueError("decay-bound parameters must be positive (n >= 0)")


def nonlocal_bound(params: DecayBoundParams, rho: float, t: float) -> float:
    """Bound C t^{-n/2} exp(-rho^2/(c t)) on the mass of paths leaving U."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not (0 < t < params.T):
        raise ValueError(f"t must lie in (0, {params.T})")
    return params.C * t ** (-params.n / 2.0) * math.exp(-rho * rho / (params.c * t))


def fit_decay_params(
    g: MetricGraph,
    T: float,
    n: float = 1.0,
    t_grid: np.ndarray | None = None,
    points_per_edge: int = 5,
    tol: float = 1e-12,
) -> DecayBoundParams:
    """Empirical decay envelope fitted on sampled kernel values.

    c comes from a least-squares fit of log p against d^2/t; C is then
    inflated so the bound majorizes every sample.
    """
    from .graph import distance

    if t_grid is None:
        t_grid = np.geomspace(T / 20.0, T * 0.999, 6)
    pts = [
        GraphPoint(e.id, frac * e.length)
        for e in g.edges
        for frac in np.linspace(0.15, 0.85, points_per_edge)
    ]
    rows = []
    for t in t_grid:
        for i, x in enumerate(pts):
            for y in pts[i:]:
                d = distance(g, x, y)
                p = kernel_pathsum(g, float(t), x, y, tol=tol).value
                if p > 1e-250:
                    rows.append((d * d / t, math.log(p) + 0.5 * n * math.log(t), d, t, p))
    w = np.array([r[0] for r in rows])
    z = np.array([r[1] for r in rows])
    mask = w > 1e-12
    if mask.sum() >= 2:
        slope = np.polyfit(w[mask], z[mask], 1)[0]
        c = -1.0 / slope if slope < 0 else 8.0
    else:
        c = 4.0
    c = float(min(max(c, 2.0), 50.0))
    C = max(
        r[4] * r[3] ** (n / 2.0) * math.exp(r[2] ** 2 / (c * r[3])) for r in rows
    )
    return DecayBoundParams(float(C) * (1.0 + 1e-9), c, n, T)


# -- isometries and locality certificates ---------------------------------------


@dataclass(frozen=True)
class MapPiece:
    """Affine arclength identification of one source interval with a target."""

    edge_a: str
    lo_a: float
    hi_a: float
    edge_b: str
    lo_b: float
    sign: int  # +1 keeps orientation, -1 reverses it

    def apply(self, s: float) -> float:
        return self.lo_b + (s - self.lo_a) if self.sign > 0 else self.lo_b + (self.hi_a - s)


@dataclass(frozen=True)
class IsometryMap:
    """Measure-preserving isometry between subdomains of two graphs."""

    source: SubdomainSpec
    target: SubdomainSpec
    pieces: tuple[MapPiece, ...]

    def __post_init__(self):
        src = {(p.edge_a, p.lo_a, p.hi_a) for p in self.pieces}
        if src != set(self.source.pieces):
            raise SubdomainError("map pieces must cover the source subdomain exactly")
        tgt_b = self.target.parent
        remaining = list(self.target.pieces)
        for p in self.pieces:
            length = p.hi_a - p.lo_a
            hi_b = p.lo_b + length
            if hi_b > tgt_b.edge_obj(p.edge_b).length + 1e-12:
                raise SubdomainError(
                    f"image of piece {p.edge_a!r} exceeds edge {p.edge_b!r}"
                )
            for i, (eid, lo, hi) in enumerate(remaining):
                if eid == p.edge_b and abs(lo - p.lo_b) < 1e-12 and abs(hi - hi_b) < 1e-12:
                    remaining.pop(i)
                    break
            else:
                raise SubdomainError(
                    f"image of piece {p.edge_a!r} is not a piece of the target"
                )
        if remaining:
            raise SubdomainError("map pieces must cover the target subdomain exactly")

    def apply(self, p: GraphPoint) -> GraphPoint:
        for piece in self.pieces:
            if p.edge == piece.edge_a and piece.lo_a <= p.s <= piece.hi_a:
                return GraphPoint(piece.edge_b, piece.apply(p.s))
        raise SubdomainError(f"{p} has no image under the isometry")


def identity_map(spec: SubdomainSpec) -> IsometryMap:
    pieces = tuple(
        MapPiece(eid, lo, hi, eid, lo, +1) for eid, lo, hi in spec.pieces
    )
    return IsometryMap(spec, spec, pieces)


@dataclass(frozen=True)
class LocalityCertificate:
    """Fitted exponential-in-1/t envelope for kernel differences on V x V."""

    t_grid: tuple[float, ...]
    sup_diffs: tuple[float, ...]
    C: float
    eps: float
    r2: float
    certified: bool
    reason: str
    noise_floor: tuple[float, ...]

    def bound(self, t: float) -> float:
        return self.C * math.exp(-self.eps / t)


def _v_grid(spec: SubdomainSpec, points_per_piece: int = 9) -> list[GraphPoint]:
    pts = []
    for eid, lo, hi in spec.pieces:
        for s in np.linspace(lo, hi, points_per_piece):
            pts.append(GraphPoint(eid, float(s)))
    return pts


def locality_compare(
    g_a: MetricGraph,
    g_b: MetricGraph,
    iso: IsometryMap,
    V: SubdomainSpec,
    t_grid,
    points_per_piece: int = 9,
    min_r2: float = 0.99,
) -> LocalityCertificate:
    """Measure sup |p^A - p^B ∘ psi| on a V x V grid and fit C exp(-eps/t).

    Differences below the float64 resolution of the kernel values are
    excluded from the fit and recorded; with fewer than four usable points,
    or a fit with R^2 below min_r2 or eps <= 0, no certificate is issued.
    """
    if V.parent != g_a:
        raise SubdomainError("V must be a subdomain of the first graph")
    for eid, lo, hi in V.pieces:
        if not (
            iso.source.contains(GraphPoint(eid, lo))
            and iso.source.contains(GraphPoint(eid, hi))
        ):
            raise SubdomainError("closure of V must be contained in U")
    t_grid = tuple(float(t) for t in t_grid)
    pts = _v_grid(V, points_per_piece)
    imgs = [iso.apply(p) for p in pts]
    sups, floors = [], []
    for t in t_grid:
        scale = 1.0 / math.sqrt(4.0 * math.pi * t)
        tol = max(1e-16 * scale, 1e-280)
        sup = 0.0
        kmax = 0.0
        for xa, xb in zip(pts, imgs):
            for ya, yb in zip(pts, imgs):
                pa = kernel_pathsum(g_a, t, xa, ya, tol=tol).value
                pb = kernel_pathsum(g_b, t, xb, yb, tol=tol).value
                sup = max(sup, abs(pa - pb))
                kmax = max(kmax, abs(pa), abs(pb))
        sups.append(sup)
        floors.append(64.0 * np.finfo(float).eps * kmax)
    usable = [i for i in range(len(t_grid)) if sups[i] > floors[i]]
    if not usable and all(s == 0.0 or s <= f for s, f in zip(sups, floors)):
        return LocalityCertificate(
            t_grid, tuple(sups), 0.0, math.inf, 1.0, True,
            "differences vanish at every grid time", tuple(floors),
        )
    if len(usable) < 4:
        return LocalityCertificate(
            t_grid, tuple(sups), math.nan, math.nan, math.nan, False,
            "no exponential certificate: too few resolvable differences",
            tuple(floors),
        )
    ts = np.array([t_grid[i] for i in usable])
    ys = np.log(np.array([sups[i] for i in usable]))
    design = np.column_stack([np.ones_like(ts), -1.0 / ts])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    log_c, eps = float(coef[0]), float(coef[1])
    fitted = design @ coef
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    C = math.exp(log_c)
    certified = eps > 0 and r2 >= min_r2
    reason = "ok" if certified else "no exponential certificate"
    if certified:
        for i in usable:
            if sups[i] > C * math.exp(-eps / t_grid[i]) * 1.10:
                certified = False
                reason = "fitted envelope violated beyond the 10% slack"
                break
    return LocalityCertificate(
        t_grid, tuple(sups), C, eps, r2, certified, reason, tuple(floors)
    )

"""Killed kernels, first-exit densities, and locality certificates.

An open subdomain U of a metric graph is a union of open arclength intervals
whose boundary avoids vertices.  The killed kernel is computed on the cut
graph in which each boundary point becomes a Dirichlet vertex, so the walk
sum and the spectral solver both apply unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._quad import gauss_legendre
from .graph import (DIRICHLET, Edge, GraphError, GraphPoint, MetricGraph, Vertex, _check_time,
                    _one_time)
from .kernels import (_MAX_NODES, KernelEval, _certified_lambda, _eval_pathsum, _families,
                      _gauss_sum, _Split, _time_lambda, kernel_pathsum, pathsum,
                      pathsum_tail_bound)


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
            cover = [any(lo == 0.0 if end == 0 else hi == g.edge_obj(eid).length
                         for lo, hi in by_edge.get(eid, ())) for eid, end in g.incidence(v.id)]
            if any(cover) and not all(cover):
                raise SubdomainError(
                    f"boundary of U touches vertex {v.id!r}; cut points must "
                    "lie in open edge interiors"
                )
            inside[v.id] = all(cover)
        # every piece end strictly inside its edge, in edge order
        cuts = tuple(GraphPoint(eid, s) for eid in sorted(by_edge) for ends in by_edge[eid]
                     for s in ends if 0.0 < s < g.edge_obj(eid).length)
        object.__setattr__(
            self,
            "_aux",
            {"by_edge": {k: tuple(v) for k, v in by_edge.items()},
             "inside": inside, "cuts": cuts, "cut_graph": None},
        )

    @property
    def cut_points(self) -> tuple[GraphPoint, ...]:
        return self._aux["cuts"]

    def contains(self, p: GraphPoint) -> bool:
        """Whether p lies in the open set U."""
        self.parent.check_point(p)
        vid = self.parent.point_at_vertex(p)
        if vid is not None and self._aux["inside"].get(vid, False):
            return True
        return any(lo < p.s < hi for lo, hi in self._aux["by_edge"].get(p.edge, ()))

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
    """Heat kernel of U with absorption at the cut points; x and y must lie in
    the closure of U, or the map into the cut graph raises SubdomainError."""
    cg, to_cut, _ = spec.cut_graph()
    ev = kernel_pathsum(cg, t, to_cut(x), to_cut(y), tol=tol)
    return replace(ev, x=x, y=y)


def exit_density(
    spec: SubdomainSpec, x: GraphPoint, b: GraphPoint, s, tol: float = 1e-12
):
    """Density in s of the first exit through cut point b, started from x.

    It is the inward derivative at b of the killed kernel's walk sum on the
    cut graph.  With y = b fixed each walk has one total length l_i, so the
    derivative is (1/2s) sum_i sigma_i w_i l_i g_s(l_i), g_s the free kernel:
    sigma_i = -1 for a walk that enters b's edge at b, +1 for one that enters
    at the other end and for the direct walk.  The walks are those of the
    kernel at lambda certified to ``tol`` at the largest s (``pathsum``'s
    truncation), summed in one pass over every time.  ``s`` may be an array
    of times, which returns an array of densities.  b must be a cut point of
    U and x lie inside U, else SubdomainError.
    """
    s = np.asarray(s, dtype=float)
    _check_time(s, "s")
    if b not in spec.cut_points:
        raise SubdomainError(f"{b} is not a cut point of U")
    if not spec.contains(x):
        raise SubdomainError("start point must lie inside U")
    cg, to_cut, _ = spec.cut_graph()
    xc, bc = to_cut(x), to_cut(b)
    table = _families(cg, xc.edge, bc.edge, _time_lambda(cg, s if s.ndim else float(s), tol)[1])
    ax, by = ((p.s, cg.edge_obj(p.edge).length - p.s) for p in (xc, bc))
    offsets = np.array([xc.s - bc.s] + [a + b for a in ax for b in by])
    lengths = np.abs(table.lengths[:, 0] + offsets[table.code])
    # the families (d1, d2) with d2 the end of b's edge at b
    at_b = (table.code > 0) & ((table.code - 1) & 1 == (bc.s > 0.0))
    weights = np.where(at_b, -lengths, lengths) * table.weights
    ones = np.ones(s.size)
    out = _gauss_sum(table._replace(weights=weights), [a * ones for a in ax],
                     [b * ones for b in by], offsets[0] * ones, s.ravel()) / (2.0 * s.ravel())
    return out.reshape(s.shape) if s.ndim else float(out[0])


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
    exit density through cut point b and x inside U.  The time integral is
    Gauss-Legendre with ceil(t / time_step) nodes, on panels of at most
    ``kernels._MAX_NODES`` nodes.  Each cut point takes one ``exit_density``
    call and one ``pathsum`` call over all the nodes, so each walk
    enumeration serves every node.
    """
    t = _one_time(t)
    _check_time(time_step, "step")
    full = kernel_pathsum(spec.parent, t, x, y, tol=tol).value
    killed = kernel_killed(spec, t, x, y, tol=tol).value
    n = math.ceil(t / time_step)
    panels = -(-n // _MAX_NODES)
    nodes, weights = gauss_legendre(-(-n // panels))
    s = ((np.arange(panels)[:, None] + nodes) * (t / panels)).ravel()
    w = np.tile(weights * (t / panels), panels)
    flux = 0.0
    for b in spec.cut_points:
        q = exit_density(spec, x, b, s, tol=tol)
        p, _ = pathsum(spec.parent, t - s, b.edge, b.s, y.edge, y.s, tol=tol)
        flux += float(np.dot(w, q * p))
    return abs(full - killed - flux)


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

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise SubdomainError(f"map piece sign must be +1 or -1, got {self.sign!r}")

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
        g_a, tgt_b, pairs = self.source.parent, self.target.parent, set()
        remaining = list(self.target.pieces)
        for p in self.pieces:
            e_a, e_b = g_a.edge_obj(p.edge_a), tgt_b.edge_obj(p.edge_b)
            hi_b = p.lo_b + (p.hi_a - p.lo_a)
            if hi_b > e_b.length + 1e-12:
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
            ends_b = (e_b.u if lo == 0.0 else None, e_b.v if hi == e_b.length else None)
            pairs |= set(zip((e_a.u if p.lo_a == 0.0 else None,
                              e_a.v if p.hi_a == e_a.length else None), ends_b[::p.sign]))
        if remaining:
            raise SubdomainError("map pieces must cover the target subdomain exactly")
        # a walk that stays in U meets the same vertices as its image: a piece
        # end at a vertex maps to one at a vertex of the same condition, one
        # vertex to one (so of the same degree, as both lie inside)
        pairs.discard((None, None))
        if (len({va for va, _ in pairs}) < len(pairs) or len({vb for _, vb in pairs}) < len(pairs)
                or any(None in pair or g_a.condition(pair[0]) != tgt_b.condition(pair[1])
                       for pair in pairs)):
            raise SubdomainError("the map does not carry U's vertices onto the target's")

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
    """Certified decay of the kernel difference on closure(V)^2: ``sup_bounds``
    at each grid time, and ``bound(t) = C t^{-1/2} e^{-eps/t}`` at every
    t <= max(t_grid), on the grid or off it, with eps = eps* and C = C* of
    ``locality_compare``.  ``eps_fit`` and ``r2`` check eps* independently:
    the least-squares fit of ln sup + (1/2) ln t = ln C - eps/t to the nonzero
    differences, nan with fewer than three."""

    t_grid: tuple[float, ...]
    sup_diffs: tuple[float, ...]
    C: float
    eps: float
    eps_fit: float
    r2: float
    certified: bool
    reason: str
    sup_bounds: tuple[float, ...]

    def bound(self, t: float) -> float:
        return self.C * math.exp(-self.eps / t) / math.sqrt(t)


def _v_grid(iso: IsometryMap, V: SubdomainSpec, n: int):
    """V's grid, one run per piece of V: the map piece that holds its closure,
    then (edge, s, ends, box) on A and on B, where ends says whether that
    piece reaches end 0 and end 1 of the edge and box is the piece's (lo, hi).
    The map carries piece ends at vertices to piece ends at vertices, so B's
    ends are A's, reversed with the orientation."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise GraphError(f"points_per_piece must be an integer >= 1, got {n!r}")
    runs = []
    for eid, lo, hi in V.pieces:
        length = V.parent.edge_obj(eid).length
        p = next((p for p in iso.pieces if p.edge_a == eid
                  and (p.lo_a < lo or p.lo_a == lo == 0.0)
                  and (hi < p.hi_a or hi == p.hi_a == length)), None)
        if p is None:
            raise SubdomainError("closure of V must be contained in U")
        s = np.linspace(lo, hi, n)
        ends = (p.lo_a == 0.0, p.hi_a == length)
        runs.append((p, (eid, s, ends, (lo, hi)),
                     (p.edge_b, p.apply(s), ends[::p.sign], sorted(map(p.apply, (lo, hi))))))
    return runs


def _leaving_bound(g, t, edge_x, box_x, edge_y, box_y, lam, left):
    """At each time of t, a bound on the walks that leave U over box_x x
    box_y, two (lo, hi) ranges of arclength: each walk's |w| times the free
    kernel at the walk's shortest length there; and the least such length."""
    table = _families(g, edge_x, edge_y, lam, left)
    ax = (box_x[0], g.edge_obj(edge_x).length - box_x[1])
    by = (box_y[0], g.edge_obj(edge_y).length - box_y[1])
    gap = max(box_y[0] - box_x[1], box_x[0] - box_y[1], 0.0)
    offsets = np.array([gap] + [a + b for a in ax for b in by])
    shortest = float(np.min(table.lengths[:, 0] + offsets[table.code], initial=math.inf))
    ones = np.ones_like(t)
    return _gauss_sum(table._replace(weights=np.abs(table.weights)), [a * ones for a in ax],
                      [b * ones for b in by], gap * ones, t), shortest


def locality_compare(
    g_a: MetricGraph,
    g_b: MetricGraph,
    iso: IsometryMap,
    V: SubdomainSpec,
    t_grid,
    points_per_piece: int = 9,
) -> LocalityCertificate:
    """Measure sup |p^A - p^B ∘ psi| on a V x V grid and certify its decay.

    A walk that stays in U has the same weight on A as its image on B, so on
    V x V the difference is the sum of the walks on A that leave U minus that
    on B of those that leave psi(U) (``kernels._Split``): no two kernel values
    are subtracted.  Both sums are truncated at the length lambda certified to
    1e-16/sqrt(4 pi t_max), at every grid time in one call per run pair.
    ``sup_bounds`` bounds the difference on closure(V)^2 at each time: each
    leaving walk's |w| times the Gaussian at its shortest length l_i there,
    plus the truncation tail, on A and on B, raised by 1e-9 against rounding.
    It is certified if every difference is within its bound.

    eps* = min(l*, lambda_A, lambda_B)^2/4, l* the least l_i, and C* =
    sup_bounds(t_max) sqrt(t_max) e^{eps*/t_max}.  Times sqrt(t) e^{eps*/t}
    a walk term is |w| e^{-(l_i^2 - 4 eps*)/4t}/sqrt(4 pi) and a tail term
    exp(min_r (r lambda + ln Z) - (lambda^2 - 4 eps*)/4t)/sqrt(4 pi), over
    the r admissible at t, fewer as t grows: both are nondecreasing in t, so
    C* t^{-1/2} e^{-eps*/t} bounds the difference at every t <= t_max.  An
    empty grid, a time that is not finite and positive, or a point count that
    is not an integer >= 1 raises GraphError.
    """
    t = np.array(t_grid, dtype=float).ravel()
    _check_time(t, "t_grid")
    if V.parent != g_a:
        raise SubdomainError("V must be a subdomain of the first graph")
    runs = _v_grid(iso, V, points_per_piece)
    t_max = float(t.max())
    tol = 1e-16 / math.sqrt(4.0 * math.pi * t_max)
    sides = [(g, _certified_lambda(g, t_max, tol)[0],
              frozenset(i for i, e in enumerate(g.edges) if (e.id, 0.0, e.length) in spec.pieces))
             for g, spec in ((g_a, iso.source), (g_b, iso.target))]
    sups, bounds, reach = np.zeros(t.size), np.zeros(t.size), min(lam for _, lam, _ in sides)
    for px, *rx in runs:
        for py, *ry in runs:
            diff = bound = 0.0
            for (g, lam, whole), (ex, sx, x_ends, bx), (ey, sy, y_ends, by) in zip(sides, rx, ry):
                left = _Split(px != py, x_ends, y_ends, whole)
                ts, gx, gy = np.broadcast_arrays(t[:, None, None], sx[:, None], sy[None, :])
                diff = _eval_pathsum(g, ts.ravel(), ex, gx.ravel(), ey, gy.ravel(), lam,
                                     left)[0] - diff
                walks, shortest = _leaving_bound(g, t, ex, bx, ey, by, lam, left)
                bound, reach = bound + walks, min(reach, shortest)
            sups = np.maximum(sups, np.abs(diff).reshape(t.size, -1).max(axis=1))
            bounds = np.maximum(bounds, bound)
    for g, lam, _ in sides:
        bounds += [pathsum_tail_bound(g, float(ti), lam) for ti in t]
    bounds *= 1.0 + 1e-9
    eps = reach * reach / 4.0
    # ln C*, raised by 1e-9 against rounding
    C = math.exp(math.log(bounds[t.argmax()]) + 0.5 * math.log(t_max) + eps / t_max + 1e-9)
    nz, eps_fit, r2 = sups > 0.0, math.nan, math.nan
    if nz.sum() >= 3:
        ts, ys = t[nz], np.log(sups[nz]) + 0.5 * np.log(t[nz])
        design = np.column_stack([np.ones_like(ts), -1.0 / ts])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        res, tot = np.sum((ys - design @ coef) ** 2), np.sum((ys - ys.mean()) ** 2)
        eps_fit, r2 = float(coef[1]), float(1.0 - res / tot) if tot > 0 else 1.0
    ok = bool(np.all(sups <= bounds))
    return LocalityCertificate(tuple(t.tolist()), tuple(sups.tolist()), C, eps, eps_fit, r2, ok,
                               "ok" if ok else "a difference exceeds its bound",
                               tuple(bounds.tolist()))

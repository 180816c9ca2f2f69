"""Metric graphs: data model, validation, path metric, scattering walks.

A metric graph is a combinatorial graph whose edges carry positive lengths.
Points live on edges as (edge, arclength-from-u-endpoint) pairs; loops and
multi-edges are allowed.  Every object here is immutable after construction
and all operations are pure functions, so everything is safe to share across
concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

KIRCHHOFF = "kirchhoff"
DIRICHLET = "dirichlet"
_CONDITIONS = (KIRCHHOFF, DIRICHLET)

# drop walk weights below this; their contribution is below any tolerance
_WEIGHT_FLOOR = 1e-300


class GraphError(ValueError):
    """Malformed graph document or violated graph invariant."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


def _check_time(t, name: str = "t"):
    """Reject a time that is NaN, infinite or not positive."""
    if not 0.0 < t < math.inf:
        raise GraphError(f"{name} must be finite and positive, got {t!r}")


@dataclass(frozen=True)
class Vertex:
    id: str
    condition: str


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: float


@dataclass(frozen=True)
class GraphPoint:
    """A point on a metric graph: arclength s from the u-endpoint of an edge."""

    edge: str
    s: float


@dataclass(frozen=True)
class MetricGraph:
    """Compact metric graph with per-vertex boundary conditions.

    Vertices carry either the Kirchhoff or the Dirichlet condition; edge
    lengths are finite positive reals.  Construction validates all
    invariants and precomputes incidence tables.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    _tables: dict = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if not self.edges:
            raise GraphError("graph must have at least one edge")
        vids = [v.id for v in self.vertices]
        if len(set(vids)) != len(vids):
            raise GraphError("duplicate vertex id", offending=vids)
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise GraphError("duplicate edge id", offending=eids)
        for v in self.vertices:
            if v.condition not in _CONDITIONS:
                raise GraphError(
                    f"unknown condition {v.condition!r} at vertex {v.id!r}",
                    offending=v.id,
                )
        vset = set(vids)
        for e in self.edges:
            if not (isinstance(e.length, (int, float)) and math.isfinite(e.length)):
                raise GraphError(f"nonfinite length on edge {e.id!r}", offending=e.id)
            if e.length <= 0:
                raise GraphError(f"nonpositive length on edge {e.id!r}", offending=e.id)
            for end in (e.u, e.v):
                if end not in vset:
                    raise GraphError(
                        f"edge {e.id!r} references missing vertex {end!r}",
                        offending=e.id,
                    )
        tables = _build_tables(self.vertices, self.edges)
        for v in self.vertices:
            if not tables["incidence"][v.id]:
                raise GraphError(f"isolated vertex {v.id!r}", offending=v.id)
        tables["hash"] = hash((self.vertices, self.edges))
        object.__setattr__(self, "_tables", tables)

    def __hash__(self):
        # computed once: walk families and truncation lengths are memoized by graph
        return self._tables["hash"]

    # -- lookups ---------------------------------------------------------

    def edge_obj(self, edge_id: str) -> Edge:
        try:
            return self._tables["edge_by_id"][edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id!r}", offending=edge_id) from None

    def condition(self, vertex_id: str) -> str:
        try:
            return self._tables["cond"][vertex_id]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex_id!r}", offending=vertex_id) from None

    def incidence(self, vertex_id: str) -> tuple[tuple[str, int], ...]:
        """Half-edges (edge-id, end) at a vertex; end 0 is the u-endpoint.

        A loop appears twice, once per end.  Order is lexicographic in
        (edge-id, end), which fixes the scattering-matrix indexing.
        """
        self.condition(vertex_id)
        return self._tables["incidence"][vertex_id]

    def degree(self, vertex_id: str) -> int:
        return len(self.incidence(vertex_id))

    @property
    def total_length(self) -> float:
        return self._tables["total_length"]

    @property
    def min_edge_length(self) -> float:
        return self._tables["min_length"]

    @property
    def max_degree(self) -> int:
        return self._tables["max_degree"]

    def vertex_distances(self) -> dict[tuple[str, str], float]:
        """All-pairs shortest vertex distances along the graph (cached)."""
        t = self._tables
        if t.get("dvv") is None:
            t["dvv"] = _all_pairs(self.vertices, self.edges)
        return t["dvv"]

    # -- points ----------------------------------------------------------

    def check_point(self, p: GraphPoint) -> Edge:
        e = self.edge_obj(p.edge)
        if not (0.0 <= p.s <= e.length):
            raise GraphError(
                f"point s={p.s} off edge {p.edge!r} of length {e.length}",
                offending=p.edge,
            )
        return e

    def point_at_vertex(self, p: GraphPoint) -> str | None:
        """Vertex id if p sits exactly at an endpoint, else None."""
        e = self.check_point(p)
        if p.s == 0.0:
            return e.u
        if p.s == e.length:
            return e.v
        return None

    def same_point(self, x: GraphPoint, y: GraphPoint) -> bool:
        """Equality up to the identification of edge ends at shared vertices."""
        if x.edge == y.edge and x.s == y.s:
            return True
        vx, vy = self.point_at_vertex(x), self.point_at_vertex(y)
        return vx is not None and vx == vy


def _build_tables(vertices, edges):
    inc = {v.id: [] for v in vertices}
    for e in edges:
        inc[e.u].append((e.id, 0))
        inc[e.v].append((e.id, 1))
    inc = {vid: tuple(sorted(h)) for vid, h in inc.items()}
    return {
        "edge_by_id": {e.id: e for e in edges},
        "cond": {v.id: v.condition for v in vertices},
        "incidence": inc,
        "total_length": float(sum(e.length for e in edges)),
        "min_length": float(min(e.length for e in edges)),
        "max_degree": max(len(h) for h in inc.values()),
        "dvv": None,
        "bonds": None,
    }


def _all_pairs(vertices, edges):
    adj = {v.id: [] for v in vertices}
    for e in edges:
        if e.u != e.v:
            adj[e.u].append((e.v, e.length))
            adj[e.v].append((e.u, e.length))
    dist = {}
    for src in adj:
        d = {vid: math.inf for vid in adj}
        d[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            du, u = heappop(heap)
            if du > d[u]:
                continue
            for w, lw in adj[u]:
                nd = du + lw
                if nd < d[w]:
                    d[w] = nd
                    heappush(heap, (nd, w))
        for vid, dv in d.items():
            dist[(src, vid)] = dv
    return dist


# -- parsing ---------------------------------------------------------------


def parse_graph(text: str) -> MetricGraph:
    """Parse a graph-spec JSON document into a validated MetricGraph.

    Document shape:
    ``{"vertices": [{"id": ..., "condition": "kirchhoff"|"dirichlet"}, ...],
    "edges": [{"id": ..., "u": ..., "v": ..., "length": ...}, ...]}``
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphError("graph document must contain 'vertices' and 'edges'")
    vertices = []
    for item in doc["vertices"]:
        try:
            vertices.append(Vertex(str(item["id"]), str(item["condition"]).lower()))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed vertex entry {item!r}", offending=item) from exc
    edges = []
    for item in doc["edges"]:
        try:
            edges.append(
                Edge(str(item["id"]), str(item["u"]), str(item["v"]), float(item["length"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed edge entry {item!r}", offending=item) from exc
    return MetricGraph(tuple(vertices), tuple(edges))


def load_graph(path: str) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# -- scattering matrices ----------------------------------------------------


@lru_cache(maxsize=None)
def sigma_entries(condition: str, degree: int) -> tuple[Fraction, Fraction]:
    """Exact (diagonal, off-diagonal) scattering entries of a vertex (cached).

    Kirchhoff: 2/deg - 1 and 2/deg (rows sum to 1, heat conserving).
    Dirichlet: -1 and 0 (full reflection with sign flip).
    """
    if condition == KIRCHHOFF:
        off = Fraction(2, degree)
    elif condition == DIRICHLET:
        off = Fraction(0)
    else:
        raise ValueError(f"unknown condition {condition!r}")
    return off - 1, off


def star_sigma(degree: int, condition: str = KIRCHHOFF) -> np.ndarray:
    """Scattering matrix of an abstract star vertex of the given degree.

    The float view of ``sigma_entries``: the off-diagonal entry minus the
    identity.  float(2/d) equals 2.0 / d, but float(2/d - 1) differs from
    2.0 / d - 1.0 in the last bit at some degrees (3, 6, 11, ...), so the
    diagonal is not converted.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    _, off = sigma_entries(condition, degree)
    return np.full((degree, degree), float(off)) - np.eye(degree)


def scattering_matrix(g: MetricGraph, vertex_id: str) -> np.ndarray:
    """Reflection/transmission matrix of a vertex (entries: ``sigma_entries``).

    A read-only array whose rows and columns follow ``g.incidence(vertex_id)``.
    """
    m = star_sigma(g.degree(vertex_id), g.condition(vertex_id))
    m.setflags(write=False)
    return m


# -- path metric -------------------------------------------------------------


def distance(g: MetricGraph, x: GraphPoint, y: GraphPoint) -> float:
    """Shortest-path distance between two points of the graph."""
    ex = g.check_point(x)
    ey = g.check_point(y)
    best = math.inf
    if x.edge == y.edge:
        best = abs(x.s - y.s)
    dvv = g.vertex_distances()
    ends_x = ((ex.u, x.s), (ex.v, ex.length - x.s))
    ends_y = ((ey.u, y.s), (ey.v, ey.length - y.s))
    for va, da in ends_x:
        for vb, db in ends_y:
            best = min(best, da + dvv[(va, vb)] + db)
    return best


# -- scattering walks --------------------------------------------------------


@dataclass(frozen=True)
class ScatteringWalk:
    """A bounce sequence from x to y with its geometric length and weight.

    ``bounces`` lists (vertex-id, in-edge, out-edge); the weight is the
    product of the scattering entries picked up at each bounce.  The trivial
    walk (same edge, no bounces) has weight 1.
    """

    bounces: tuple[tuple[str, str, str], ...]
    length: float
    weight: float


def _bond_table(g: MetricGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, sigma, lengths) of the bond-scattering operator (cached per graph).

    States are incoming half-edges, (edge i, end) at index 2i + end.  A bounce
    at v from the incoming half-edge h onto the outgoing half-edge j = (e, end)
    crosses e into the state (e, 1 - end): one transition per (h, j), carrying
    the signed sigma_v[h, j] and the length of e.  Rows are sorted, each state's
    moves in incidence order, for the walk families of ``kernels`` to step on.
    """
    if g._tables["bonds"] is None:
        index = {(e.id, end): 2 * i + end for i, e in enumerate(g.edges) for end in (0, 1)}
        moves = []
        for v in g.vertices:
            hs, sig = g.incidence(v.id), scattering_matrix(g, v.id)
            moves += [(index[h_in], index[(eid, 1 - end)], float(sig[a, j]),
                       g.edge_obj(eid).length)
                      for a, h_in in enumerate(hs) for j, (eid, end) in enumerate(hs)]
        moves.sort(key=lambda move: move[0])  # stable: j keeps its incidence order
        g._tables["bonds"] = tuple(np.array(col) for col in zip(*moves))
    return g._tables["bonds"]


def enumerate_walks(
    g: MetricGraph, x: GraphPoint, y: GraphPoint, max_length: float
) -> list[ScatteringWalk]:
    """All scattering walks from x to y with geometric length <= max_length.

    Walks are sorted by length with deterministic tie-breaking on the bounce
    sequence.  Walks whose weight underflows to zero (for example reflection
    at a degree-2 Kirchhoff vertex) are dropped; they contribute nothing.
    """
    if max_length < 0:
        raise GraphError("max_length must be nonnegative")
    ex = g.check_point(x)
    ey = g.check_point(y)
    sigmas = {v.id: (g.incidence(v.id), scattering_matrix(g, v.id)) for v in g.vertices}
    dvv = g.vertex_distances()

    def remaining(vid: str) -> float:
        # shortest possible completion from vid to the target point
        return min(dvv[(vid, ey.u)] + y.s, dvv[(vid, ey.v)] + (ey.length - y.s))

    out: list[ScatteringWalk] = []
    if x.edge == y.edge and abs(x.s - y.s) <= max_length:
        out.append(ScatteringWalk((), abs(x.s - y.s), 1.0))

    # frontier entries: (vertex, in-halfedge, accumulated length, weight, bounces)
    frontier = []
    for end, dist0 in ((0, x.s), (1, ex.length - x.s)):
        vid = ex.u if end == 0 else ex.v
        if dist0 + remaining(vid) <= max_length:
            frontier.append((vid, (x.edge, end), dist0, 1.0, ()))
    while frontier:
        nxt = []
        for vid, h_in, acc, w, bounces in frontier:
            hs, sig = sigmas[vid]
            i = hs.index(h_in)
            for j, h_out in enumerate(hs):
                w2 = w * float(sig[i, j])
                if abs(w2) < _WEIGHT_FLOOR:
                    continue
                e_out = g.edge_obj(h_out[0])
                b2 = bounces + ((vid, h_in[0], h_out[0]),)
                if h_out[0] == y.edge:
                    tail = y.s if h_out[1] == 0 else e_out.length - y.s
                    if acc + tail <= max_length:
                        out.append(ScatteringWalk(b2, acc + tail, w2))
                acc2 = acc + e_out.length
                far_end = 1 - h_out[1]
                far_vid = e_out.v if h_out[1] == 0 else e_out.u
                if acc2 + remaining(far_vid) <= max_length:
                    nxt.append((far_vid, (h_out[0], far_end), acc2, w2, b2))
        frontier = nxt

    out.sort(key=lambda wlk: (wlk.length, wlk.bounces))
    return out

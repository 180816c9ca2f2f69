"""Metric graphs: data model, validation, path metric, scattering constants.

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
    """Reject a time, or an array with a time, that is NaN, infinite or not
    positive, and an empty array."""
    if isinstance(t, np.ndarray):
        if not t.size:
            raise GraphError(f"{name} must hold at least one time")
        bad = t[~((t > 0.0) & (t < math.inf))]
        if bad.size:
            raise GraphError(f"{name} must be finite and positive, got {float(bad[0])!r}")
    elif not 0.0 < t < math.inf:
        raise GraphError(f"{name} must be finite and positive, got {t!r}")


def _one_time(t, name: str = "t") -> float:
    """t as a float, once it is one finite positive time; a 0-d array is one."""
    if isinstance(t, np.ndarray) and t.ndim:
        raise GraphError(f"{name} must be one time; pathsum and modesum take arrays of times")
    _check_time(float(t) if isinstance(t, np.ndarray) else t, name)
    return float(t)


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
        object.__setattr__(self, "_tables", tables)

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

    def check_arclengths(self, edge_id: str, s) -> Edge:
        """The edge, once every arclength of s (a float or an array) lies on it."""
        e = self.edge_obj(edge_id)
        inside = (s >= 0.0) & (s <= e.length)  # a bool for a float
        if inside is not True and not np.asarray(inside).all():
            bad = np.extract(np.logical_not(inside), s)[0]
            raise GraphError(f"point s={bad} off edge {edge_id!r} of length {e.length}",
                             offending=edge_id)
        return e

    def check_point(self, p: GraphPoint) -> Edge:
        return self.check_arclengths(p.edge, p.s)

    def point_at_vertex(self, p: GraphPoint) -> str | None:
        """Vertex id if p sits exactly at an endpoint, else None."""
        e = self.check_point(p)
        if p.s == 0.0:
            return e.u
        if p.s == e.length:
            return e.v
        return None


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


# -- bond table ---------------------------------------------------------------


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

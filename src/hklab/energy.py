"""Difference-quotient energy forms on metric graphs.

The r-neighbourhood energy integrates the squared difference quotient of a
sampled function over metric balls of radius r and converges, as r shrinks,
to a fixed multiple of the classical edgewise energy of the first
derivative.  The normalization constant is measured by the convergence
study, not assumed.

The quadrature is trapezoidal on each edge's sample grid and is evaluated
with array operations: one shifted difference quotient per ball offset
serves every node of the edge at once, and each arm of a ball that passes
through a vertex is one masked block of nodes by arm offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import _check_step
from .graph import GraphError, MetricGraph


@dataclass(frozen=True)
class SampledFunction:
    """Function given by values on uniform arclength grids, one per edge.

    Values at shared vertices must agree across incident edges (within 1e-9);
    that makes the sample a genuine function on the graph.
    """

    graph: MetricGraph
    values: dict  # edge id -> ndarray over the closed edge, uniform grid
    step: float

    def __post_init__(self):
        g = self.graph
        _check_step(self.step)
        for e in g.edges:
            arr = self.values.get(e.id)
            if arr is None or len(arr) < 2:
                raise GraphError(f"missing or degenerate samples on edge {e.id!r}")
            if not np.all(np.isfinite(arr)):
                raise GraphError(f"nonfinite samples on edge {e.id!r}")
        for v in g.vertices:
            ends = [self.end_value(eid, end) for eid, end in g.incidence(v.id)]
            if max(ends) - min(ends) > 1e-9:
                raise GraphError(f"sampled function discontinuous at vertex {v.id!r}")

    def edge_step(self, edge_id: str) -> float:
        e = self.graph.edge_obj(edge_id)
        return e.length / (len(self.values[edge_id]) - 1)

    def end_value(self, edge_id: str, end: int) -> float:
        arr = self.values[edge_id]
        return float(arr[0] if end == 0 else arr[-1])

    def contract_unit(self) -> "SampledFunction":
        """The unit contraction min(max(f, 0), 1), sampled on the same grids."""
        clipped = {eid: np.clip(arr, 0.0, 1.0) for eid, arr in self.values.items()}
        return SampledFunction(self.graph, clipped, self.step)

    def scaled(self, c: float) -> "SampledFunction":
        return SampledFunction(
            self.graph, {eid: c * arr for eid, arr in self.values.items()}, self.step
        )


def sample_function(g: MetricGraph, fn, step: float) -> SampledFunction:
    """Sample fn(edge_id, s_array) on uniform per-edge grids of ~step spacing."""
    _check_step(step)
    values = {}
    for e in g.edges:
        n = max(2, int(math.ceil(e.length / step)))
        s = np.linspace(0.0, e.length, n + 1)
        values[e.id] = np.asarray(fn(e.id, s), dtype=float)
    return SampledFunction(g, values, step)


# -- classical energy ---------------------------------------------------------


def energy_classical(g: MetricGraph, f: SampledFunction) -> float:
    """Edgewise integral of the squared first derivative (central differences)."""
    total = 0.0
    for e in g.edges:
        arr = f.values[e.id]
        if len(arr) < 9:
            raise GraphError(f"grid too coarse on edge {e.id!r} (< 8 intervals)")
        d = f.edge_step(e.id)
        der = np.gradient(arr, d)
        w = np.full(len(arr), d)
        w[0] = w[-1] = d / 2.0
        total += float(np.dot(w, der * der))
    return total


# -- difference-quotient energy -------------------------------------------------


def energy_Er(g: MetricGraph, f: SampledFunction, r: float) -> float:
    """Difference-quotient energy over metric balls of radius r.

    Requires r below half the shortest edge and a sample grid at least twenty
    times finer than r.  Balls around near-vertex points extend through the
    vertex into every incident arm with the graph distance in the quotient.

    On each edge the inner integrals of all nodes are built together.  Each
    ball offset j gives one shifted quotient (f[i+j] - f[i]) / (j delta),
    which is node i's term on its right and node i+j's on its left; the half
    trapezoid weight at each side's last offset, the interpolated fringe
    beyond it and the puncture term are then per-node vector corrections.
    Each arm through a vertex closer than r is one masked block of (nodes
    nearer than r) x (arm offsets).
    """
    if not 0 < r < g.min_edge_length / 2.0:
        raise GraphError("r must be positive and below half the shortest edge")
    total = 0.0
    for e in g.edges:
        arr = f.values[e.id]
        delta = f.edge_step(e.id)
        if delta > r / 20.0 + 1e-15:
            raise GraphError(
                f"grid step {delta:.3g} too coarse for r={r:.3g} (need <= r/20)"
            )
        n = len(arr) - 1
        outer_w = np.full(n + 1, delta)
        outer_w[0] = outer_w[-1] = delta / 2.0
        j_ball = int(r / delta)
        inner = np.zeros(n + 1)
        for j in range(1, j_ball + 1):
            q = (arr[j:] - arr[:-j]) / (j * delta)
            term = delta * (q * q)
            inner[:n + 1 - j] += term
            inner[j:] += term
        i = np.arange(n + 1)
        for sgn, side in ((-1, i), (1, n - i)):
            j_max = np.minimum(j_ball, side)
            idx = i + sgn * j_max
            # the last offset has half weight (q0 is 0 on a side with none)
            q0 = (arr[idx] - arr) / (np.maximum(j_max, 1) * delta)
            inner -= 0.5 * delta * (q0 * q0)
            # fringe between the last full node and the ball radius
            edge_room = j_max * delta
            fringe = np.minimum(r, side * delta) - edge_room
            k = np.flatnonzero(fringe > 1e-15)
            idx, fringe = idx[k], fringe[k]
            nxt = np.clip(idx + sgn, 0, n)  # off the edge: f_y = arr[idx]
            f_y = arr[idx] + sgn * (arr[nxt] - arr[idx]) * fringe / delta
            q = (f_y - arr[k]) / (edge_room[k] + fringe)
            inner[k] += 0.5 * (q * q + q0[k] * q0[k]) * fringe
        # the puncture at y = x contributes the squared derivative limit
        der = np.gradient(arr, delta)
        inner += der * der * min(delta, r)
        # arms through a vertex closer than r: one (near nodes) x (offsets) block
        for end, dist in ((0, i * delta), (1, (n - i) * delta)):
            near = np.flatnonzero(dist < r)
            a, fx = dist[near], arr[near]
            reach = r - a
            for eid2, end2 in g.incidence(e.u if end == 0 else e.v):
                if eid2 == e.id and end2 == end:
                    continue  # that side is the direct segment
                vals = f.values[eid2] if end2 == 0 else f.values[eid2][::-1]
                d2 = f.edge_step(eid2)
                j_max = (reach / d2).astype(int)
                js = np.arange(1, j_max.max() + 1)
                diffs = (vals[js] - fx[:, None]) / (a[:, None] + js * d2)
                w = d2 * ((js < j_max[:, None]) + 0.5 * (js == j_max[:, None]))
                # half weight toward the vertex node as well
                q_v = np.where(a > 0, (vals[0] - fx) / np.where(a > 0, a, 1.0),
                               (vals[1] - vals[0]) / d2)
                arm = (w * (diffs * diffs)).sum(axis=1)
                arm += 0.5 * q_v * q_v * d2 * (j_max >= 1)
                fringe = reach - j_max * d2
                f_y = vals[j_max] + (vals[j_max + 1] - vals[j_max]) * fringe / d2
                q = (f_y - fx) / (a + reach)
                q_prev = np.where(j_max >= 1, (vals[j_max] - fx) / (a + j_max * d2), q_v)
                arm += np.where(fringe > 1e-15,
                                0.5 * (q * q + q_prev * q_prev) * fringe, 0.0)
                inner[near] += arm
        total += float(np.dot(outer_w, inner))
    return total / r


# -- studies -------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[tuple[float, float, float], ...]  # (r, E_r, ratio)
    kappa: float
    classical: float


def convergence_study(g: MetricGraph, f: SampledFunction, r_grid) -> ConvergenceStudy:
    """Table of (r, E_r, E_r / classical) on a decreasing r grid.

    The reported kappa is the ratio at the smallest r; successive ratio
    differences shrinking certifies convergence of the limit.
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid:
        raise GraphError("r grid must not be empty")
    if any(b >= a for a, b in zip(r_grid, r_grid[1:])):
        raise GraphError("r grid must be strictly decreasing")
    classical = energy_classical(g, f)
    rows = []
    for r in r_grid:
        er = energy_Er(g, f, r)
        rows.append((r, er, er / classical if classical > 0 else math.nan))
    return ConvergenceStudy(tuple(rows), rows[-1][2], classical)


def subpartition_check(
    g: MetricGraph, f: SampledFunction, r: float, tol: float = 1e-6
) -> bool:
    """Monotonicity E_r <= E_{r/2} within the quadrature tolerance."""
    return energy_Er(g, f, r) <= energy_Er(g, f, r / 2.0) * (1.0 + tol) + tol

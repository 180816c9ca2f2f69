"""Eigenvalues and eigenfunctions of the graph Laplacian; spectral heat kernel.

Roots k of the secular equation are counted exactly, with multiplicity, by
the eigenphases of the bond-scattering matrix sigma e^{ikL}; bisection on that
count brackets every root, its jump gives the multiplicity, and the modes
span the null space of the vertex condition system at the root.

``eigen`` returns a ``ModeTable``: the modes as an immutable sequence of
``EigenMode``, with their frequencies and per-edge coefficients also held as
arrays, built once.  ``kernel_spectral`` evaluates every mode at both points
from those arrays with a few numpy calls; a plain list of modes is turned
into a table on entry.  ``EigenMode`` evaluates one mode, for the residuals
and the Gram matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .graph import DIRICHLET, GraphError, GraphPoint, MetricGraph, _bond_table, _check_time
from .kernels import KernelEval, TruncationError


@dataclass(frozen=True)
class EigenMode:
    """One L2-normalized eigenfunction.

    On edge e the function is A cos(k s) + B sin(k s) with s the arclength
    from the u-endpoint; for k = 0 the coefficients are affine: A + B s.
    """

    graph: MetricGraph
    k: float
    coeffs: tuple[tuple[str, float, float], ...]  # (edge, A, B)

    def coeff(self, edge_id: str) -> tuple[float, float]:
        for eid, a, b in self.coeffs:
            if eid == edge_id:
                return a, b
        raise GraphError(f"mode has no coefficients for edge {edge_id!r}")

    def eval_edge(self, edge_id: str, s):
        a, b = self.coeff(edge_id)
        s = np.asarray(s, dtype=float)
        if self.k == 0.0:
            out = a + b * s
        else:
            out = a * np.cos(self.k * s) + b * np.sin(self.k * s)
        return float(out) if out.ndim == 0 else out

    def __call__(self, p: GraphPoint):
        return self.eval_edge(p.edge, p.s)

    def outward_derivative(self, edge_id: str, end: int) -> float:
        """Derivative at an edge end, oriented away from the vertex."""
        a, b = self.coeff(edge_id)
        length = self.graph.edge_obj(edge_id).length
        if self.k == 0.0:
            return b if end == 0 else -b
        if end == 0:
            return self.k * b
        return self.k * (a * math.sin(self.k * length) - b * math.cos(self.k * length))


class ModeTable(tuple):
    """The modes of one graph: a tuple of ``EigenMode`` and their arrays.

    ``k`` holds the frequencies, shape (M,), and ``k_max`` the largest (0
    without modes); ``coef[m, i]`` is the (A, B) of mode m on edge i of
    ``g.edges``, shape (M, E, 2); ``col`` maps an edge id to i; ``graph`` is
    g.  The arrays are read-only.
    """

    def __new__(cls, g: MetricGraph, modes):
        self = super().__new__(cls, modes)
        self.graph = g
        self.col = {e.id: i for i, e in enumerate(g.edges)}
        self.k = np.array([mode.k for mode in self], dtype=float)
        self.k_max = float(self.k.max(initial=0.0))
        self.coef = np.array(
            [[mode.coeff(e.id) for e in g.edges] for mode in self], dtype=float
        ).reshape(len(self), len(g.edges), 2)
        # per edge and mode: the cos and sin coefficients, and the slope of
        # the affine k = 0 modes, shape (E, 3, M)
        a, b = self.coef.T
        affine = self.k == 0.0
        self._basis = np.stack([a, np.where(affine, 0.0, b), np.where(affine, b, 0.0)],
                               axis=1)
        for arr in (self.k, self.coef, self._basis):
            arr.flags.writeable = False
        return self

    def __getnewargs__(self):
        return self.graph, tuple(self)

    def at(self, edges, s: np.ndarray) -> np.ndarray:
        """Every mode at the points (edges[j], s[j]), shape (len(s), M)."""
        try:
            rows = self._basis[[self.col[eid] for eid in edges]]
        except KeyError as exc:
            raise GraphError(f"mode table has no edge {exc.args[0]!r}") from None
        ks = np.multiply.outer(s, self.k)
        return rows[:, 0] * np.cos(ks) + rows[:, 1] * np.sin(ks) + rows[:, 2] * s[:, None]


# -- vertex-condition system ---------------------------------------------------


def _condition_matrix(g: MetricGraph, k: float) -> np.ndarray:
    """Vertex conditions on the per-edge coefficients (A, B), one row per half-edge.

    At end 0 of an edge the value is A and the outward derivative over k is B;
    at end 1 they are A cos kL + B sin kL and A sin kL - B cos kL.
    """
    col = {e.id: 2 * i for i, e in enumerate(g.edges)}
    rows = []
    for v in g.vertices:
        hs = g.incidence(v.id)
        val, der = np.zeros((len(hs), 2 * len(g.edges))), np.zeros(2 * len(g.edges))
        for r, (eid, end) in enumerate(hs):
            kl = k * g.edge_obj(eid).length
            c, s = (1.0, 0.0) if end == 0 else (math.cos(kl), math.sin(kl))
            val[r, col[eid]:col[eid] + 2] = c, s
            der[col[eid]:col[eid] + 2] += (s, c) if end == 0 else (s, -c)
        rows.extend(val if v.condition == DIRICHLET else [*(val[:-1] - val[1:]), der])
    return np.array(rows)


def _norm_matrix(g: MetricGraph, k: float) -> np.ndarray:
    """Gram matrix of the per-edge (cos, sin) basis in L2(G) (block diagonal)."""
    m = 2 * len(g.edges)
    gram = np.zeros((m, m))
    for i, e in enumerate(g.edges):
        ell = e.length
        if k == 0.0:
            icc, iss, ics = ell, ell**3 / 3.0, ell**2 / 2.0  # basis (1, s)
        else:
            icc = ell / 2.0 + math.sin(2 * k * ell) / (4 * k)
            iss = ell / 2.0 - math.sin(2 * k * ell) / (4 * k)
            ics = math.sin(k * ell) ** 2 / (2 * k)
        gram[2 * i, 2 * i] = icc
        gram[2 * i + 1, 2 * i + 1] = iss
        gram[2 * i, 2 * i + 1] = gram[2 * i + 1, 2 * i] = ics
    return gram


def _null_modes(g: MetricGraph, k: float, m: int) -> list[EigenMode]:
    """The m modes of a root k of multiplicity m, orthonormal in L2(G).

    The null space of the condition system is spanned by its m smallest
    right-singular vectors; the Gram matrix of _norm_matrix orthonormalizes them.
    """
    null = np.linalg.svd(_condition_matrix(g, k))[2][-m:]
    evals, evecs = np.linalg.eigh(null @ _norm_matrix(g, k) @ null.T)
    basis = (evecs / np.sqrt(evals)).T @ null
    modes = []
    for row in basis:
        coeffs = tuple(
            (e.id, float(row[2 * i]), float(row[2 * i + 1]))
            for i, e in enumerate(g.edges)
        )
        modes.append(EigenMode(g, k, coeffs))
    return modes


def _constant_modes(g: MetricGraph) -> list[EigenMode]:
    """One k = 0 mode per connected component without a Dirichlet vertex."""
    dvv = g.vertex_distances()
    comps: list[set[str]] = []
    for v in g.vertices:
        for comp in comps:
            if dvv[(v.id, next(iter(comp)))] < math.inf:
                comp.add(v.id)
                break
        else:
            comps.append({v.id})
    modes = []
    for comp in comps:
        if any(g.condition(vid) == DIRICHLET for vid in comp):
            continue
        vol = sum(e.length for e in g.edges if e.u in comp)
        amp = 1.0 / math.sqrt(vol)
        coeffs = tuple(
            (e.id, amp if e.u in comp else 0.0, 0.0) for e in g.edges
        )
        modes.append(EigenMode(g, 0.0, coeffs))
    return modes


# eigen refuses a k_max whose Weyl count L k_max / pi is above this many modes
_MAX_MODES = 100_000
# matrix entries per stack of bond-scattering matrices (32 MiB of complex)
_STACK = 2**21


def _phase_count(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """(k sum_b L_b - sum_j theta_j(k)) / 2pi for each k of a stack.

    theta_j in [0, 2pi) are the eigenphases of the bond-scattering matrix
    U(k) = sigma e^{ikL} (``graph._bond_table``).  U is unitary and det U
    turns as e^{ik sum_b L_b} with sum_b L_b twice the total length, while each
    eigenphase turns forward; so this is an integer plus a constant, and it
    steps up by m where m eigenphases pass through 0: at a root k of
    multiplicity m (Kottos & Smilansky, Ann. Phys. 274, 1999).
    """
    rows, cols, sigma, lengths = _bond_table(g)
    n = 2 * len(g.edges)
    phases = []
    for chunk in np.array_split(ks, -(-ks.size * n * n // _STACK)):
        u = np.zeros((chunk.size, n, n), dtype=complex)
        u[:, rows, cols] = sigma * np.exp(1j * np.outer(chunk, lengths))
        phases.append((np.angle(np.linalg.eigvals(u)) % (2.0 * math.pi)).sum(axis=1))
    return (2.0 * g.total_length * ks - np.concatenate(phases)) / (2.0 * math.pi)


def eigen(g: MetricGraph, k_max: float) -> ModeTable:
    """All modes with frequency k <= k_max, orthonormal in L2(G).

    N(k), the number of roots in (0, k] with multiplicity, is counted exactly
    by ``_phase_count`` from k_lo = pi/4L, below every positive root (the
    first eigenvalue is at least (pi/2L)^2, Nicaise 1987).  Every bracket of
    (k_lo, k_max] over which N jumps is bisected, all at once, until it is
    1e-13 relative wide; its midpoint is one distinct root and the jump is its
    multiplicity.  The modes found must number N(k_max) plus the constant
    modes, or ``GraphError`` is raised.
    """
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be finite and positive")
    weyl = g.total_length * k_max / math.pi
    if weyl > _MAX_MODES:
        raise ValueError(
            f"k_max={k_max:g} asks for about {weyl:.3g} modes, above {_MAX_MODES}"
        )
    k_lo = min(k_max, math.pi / (4.0 * g.total_length))
    base, top = _phase_count(g, np.array([k_lo, k_max]))
    ks, ns = np.array([k_lo, k_max]), np.array([0, round(top - base)])
    while True:
        jump = np.diff(ns) > 0
        wide = np.flatnonzero(jump & (np.diff(ks) > 1e-13 * ks[1:]))
        if not wide.size:
            break
        mid = 0.5 * (ks[wide] + ks[wide + 1])
        ks = np.insert(ks, wide + 1, mid)
        ns = np.insert(ns, wide + 1, np.rint(_phase_count(g, mid) - base).astype(int))
    modes = _constant_modes(g)
    expected = ns[-1] + len(modes)
    for i in np.flatnonzero(jump):
        modes.extend(_null_modes(g, 0.5 * (ks[i] + ks[i + 1]), int(ns[i + 1] - ns[i])))
    if len(modes) != expected:
        raise GraphError(
            f"found {len(modes)} modes up to k={k_max:g}, exact count {expected}"
        )
    _validate_modes(g, modes)
    return ModeTable(g, modes)


def _mode_residuals(g: MetricGraph, mode: EigenMode, vertex_id: str) -> tuple[float, float]:
    """(Dirichlet |value| or continuity spread, flux residual) of a mode at a vertex."""
    vals = [
        mode.eval_edge(h[0], 0.0 if h[1] == 0 else g.edge_obj(h[0]).length)
        for h in g.incidence(vertex_id)
    ]
    if g.condition(vertex_id) == DIRICHLET:
        return max(abs(x) for x in vals), 0.0
    return max(vals) - min(vals), kirchhoff_residual(mode, vertex_id)


def _validate_modes(g, modes, cont_tol=1e-10, kirch_tol=1e-8):
    for mode in modes:
        for v in g.vertices:
            cont, flux = _mode_residuals(g, mode, v.id)
            if cont > cont_tol:
                what = "Dirichlet" if v.condition == DIRICHLET else "continuity"
                raise GraphError(f"mode k={mode.k}: {what} violated at {v.id}")
            if flux > kirch_tol:
                raise GraphError(f"mode k={mode.k}: flux condition violated at {v.id}")


# -- derived quantities ---------------------------------------------------------


def kirchhoff_residual(mode: EigenMode, vertex_id: str) -> float:
    """|sum of outward derivatives| at a vertex, from the mode coefficients."""
    g = mode.graph
    total = sum(mode.outward_derivative(h[0], h[1]) for h in g.incidence(vertex_id))
    return abs(total)


def kirchhoff_residual_fd(mode: EigenMode, vertex_id: str, h: float = 1e-6) -> float:
    """Same residual by central differences of the mode along each edge."""
    g = mode.graph
    total = 0.0
    for eid, end in g.incidence(vertex_id):
        length = g.edge_obj(eid).length
        s0 = 0.0 if end == 0 else length
        sgn = 1.0 if end == 0 else -1.0
        total += sgn * (mode.eval_edge(eid, s0 + h) - mode.eval_edge(eid, s0 - h)) / (2 * h)
    return abs(total)


def mode_gram(modes: list[EigenMode]) -> np.ndarray:
    """L2 Gram matrix of a mode list (closed form per edge)."""
    n = len(modes)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = _l2_inner(modes[i], modes[j])
    return gram


def _l2_inner(m1: EigenMode, m2: EigenMode) -> float:
    from ._quad import simpson_nodes

    g = m1.graph
    total = 0.0
    for e in g.edges:
        k_scale = max(m1.k, m2.k, 1.0)
        step = min(e.length / 8.0, math.pi / (20.0 * k_scale))
        s, w = simpson_nodes(e.length, step)
        total += float(np.dot(w, m1.eval_edge(e.id, s) * m2.eval_edge(e.id, s)))
    return total


def kernel_spectral(
    g: MetricGraph,
    t: float,
    x: GraphPoint,
    y: GraphPoint,
    modes: Sequence[EigenMode],
    tol: float | None = None,
) -> KernelEval:
    """Spectral heat kernel sum over the supplied modes, with a tail estimate.

    Every mode is evaluated at x and y at once from the table's arrays; a
    plain list of modes is first turned into a ``ModeTable`` of g.
    """
    _check_time(t)
    table = modes if isinstance(modes, ModeTable) else ModeTable(g, modes)
    phi_x, phi_y = table.at((x.edge, y.edge), np.array([x.s, y.s], dtype=float))
    val = np.dot(np.exp(-table.k**2 * t), phi_x * phi_y)
    k_max = table.k_max
    bound = spectral_tail_bound(g, t, k_max)
    if tol is not None and bound > tol:
        raise TruncationError(
            f"k_max={k_max:.3g} insufficient for tolerance {tol:g} at t={t:g}"
        )
    return KernelEval(t, x, y, float(val), bound)


def spectral_tail_bound(g: MetricGraph, t: float, k_max: float) -> float:
    """Gaussian-in-k estimate for the spectral sum beyond k_max."""
    if k_max <= 2.0 / g.min_edge_length:
        return math.inf
    density = g.total_length / math.pi + len(g.vertices) + 2
    sup_sq = 8.0 / g.min_edge_length
    return density * sup_sq * math.exp(-(k_max**2) * t) / (2.0 * k_max * t)


def eigen_report(g: MetricGraph, modes: list[EigenMode]) -> list[dict]:
    """Rows for the eigen CSV: k, lambda, multiplicity, residuals.

    The modes of one root share one k, so consecutive equal k form a row.
    """
    rows = []
    for k, group in groupby(modes, key=lambda mode: mode.k):
        group = list(group)
        res = [_mode_residuals(g, mode, v.id) for mode in group for v in g.vertices]
        rows.append(
            {
                "k": k,
                "lambda": k**2,
                "multiplicity": len(group),
                "continuity_residual": max([0.0] + [cont for cont, _ in res]),
                "kirchhoff_residual": max([0.0] + [flux for _, flux in res]),
            }
        )
    return rows

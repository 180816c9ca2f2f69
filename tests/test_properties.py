"""Kernel axioms and cross-route agreement on random small graphs.

Hypothesis draws stars of degree 2-4, triangles, lollipops and three-edge
multigraphs with mixed Kirchhoff and Dirichlet vertices and drawn edge
lengths, points that include edge ends, and times in [0.005, 0.06].  Walk
sums and mode sums agree pair by pair and on grids over time arrays, and
the heat mass is at most 1.  The root search of ``eigen`` is checked on the
same graphs against bisection alone (``spectral_reference``), and the
spectral tail bound against the terms it bounds.  On stars with a Dirichlet
leaf the two-particle trace by quadrature meets the eigen pairs within the
two certified bounds, for times in [0.002, 0.05].  The runs are
derandomized, so Tier-1 sees the same examples on every run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph
from hklab.graph import DIRICHLET, GraphPoint
from hklab.kernels import kernel_mass, kernel_pathsum, pathsum
from hklab.locality import interval_subdomain, kernel_killed
from hklab.spectral import (
    _certified_k_max,
    _phase_count,
    eigen,
    kernel_spectral,
    modesum,
    spectral_tail_bound,
    trace_tail_bound,
)
from hklab.twoparticle import eigen_trace_series, trace_series
from spectral_reference import bisect_roots

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

conditions = st.sampled_from(["kirchhoff", "dirichlet"])
lengths = st.floats(0.3, 1.5)
times = st.floats(0.005, 0.06)
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["star", "triangle", "lollipop", "multi"]))
    if kind == "star":
        degree = draw(st.integers(2, 4))
        vertices = ["c"] + [f"l{i}" for i in range(degree)]
        edges = [(f"e{i}", "c", f"l{i}") for i in range(degree)]
    elif kind == "triangle":
        vertices = ["a", "b", "c"]
        edges = [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")]
    elif kind == "lollipop":
        vertices = ["o", "l"]
        edges = [("loop", "o", "o"), ("stem", "o", "l")]
    else:
        vertices = ["a", "b"]
        edges = [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "a", "b")]
    return make_graph([(v, draw(conditions)) for v in vertices],
                      [(e, u, v, draw(lengths)) for e, u, v in edges])


@st.composite
def dirichlet_stars(draw):
    """A star of degree 2-4 with drawn legs, its first leaf Dirichlet."""
    legs = [draw(lengths) for _ in range(draw(st.integers(2, 4)))]
    leaves = [DIRICHLET] + [draw(conditions) for _ in legs[1:]]
    return make_graph([("c", "kirchhoff")] + [(f"l{i}", c) for i, c in enumerate(leaves)],
                      [(f"e{i}", "c", f"l{i}", leg) for i, leg in enumerate(legs)])


@st.composite
def cases(draw, n_points=2):
    """A graph, a time, and points on it; the first point's edge comes first."""
    g = draw(graphs())
    points = []
    for _ in range(n_points):
        e = g.edges[draw(st.integers(0, len(g.edges) - 1))]
        points.append(GraphPoint(e.id, draw(fractions) * e.length))
    return g, draw(times), points


@PROPERTY
@given(cases())
def test_symmetric(case):
    g, t, (x, y) = case
    a, b = kernel_pathsum(g, t, x, y), kernel_pathsum(g, t, y, x)
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-12 * max(1.0, abs(a.value))


@PROPERTY
@given(cases())
def test_nonnegative(case):
    g, t, (x, y) = case
    p = kernel_pathsum(g, t, x, y)
    assert p.value >= -p.tail_bound


@PROPERTY
@given(cases(), fractions, fractions)
def test_killed_below_full(case, fx, fy):
    # U is the middle half of the first point's edge, and x, y lie in its
    # closure; U's midpoint m is checked too, since p^U(m, m) comes closest to p
    g, t, (x, _) = case
    e = g.edge_obj(x.edge)
    lo, hi = 0.25 * e.length, 0.75 * e.length
    u = interval_subdomain(g, e.id, lo, hi)
    x, y, m = (GraphPoint(e.id, lo + f * (hi - lo)) for f in (fx, fy, 0.5))
    for a, b in ((x, y), (m, m)):
        pu, p = kernel_killed(u, t, a, b), kernel_pathsum(g, t, a, b)
        assert -pu.tail_bound <= pu.value <= p.value + pu.tail_bound + p.tail_bound


@PROPERTY
@given(cases())
def test_walk_sum_matches_modes(case):
    g, t, (x, y) = case
    modes = eigen(g, _certified_k_max(g, t, 1e-14))
    a, b = kernel_pathsum(g, t, x, y), kernel_spectral(g, t, x, y, modes)
    assert abs(a.value - b.value) <= max(1e-8, a.tail_bound + b.tail_bound)


@PROPERTY
@given(graphs(), st.data())
def test_walk_grid_matches_mode_grid(g, data):
    # one edge pair, drawn arclengths on each, and a drawn time array
    ex, ey = (data.draw(st.sampled_from(g.edges)) for _ in range(2))
    sx, sy = (np.array(data.draw(st.lists(fractions, min_size=1, max_size=4))) * e.length
              for e in (ex, ey))
    ts = np.array(data.draw(st.lists(times, min_size=1, max_size=3)))
    modes = eigen(g, _certified_k_max(g, float(ts.min()), 1e-14))
    grid = (ex.id, sx[:, None], ey.id, sy[None, :])
    a, tail_a = pathsum(g, ts[:, None, None], *grid)
    b, tail_b = modesum(modes, ts[:, None, None], *grid)
    assert np.abs(a - b).max() <= max(1e-8, tail_a + tail_b)


@PROPERTY
@given(cases(n_points=1))
def test_mass_at_most_one(case):
    # heat is conserved when every vertex is Kirchhoff, and lost at a
    # Dirichlet vertex
    g, t, (x,) = case
    mass = kernel_mass(g, t, x)
    assert mass <= 1.0 + 1e-10
    if all(v.condition != DIRICHLET for v in g.vertices):
        assert abs(mass - 1.0) <= 1e-10


@PROPERTY
@given(cases())
def test_mode_tail_within_bound(case):
    # the terms a table searched to K + 30 holds beyond the cutoff K are part
    # of the tail that the bounds at K cover, at the points and on the trace
    g, t, (x, y) = case
    K = _certified_k_max(g, t, 1e-10)
    modes = eigen(g, K + 30.0)
    terms = np.where(modes.k > K, np.exp(-modes.k**2 * t), 0.0)
    phi = modes.at((x.edge, y.edge), np.array([x.s, y.s]))
    bound = spectral_tail_bound(g, t, K)
    assert np.abs(phi @ (terms[:, None] * phi.T)).max() <= bound <= 1e-10
    assert terms.sum() <= trace_tail_bound(g, t, K)


@PROPERTY
@given(graphs(), st.floats(2.0, 60.0))
def test_roots_match_bisection(g, k_max):
    # the Newton root search against bisection alone: the same distinct roots
    # with the same multiplicities, and as many modes as the exact count
    # N(k_max) plus one constant mode on a graph without a Dirichlet vertex
    modes = eigen(g, k_max)
    roots, mult = np.unique(modes.k[modes.k > 0.0], return_counts=True)
    want_roots, want_mult = bisect_roots(g, k_max)
    assert mult.tolist() == want_mult.tolist()
    assert np.all(np.abs(roots - want_roots) <= 1e-12 * want_roots)
    k_lo = min(k_max, math.pi / (4.0 * g.total_length))
    count = round(float(np.diff(_phase_count(g, np.array([k_lo, k_max])))[0]))
    constant = not any(v.condition == DIRICHLET for v in g.vertices)
    assert len(modes) == count + constant


@PROPERTY
@given(dirichlet_stars(), st.floats(0.002, 0.05))
def test_trace_quadrature_within_bound(g, t):
    # a Dirichlet leaf and unequal legs keep the diagonal from extending to a
    # smooth periodic function, so the rule's own error is what is bounded
    quad, pairs = trace_series(g, [t]), eigen_trace_series(g, [t])
    assert abs(quad.Z[0] - pairs.Z[0]) <= quad.quad_error[0] + pairs.quad_error[0]

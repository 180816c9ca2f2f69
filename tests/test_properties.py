"""Kernel axioms and cross-route agreement on random small graphs.

Hypothesis draws stars of degree 2-4, triangles, lollipops and three-edge
multigraphs with mixed Kirchhoff and Dirichlet vertices and drawn edge
lengths, points that include edge ends, and times in [0.005, 0.06].  Walk
sums and mode sums agree pair by pair and on grids over time arrays, the
heat mass is at most 1, and the semigroup property holds to 1e-12.  The root
search of ``eigen`` is checked on the same graphs against bisection alone
(``spectral_reference``), and the spectral tail bound against the terms it
bounds.  On stars with a Dirichlet leaf the two-particle trace by quadrature
meets the eigen pairs within the two certified bounds, for times in
[0.002, 0.05].  On ``GRAPH_KINDS`` graphs and copies with every condition
outside an open set U flipped, the locality difference summed over the walks
that leave U matches the subtracted kernels and stays within its certified
bound.  The runs are derandomized, so Tier-1 sees the same examples on every
run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRAPH_KINDS, make_graph, random_graph
from hklab.graph import DIRICHLET, KIRCHHOFF, GraphPoint
from hklab.kernels import kernel_mass, kernel_pathsum, kernel_semigroup_residual, pathsum
from hklab.locality import (
    IsometryMap,
    MapPiece,
    SubdomainSpec,
    ball_subdomain,
    interval_subdomain,
    kernel_killed,
    locality_compare,
)
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
        assert abs(mass - 1.0) <= 1e-12


@PROPERTY
@given(cases(), times)
def test_semigroup(case, s):
    # p_{t+s}(x, y) = int p_t(x, z) p_s(z, y) dz, the integral by the edge rules
    g, t, (x, y) = case
    assert kernel_semigroup_residual(g, t, s, x, y) <= 1e-12


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


@st.composite
def locality_pairs(draw):
    """A graph A from ``GRAPH_KINDS``, an open set U on it, V inside U, and B:
    A with the condition of every vertex outside U flipped."""
    g = random_graph(draw(st.sampled_from(GRAPH_KINDS)),
                     np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    shape = draw(st.sampled_from(["ball", "piece", "two_pieces"]))
    if shape == "ball":
        v = g.vertices[draw(st.integers(0, len(g.vertices) - 1))]
        # below half of every incident edge, so that a loop's two pieces stay apart
        reach = min(g.edge_obj(eid).length for eid, _ in g.incidence(v.id)) / 2.0
        radius = reach * draw(st.floats(0.2, 0.9))
        u, v_sub = ball_subdomain(g, v.id, radius), ball_subdomain(g, v.id, radius / 2.0)
    else:
        e = g.edges[draw(st.integers(0, len(g.edges) - 1))]
        cuts = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4,
                                    unique=True)))
        ends = [cuts[::3]] if shape == "piece" else [cuts[:2], cuts[2:]]
        u = SubdomainSpec(g, tuple((e.id, a * e.length, b * e.length) for a, b in ends))
        # the middle half of each piece of U
        v_sub = SubdomainSpec(g, tuple((eid, 0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi)
                                       for eid, lo, hi in u.pieces))
    flip = {KIRCHHOFF: DIRICHLET, DIRICHLET: KIRCHHOFF}

    def inside(w):  # whether U holds the vertex, read at its point on one edge
        eid, end = g.incidence(w.id)[0]
        return u.contains(GraphPoint(eid, end * g.edge_obj(eid).length))

    g_b = make_graph([(w.id, w.condition if inside(w) else flip[w.condition])
                      for w in g.vertices],
                     [(e.id, e.u, e.v, e.length) for e in g.edges])
    iso = IsometryMap(u, SubdomainSpec(g_b, u.pieces),
                      tuple(MapPiece(eid, lo, hi, eid, lo, +1) for eid, lo, hi in u.pieces))
    return g, g_b, iso, v_sub


@PROPERTY
@given(locality_pairs())
def test_locality_difference_and_bound(pair):
    # the difference summed over the walks that leave U equals the difference
    # of the two kernels, to their float64 resolution, and stays within its
    # certified bound
    g_a, g_b, iso, v = pair
    ts = [0.05, 0.1, 0.2]
    cert = locality_compare(g_a, g_b, iso, v, ts, points_per_piece=4)
    grid = [(eid, np.linspace(lo, hi, 4)) for eid, lo, hi in v.pieces]
    for t, sup, bound in zip(ts, cert.sup_diffs, cert.sup_bounds):
        tol = 1e-16 / math.sqrt(4.0 * math.pi * t)
        pa, pb = ([pathsum(g, t, ex, sx[:, None], ey, sy[None, :], tol=tol)[0]
                   for ex, sx in grid for ey, sy in grid] for g in (g_a, g_b))
        subtracted = max(float(np.abs(a - b).max()) for a, b in zip(pa, pb))
        # near a Dirichlet vertex p is itself a cancellation of walk terms as
        # large as 1/sqrt(4 pi t), which sets the rounding of both sides
        scale = max(1.0 / math.sqrt(4.0 * math.pi * t), *(float(np.abs(p).max()) for p in pa + pb))
        assert abs(sup - subtracted) <= 64.0 * np.finfo(float).eps * scale
        assert sup <= bound
    # C t^{-1/2} e^{-eps/t}, from this grid, lies above sup_bounds at every
    # time up to the largest: on the grid and between its times
    mids = np.sqrt(np.multiply(ts[:-1], ts[1:])).tolist()
    fine = locality_compare(g_a, g_b, iso, v, sorted(ts + mids), points_per_piece=4)
    assert fine.eps == cert.eps
    assert all(b <= cert.bound(t) for t, b in zip(fine.t_grid, fine.sup_bounds))

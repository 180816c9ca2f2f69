import math
import pickle

import numpy as np
import pytest

from conftest import GRAPH_KINDS, end_and_inner_points, make_graph, make_star, random_graph
from hklab import spectral
from hklab._quad import gauss_legendre
from hklab.graph import GraphError, GraphPoint
from hklab.kernels import TruncationError, kernel_interval, kernel_pathsum
from hklab.spectral import (
    ModeTable,
    _certified_k_max,
    _phase_count,
    eigen,
    eigen_report,
    kernel_spectral,
    modesum,
    spectral_tail_bound,
    trace_tail_bound,
    vertex_residuals,
)


def mode_gram(modes):
    """L2 Gram matrix of a mode table by Gauss-Legendre on every edge: the
    reference for the orthonormality the table's modes are built with.

    An edge of length l takes ceil(k l) + 16 nodes, k the largest frequency
    (or 1): the products of two modes are entire, of frequency at most 2k, and
    on the Bernstein ellipse of rho = e the rule's error bound is below 1e-13.
    """
    k = max(modes.k.max(initial=0.0), 1.0)
    phi, weights = [], []
    for e in modes.graph.edges:
        s, w = gauss_legendre(math.ceil(k * e.length) + 16)
        s, w = e.length * s, e.length * w
        phi.append(modes.at([e.id] * len(s), s))
        weights.append(w)
    phi = np.concatenate(phi)
    return phi.T @ (np.concatenate(weights)[:, None] * phi)


def mode_at(modes, m, edge, s):
    """Mode m of a table at arclength s of an edge, one mode at a time: the
    reference for the table's array evaluation."""
    a, b = modes.coef[m, modes.col[edge]]
    k = float(modes.k[m])
    if k == 0.0:
        return a + b * s
    return a * math.cos(k * s) + b * math.sin(k * s)


def outward_derivative(modes, m, edge, end):
    """Derivative of mode m at an edge end, oriented away from the vertex."""
    a, b = modes.coef[m, modes.col[edge]]
    k = float(modes.k[m])
    if k == 0.0:
        return b if end == 0 else -b
    if end == 0:
        return k * b
    kl = k * modes.graph.edge_obj(edge).length
    return k * (a * math.sin(kl) - b * math.cos(kl))


def end_values(modes, m, vertex_id):
    g = modes.graph
    return [mode_at(modes, m, eid, 0.0 if end == 0 else g.edge_obj(eid).length)
            for eid, end in g.incidence(vertex_id)]


def kirchhoff_residual(modes, m, vertex_id):
    """|sum of outward derivatives| of mode m at a vertex, one mode at a time."""
    g = modes.graph
    return abs(sum(outward_derivative(modes, m, eid, end)
                   for eid, end in g.incidence(vertex_id)))


def kirchhoff_residual_fd(modes, m, vertex_id, h=1e-6):
    """The same residual by central differences of the mode along each edge."""
    g = modes.graph
    total = 0.0
    for eid, end in g.incidence(vertex_id):
        s0 = 0.0 if end == 0 else g.edge_obj(eid).length
        sgn = 1.0 if end == 0 else -1.0
        total += sgn * (mode_at(modes, m, eid, s0 + h)
                        - mode_at(modes, m, eid, s0 - h)) / (2 * h)
    return abs(total)


def vertex_column(g, vertex_id):
    return [v.id for v in g.vertices].index(vertex_id)


class TestEigen:
    def test_interval_neumann_frequencies(self, interval):
        modes = eigen(interval, 20.0)
        ks = modes.k.tolist()
        expect = [0.0] + [n * math.pi for n in range(1, 7)]
        assert len(ks) == len(expect)
        for k, e in zip(ks, expect):
            assert k == pytest.approx(e, abs=1e-11)
        assert modes.k[1] ** 2 == pytest.approx(9.8696, abs=1e-4)

    def test_interval_dirichlet_no_zero_mode(self, interval_dirichlet):
        ks = eigen(interval_dirichlet, 20.0).k.tolist()
        assert min(ks) == pytest.approx(math.pi, abs=1e-11)
        assert len(ks) == 6

    def test_star_count_weyl(self, star3):
        modes = eigen(star3, 10.0)
        assert abs(len(modes) - (3 * 10 / math.pi + 1)) <= 1.0

    def test_star_multiplicities(self, star3):
        report = eigen_report(eigen(star3, 8.0))
        mult = {round(r["k"], 6): r["multiplicity"] for r in report}
        assert mult[round(math.pi / 2, 6)] == 2
        assert mult[round(math.pi, 6)] == 1
        assert mult[round(3 * math.pi / 2, 6)] == 2

    def test_triangle_double_modes(self, triangle):
        report = eigen_report(eigen(triangle, 10.0))
        mult = {round(r["k"], 6): r["multiplicity"] for r in report}
        assert mult[round(2 * math.pi / 3, 6)] == 2

    def test_constant_mode_per_component(self):
        # a Neumann interval beside a Dirichlet-Kirchhoff one keeps its k = 0 mode
        g = make_graph([("a", "kirchhoff"), ("b", "kirchhoff"), ("c", "kirchhoff"),
                        ("d", "dirichlet")],
                       [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)])
        ks = eigen(g, 4.0).k.tolist()
        assert ks == pytest.approx([0.0, math.pi / 2, math.pi], abs=1e-11)

    def test_weyl_window_up_to_50(self, interval, star3, triangle):
        for g in (interval, star3, triangle):
            modes = eigen(g, 50.0)
            assert abs(len(modes) - g.total_length * 50.0 / math.pi) <= 2.0

    def test_orthonormality(self, star3):
        modes = eigen(star3, 12.0)
        gram = mode_gram(modes)
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-8

    @pytest.mark.parametrize("kind", GRAPH_KINDS + ["star7"])
    def test_orthonormality_loops_and_clusters(self, kind):
        # loops, multi-edges, Dirichlet vertices, unequal lengths, and the
        # multiplicity-6 roots of an equal 7-star
        if kind == "star7":
            g = make_star([1.0] * 7)
        else:
            g = random_graph(kind, np.random.default_rng(3))
        modes = eigen(g, 12.0)
        gram = mode_gram(modes)
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-8

    def test_rejects_bad_kmax(self, interval):
        # 1e12 would ask for about 3e11 modes: refused before any allocation
        for k_max, match in [(-1.0, "finite and positive"), (0.0, "finite and positive"),
                             (math.nan, "finite and positive"),
                             (math.inf, "finite and positive"),
                             (-math.inf, "finite and positive"), (1e12, "modes, above")]:
            with pytest.raises(ValueError, match=match):
                eigen(interval, k_max)

    @pytest.mark.parametrize("slot, what", [(1, "flux condition"), (0, "continuity")])
    def test_vertex_check_rejects_broken_mode(self, star3, monkeypatch, slot, what):
        # slot 1 is B on e1, which moves only the derivative at the centre c;
        # slot 0 is A on e1, which moves the value there
        # the first stack of roots _null_modes builds gets its first mode broken
        honest, roots = spectral._null_modes, []

        def broken(g, ks, a):
            rows = honest(g, ks, a)
            if not roots:
                rows[0, 0, slot] += 0.01
            roots.extend(ks.tolist())
            return rows

        monkeypatch.setattr(spectral, "_null_modes", broken)
        with pytest.raises(GraphError) as info:
            eigen(star3, 8.0)
        # the simple roots come first: pi, 2 pi; then the double pi/2, 3 pi/2
        assert str(info.value) == f"mode k={roots[0]}: {what} violated at c"
        assert roots[0] == pytest.approx(math.pi)


class TestKirchhoffResidual:
    def test_solver_modes_satisfy_condition(self, star3):
        _, flux = vertex_residuals(eigen(star3, 12.0))
        assert np.all(flux[:, vertex_column(star3, "c")] < 1e-8)

    def test_interval_neumann_end_exact(self, interval):
        _, flux = vertex_residuals(eigen(interval, 10.0))
        assert np.all(flux[:, vertex_column(interval, "a")] < 1e-10)

    def test_fd_agrees_second_order(self, star3):
        modes = eigen(star3, 5.0)
        a = vertex_residuals(modes)[1][2, vertex_column(star3, "c")]
        b = kirchhoff_residual_fd(modes, 2, "c", h=1e-6)
        assert abs(a - b) < 1e-8

    def test_perturbed_mode_detected(self, star3):
        modes = eigen(star3, 5.0)
        coef = modes.coef.copy()
        coef[1, modes.col["e1"], 1] += 0.01
        _, flux = vertex_residuals(ModeTable(star3, modes.k, coef))
        assert flux[1, vertex_column(star3, "c")] > 1e-3

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_residuals_match_one_mode_loop(self, kind):
        # a perturbed table, so that the residuals compared are not all rounding
        rng = np.random.default_rng(400)
        g = random_graph(kind, rng)
        modes = eigen(g, 30.0)
        broken = ModeTable(g, modes.k, modes.coef + rng.normal(0.0, 1e-3, modes.coef.shape))
        value, flux = vertex_residuals(broken)
        assert value.shape == flux.shape == (len(modes), len(g.vertices))
        for m in range(len(broken)):
            for j, v in enumerate(g.vertices):
                vals = end_values(broken, m, v.id)
                if v.condition == "dirichlet":
                    ref = (max(abs(x) for x in vals), 0.0)
                else:
                    ref = (max(vals) - min(vals), kirchhoff_residual(broken, m, v.id))
                assert value[m, j] == pytest.approx(ref[0], rel=1e-9, abs=1e-13)
                assert flux[m, j] == pytest.approx(ref[1], rel=1e-9, abs=1e-11)


class TestSpectralKernel:
    def test_interval_matches_images(self, interval):
        modes = eigen(interval, 45.0)
        x = GraphPoint("e", 0.5)
        ev = kernel_spectral(interval, 0.05, x, x, modes)
        oracle = kernel_interval(1.0, "neumann", "neumann", 0.05, 0.5, 0.5).value
        assert ev.value == pytest.approx(oracle, abs=1e-10)
        assert ev.value == pytest.approx(1.278566, abs=1e-6)

    def test_long_time_equilibrium(self, interval):
        modes = eigen(interval, 20.0)
        x = GraphPoint("e", 0.3)
        y = GraphPoint("e", 0.9)
        assert kernel_spectral(interval, 10.0, x, y, modes).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_star_center_matches_pathsum(self, star3):
        modes = eigen(star3, 60.0)
        x = GraphPoint("e1", 0.0)
        ev = kernel_spectral(star3, 0.02, x, x, modes)
        ps = kernel_pathsum(star3, 0.02, x, x, tol=1e-10)
        assert abs(ev.value - ps.value) < 1e-8

    def test_dirichlet_star_cross_check(self, star3_dirichlet_leaves):
        g = star3_dirichlet_leaves
        modes = eigen(g, 60.0)
        x = GraphPoint("e1", 0.5)
        ev = kernel_spectral(g, 0.02, x, x, modes)
        ps = kernel_pathsum(g, 0.02, x, x, tol=1e-10)
        assert abs(ev.value - ps.value) < 1e-8

    def test_grid_agreement_all_graphs(self, interval, star3, triangle):
        for g in (interval, star3, triangle):
            modes = eigen(g, 62.0)
            eids = [e.id for e in g.edges]
            pts = [
                GraphPoint(eids[i % len(eids)], s)
                for i, s in enumerate(np.linspace(0.1, 0.9, 5))
            ]
            for t in (0.01, 0.05, 0.2):
                for x in pts:
                    for y in pts:
                        a = kernel_pathsum(g, t, x, y, tol=1e-10)
                        b = kernel_spectral(g, t, x, y, modes)
                        allow = max(1e-8, a.tail_bound + b.tail_bound)
                        assert abs(a.value - b.value) <= allow

    def test_insufficient_kmax_reported(self, interval):
        modes = eigen(interval, 8.0)
        x = GraphPoint("e", 0.5)
        with pytest.raises(TruncationError):
            kernel_spectral(interval, 0.01, x, x, modes, tol=1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_tol_rejected(self, tol):
        # the bound here is about 8.7: a NaN or infinite tol must not let it pass
        g = make_graph([("a", "kirchhoff"), ("b", "dirichlet")], [("e", "a", "b", 1.0)])
        modes = eigen(g, 5.0)
        x = GraphPoint("e", 0.5)
        assert 8.0 < kernel_spectral(g, 0.02, x, x, modes).tail_bound < 9.0
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            kernel_spectral(g, 0.02, x, x, modes, tol=tol)

    @pytest.mark.parametrize("s", [5.0, -0.5, 1.0 + 1e-12, math.nan])
    def test_off_edge_point_rejected(self, interval, s):
        modes = eigen(interval, 20.0)
        inside = GraphPoint("e", 0.5)
        for x, y in [(GraphPoint("e", s), inside), (inside, GraphPoint("e", s))]:
            with pytest.raises(GraphError, match="off edge 'e'"):
                kernel_spectral(interval, 0.05, x, y, modes)


class TestModesum:
    def test_grid_and_time_array_equal_one_pair_calls(self, star3):
        modes = eigen(star3, 60.0)
        sx, sy, ts = np.linspace(0.0, 1.0, 6), np.array([0.1, 0.55, 1.0]), np.array([0.01, 0.2])
        for ex, ey in (("e1", "e1"), ("e1", "e3")):
            grid, bound = modesum(modes, ts[:, None, None], ex, sx[:, None], ey, sy[None, :])
            assert grid.shape == (2, 6, 3)
            for a, t in enumerate(ts):
                at_t, _ = modesum(modes, t, ex, sx[:, None], ey, sy[None, :])
                assert np.array_equal(at_t, grid[a])
                for i, x in enumerate(sx):
                    for j, y in enumerate(sy):
                        ev = kernel_spectral(star3, t, GraphPoint(ex, x), GraphPoint(ey, y), modes)
                        assert ev.value == grid[a, i, j]
            assert bound == kernel_spectral(star3, ts.min(), GraphPoint(ex, 0.5),
                                            GraphPoint(ey, 0.5), modes).tail_bound

    @pytest.mark.parametrize("kind", ["star3", "affine"] + GRAPH_KINDS)
    def test_one_pair_view_is_modesum_bit_for_bit(self, star3, interval, kind):
        # every ordered pair of edge ends and inner points, same-edge pairs
        # among them; Kirchhoff graphs carry k = 0 modes, and the hand-built
        # table an affine one
        if kind == "affine":
            g, modes = interval, ModeTable(interval, [0.0, 3.0], [[[0.25, 0.5]], [[0.5, 0.5]]])
        else:
            g = star3 if kind == "star3" else random_graph(kind, np.random.default_rng(11))
            modes = eigen(g, 40.0)
        pts = end_and_inner_points(g, np.random.default_rng(2))
        for t in (0.02, 0.3):
            for x in pts:
                for y in pts:
                    ev = kernel_spectral(g, t, x, y, modes)
                    vals, bound = modesum(modes, t, x.edge, x.s, y.edge, y.s)
                    assert ev.value.hex() == float(vals).hex()
                    assert ev.tail_bound == bound

    def test_bound_at_least_time_holds_at_every_time(self, triangle):
        modes = eigen(triangle, 40.0)
        ts = np.array([0.2, 0.03, 0.05])
        _, bound = modesum(modes, ts, "e1", 0.3, "e2", 0.6)
        assert bound == spectral_tail_bound(triangle, 0.03, 40.0)
        assert np.all(spectral_tail_bound(triangle, ts, 40.0) <= bound)

    @pytest.mark.parametrize("s", [5.0, -0.5, 1.0 + 1e-12, math.nan])
    def test_off_edge_arclength_rejected(self, interval, s):
        modes = eigen(interval, 20.0)
        for sx, sy in ((np.array([0.5, s]), 0.5), (0.5, np.array([[0.2], [s]]))):
            with pytest.raises(GraphError, match=f"point s={s} off edge 'e'") as exc:
                modesum(modes, 0.05, "e", sx, "e", sy)
            assert exc.value.offending == "e"


class TestContinuityValidation:
    def test_modes_continuous_at_vertices(self, triangle):
        modes = eigen(triangle, 10.0)
        for m in range(len(modes)):
            for v in triangle.vertices:
                vals = end_values(modes, m, v.id)
                assert max(vals) - min(vals) < 1e-10


class TestUnequalLengthsAndLoops:
    """Graphs with close roots (a short leg), double roots (a loop), loops,
    multi-edges and Dirichlet leaves: the eigenmode kernel must match the
    walk sum, and the modes must number the exact count."""

    def test_unequal_leg_star_matches_pathsum(self):
        g = make_star([1.0, 1.0, 0.3])
        t = 0.04
        modes = eigen(g, math.sqrt(math.log(1e14) / t) + 5.0)
        assert any(k == pytest.approx(4.9076, abs=1e-4) for k in modes.k)
        x, y = GraphPoint("e0", 0.3), GraphPoint("e1", 0.6)
        ps = kernel_pathsum(g, t, x, y, tol=1e-10)
        assert ps.value == pytest.approx(0.0060, abs=1e-4)
        assert kernel_spectral(g, t, x, y, modes).value == pytest.approx(
            ps.value, abs=1e-8
        )

    def test_unit_circle_matches_pathsum(self, circle):
        modes = eigen(circle, 40.0)
        x, y = GraphPoint("loop", 0.2), GraphPoint("loop", 0.7)
        ps = kernel_pathsum(circle, 0.02, x, y, tol=1e-10)
        assert kernel_spectral(circle, 0.02, x, y, modes).value == pytest.approx(
            ps.value, abs=1e-8
        )

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_match_pathsum(self, kind, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(kind, rng)
        t = 0.04
        k_max = math.sqrt(math.log(1e14) / t) + 5.0
        modes = eigen(g, k_max)
        k_lo = math.pi / (4.0 * g.total_length)
        exact = round(float(np.diff(_phase_count(g, np.array([k_lo, k_max])))[0]))
        assert len(modes) - np.count_nonzero(modes.k == 0.0) == exact
        pts = []
        for _ in range(4):
            e = g.edges[int(rng.integers(len(g.edges)))]
            pts.append(GraphPoint(e.id, float(rng.uniform(0.0, e.length))))
        for x in pts:
            for y in pts:
                ps = kernel_pathsum(g, t, x, y, tol=1e-10).value
                assert abs(kernel_spectral(g, t, x, y, modes).value - ps) <= 1e-8

    def test_split_double_root_is_one_root(self):
        # on this star rounding pulls the two eigenphases of the double root
        # k = 3.27249234748937 apart, and bisection used to leave it as two
        # adjacent brackets of jump 1, 1.7e-13 apart, each given its own mode:
        # the two had L2 inner product -0.119, and the eigenmode kernel missed
        # the walk sum by 0.114 at t = 0.017
        g = make_graph([("c", "kirchhoff")]
                       + [(f"l{i}", "kirchhoff" if i < 3 else "dirichlet") for i in range(5)],
                       [(f"e{i}", "c", f"l{i}", 0.48) for i in range(5)])
        t = 0.017056118208448403
        modes = eigen(g, math.sqrt(math.log(1e14) / t) + 5.0)
        rows = [r for r in eigen_report(modes) if abs(r["k"] - 3.2724923474893) < 1e-9]
        assert [r["multiplicity"] for r in rows] == [2]
        gram = mode_gram(modes)
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-8
        pts = [GraphPoint(e.id, s) for e in g.edges for s in (0.1, 0.35)]
        for x in pts:
            for y in pts:
                ps = kernel_pathsum(g, t, x, y, tol=1e-10).value
                assert abs(kernel_spectral(g, t, x, y, modes).value - ps) <= 1e-8


def loop_reference(t, x, y, modes):
    """The spectral sum one mode at a time, and the sum of its |terms|."""
    terms = [math.exp(-modes.k[m] ** 2 * t) * mode_at(modes, m, x.edge, x.s)
             * mode_at(modes, m, y.edge, y.s) for m in range(len(modes))]
    return sum(terms), sum(abs(term) for term in terms)


class TestModeTable:
    """kernel_spectral reads the table ``eigen`` builds; it must give the
    per-mode sum to rounding on every kind of graph and at edge ends."""

    def assert_matches_loop(self, g, modes, pts, ts=(0.01, 0.04, 0.5)):
        for t in ts:
            for x in pts:
                for y in pts:
                    ref, scale = loop_reference(t, x, y, modes)
                    got = kernel_spectral(g, t, x, y, modes).value
                    assert abs(got - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs_match_loop(self, kind, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_graph(kind, rng)
        modes = eigen(g, 40.0)
        self.assert_matches_loop(g, modes, end_and_inner_points(g, rng))

    def test_circle_double_modes_match_loop(self, circle):
        modes = eigen(circle, 40.0)
        assert [r["multiplicity"] for r in eigen_report(modes)][1:] == [2] * 6
        pts = [GraphPoint("loop", s) for s in (0.0, 0.2, 0.7, 1.0)]
        self.assert_matches_loop(circle, modes, pts)

    def test_constant_modes_match_loop(self):
        g = make_graph([("a", "kirchhoff"), ("b", "kirchhoff"), ("c", "kirchhoff"),
                        ("d", "dirichlet")],
                       [("e1", "a", "b", 1.0), ("e2", "c", "d", 0.7)])
        modes = eigen(g, 30.0)
        assert modes.k[0] == 0.0 and modes.k.max() <= modes.searched_to == 30.0
        self.assert_matches_loop(g, modes, end_and_inner_points(g, np.random.default_rng(5)))

    def test_affine_mode_uses_its_slope(self, interval):
        # a hand-built k = 0 mode with a slope: A + B s, not A cos 0 + B sin 0
        modes = ModeTable(interval, [0.0], [[[0.25, 0.5]]])
        x, y = GraphPoint("e", 0.4), GraphPoint("e", 1.0)
        assert kernel_spectral(interval, 0.1, x, y, modes).value == pytest.approx(
            0.45 * 0.75, rel=1e-15)
        self.assert_matches_loop(interval, modes, [x, y])

    def test_empty_table_gives_zero(self, interval_dirichlet):
        # below the first Dirichlet root eigen finds nothing
        empty = eigen(interval_dirichlet, 2.0)
        assert len(empty) == 0 and empty.coef.shape == (0, 1, 2)
        assert empty.k.max(initial=0.0) == 0.0
        x = GraphPoint("e", 0.5)
        ev = kernel_spectral(interval_dirichlet, 0.1, x, x, empty)
        # the table was searched to 2 / l_min, where the bound starts: every
        # mode is in the tail it bounds
        exact = kernel_interval(1.0, "dirichlet", "dirichlet", 0.1, 0.5, 0.5).value
        assert ev.value == 0.0 and exact <= ev.tail_bound < math.inf
        assert spectral_tail_bound(interval_dirichlet, 0.1, 1.99) == math.inf
        value, flux = vertex_residuals(empty)
        assert value.shape == flux.shape == (0, 2)
        assert eigen_report(empty) == []

    def test_table_is_read_only_and_pickles(self, star3):
        modes = eigen(star3, 12.0)
        assert len(modes) == len(modes.k) and modes.coef.shape == (len(modes), 3, 2)
        assert modes.graph is star3 and modes.col == {"e1": 0, "e2": 1, "e3": 2}
        for arr in (modes.k, modes.coef):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        copy = pickle.loads(pickle.dumps(modes))
        assert isinstance(copy, ModeTable) and copy.graph == star3
        assert copy.k.tobytes() == modes.k.tobytes()
        assert copy.coef.tobytes() == modes.coef.tobytes()
        assert copy.searched_to == modes.searched_to and not copy.coef.flags.writeable

    def test_unknown_edge_rejected(self, star3):
        modes = eigen(star3, 12.0)
        with pytest.raises(GraphError, match="unknown edge 'zz'"):
            kernel_spectral(star3, 0.1, GraphPoint("zz", 0.1), GraphPoint("e1", 0.2), modes)


class TestTailBounds:
    def test_table_bound_taken_where_the_search_stopped(self, interval):
        # K is the least k whose bound meets tol; the table's largest root
        # below it is 7 pi, where the bound would be 2.70e-10
        K = _certified_k_max(interval, 0.05, 1e-10)
        assert K == pytest.approx(22.438, abs=1e-3)
        modes = eigen(interval, K)
        k_top = modes.k.max(initial=0.0)
        assert modes.searched_to == K and k_top == pytest.approx(7 * math.pi)
        assert spectral_tail_bound(interval, 0.05, k_top) > 1e-10
        x = GraphPoint("e", 0.5)
        ev = kernel_spectral(interval, 0.05, x, x, modes, tol=1e-10)
        assert ev.tail_bound <= 1e-10
        copy = pickle.loads(pickle.dumps(modes))
        assert copy.searched_to == K
        # a table built by hand holds every mode only up to its largest one
        assert ModeTable(interval, modes.k, modes.coef).searched_to == k_top

    @pytest.mark.parametrize("length", [1.0, 8.0, 20.0])
    @pytest.mark.parametrize("t", [0.01, 0.05, 0.1])
    def test_trace_tail_bounds_omitted_roots(self, length, t):
        # the Kirchhoff interval's roots are n pi / L; sum those beyond K
        g = make_graph([("a", "kirchhoff"), ("b", "kirchhoff")], [("e", "a", "b", length)])
        K = _certified_k_max(g, t, 1e-16)  # what `hklab trace` searches to
        first = math.floor(K * length / math.pi) + 1
        omitted = math.fsum(math.exp(-((n * math.pi / length) ** 2) * t)
                            for n in range(first, first + 10000))
        bound = trace_tail_bound(g, t, K)
        assert omitted <= bound <= spectral_tail_bound(g, t, K) <= 1e-16
        if length == 20.0 and t == 0.01:
            # the density guess once printed here read 7.8e-18, below this
            # tail; on edges longer than 4 the two bounds are one
            assert omitted == pytest.approx(7.18e-17, rel=1e-2)
            assert spectral_tail_bound(g, t, K) == bound

    def test_kernel_tail_on_flower(self):
        # six unit loops at one vertex: roots 2 pi n of multiplicity 7, where
        # a guessed root density was once exceeded 7.2 times
        flower = make_graph([("o", "kirchhoff")],
                            [(f"p{i}", "o", "o", 1.0) for i in range(6)])
        modes = eigen(flower, 65.0)
        assert [r["multiplicity"] for r in eigen_report(modes)][:3] == [1, 5, 7]
        s = np.linspace(0.0, 1.0, 21)
        phi = np.concatenate([modes.at([e.id] * s.size, s) for e in flower.edges])
        # past 2 / l_min every unit mode has |phi|^2 <= 4 / l_min
        assert np.max(phi[:, modes.k >= 2.0] ** 2) <= 4.0
        for t in (0.01, 0.03, 0.1):
            for K in (2.5, 10.0, 20.0, 35.0):
                terms = np.where(modes.k > K, np.exp(-modes.k**2 * t), 0.0)
                tail = np.abs(phi @ (terms[:, None] * phi.T)).max()
                assert tail <= spectral_tail_bound(flower, t, K)
                assert terms.sum() <= trace_tail_bound(flower, t, K)

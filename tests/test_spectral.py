import math
import pickle

import numpy as np
import pytest

from conftest import GRAPH_KINDS, make_graph, make_star, random_graph
from hklab.graph import GraphError, GraphPoint
from hklab.kernels import TruncationError, kernel_interval, kernel_pathsum
from hklab.spectral import (
    EigenMode,
    ModeTable,
    _phase_count,
    eigen,
    eigen_report,
    kernel_spectral,
    kirchhoff_residual,
    kirchhoff_residual_fd,
    mode_gram,
)


class TestEigen:
    def test_interval_neumann_frequencies(self, interval):
        modes = eigen(interval, 20.0)
        ks = [m.k for m in modes]
        expect = [0.0] + [n * math.pi for n in range(1, 7)]
        assert len(ks) == len(expect)
        for k, e in zip(ks, expect):
            assert k == pytest.approx(e, abs=1e-11)
        assert modes[1].k ** 2 == pytest.approx(9.8696, abs=1e-4)

    def test_interval_dirichlet_no_zero_mode(self, interval_dirichlet):
        ks = [m.k for m in eigen(interval_dirichlet, 20.0)]
        assert min(ks) == pytest.approx(math.pi, abs=1e-11)
        assert len(ks) == 6

    def test_star_count_weyl(self, star3):
        modes = eigen(star3, 10.0)
        assert abs(len(modes) - (3 * 10 / math.pi + 1)) <= 1.0

    def test_star_multiplicities(self, star3):
        report = eigen_report(star3, eigen(star3, 8.0))
        mult = {round(r["k"], 6): r["multiplicity"] for r in report}
        assert mult[round(math.pi / 2, 6)] == 2
        assert mult[round(math.pi, 6)] == 1
        assert mult[round(3 * math.pi / 2, 6)] == 2

    def test_triangle_double_modes(self, triangle):
        report = eigen_report(triangle, eigen(triangle, 10.0))
        mult = {round(r["k"], 6): r["multiplicity"] for r in report}
        assert mult[round(2 * math.pi / 3, 6)] == 2

    def test_constant_mode_per_component(self):
        # a Neumann interval beside a Dirichlet-Kirchhoff one keeps its k = 0 mode
        g = make_graph([("a", "kirchhoff"), ("b", "kirchhoff"), ("c", "kirchhoff"),
                        ("d", "dirichlet")],
                       [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)])
        ks = [m.k for m in eigen(g, 4.0)]
        assert ks == pytest.approx([0.0, math.pi / 2, math.pi], abs=1e-11)

    def test_weyl_window_up_to_50(self, interval, star3, triangle):
        for g in (interval, star3, triangle):
            modes = eigen(g, 50.0)
            assert abs(len(modes) - g.total_length * 50.0 / math.pi) <= 2.0

    def test_orthonormality(self, star3):
        modes = eigen(star3, 12.0)
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


class TestKirchhoffResidual:
    def test_solver_modes_satisfy_condition(self, star3):
        for mode in eigen(star3, 12.0):
            assert kirchhoff_residual(mode, "c") < 1e-8

    def test_interval_neumann_end_exact(self, interval):
        modes = eigen(interval, 10.0)
        for mode in modes:
            assert kirchhoff_residual(mode, "a") < 1e-10

    def test_fd_agrees_second_order(self, star3):
        mode = eigen(star3, 5.0)[2]
        a = kirchhoff_residual(mode, "c")
        b = kirchhoff_residual_fd(mode, "c", h=1e-6)
        assert abs(a - b) < 1e-8

    def test_perturbed_mode_detected(self, star3):
        mode = eigen(star3, 5.0)[1]
        coeffs = tuple(
            (eid, a, b + (0.01 if eid == "e1" else 0.0)) for eid, a, b in mode.coeffs
        )
        broken = EigenMode(star3, mode.k, coeffs)
        assert kirchhoff_residual(broken, "c") > 1e-3


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
        for given in (modes, list(modes)):
            with pytest.raises(TruncationError):
                kernel_spectral(interval, 0.01, x, x, given, tol=1e-10)


class TestContinuityValidation:
    def test_modes_continuous_at_vertices(self, triangle):
        for mode in eigen(triangle, 10.0):
            for v in triangle.vertices:
                vals = [
                    mode.eval_edge(eid, 0.0 if end == 0 else triangle.edge_obj(eid).length)
                    for eid, end in triangle.incidence(v.id)
                ]
                assert max(vals) - min(vals) < 1e-10


class TestUnequalLengthsAndLoops:
    """Graphs with close roots (a short leg), double roots (a loop), loops,
    multi-edges and Dirichlet leaves: the eigenmode kernel must match the
    walk sum, and the modes must number the exact count."""

    def test_unequal_leg_star_matches_pathsum(self):
        g = make_star([1.0, 1.0, 0.3])
        t = 0.04
        modes = eigen(g, math.sqrt(math.log(1e14) / t) + 5.0)
        assert any(m.k == pytest.approx(4.9076, abs=1e-4) for m in modes)
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
        assert len(modes) - sum(m.k == 0.0 for m in modes) == exact
        pts = []
        for _ in range(4):
            e = g.edges[int(rng.integers(len(g.edges)))]
            pts.append(GraphPoint(e.id, float(rng.uniform(0.0, e.length))))
        for x in pts:
            for y in pts:
                ps = kernel_pathsum(g, t, x, y, tol=1e-10).value
                assert abs(kernel_spectral(g, t, x, y, modes).value - ps) <= 1e-8


def loop_reference(t, x, y, modes):
    """The spectral sum one mode at a time, and the sum of its |terms|."""
    terms = [math.exp(-mode.k**2 * t) * mode(x) * mode(y) for mode in modes]
    return sum(terms), sum(abs(term) for term in terms)


def end_and_inner_points(g, rng):
    """Both ends of every edge and one seeded inner point per edge."""
    pts = []
    for e in g.edges:
        pts += [GraphPoint(e.id, 0.0), GraphPoint(e.id, e.length),
                GraphPoint(e.id, float(rng.uniform(0.0, e.length)))]
    return pts


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
        assert [r["multiplicity"] for r in eigen_report(circle, modes)][1:] == [2] * 6
        pts = [GraphPoint("loop", s) for s in (0.0, 0.2, 0.7, 1.0)]
        self.assert_matches_loop(circle, modes, pts)

    def test_constant_modes_match_loop(self):
        g = make_graph([("a", "kirchhoff"), ("b", "kirchhoff"), ("c", "kirchhoff"),
                        ("d", "dirichlet")],
                       [("e1", "a", "b", 1.0), ("e2", "c", "d", 0.7)])
        modes = eigen(g, 30.0)
        assert modes.k[0] == 0.0 and modes.k_max == max(m.k for m in modes)
        self.assert_matches_loop(g, modes, end_and_inner_points(g, np.random.default_rng(5)))

    def test_affine_mode_uses_its_slope(self, interval):
        # a hand-built k = 0 mode with a slope: A + B s, not A cos 0 + B sin 0
        modes = [EigenMode(interval, 0.0, (("e", 0.25, 0.5),))]
        x, y = GraphPoint("e", 0.4), GraphPoint("e", 1.0)
        assert kernel_spectral(interval, 0.1, x, y, modes).value == pytest.approx(
            0.45 * 0.75, rel=1e-15)
        self.assert_matches_loop(interval, modes, [x, y])

    def test_plain_lists_give_the_table_values(self, star3, interval_dirichlet):
        modes = eigen(star3, 30.0)
        pts = end_and_inner_points(star3, np.random.default_rng(9))
        for x in pts:
            for y in pts:
                a = kernel_spectral(star3, 0.03, x, y, modes)
                b = kernel_spectral(star3, 0.03, x, y, list(modes))
                assert (a.value, a.tail_bound) == (b.value, b.tail_bound)
        # below the first Dirichlet root eigen finds nothing, as [] holds nothing
        empty = eigen(interval_dirichlet, 2.0)
        assert len(empty) == 0 and empty.coef.shape == (0, 1, 2)
        x = GraphPoint("e", 0.5)
        for given in (empty, []):
            ev = kernel_spectral(interval_dirichlet, 0.1, x, x, given)
            assert ev.value == 0.0 and ev.tail_bound == math.inf

    def test_table_is_an_immutable_mode_sequence(self, star3):
        modes = eigen(star3, 12.0)
        assert isinstance(modes, tuple) and isinstance(modes[0], EigenMode)
        assert modes.coef.shape == (len(modes), 3, 2)
        assert modes.k.tolist() == [m.k for m in modes]
        i = modes.col["e2"]
        for m, mode in enumerate(modes):
            assert tuple(modes.coef[m, i]) == mode.coeff("e2")
        with pytest.raises(ValueError):
            modes.coef[0, 0, 0] = 1.0
        copy = pickle.loads(pickle.dumps(modes))
        assert isinstance(copy, ModeTable) and copy == modes
        assert np.array_equal(copy.coef, modes.coef)

    def test_unknown_edge_rejected(self, star3):
        modes = eigen(star3, 12.0)
        with pytest.raises(GraphError, match="no edge 'zz'"):
            kernel_spectral(star3, 0.1, GraphPoint("zz", 0.1), GraphPoint("e1", 0.2), modes)

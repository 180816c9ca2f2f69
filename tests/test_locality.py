import math

import numpy as np
import pytest

from hklab._quad import gauss_legendre
from hklab.graph import GraphError, GraphPoint
from hklab.kernels import kernel_interval, kernel_mass, kernel_pathsum
from hklab.locality import (
    IsometryMap,
    MapPiece,
    SubdomainError,
    SubdomainSpec,
    ball_subdomain,
    decomposition_residual,
    exit_density,
    identity_map,
    interval_subdomain,
    kernel_killed,
    locality_compare,
)

from conftest import make_graph


@pytest.fixture(scope="module")
def line():
    # a long interval standing in for the real line around U = (3, 4)
    return make_graph([("a", "kirchhoff"), ("b", "kirchhoff")], [("e", "a", "b", 7.0)])


class TestSubdomain:
    def test_cut_points(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        assert [(c.edge, c.s) for c in u.cut_points] == [("e", 0.25), ("e", 0.75)]

    def test_contains_open(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        assert u.contains(GraphPoint("e", 0.5))
        assert not u.contains(GraphPoint("e", 0.25))
        assert not u.contains(GraphPoint("e", 0.1))

    def test_ball_includes_vertex(self, star3):
        u = ball_subdomain(star3, "c", 0.4)
        assert u.contains(GraphPoint("e1", 0.0))
        assert len(u.cut_points) == 3

    def test_partial_vertex_coverage_rejected(self, star3):
        with pytest.raises(SubdomainError, match="vertex"):
            SubdomainSpec(star3, (("e1", 0.0, 0.4),))

    def test_bad_interval_rejected(self, interval):
        with pytest.raises(SubdomainError):
            interval_subdomain(interval, "e", 0.7, 0.2)


class TestKilledKernel:
    def test_line_killed_equals_dirichlet_interval(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        ev = kernel_killed(u, 0.05, GraphPoint("e", 3.5), GraphPoint("e", 3.5))
        oracle = kernel_interval(1.0, "dirichlet", "dirichlet", 0.05, 0.5, 0.5)
        assert ev.value == pytest.approx(oracle.value, abs=1e-12)
        assert ev.value == pytest.approx(1.244566, abs=1e-6)

    def test_reports_truncation_of_cut_graph(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        cg, to_cut, _ = u.cut_graph()
        x = GraphPoint("e", 3.5)
        ev = kernel_killed(u, 0.05, x, x)
        inner = kernel_pathsum(cg, 0.05, to_cut(x), to_cut(x))
        assert (ev.lam, ev.walks, ev.tail_bound) == (inner.lam, inner.walks, inner.tail_bound)
        assert ev.walks > 1

    def test_zero_at_cut_point(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        v = kernel_killed(u, 0.05, GraphPoint("e", 3.5), GraphPoint("e", 4.0)).value
        assert v == pytest.approx(0.0, abs=1e-13)

    def test_dominated_by_full_kernel(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        for sx in np.linspace(0.3, 0.7, 5):
            for sy in np.linspace(0.3, 0.7, 5):
                x, y = GraphPoint("e", float(sx)), GraphPoint("e", float(sy))
                pu = kernel_killed(u, 0.05, x, y)
                p = kernel_pathsum(interval, 0.05, x, y, tol=1e-12)
                tails = pu.tail_bound + p.tail_bound
                assert -tails - 1e-13 <= pu.value <= p.value + tails + 1e-13

    def test_outside_point_rejected(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(SubdomainError):
            kernel_killed(u, 0.05, GraphPoint("e", 0.1), GraphPoint("e", 0.5))


class TestExitDensity:
    def test_conservation(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        x = GraphPoint("e", 3.5)
        s, w = gauss_legendre(256)
        s, w = 2.0 * s, 2.0 * w
        # one array call per cut point
        total = sum(float(np.dot(w, exit_density(u, x, b, s))) for b in u.cut_points)
        cg, to_cut, _ = u.cut_graph()
        survivor = kernel_mass(cg, 2.0, to_cut(x))
        assert total + survivor == pytest.approx(1.0, abs=1e-4)

    def test_symmetric_start_equal_densities(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        x = GraphPoint("e", 3.5)
        b1, b2 = u.cut_points
        for s in (0.02, 0.1):
            assert exit_density(u, x, b1, s) == pytest.approx(
                exit_density(u, x, b2, s), rel=1e-8
            )

    def test_nonnegative(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        x = GraphPoint("e", 3.3)
        for b in u.cut_points:
            for s in (0.01, 0.05, 0.3):
                assert exit_density(u, x, b, s) >= -1e-8

    def test_against_halfline_formula(self, line):
        # one-sided exit of the centred walk: density through b at distance a
        # from x on an effectively infinite domain is a e^{-a^2/4s}/sqrt(4 pi s^3)
        u = interval_subdomain(line, "e", 1.0, 6.0)
        x = GraphPoint("e", 1.5)
        b = u.cut_points[0]
        for s in (0.02, 0.05):
            a = 0.5
            oracle = a * math.exp(-a * a / (4 * s)) / math.sqrt(4 * math.pi * s**3)
            assert exit_density(u, x, b, s) == pytest.approx(oracle, rel=1e-12)

    def test_against_dirichlet_image_sum(self):
        # U = (1, 2) on a length-3 interval is the Dirichlet interval (0, 1):
        # x at distance a from the cut point exits through it with density
        # d/dy of sum_n g(a - y - 2n) - g(a + y - 2n) at y = 0
        g = make_graph([("a", "kirchhoff"), ("b", "kirchhoff")], [("e", "a", "b", 3.0)])
        u = interval_subdomain(g, "e", 1.0, 2.0)
        x = GraphPoint("e", 1.3)
        n = np.arange(-50, 51)
        for s in (0.005, 0.05, 0.3, 1.0):
            for b, a in zip(u.cut_points, (0.3, 0.7)):
                d = a - 2.0 * n
                oracle = np.sum(d / s * np.exp(-d * d / (4 * s))) / math.sqrt(4 * math.pi * s)
                assert exit_density(u, x, b, s) == pytest.approx(oracle, rel=1e-11)

    def test_time_array_matches_scalar_calls(self, line, star3):
        # one call over an array of times certifies its truncation at the
        # largest, lam; a call at one time s omits walks of mid-length m in
        # (lam_s, lam], whose sum of |w| g_s(m) is at most tol.  Such a walk's
        # total length l is at most lam plus twice the longest cut edge, and
        # g_s(l) <= g_s(m), so the density moves by at most l tol / 2s
        tol = 1e-12
        s = np.array([0.002, 0.01, 0.03, 0.1, 0.05])
        for u, x in ((interval_subdomain(line, "e", 3.0, 4.0), GraphPoint("e", 3.3)),
                     (ball_subdomain(star3, "c", 0.4), GraphPoint("e1", 0.2))):
            lam = max(kernel_killed(u, s.max(), x, x, tol=tol).lam, math.sqrt(2.0 * s.max()))
            longest = max(e.length for e in u.cut_graph()[0].edges)
            allow = (lam + 2.0 * longest) * tol / (2.0 * s)
            for b in u.cut_points:
                q = exit_density(u, x, b, s, tol=tol)
                assert q.shape == s.shape
                ref = np.array([exit_density(u, x, b, float(si), tol=tol) for si in s])
                assert np.all(np.abs(q - ref) <= allow)
                assert np.array_equal(exit_density(u, x, b, s[:, None], tol=tol)[:, 0], q)

    def test_start_outside_u(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        with pytest.raises(SubdomainError):
            exit_density(u, GraphPoint("e", 5.0), u.cut_points[0], 0.1)

    def test_not_a_cut_point(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        with pytest.raises(SubdomainError):
            exit_density(u, GraphPoint("e", 3.5), GraphPoint("e", 3.5), 0.1)

    def test_start_on_boundary_refused(self, interval):
        # a start on the boundary of U has no exit density: it read -3e-12
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        for b in u.cut_points:
            with pytest.raises(SubdomainError, match="start point must lie inside U"):
                exit_density(u, GraphPoint("e", 0.25), b, 0.05)

    def test_empty_time_array_refused(self, line):
        u = interval_subdomain(line, "e", 3.0, 4.0)
        with pytest.raises(GraphError, match="s must hold at least one time"):
            exit_density(u, GraphPoint("e", 3.5), u.cut_points[0], np.array([]))


class TestDecomposition:
    def test_interval_residual(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        r = decomposition_residual(
            u, 0.05, GraphPoint("e", 0.5), GraphPoint("e", 0.5), time_step=1e-4
        )
        assert r < 1e-4

    def test_star_ball_residual(self, star3):
        u = ball_subdomain(star3, "c", 0.4)
        r = decomposition_residual(
            u, 0.02, GraphPoint("e1", 0.2), GraphPoint("e2", 0.3), time_step=1e-4
        )
        assert r < 1e-4

    def test_short_time_limit(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        r = decomposition_residual(
            u, 5e-3, GraphPoint("e", 0.5), GraphPoint("e", 0.5), time_step=2e-5
        )
        assert r < 1e-6

    @pytest.mark.parametrize("case", ["interval", "star", "short"])
    def test_residual_at_rounding(self, interval, star3, case):
        # the closed-form density and Gauss-Legendre in time leave only rounding
        spec, t, x, y, step = {
            "interval": (interval_subdomain(interval, "e", 0.25, 0.75), 0.05,
                         GraphPoint("e", 0.5), GraphPoint("e", 0.5), 1e-4),
            "star": (ball_subdomain(star3, "c", 0.4), 0.02,
                     GraphPoint("e1", 0.2), GraphPoint("e2", 0.3), 1e-4),
            "short": (interval_subdomain(interval, "e", 0.25, 0.75), 5e-3,
                      GraphPoint("e", 0.5), GraphPoint("e", 0.5), 2e-5),
        }[case]
        assert decomposition_residual(spec, t, x, y, time_step=step) <= 1e-12

    def test_start_on_boundary_refused(self, interval):
        # at a cut point the identity has no density; this read 0.99926
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(SubdomainError, match="start point must lie inside U"):
            decomposition_residual(u, 0.05, GraphPoint("e", 0.25), GraphPoint("e", 0.5))

    def test_steps_past_one_panel(self, interval):
        # 10,000 nodes run on panels of at most 1024
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        r = decomposition_residual(
            u, 1.0, GraphPoint("e", 0.5), GraphPoint("e", 0.4), time_step=1e-4
        )
        assert r <= 1e-12

    def test_rejects_bad_step(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(ValueError):
            decomposition_residual(
                u, 0.05, GraphPoint("e", 0.5), GraphPoint("e", 0.5), time_step=0.0
            )


class TestLocalityCompare:
    def test_neumann_vs_dirichlet_certificate(self, interval, interval_dirichlet):
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        iso = IsometryMap(u_n, u_d, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        v = interval_subdomain(interval, "e", 0.4, 0.6)
        cert = locality_compare(
            interval, interval_dirichlet, iso, v, np.geomspace(0.01, 0.05, 8)
        )
        assert cert.certified
        assert cert.r2 >= 0.999
        # the shortest walk that leaves U runs from 0.4 to an end and back:
        # eps* = 0.8^2/4, and the fit with the t^{-1/2} prefactor finds it
        assert cert.eps == 0.8**2 / 4
        assert cert.eps_fit == pytest.approx(cert.eps, rel=1e-2)
        for t, s in zip(cert.t_grid, cert.sup_diffs):
            assert s <= cert.bound(t)

    def test_pointwise_difference_value(self, interval, interval_dirichlet):
        x = GraphPoint("e", 0.5)
        pn = kernel_pathsum(interval, 0.05, x, x, tol=1e-14).value
        pd = kernel_pathsum(interval_dirichlet, 0.05, x, x, tol=1e-14).value
        assert abs(pn - pd) == pytest.approx(
            4 * math.exp(-5) / math.sqrt(0.2 * math.pi), abs=1e-12
        )
        assert abs(pn - pd) == pytest.approx(0.034001, abs=1e-5)

    def test_identity_map_trivial(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        v = interval_subdomain(interval, "e", 0.4, 0.6)
        cert = locality_compare(
            interval, interval, identity_map(u), v, np.geomspace(0.01, 0.05, 6)
        )
        # the differences vanish, and eps* is still the shortest leaving walk's
        assert cert.certified
        assert cert.eps == pytest.approx(0.16, rel=1e-12)
        assert max(cert.sup_diffs) == 0.0

    def test_star_leg_extension(self, star3):
        long_star = make_graph(
            [("c", "kirchhoff"), ("l1", "kirchhoff"), ("l2", "kirchhoff"),
             ("l3", "kirchhoff")],
            [("e1", "c", "l1", 2.0), ("e2", "c", "l2", 2.0), ("e3", "c", "l3", 2.0)],
        )
        u_a = ball_subdomain(star3, "c", 0.9)
        u_b = ball_subdomain(long_star, "c", 0.9)
        iso = IsometryMap(
            u_a, u_b,
            tuple(MapPiece(f"e{i}", 0.0, 0.9, f"e{i}", 0.0, +1) for i in (1, 2, 3)),
        )
        v = ball_subdomain(star3, "c", 0.5)
        cert = locality_compare(star3, long_star, iso, v,
                                np.geomspace(0.01, 0.05, 8), points_per_piece=5)
        assert cert.certified
        assert cert.eps > 0.05

    def test_matches_pointwise_loop(self, star3, star3_dirichlet_leaves):
        # V has three pieces of different lengths, so the grid runs pair
        # different point sets; the sups of the walks that leave U match a
        # loop that subtracts kernel values pair by pair, to within the float64
        # resolution of those values
        g_a, g_b = star3, star3_dirichlet_leaves
        iso = IsometryMap(
            ball_subdomain(g_a, "c", 0.6), ball_subdomain(g_b, "c", 0.6),
            tuple(MapPiece(f"e{i}", 0.0, 0.6, f"e{i}", 0.0, +1) for i in (1, 2, 3)),
        )
        v = SubdomainSpec(g_a, (("e1", 0.0, 0.2), ("e2", 0.0, 0.3), ("e3", 0.0, 0.25)))
        ts = (0.02, 0.04)
        cert = locality_compare(g_a, g_b, iso, v, ts, points_per_piece=4)
        pts = [GraphPoint(e, float(s)) for e, lo, hi in v.pieces for s in np.linspace(lo, hi, 4)]
        for t, sup in zip(ts, cert.sup_diffs):
            tol = 1e-16 / math.sqrt(4.0 * math.pi * t)
            pairs = [(kernel_pathsum(g_a, t, x, y, tol).value,
                      kernel_pathsum(g_b, t, iso.apply(x), iso.apply(y), tol).value)
                     for x in pts for y in pts]
            loop = max(abs(pa - pb) for pa, pb in pairs)
            floor = 64.0 * np.finfo(float).eps * max(max(abs(pa), abs(pb)) for pa, pb in pairs)
            assert abs(sup - loop) <= floor < sup

    def test_bound_covers_v_at_one_point_per_piece(self, interval, interval_dirichlet):
        # the bound is taken over V's pieces, not over its grid: one point per
        # piece is the piece's lower end alone, and the bound at t = 0.05 used
        # to read 0.0499, below |p^N - p^D| = 0.1047 at (0.6, 0.6)
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        iso = IsometryMap(u_n, u_d, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        v = interval_subdomain(interval, "e", 0.45, 0.6)
        cert = locality_compare(interval, interval_dirichlet, iso, v, [0.01, 0.05],
                                points_per_piece=1)
        x = GraphPoint("e", 0.6)
        delta = abs(kernel_pathsum(interval, 0.05, x, x, tol=1e-14).value
                    - kernel_pathsum(interval_dirichlet, 0.05, x, x, tol=1e-14).value)
        assert delta == pytest.approx(0.1047, abs=1e-4)
        assert delta <= cert.sup_bounds[1] <= cert.bound(0.05)
        assert cert.eps == pytest.approx(0.4**2, rel=1e-12)

    @pytest.mark.parametrize("count", [0, -2, True, 2.5, "9"])
    def test_bad_points_per_piece_rejected(self, interval, interval_dirichlet, count):
        # 0 used to fail inside numpy, True to run as 1 and 2.5 to raise a bare
        # TypeError
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        iso = IsometryMap(u_n, u_d, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        v = interval_subdomain(interval, "e", 0.4, 0.6)
        with pytest.raises(GraphError, match="points_per_piece must be an integer >= 1"):
            locality_compare(interval, interval_dirichlet, iso, v, [0.01, 0.02],
                             points_per_piece=count)

    @pytest.mark.parametrize("sign", [0, 2, -3])
    def test_map_piece_sign_must_be_unit(self, sign):
        # 0 and -3 used to reverse the orientation, and 2 to keep it
        with pytest.raises(SubdomainError, match="sign must be"):
            MapPiece("e", 0.25, 0.75, "e", 0.25, sign)

    def test_v_must_sit_inside_u(self, interval, interval_dirichlet):
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        iso = IsometryMap(u_n, u_d, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        v_bad = interval_subdomain(interval, "e", 0.1, 0.6)
        with pytest.raises(SubdomainError):
            locality_compare(interval, interval_dirichlet, iso, v_bad, [0.01, 0.02])

    def test_sup_diff_respects_decay_envelope(self, interval, interval_dirichlet, star3):
        # the certified decay bound holds at every grid time, down to times
        # where subtracting the two kernels would return 0
        long_star = make_graph(
            [("c", "kirchhoff"), ("l1", "kirchhoff"), ("l2", "kirchhoff"),
             ("l3", "kirchhoff")],
            [("e1", "c", "l1", 2.0), ("e2", "c", "l2", 2.0), ("e3", "c", "l3", 2.0)],
        )
        pairs = [
            (interval, interval_dirichlet,
             interval_subdomain(interval, "e", 0.25, 0.75),
             interval_subdomain(interval_dirichlet, "e", 0.25, 0.75),
             interval_subdomain(interval, "e", 0.4, 0.6),
             (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),)),
            (star3, long_star,
             ball_subdomain(star3, "c", 0.9), ball_subdomain(long_star, "c", 0.9),
             ball_subdomain(star3, "c", 0.5),
             tuple(MapPiece(f"e{i}", 0.0, 0.9, f"e{i}", 0.0, +1) for i in (1, 2, 3))),
        ]
        ts = np.geomspace(0.002, 0.05, 8)
        for g_a, g_b, u_a, u_b, v, pieces in pairs:
            iso = IsometryMap(u_a, u_b, pieces)
            cert = locality_compare(g_a, g_b, iso, v, ts, points_per_piece=5)
            assert len(cert.sup_bounds) == len(ts)
            for s, b in zip(cert.sup_diffs, cert.sup_bounds):
                assert 0.0 < s <= b

    def test_differences_resolved_below_subtraction(self, interval, interval_dirichlet):
        # criterion 3's pair: the walks that touch an end of the interval sum
        # to 5.8e-69 at t = 0.001, where the two kernels agree to every bit;
        # the sup there is the image pair 2 (e^{-0.64/4t} + e^{-1.44/4t}) at
        # x = y = 0.4, over sqrt(4 pi t)
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        iso = IsometryMap(u_n, u_d, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        v = interval_subdomain(interval, "e", 0.4, 0.6)
        ts = np.geomspace(0.001, 0.05, 12)
        cert = locality_compare(interval, interval_dirichlet, iso, v, ts)
        t = 0.001
        oracle = 2.0 * (math.exp(-0.64 / (4 * t)) + math.exp(-1.44 / (4 * t))) \
            / math.sqrt(4 * math.pi * t)
        assert cert.sup_diffs[0] == pytest.approx(oracle, rel=1e-12)
        assert cert.sup_diffs[0] == pytest.approx(5.81e-69, rel=1e-3)
        assert all(0.0 < s <= b for s, b in zip(cert.sup_diffs, cert.sup_bounds))

    @pytest.mark.parametrize("t_grid, message", [
        ([], "at least one time"),
        ([0.0, 0.02], "finite and positive, got 0.0"),
        ([-0.01, 0.02], "finite and positive, got -0.01"),
    ], ids=["empty", "zero", "negative"])
    def test_bad_time_grid_rejected(self, interval, interval_dirichlet, t_grid, message):
        # an empty grid used to certify that the differences vanish, a zero
        # time to divide by zero and a negative one to fail in math.sqrt
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        iso = IsometryMap(u_n, u_d, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        v = interval_subdomain(interval, "e", 0.4, 0.6)
        with pytest.raises(GraphError, match=message):
            locality_compare(interval, interval_dirichlet, iso, v, t_grid)

    def test_map_must_match_vertices(self, interval, star3, star3_dirichlet_leaves):
        # walks that stay in U see its vertices: a piece end at a vertex may not
        # map to a cut point, nor a vertex to one of another condition
        at_vertex = interval_subdomain(interval, "e", 0.0, 0.5)
        inner = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(SubdomainError, match="vertices"):
            IsometryMap(at_vertex, inner, (MapPiece("e", 0.0, 0.5, "e", 0.25, +1),))
        dirichlet_centre = make_graph(
            [("c", "dirichlet")] + [(f"l{i}", "kirchhoff") for i in (1, 2, 3)],
            [(f"e{i}", "c", f"l{i}", 1.0) for i in (1, 2, 3)],
        )
        with pytest.raises(SubdomainError, match="vertices"):
            IsometryMap(ball_subdomain(star3, "c", 0.5),
                        ball_subdomain(dirichlet_centre, "c", 0.5),
                        tuple(MapPiece(f"e{i}", 0.0, 0.5, f"e{i}", 0.0, +1) for i in (1, 2, 3)))
        # the reversed map of an end piece reaches the other vertex
        IsometryMap(at_vertex, interval_subdomain(interval, "e", 0.5, 1.0),
                    (MapPiece("e", 0.0, 0.5, "e", 0.5, -1),))

    def test_shrinking_v_does_not_decrease_eps(self, interval, interval_dirichlet):
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        iso = IsometryMap(u_n, u_d, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        ts = np.geomspace(0.01, 0.05, 8)
        eps_wide = locality_compare(
            interval, interval_dirichlet, iso,
            interval_subdomain(interval, "e", 0.38, 0.62), ts
        ).eps
        eps_narrow = locality_compare(
            interval, interval_dirichlet, iso,
            interval_subdomain(interval, "e", 0.45, 0.55), ts
        ).eps
        # eps* = (2 lo)^2/4 = lo^2, the walk from lo to end 0 and back
        assert eps_wide == pytest.approx(0.38**2, rel=1e-12)
        assert eps_narrow == pytest.approx(0.45**2, rel=1e-12)

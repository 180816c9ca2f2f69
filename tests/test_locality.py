import math

import numpy as np
import pytest

from hklab._quad import simpson_nodes
from hklab.graph import GraphPoint
from hklab.kernels import kernel_interval, kernel_mass, kernel_pathsum
from hklab.locality import (
    DecayBoundParams,
    IsometryMap,
    MapPiece,
    SubdomainError,
    SubdomainSpec,
    ball_subdomain,
    decomposition_residual,
    exit_density,
    fit_decay_params,
    identity_map,
    interval_subdomain,
    kernel_killed,
    locality_compare,
    nonlocal_bound,
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
        s, w = simpson_nodes(2.0, 5e-4)
        total = 0.0
        for b in u.cut_points:  # one array call per cut point; q(0) = 0
            q = np.zeros_like(s)
            q[1:] = exit_density(u, x, b, s[1:])
            total += float(np.dot(w, q))
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
            assert exit_density(u, x, b, s) == pytest.approx(oracle, rel=1e-3)

    def test_time_array_matches_scalar_calls(self, line, star3):
        # one call over an array of times certifies its truncation at the
        # largest; each kernel value moves by at most 2 tol, so the density
        # by at most (2/h2 + 1/h1) 2 tol
        tol = 1e-12
        allow = (2.0 / 5e-5 + 1.0 / 1e-4) * 2.0 * tol
        s = np.array([0.002, 0.01, 0.03, 0.1, 0.05])
        for u, x in ((interval_subdomain(line, "e", 3.0, 4.0), GraphPoint("e", 3.3)),
                     (ball_subdomain(star3, "c", 0.4), GraphPoint("e1", 0.2))):
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

    def test_rejects_bad_step(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(ValueError):
            decomposition_residual(
                u, 0.05, GraphPoint("e", 0.5), GraphPoint("e", 0.5), time_step=0.0
            )


class TestNonlocalBound:
    def test_formula_value(self):
        params = DecayBoundParams(1.0, 1.0, 1.0, 1.0)
        v = nonlocal_bound(params, 1.0, 0.1)
        assert v == pytest.approx(0.1 ** -0.5 * math.exp(-10.0), rel=1e-12)
        assert v == pytest.approx(1.4357e-4, abs=1e-8)

    def test_monotone_below_threshold(self):
        params = DecayBoundParams(1.0, 1.0, 1.0, 10.0)
        rho = 1.0
        ts = np.linspace(0.05, 2 * rho**2 / 1.0 - 0.05, 12)
        vals = [nonlocal_bound(params, rho, float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_measured_mass_below_fitted_bound(self, line):
        # non-local mass of the line against U = (3, 4): image-sum oracle
        # 2 e^{-5}/sqrt(0.2 pi), dominated by the fitted envelope at rho = 0.5
        u = interval_subdomain(line, "e", 3.0, 4.0)
        x = GraphPoint("e", 3.5)
        full = kernel_pathsum(line, 0.05, x, x, tol=1e-14).value
        killed = kernel_killed(u, 0.05, x, x, tol=1e-14).value
        mass = full - killed
        assert mass == pytest.approx(2 * math.exp(-5) / math.sqrt(0.2 * math.pi),
                                     abs=1e-7)
        params = fit_decay_params(line, T=0.2)
        assert mass <= nonlocal_bound(params, 0.5, 0.05)

    def test_out_of_range_t(self):
        params = DecayBoundParams(1.0, 4.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            nonlocal_bound(params, 1.0, 0.2)


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
        # dominant image exponent (x+y)^2/4 at the V-infimum is 0.16
        assert 0.1 < cert.eps < 0.2
        for t, s in zip(cert.t_grid, cert.sup_diffs):
            assert s <= cert.bound(t) * 1.10

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
        assert cert.certified
        assert cert.eps == math.inf
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
        # different point sets; the batched sups match a loop over point
        # pairs to within the noise floor of the kernel values
        g_a, g_b = star3, star3_dirichlet_leaves
        iso = IsometryMap(
            ball_subdomain(g_a, "c", 0.6), ball_subdomain(g_b, "c", 0.6),
            tuple(MapPiece(f"e{i}", 0.0, 0.6, f"e{i}", 0.0, +1) for i in (1, 2, 3)),
        )
        v = SubdomainSpec(g_a, (("e1", 0.0, 0.2), ("e2", 0.0, 0.3), ("e3", 0.0, 0.25)))
        ts = (0.02, 0.04)
        cert = locality_compare(g_a, g_b, iso, v, ts, points_per_piece=4)
        pts = [GraphPoint(e, float(s)) for e, lo, hi in v.pieces for s in np.linspace(lo, hi, 4)]
        for t, sup, floor in zip(ts, cert.sup_diffs, cert.noise_floor):
            tol = 1e-16 / math.sqrt(4.0 * math.pi * t)
            loop = max(abs(kernel_pathsum(g_a, t, x, y, tol).value
                           - kernel_pathsum(g_b, t, iso.apply(x), iso.apply(y), tol).value)
                       for x in pts for y in pts)
            assert abs(sup - loop) <= floor < sup

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
        # sup|Delta| <= 2 C t^{-1/2} exp(-rho_bar^2/(c t)) with fitted (C, c):
        # the difference is at most the two non-local masses
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
             (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),), 0.15),
            (star3, long_star,
             ball_subdomain(star3, "c", 0.9), ball_subdomain(long_star, "c", 0.9),
             ball_subdomain(star3, "c", 0.5),
             tuple(MapPiece(f"e{i}", 0.0, 0.9, f"e{i}", 0.0, +1) for i in (1, 2, 3)),
             0.4),
        ]
        ts = np.geomspace(0.01, 0.05, 6)
        for g_a, g_b, u_a, u_b, v, pieces, rho_bar in pairs:
            iso = IsometryMap(u_a, u_b, pieces)
            cert = locality_compare(g_a, g_b, iso, v, ts, points_per_piece=5)
            pa = fit_decay_params(g_a, T=0.06)
            pb = fit_decay_params(g_b, T=0.06)
            c_env = max(pa.c, pb.c)
            c_amp = max(pa.C, pb.C)
            env = DecayBoundParams(c_amp, c_env, 1.0, 0.06)
            for t, s in zip(cert.t_grid, cert.sup_diffs):
                assert s <= 2.0 * nonlocal_bound(env, rho_bar, t)

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
        assert eps_narrow >= eps_wide * 0.98

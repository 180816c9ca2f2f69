import math
from fractions import Fraction

import numpy as np
import pytest

from hklab.graph import GraphError
from hklab.spectral import _certified_k_max, eigen, trace_tail_bound
from hklab.twoparticle import (
    SymCoeff,
    TraceSeries,
    asymptotic_fit,
    decomposition_coefficients,
    eigen_trace_series,
    predicted_coefficients,
    predicted_coefficients_exact,
    region_coefficients,
    single_trace_eigen,
    trace_series,
    trace_two_particle,
    trace_two_particle_eigen,
)

from conftest import make_graph, make_star

K, D = "kirchhoff", "dirichlet"
# graphs with Dirichlet vertices; every edge is at least 0.6 and the loop 1,
# so their periodic orbits are long enough for small-time checks
INTERVAL_DK = make_graph([("a", D), ("b", K)], [("e", "a", "b", 1.0)])
LOLLIPOP_D = make_graph([("o", K), ("l", D)],
                        [("loop", "o", "o", 1.0), ("stem", "o", "l", 0.6)])
TRIANGLE_DDK = make_graph([("a", D), ("b", D), ("c", K)],
                          [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0), ("e3", "c", "a", 1.0)])
MULTI_D = make_graph([("a", K), ("b", D)],
                     [("e1", "a", "b", 0.6), ("e2", "a", "b", 0.8), ("e3", "a", "b", 1.2)])


class TestTraces:
    def test_symmetrization_identity(self, interval):
        modes = eigen(interval, 85.0)
        for t in (0.01, 0.05):
            zq = trace_two_particle(interval, t, 2e-3)
            ze = trace_two_particle_eigen(modes, t)
            assert abs(zq - ze) < 1e-8

    def test_star_trace_three_digits(self, star3):
        modes = eigen(star3, 60.0)
        zq = trace_two_particle(star3, 0.02, 2e-3)
        ze = trace_two_particle_eigen(modes, 0.02)
        assert zq == pytest.approx(ze, rel=5e-4)

    def test_long_time_limit(self, interval):
        modes = eigen(interval, 20.0)
        assert trace_two_particle_eigen(modes, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_time_arrays_equal_one_time_calls(self, star3):
        modes = eigen(star3, 60.0)
        ts = np.geomspace(0.002, 0.2, 7)
        for fn in (single_trace_eigen, trace_two_particle_eigen):
            assert fn(modes, ts).tolist() == [fn(modes, t) for t in ts]
        # against the mode-by-mode sum in another order
        loop = [sum(math.exp(-k * k * t) for k in modes.k.tolist()) for t in ts]
        assert single_trace_eigen(modes, ts) == pytest.approx(loop, rel=1e-14, abs=0.0)
        tails = [trace_tail_bound(star3, t, 60.0) for t in ts]
        assert trace_tail_bound(star3, ts, 60.0).tolist() == tails

    def test_series_decreasing(self, interval):
        series = trace_series(interval, np.geomspace(0.01, 0.1, 5), 2e-3)
        assert all(a > b for a, b in zip(series.Z, series.Z[1:]))

    def test_coarse_step_rejected(self, interval):
        with pytest.raises(ValueError, match="too coarse"):
            trace_two_particle(interval, 0.002, 0.2)


class TestRegions:
    def test_deg1_corner_constant_five_thirty_seconds(self, interval):
        _, _, const = region_coefficients(
            interval, "E", {"eps": Fraction(1, 16), "vertex": "a"}
        )
        assert const == SymCoeff(Fraction(5, 32))

    def test_region_c_coefficient(self, star3):
        eps = Fraction(1, 16)
        vol, half, const = region_coefficients(
            star3, "C", {"eps": eps, "vertex": "c", "edge": "e2"}
        )
        # t^{-1/2} coefficient (l - 2 eps) * sum of diagonal entries, here -1
        assert half == SymCoeff(-(1 - 2 * eps))
        assert vol == SymCoeff(3 * eps * (1 - 2 * eps))

    def test_deg2_region_equals_vertex_free_strip(self):
        path2 = make_graph(
            [("a", "kirchhoff"), ("m", "kirchhoff"), ("b", "kirchhoff")],
            [("e1", "a", "m", 1.0), ("e2", "m", "b", 1.0)],
        )
        eps = Fraction(1, 16)
        vol, half, const = region_coefficients(path2, "E", {"eps": eps, "vertex": "m"})
        # a vertex-free fold strip of width 2 eps: area (2 sqrt(2) - 1) eps^2,
        # boundary contribution 2 eps, no corner constant
        assert vol == SymCoeff(-eps * eps, 2 * eps * eps)
        assert half == SymCoeff(2 * eps)
        assert const == SymCoeff()

    @pytest.mark.parametrize("eps", [0.3, math.nan, math.inf, -math.inf])
    def test_eps_too_large_rejected(self, interval, eps):
        with pytest.raises(GraphError):
            region_coefficients(interval, "E", {"eps": eps, "vertex": "a"})

    @pytest.mark.parametrize("eps", [Fraction(1, 16), Fraction(1, 10), Fraction(3, 50)])
    def test_full_decomposition_matches_predicted(
        self, eps, interval, star3, triangle, circle, interval_dirichlet,
        star3_dirichlet_leaves,
    ):
        for g in (interval, star3, triangle, circle, interval_dirichlet,
                  star3_dirichlet_leaves, INTERVAL_DK, LOLLIPOP_D, TRIANGLE_DDK,
                  make_star([1.0, 0.75, 0.5], D), MULTI_D):
            dec = decomposition_coefficients(g, eps)
            pred = predicted_coefficients_exact(g)
            assert dec[0] == pred[0]
            assert dec[1] == pred[1]
            assert dec[2] == pred[2]


class TestPredicted:
    def test_interval_values(self, interval):
        fit = predicted_coefficients(interval)
        assert fit.a_minus1 == pytest.approx(1.0 / (8 * math.pi), rel=1e-14)
        assert fit.a_half == pytest.approx(
            (2 + math.sqrt(2)) / (8 * math.sqrt(math.pi)), rel=1e-14
        )
        # cross-check: polygon corner constants 1/16 + 2 * 5/32 for the
        # Neumann triangle with angles pi/2, pi/4, pi/4
        corner = lambda th: (math.pi**2 - th**2) / (24 * math.pi * th)
        assert fit.a_0 == pytest.approx(
            corner(math.pi / 2) + 2 * corner(math.pi / 4), rel=1e-12
        )
        assert fit.a_0 == pytest.approx(0.375, rel=1e-14)

    def test_volume_term_is_half_squared_length(self, star3):
        fit = predicted_coefficients(star3)
        assert fit.a_minus1 * 4 * math.pi == pytest.approx(
            star3.total_length**2 / 2, rel=1e-14
        )

    def test_degree2_merge_invariance(self):
        merged = make_graph(
            [("a", "kirchhoff"), ("b", "kirchhoff")], [("e", "a", "b", 2.0)]
        )
        split = make_graph(
            [("a", "kirchhoff"), ("m", "kirchhoff"), ("b", "kirchhoff")],
            [("e1", "a", "m", 1.2), ("e2", "m", "b", 0.8)],
        )
        f1 = predicted_coefficients(merged)
        f2 = predicted_coefficients(split)
        assert f1.a_minus1 == pytest.approx(f2.a_minus1, rel=1e-14)
        assert f1.a_half == pytest.approx(f2.a_half, rel=1e-14)
        assert f1.a_0 == pytest.approx(f2.a_0, abs=1e-14)

    def test_dirichlet_interval_values(self, interval_dirichlet):
        fit = predicted_coefficients(interval_dirichlet)
        assert fit.a_minus1 == pytest.approx(1.0 / (8 * math.pi), rel=1e-14)
        # Neumann diagonal of length sqrt(2), two Dirichlet sides of length 1
        assert fit.a_half == pytest.approx(
            (math.sqrt(2) - 2) / (8 * math.sqrt(math.pi)), rel=1e-14
        )
        # cross-check: the Dirichlet corner pi/2 plus two mixed
        # Dirichlet/Neumann corners pi/4 of the triangle
        corner = lambda th: (math.pi**2 - th**2) / (24 * math.pi * th)
        mixed = lambda th: -(math.pi**2 + 2 * th**2) / (48 * math.pi * th)
        assert fit.a_0 == pytest.approx(corner(math.pi / 2) + 2 * mixed(math.pi / 4),
                                        rel=1e-12)
        assert fit.a_0 == -0.125

    @pytest.mark.parametrize("g, c0", [
        (make_graph([("a", D), ("b", D)], [("e", "a", "b", 1.0)]), Fraction(-1, 2)),
        (INTERVAL_DK, Fraction(0)),
        (make_star([1.0, 1.0, 1.0], D), Fraction(-1)),
        (LOLLIPOP_D, Fraction(-1, 2)),
        (TRIANGLE_DDK, Fraction(-1)),
        (MULTI_D, Fraction(-1)),
    ], ids=["dd", "dk", "star_d", "lollipop_d", "triangle_ddk", "multi_d"])
    def test_one_particle_constant(self, g, c0):
        # Z_1(t) - L/(2 sqrt(pi t)) is the constant c0 = 1/4 sum_v tr sigma_v
        # up to the periodic-orbit terms, of order e^-50 here
        t = 0.005
        z1 = single_trace_eigen(eigen(g, 90.0), t)
        assert abs(z1 - g.total_length / (2 * math.sqrt(math.pi * t)) - float(c0)) < 1e-9
        L = sum(Fraction(e.length) for e in g.edges)
        assert predicted_coefficients_exact(g)[1] == SymCoeff(4 * L * c0, L)


class TestFit:
    def test_exact_basis_member(self):
        ts = np.geomspace(0.002, 0.02, 8)
        series = TraceSeries(tuple(ts), tuple(2.0 / ts), tuple(0.0 for _ in ts))
        fit = asymptotic_fit(series)
        assert fit.a_minus1 == pytest.approx(2.0, abs=1e-10)
        assert abs(fit.a_half) < 1e-9
        assert abs(fit.a_0) < 1e-9

    def test_interval_fit_within_one_percent(self, interval):
        fit = asymptotic_fit(eigen_trace_series(interval, np.geomspace(0.002, 0.02, 8)))
        pred = predicted_coefficients(interval)
        assert abs(fit.a_minus1 / pred.a_minus1 - 1) < 0.01
        assert abs(fit.a_half / pred.a_half - 1) < 0.01
        assert abs(fit.a_0 / pred.a_0 - 1) < 0.01

    def test_quadrature_fit_refines_toward_predicted(self, interval):
        # refining the quadrature step does not worsen the fitted coefficients
        pred = predicted_coefficients(interval)
        ts = np.geomspace(0.005, 0.02, 6)
        errs = []
        for step in (4e-3, 2e-3):
            fit = asymptotic_fit(trace_series(interval, ts, step))
            errs.append(abs(fit.a_0 - pred.a_0) + abs(fit.a_half - pred.a_half))
        assert errs[1] <= errs[0] + 1e-9
        assert errs[1] < 0.02

    @pytest.mark.parametrize("length", [1.0, 20.0])
    def test_eigen_series_error_covers_omitted_roots(self, length):
        # the error bounds each Z_1 tail by the omitted roots n pi / L summed
        # directly; on a length-20 interval the pointwise kernel bound used
        # to give 3.22e-18 for a tail of 5.24e-18
        g = make_graph([("a", K), ("b", K)], [("e", "a", "b", length)])
        t = 0.01
        series = eigen_trace_series(g, [t])
        k_max = _certified_k_max(g, t, 1e-18)  # where the series' modes stop
        n = np.arange(math.floor(k_max * length / math.pi) + 1, 10**5)
        omitted = float(np.exp(-(n * math.pi / length) ** 2 * t).sum())
        z1 = single_trace_eigen(eigen(g, k_max), t)
        assert series.quad_error[0] >= omitted * (2.0 * z1 + 1.0)

    def test_star_a0_within_two_percent(self, star3):
        fit = asymptotic_fit(eigen_trace_series(star3, np.geomspace(0.002, 0.02, 8)))
        pred = predicted_coefficients(star3)
        assert abs(fit.a_0 / pred.a_0 - 1) < 0.02

    def test_narrow_range_rejected(self):
        ts = np.linspace(0.01, 0.0100001, 8)
        series = TraceSeries(tuple(ts), tuple(2.0 / ts), tuple(0.0 for _ in ts))
        with pytest.raises(ValueError, match="ill-conditioned"):
            asymptotic_fit(series)

    def test_too_few_points_rejected(self):
        ts = np.geomspace(0.002, 0.02, 4)
        series = TraceSeries(tuple(ts), tuple(2.0 / ts), tuple(0.0 for _ in ts))
        with pytest.raises(ValueError):
            asymptotic_fit(series)

    def test_noisy_series_rejected(self):
        ts = np.geomspace(0.002, 0.02, 8)
        series = TraceSeries(
            tuple(ts), tuple(2.0 / ts), tuple(0.02 / t for t in ts)
        )
        with pytest.raises(ValueError, match="error"):
            asymptotic_fit(series)

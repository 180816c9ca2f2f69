import math

import numpy as np
import pytest

from hklab._quad import simpson_nodes
from hklab.graph import GraphPoint, enumerate_walks
from hklab.kernels import (
    _certified_lambda,
    gauss_free,
    kernel_interval,
    kernel_mass,
    kernel_pathsum,
    kernel_semigroup_residual,
    kernel_star,
    pathsum_profile,
    pathsum_tail_bound,
    star_sigma,
)


def cosine_series(t, x, y, n_max=400):
    """Neumann unit-interval kernel by eigenfunction expansion (oracle)."""
    total = 1.0
    for n in range(1, n_max):
        total += 2.0 * math.cos(n * math.pi * x) * math.cos(n * math.pi * y) * math.exp(
            -(n * math.pi) ** 2 * t
        )
    return total


def sine_series(t, x, y, n_max=400):
    """Dirichlet unit-interval kernel by eigenfunction expansion (oracle)."""
    total = 0.0
    for n in range(1, n_max):
        total += 2.0 * math.sin(n * math.pi * x) * math.sin(n * math.pi * y) * math.exp(
            -(n * math.pi) ** 2 * t
        )
    return total


class TestGaussFree:
    def test_peak_value(self):
        assert gauss_free(0.25, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert gauss_free(0.25, 0.0) == pytest.approx(0.5641895835477563, rel=1e-12)

    def test_even_in_d(self):
        for d in (0.1, 0.7, 2.3):
            assert gauss_free(0.05, d) == gauss_free(0.05, -d)

    def test_normalization_by_quadrature(self):
        t = 0.1
        u = np.linspace(-8.0, 8.0, 160001)
        vals = gauss_free(t, u)
        w = np.ones_like(u)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        integral = float(np.dot(w, vals)) * 16.0 / (3 * (len(u) - 1))
        assert abs(integral - 1.0) < 1e-10

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            gauss_free(0.0, 1.0)


class TestKernelStar:
    def test_deg3_center_value(self):
        # (2/3)/sqrt(0.04 pi), direct evaluation of the closed form
        sig = star_sigma(3)
        v = kernel_star(3, sig, 0.01, (0, 0.0), (0, 0.0))
        assert v == pytest.approx((2.0 / 3.0) / math.sqrt(0.04 * math.pi), rel=1e-13)
        assert v == pytest.approx(1.880632, abs=1e-6)

    def test_deg2_invisibility(self):
        sig = star_sigma(2)
        for t in (0.01, 0.2, 1.0):
            assert kernel_star(2, sig, t, (0, 0.3), (1, 0.4)) == gauss_free(t, 0.3 + 0.4)

    def test_dirichlet_end_absorbs(self):
        sig = star_sigma(1, "dirichlet")
        assert kernel_star(1, sig, 0.05, (0, 0.0), (0, 0.0)) == 0.0

    def test_symmetry(self):
        sig = star_sigma(4)
        a = kernel_star(4, sig, 0.07, (1, 0.3), (2, 0.9))
        b = kernel_star(4, sig, 0.07, (2, 0.9), (1, 0.3))
        assert a == pytest.approx(b, rel=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_star(2, star_sigma(2), 0.1, (2, 0.0), (0, 0.0))


class TestKernelInterval:
    def test_neumann_against_cosine_series(self):
        ev = kernel_interval(1.0, "neumann", "neumann", 0.05, 0.5, 0.5)
        assert ev.value == pytest.approx(cosine_series(0.05, 0.5, 0.5), abs=1e-13)
        assert ev.value == pytest.approx(1.278566, abs=1e-6)
        assert ev.tail_bound < 1e-14

    def test_dirichlet_against_sine_series(self):
        ev = kernel_interval(1.0, "dirichlet", "dirichlet", 0.05, 0.5, 0.5)
        assert ev.value == pytest.approx(sine_series(0.05, 0.5, 0.5), abs=1e-13)
        assert ev.value == pytest.approx(1.244566, abs=1e-6)

    def test_mixed_conditions_against_series(self):
        # Neumann at 0, Dirichlet at 1: modes sqrt(2) cos((n+1/2) pi x)
        t, x, y = 0.07, 0.3, 0.6
        oracle = sum(
            2.0
            * math.cos((n + 0.5) * math.pi * x)
            * math.cos((n + 0.5) * math.pi * y)
            * math.exp(-((n + 0.5) * math.pi) ** 2 * t)
            for n in range(300)
        )
        ev = kernel_interval(1.0, "neumann", "dirichlet", t, x, y)
        assert ev.value == pytest.approx(oracle, abs=1e-12)

    def test_absorbing_endpoint_zero(self):
        for y in (0.2, 0.8):
            assert kernel_interval(1.0, "dirichlet", "dirichlet", 0.03, 0.0, y).value == pytest.approx(0.0, abs=1e-300)

    def test_point_outside(self):
        with pytest.raises(ValueError):
            kernel_interval(1.0, "neumann", "neumann", 0.05, 1.2, 0.5)


class TestKernelPathsum:
    def test_matches_interval_images(self, interval):
        x = GraphPoint("e", 0.5)
        a = kernel_pathsum(interval, 0.05, x, x, tol=1e-12)
        b = kernel_interval(1.0, "neumann", "neumann", 0.05, 0.5, 0.5)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-15

    def test_symmetry(self, star3):
        x, y = GraphPoint("e1", 0.3), GraphPoint("e3", 0.8)
        for t in (0.01, 0.1):
            a = kernel_pathsum(star3, t, x, y, tol=1e-12).value
            b = kernel_pathsum(star3, t, y, x, tol=1e-12).value
            assert abs(a - b) <= 1e-12

    def test_positivity_up_to_tail(self, triangle):
        for t in (0.01, 0.05):
            ev = kernel_pathsum(
                triangle, t, GraphPoint("e1", 0.2), GraphPoint("e3", 0.9), tol=1e-10
            )
            assert ev.value >= -ev.tail_bound

    def test_monotone_truncation(self, star3):
        x, y = GraphPoint("e1", 0.4), GraphPoint("e2", 0.4)
        loose = kernel_pathsum(star3, 0.05, x, y, tol=1e-6)
        tight = kernel_pathsum(star3, 0.05, x, y, tol=1e-12)
        assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound
        assert tight.tail_bound <= 1e-12

    def test_tail_bound_decreasing(self, star3):
        bounds = [pathsum_tail_bound(star3, 0.05, lam) for lam in (1.0, 2.0, 4.0, 8.0)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_profile_matches_pointwise(self, star3):
        x = GraphPoint("e1", 0.25)
        s = np.linspace(0.0, 1.0, 7)
        prof, _ = pathsum_profile(star3, 0.05, x, "e2", s, tol=1e-11)
        for si, vi in zip(s, prof):
            direct = kernel_pathsum(star3, 0.05, x, GraphPoint("e2", float(si)), 1e-11)
            assert vi == pytest.approx(direct.value, abs=1e-11)

    def test_stochastic_completeness(self, interval, star3, triangle):
        for g in (interval, star3, triangle):
            x = GraphPoint(g.edges[0].id, 0.37)
            for t in (0.05, 0.2):
                assert kernel_mass(g, t, x) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_args(self, interval):
        x = GraphPoint("e", 0.5)
        with pytest.raises(ValueError):
            kernel_pathsum(interval, -0.1, x, x)
        with pytest.raises(ValueError):
            kernel_pathsum(interval, 0.1, x, x, tol=0.0)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("t", [0.02, 0.1])
@pytest.mark.parametrize(
    "name", ["star3", "star3_dirichlet_leaves", "triangle", "circle", "interval_dirichlet"]
)
def test_pathsum_matches_enumerated_walks(request, name, t, tol):
    # graph.enumerate_walks is the reference for the walk-family sum: every
    # walk it adds beyond the certified families is longer than lambda
    g = request.getfixturevalue(name)
    ex, ey = g.edges[0], g.edges[-1]
    x, y = GraphPoint(ex.id, 0.3 * ex.length), GraphPoint(ey.id, 0.55 * ey.length)
    lam, _ = _certified_lambda(g, t, tol)
    walks = enumerate_walks(g, x, y, lam + ex.length + ey.length)
    ref = sum(w.weight * gauss_free(t, w.length) for w in walks)
    ev = kernel_pathsum(g, t, x, y, tol=tol)
    assert abs(ev.value - ref) <= ev.tail_bound + 1e-13 * max(1.0, abs(ref))


class TestSemigroup:
    def test_interval_residual(self, interval):
        x = GraphPoint("e", 0.5)
        r = kernel_semigroup_residual(interval, 0.05, 0.05, x, x, quadrature_step=1e-3)
        assert r < 1e-6

    def test_star_residual(self, star3):
        r = kernel_semigroup_residual(
            star3, 0.02, 0.02, GraphPoint("e1", 0.5), GraphPoint("e2", 0.5),
            quadrature_step=1e-3,
        )
        assert r < 1e-6

    def test_diagonal_positive(self, interval):
        # int p_t(x,z)^2 dz = p_2t(x,x) > 0
        x = GraphPoint("e", 0.5)
        s, w = simpson_nodes(1.0, 1e-3)
        row, _ = pathsum_profile(interval, 0.05, x, "e", s, tol=1e-12)
        conv = float(np.dot(w, row * row))
        direct = kernel_pathsum(interval, 0.1, x, x, tol=1e-12).value
        assert conv > 0
        assert conv == pytest.approx(direct, abs=1e-8)

    def test_approximation_of_identity(self, interval):
        x = GraphPoint("e", 0.5)

        def f(s):
            return (s * (1.0 - s)) ** 2

        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            s, w = simpson_nodes(1.0, 2e-4)
            vals, _ = pathsum_profile(interval, t, x, "e", s, tol=1e-12)
            errs.append(abs(float(np.dot(w, vals * f(s))) - f(0.5)))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_bad_step(self, interval):
        x = GraphPoint("e", 0.5)
        with pytest.raises(ValueError):
            kernel_semigroup_residual(interval, 0.05, 0.05, x, x, quadrature_step=-1.0)

import math

import numpy as np
import pytest

from conftest import make_graph, make_star
from hklab.energy import (
    SampledFunction,
    convergence_study,
    energy_Er,
    energy_classical,
    sample_function,
    subpartition_check,
)
from hklab.graph import GraphError


def sin_on_circle(circle, step=4e-5):
    return sample_function(circle, lambda eid, s: np.sin(2 * np.pi * s), step)


class TestSampledFunction:
    def test_continuity_enforced(self, circle):
        with pytest.raises(GraphError, match="discontinuous"):
            sample_function(circle, lambda eid, s: s, 1e-3)

    def test_star_continuity_at_center(self, star3):
        # distance to the center vertex is continuous across legs
        f = sample_function(star3, lambda eid, s: s, 1e-3)
        assert f.end_value("e1", 0) == f.end_value("e2", 0) == 0.0

    def test_contract_unit_clamps(self, interval):
        f = sample_function(interval, lambda eid, s: 3.0 * s - 1.0, 1e-3)
        fc = f.contract_unit()
        assert fc.values["e"].min() >= 0.0
        assert fc.values["e"].max() <= 1.0


class TestClassical:
    def test_sin_energy(self, circle):
        f = sin_on_circle(circle, step=1e-4)
        assert energy_classical(circle, f) == pytest.approx(2 * math.pi**2, rel=1e-6)

    def test_constant_zero(self, interval):
        f = sample_function(interval, lambda eid, s: np.full_like(s, 2.5), 1e-3)
        assert energy_classical(interval, f) == pytest.approx(0.0, abs=1e-14)

    def test_linear_on_interval(self, interval):
        f = sample_function(interval, lambda eid, s: s, 1e-3)
        assert energy_classical(interval, f) == pytest.approx(1.0, rel=1e-10)

    def test_coarse_grid_rejected(self, interval):
        f = sample_function(interval, lambda eid, s: s, 0.3)
        with pytest.raises(GraphError, match="coarse"):
            energy_classical(interval, f)


class TestEnergyEr:
    def test_constant_zero(self, interval):
        f = sample_function(interval, lambda eid, s: np.ones_like(s), 2e-4)
        assert energy_Er(interval, f, 5e-3) == pytest.approx(0.0, abs=1e-12)

    def test_circle_sin_normalization(self, circle):
        # measured ratio against the classical energy settles at 2, so the
        # value sits within 1% of 2 * (2 pi^2)
        f = sin_on_circle(circle)
        er = energy_Er(circle, f, 1e-3)
        assert er == pytest.approx(2.0 * 2 * math.pi**2, rel=0.01)

    def test_quadratic_scaling_exact(self, circle):
        f = sin_on_circle(circle, step=1e-4)
        a = energy_Er(circle, f, 4e-3)
        b = energy_Er(circle, f.scaled(3.0), 4e-3)
        assert b == pytest.approx(9.0 * a, rel=1e-12)

    def test_r_too_large(self, interval):
        f = sample_function(interval, lambda eid, s: s, 1e-3)
        with pytest.raises(GraphError):
            energy_Er(interval, f, 0.6)

    def test_grid_too_coarse(self, interval):
        f = sample_function(interval, lambda eid, s: s, 1e-3)
        with pytest.raises(GraphError, match="coarse"):
            energy_Er(interval, f, 5e-3)


class TestConvergence:
    def test_circle_ratio_converges(self, circle):
        f = sin_on_circle(circle)
        st = convergence_study(circle, f, [8e-3, 4e-3, 2e-3, 1e-3])
        diffs = [abs(b[2] - a[2]) for a, b in zip(st.rows, st.rows[1:])]
        for a, b in zip(diffs, diffs[1:]):
            assert b <= a / 2.0 * 1.1
        assert st.kappa == pytest.approx(2.0, abs=1e-3)

    def test_kink_function_converges(self, interval):
        f = sample_function(
            interval, lambda eid, s: np.minimum(s, 0.62 * np.ones_like(s)), 4e-5
        )
        st = convergence_study(interval, f, [8e-3, 4e-3, 2e-3, 1e-3])
        diffs = [abs(b[2] - a[2]) for a, b in zip(st.rows, st.rows[1:])]
        for a, b in zip(diffs, diffs[1:]):
            assert b <= a / 2.0 * 1.2
        assert st.kappa == pytest.approx(2.0, abs=0.02)

    def test_kappa_function_independent(self, circle, interval):
        cases = [
            (circle, lambda eid, s: np.sin(2 * np.pi * s)),
            (circle, lambda eid, s: np.sin(4 * np.pi * s) + 0.5 * np.cos(2 * np.pi * s)),
            (interval, lambda eid, s: s * s * (1.5 - s)),
        ]
        kappas = []
        for g, fn in cases:
            f = sample_function(g, fn, 4e-5)
            kappas.append(convergence_study(g, f, [4e-3, 2e-3, 1e-3]).kappa)
        assert max(kappas) - min(kappas) < 0.02 * max(kappas)

    def test_star_piecewise_linear_monotone(self, star3):
        rng = np.random.default_rng(3)
        center = float(rng.uniform(-1, 1))

        def fn(eid, s):
            leaf = {"e1": 0.4, "e2": -0.7, "e3": 0.1}[eid]
            return center + (leaf - center) * s

        f = sample_function(star3, fn, 5e-5)
        vals = [energy_Er(star3, f, r) for r in (8e-3, 4e-3, 2e-3, 1e-3)]
        for a, b in zip(vals, vals[1:]):
            assert a <= b * (1 + 1e-6) + 1e-9

    def test_increasing_grid_rejected(self, circle):
        f = sin_on_circle(circle, step=2e-4)
        with pytest.raises(GraphError):
            convergence_study(circle, f, [1e-3, 2e-3])


class TestProperties:
    def test_subpartition(self, circle):
        f = sin_on_circle(circle, step=2e-4)
        assert subpartition_check(circle, f, 8e-3)

    def test_subpartition_constant(self, interval):
        f = sample_function(interval, lambda eid, s: np.zeros_like(s), 2e-4)
        assert subpartition_check(interval, f, 8e-3)

    def test_contraction_random_lipschitz(self, interval):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 5001)
        for _ in range(25):
            knots = np.linspace(0.0, 1.0, 7)
            vals = rng.uniform(-0.6, 1.6, 7)
            arr = np.interp(grid, knots, vals)
            f = SampledFunction(interval, {"e": arr}, 2e-4)
            fc = f.contract_unit()
            assert energy_Er(interval, fc, 5e-3) <= energy_Er(interval, f, 5e-3) * (
                1 + 1e-12
            ) + 1e-12

    def test_parallelogram_type_bound(self, circle):
        f = sin_on_circle(circle, step=2e-4)
        g = sample_function(circle, lambda eid, s: np.sin(4 * np.pi * s), 2e-4)
        fg = SampledFunction(
            circle, {"loop": f.values["loop"] + g.values["loop"]}, 2e-4
        )
        r = 4e-3
        assert energy_Er(circle, fg, r) <= 2 * energy_Er(circle, f, r) + 2 * energy_Er(
            circle, g, r
        ) + 1e-9


GOLDEN_GRAPHS = {
    "circle": make_graph([("o", "kirchhoff")], [("loop", "o", "o", 1.0)]),
    "interval": make_graph([("a", "kirchhoff"), ("b", "kirchhoff")], [("e", "a", "b", 1.0)]),
    "star_dirichlet": make_star([1.0, 0.7, 0.45], leaf="dirichlet"),
    "lollipop": make_graph([("o", "kirchhoff"), ("l", "dirichlet")],
                           [("loop", "o", "o", 1.1), ("stem", "o", "l", 0.4)]),
    "multi": make_graph([("a", "kirchhoff"), ("b", "kirchhoff")],
                        [("e1", "a", "b", 0.6), ("e2", "a", "b", 0.8), ("e3", "a", "b", 1.3)]),
}

# E_r recorded from the node-by-node quadrature that the array form replaced.
# The grid step is 2^-10, so r = 2^-5 is a whole number of cells on every
# edge of length 1 (no fringe there) and r = 0.03 is not.
GOLDEN_ER = {
    ("circle", 0.03125): "0x1.7e932a6c3def5p+0",
    ("circle", 0.03): "0x1.7e73e9b46aff7p+0",
    ("interval", 0.03125): "0x1.9c86924d073f8p+0",
    ("interval", 0.03): "0x1.9d02623fababfp+0",
    ("star_dirichlet", 0.03125): "0x1.d159883f97feap+4",
    ("star_dirichlet", 0.03): "0x1.d15123de83bbbp+4",
    ("lollipop", 0.03125): "0x1.b38a5b0dbb751p+3",
    ("lollipop", 0.03): "0x1.b35dd720ec6cfp+3",
    ("multi", 0.03125): "0x1.b15d29562eb4ep+3",
    ("multi", 0.03): "0x1.b14c3f76dc03cp+3",
}


def _golden_sample(g):
    """A smooth function through fixed vertex heights with one bump per edge."""
    height = {v.id: 0.3 * k - 0.4 for k, v in enumerate(g.vertices)}

    def fn(eid, s):
        e = g.edge_obj(eid)
        x = s / e.length
        bump = 0.5 + 0.25 * g.edges.index(e)
        return (height[e.u] * (1 - x) + height[e.v] * x
                + bump * np.sin(np.pi * x) * np.cos(2.0 * s))

    return sample_function(g, fn, 2.0 ** -10)


class TestEnergyGolden:
    @pytest.mark.parametrize("name, r", sorted(GOLDEN_ER))
    def test_matches_recorded_value(self, name, r):
        g = GOLDEN_GRAPHS[name]
        expected = float.fromhex(GOLDEN_ER[name, r])
        assert energy_Er(g, _golden_sample(g), r) == pytest.approx(expected, rel=1e-12)

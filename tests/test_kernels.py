import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from conftest import GRAPH_KINDS, make_graph, make_star, random_graph
from hklab._quad import simpson_nodes
from hklab.graph import GraphError, GraphPoint, enumerate_walks
from hklab.kernels import (
    _BLOCK,
    _certified_lambda,
    _families,
    _resolvent_table,
    gauss_free,
    kernel_interval,
    kernel_mass,
    kernel_pathsum,
    kernel_semigroup_residual,
    kernel_star,
    pathsum,
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

    @pytest.mark.parametrize("x,y", [
        ((0, math.nan), (1, 0.2)), ((0, math.inf), (1, 0.2)), ((0, 0.1), (1, -math.inf)),
        ((0, -0.1), (1, 0.2)), ((1.5, 0.1), (1, 0.2)), ((0, 0.1), (np.float64(1.0), 0.2)),
    ])
    def test_bad_point_rejected(self, x, y):
        # NaN and inf arclengths gave NaN and 0.0, an index of 1.5 a numpy IndexError
        with pytest.raises(ValueError, match="must be"):
            kernel_star(3, star_sigma(3), 0.1, x, y)

    @pytest.mark.parametrize("size", [2, 4])
    def test_wrong_sigma_shape_rejected(self, size):
        # a 4 x 4 matrix gave 0.356 from the wrong entries, a 2 x 2 one an IndexError
        with pytest.raises(ValueError, match="sigma must be 3 x 3"):
            kernel_star(3, star_sigma(size), 0.1, (2, 0.1), (0, 0.2))

    def test_numpy_integer_index_accepted(self):
        sig = star_sigma(3)
        assert kernel_star(3, sig, 0.1, (np.int64(0), 0.1), (1, 0.2)) == kernel_star(
            3, sig, 0.1, (0, 0.1), (1, 0.2))


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
        # every broadcast shape of pathsum agrees with kernel_pathsum point by
        # point, on star3 and on random graphs with Dirichlet leaves, a loop,
        # a multi-edge and unequal lengths
        graphs = [star3] + [random_graph(k, np.random.default_rng(11)) for k in GRAPH_KINDS]
        for g in graphs:
            rng = np.random.default_rng(3)
            ex, ey = g.edges[0], g.edges[-1]
            sx = np.sort(rng.uniform(0.0, ex.length, 5))
            sy = np.append(rng.uniform(0.0, ey.length, 6), ey.length)
            cases = [
                (ex.id, sx[2], ey.id, sy[3]),  # scalar
                (ex.id, sx[1], ey.id, sy),  # profile
                (ey.id, sy, ey.id, sy),  # diagonal
                (ex.id, sx[:, None], ey.id, sy[None, :]),  # grid
            ]
            for edge_x, a, edge_y, b in cases:
                vals, tail = pathsum(g, 0.05, edge_x, a, edge_y, b, tol=1e-11)
                assert vals.shape == np.broadcast(a, b).shape
                for v, u, w in zip(vals.ravel(), *(c.ravel() for c in np.broadcast_arrays(a, b))):
                    ev = kernel_pathsum(g, 0.05, GraphPoint(edge_x, float(u)),
                                        GraphPoint(edge_y, float(w)), 1e-11)
                    assert ev.tail_bound == tail
                    assert abs(v - ev.value) <= tail + 1e-15 * abs(ev.value)
            assert pathsum(g, 0.05, ex.id, sx[:0], ey.id, sy[0])[0].shape == (0,)
            # and one grid value against the reference walk enumeration
            x, y = GraphPoint(ex.id, float(sx[2])), GraphPoint(ey.id, float(sy[3]))
            lam, _ = _certified_lambda(g, 0.05, 1e-11)
            ref = sum(w.weight * gauss_free(0.05, w.length)
                      for w in enumerate_walks(g, x, y, lam + ex.length + ey.length))
            assert abs(vals[2, 3] - ref) <= tail + 1e-13 * max(1.0, abs(ref))

    def test_grid_blocks_match_profiles(self, star3):
        # a grid this large sums its families one walk per block; each of
        # its rows agrees with the profile that sums them in one block
        sx = np.linspace(0.0, 1.0, 181)
        sy = np.linspace(0.0, 1.0, 191)
        lam, _ = _certified_lambda(star3, 0.2, 1e-12)
        longest = max(ls.size for ls, _ in _families(star3, "e1", "e2", lam).values())
        assert _BLOCK // (sx.size * sy.size) < longest <= _BLOCK // sy.size
        grid, tail = pathsum(star3, 0.2, "e1", sx[:, None], "e2", sy[None, :], tol=1e-12)
        for u, row in zip(sx, grid):
            prof, _ = pathsum(star3, 0.2, "e1", u, "e2", sy, tol=1e-12)
            assert np.all(np.abs(row - prof) <= tail + 1e-15 * np.abs(prof))

    @pytest.mark.parametrize("sx, sy", [
        (-5.0, np.array([0.5])), (0.5, np.array([7.0])), (0.5, np.array([0.2, math.nan])),
        (np.array([math.nan]), 0.5),
    ])
    def test_pathsum_rejects_points_off_the_edge(self, interval, sx, sy):
        with pytest.raises(GraphError, match="off edge 'e'"):
            pathsum(interval, 0.05, "e", sx, "e", sy)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
    def test_rejects_bad_tol(self, interval, tol):
        x = GraphPoint("e", 0.5)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            kernel_pathsum(interval, 0.05, x, x, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            pathsum(interval, 0.05, "e", 0.5, "e", [0.5], tol=tol)

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




def _at_floor(g, t, lam):
    # lambda sits at a validity floor 2tr of the tangent bound, not at a root
    r, _ = _resolvent_table(g)
    return bool(np.isclose(lam, 2.0 * t * r, rtol=1e-9).any())


class TestResolventTable:
    def test_interval_closed_form(self, interval):
        # on [0, 1] every bounce is a reflection of weight 1, so from either
        # end z = 1 / (1 - e^-r), and a point leaves through both ends
        r, log_z = _resolvent_table(interval)
        assert r.size == 64
        z = 2.0 / -np.expm1(-r)
        np.testing.assert_allclose(log_z, np.log(z), rtol=1e-8)
        t, lam = 0.05, 2.0
        ok = 2.0 * t * r <= lam
        expect = np.min(np.exp(-lam * lam / (4.0 * t) + r[ok] * lam) * z[ok])
        assert pathsum_tail_bound(interval, t, lam) == pytest.approx(
            expect / math.sqrt(4.0 * math.pi * t), rel=1e-8)

    def test_star_keeps_rows_above_critical_r(self, star3):
        # with equal legs M(r) = e^-r A, and A^2 acts on the centre states as
        # |sigma|, whose spectral radius is 1/3 + 2 * 2/3 = 5/3
        r, _ = _resolvent_table(star3)
        r_c = math.log(5.0 / 3.0) / 2.0
        assert r_c < r.min() < 1.25 * r_c


class TestCertifiedTruncation:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("t", [0.01, 0.035, 0.06])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_bound_is_tight(self, kind, seed, t, tol):
        g = random_graph(kind, np.random.default_rng(seed))
        lam, bound = _certified_lambda(g, t, tol)
        assert bound <= tol
        assert bound == pathsum_tail_bound(g, t, lam)
        if not _at_floor(g, t, lam):
            assert bound >= 1e-3 * tol

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("t", [0.01, 0.035, 0.06])
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_missing_walks_within_bound(self, kind, t, tol):
        # graph.enumerate_walks finds every walk the certified families sum,
        # and the ones they leave out weigh no more than the reported bound.
        # Both points sit at vertices, where a walk's length can equal its
        # mid-length, the length the bound is written in.
        g = random_graph(kind, np.random.default_rng(7))
        ex, ey = g.edges[0], g.edges[-1]
        lam, bound = _certified_lambda(g, t, tol)
        walks = enumerate_walks(g, GraphPoint(ex.id, 0.0), GraphPoint(ey.id, 0.0),
                                lam + 0.6 + ex.length + ey.length)

        def key(length, weight):
            return round(float(length), 9), float(f"{weight:.12g}")

        enumerated = Counter(key(w.length, w.weight) for w in walks)
        summed = Counter([key(0.0, 1.0)] if ex.id == ey.id else [])
        ends = {0: 0.0, 1: ex.length}, {0: 0.0, 1: ey.length}
        for (d1, d2), (ls, ws) in _families(g, ex.id, ey.id, lam).items():
            summed.update(key(ends[0][d1] + mid + ends[1][d2], w) for mid, w in zip(ls, ws))
        assert not summed - enumerated
        missing = sum(n * abs(w) * gauss_free(t, length)
                      for (length, w), n in (enumerated - summed).items())
        assert missing <= bound

    def test_short_leg_probe(self):
        # a short leg packs many walks into little length; a tight lambda
        # keeps the number summed small
        ev = kernel_pathsum(make_star([1.0, 1.0, 0.05]), 0.05, GraphPoint("e0", 0.3), GraphPoint("e1", 0.6), tol=1e-10)
        assert ev.lam < 2.6
        assert ev.walks < 200
        assert 1e-13 <= ev.tail_bound <= 1e-10

    def test_walk_count_reported(self, star3):
        x = GraphPoint("e1", 0.4)
        ev = kernel_pathsum(star3, 0.05, x, x, tol=1e-10)
        lam, _ = _certified_lambda(star3, 0.05, 1e-10)
        fams = _families(star3, "e1", "e1", lam)
        assert ev.lam == lam
        assert ev.walks == 1 + sum(ls.size for ls, _ in fams.values())


# sha256 prefixes of every walk-family array of a graph, over every ordered
# edge pair and three truncation lengths, recorded while _families still
# walked per-vertex scattering matrices
FAMILY_GOLDEN = {
    "circle": "24ce0af1b1409e07",
    "lollipop-0": "c9495b6a6780fd22",
    "lollipop-1": "cf672c70e5e97d9e",
    "lollipop-2": "47a60ede44695c98",
    "multi-0": "8f221a8ed4b27a3b",
    "multi-1": "e64fd8d830b47622",
    "multi-2": "ca7e959f6677ea72",
    "short_leg_star": "0b4f9b6f7fec9a8d",
    "star-0": "e4c4ceb4e8f08c41",
    "star-1": "886df73feb4a3ea1",
    "star-2": "3cf885828e52b6e5",
    "star_dirichlet-0": "5e7882194b8ff754",
    "star_dirichlet-1": "0eb0640d5cfa280a",
    "star_dirichlet-2": "5aeb65d3c6781adb",
    "triangle-0": "98609c7098d9195c",
    "triangle-1": "21358a7a8837d2e0",
    "triangle-2": "e4450380a357b09f",
}
FAMILY_LAMS = (0.9, 2.36, 5.0)


def _family_graph(name):
    if name == "circle":
        return make_graph([("o", "kirchhoff")], [("loop", "o", "o", 1.0)])
    if name == "short_leg_star":
        return make_star([1.0, 1.0, 0.05])
    kind, seed = name.rsplit("-", 1)
    return random_graph(kind, np.random.default_rng(int(seed)))


class TestGoldenFamilies:
    @pytest.mark.parametrize("name", sorted(FAMILY_GOLDEN))
    def test_family_bytes_unchanged(self, name):
        g = _family_graph(name)
        digest = hashlib.sha256()
        for ex in g.edges:
            for ey in g.edges:
                for lam in FAMILY_LAMS:
                    for key, (ls, ws) in sorted(_families(g, ex.id, ey.id, lam).items()):
                        assert ls.dtype == ws.dtype == np.float64
                        digest.update(repr((ex.id, ey.id, lam, key)).encode())
                        digest.update(ls.tobytes())
                        digest.update(ws.tobytes())
        assert digest.hexdigest()[:16] == FAMILY_GOLDEN[name]


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
        row, _ = pathsum(interval, 0.05, x.edge, x.s, "e", s, tol=1e-12)
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
            vals, _ = pathsum(interval, t, x.edge, x.s, "e", s, tol=1e-12)
            errs.append(abs(float(np.dot(w, vals * f(s))) - f(0.5)))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_bad_step(self, interval):
        x = GraphPoint("e", 0.5)
        with pytest.raises(ValueError):
            kernel_semigroup_residual(interval, 0.05, 0.05, x, x, quadrature_step=-1.0)

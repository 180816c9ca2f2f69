import hashlib
import math

import numpy as np
import pytest

from hklab._quad import simpson_nodes
from hklab.graph import GraphError, GraphPoint
from hklab.kernels import kernel_interval, kernel_mass, pathsum_profile
from hklab.locality import (
    IsometryMap,
    MapPiece,
    ball_subdomain,
    exit_density,
    identity_map,
    interval_subdomain,
)
from hklab.wiener import (
    _BYTE_MAX,
    _BYTE_MIN,
    _BYTE_POS,
    SpliceConfig,
    _block_bytes,
    _crossings,
    _first_passage,
    chi_square_two_sample,
    compare_ensembles,
    first_exit,
    n_steps,
    simulate,
    simulate_ensemble,
    splice,
    time_step,
)

from conftest import make_graph


def lattice_fair_edges(length, h, bins):
    """Bin edges placed between the walk's occupied lattice cells."""
    width = length / bins
    inner = [width * i - h for i in range(1, bins)]
    return np.array([0.0] + inner + [length + h / 2])


def kernel_bin_probs(edges, t, x0, cond="neumann", L=1.0):
    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        hi = min(hi, L)
        s = np.linspace(lo, hi, 41)
        vals = np.array(
            [kernel_interval(L, cond, cond, t, x0, float(v)).value for v in s]
        )
        w = np.ones(41)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        probs.append(float(np.dot(w, vals)) * (hi - lo) / (3 * 40))
    return np.array(probs)


class TestScaling:
    def test_time_step_is_half_h_squared(self):
        assert time_step(1e-3) == 5e-7
        assert n_steps(0.05, 1e-3) == 100000

    @pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan, 0.0, -0.1])
    def test_bad_horizon_rejected(self, T, interval):
        with pytest.raises(GraphError, match="finite and positive"):
            n_steps(T, 1e-3)
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(GraphError, match="finite and positive"):
            SpliceConfig(interval, interval, u, identity_map(u),
                         GraphPoint("e", 0.5), T, 2e-3, 10, 1)

    def test_mean_and_msd_on_line(self, long_interval):
        ens = simulate_ensemble(long_interval, GraphPoint("e", 4.0), 0.05, 2e-3,
                                7, 50000)
        d = ens.endpoint_coords() - 4.0
        se_mean = d.std() / math.sqrt(len(d))
        assert abs(d.mean()) <= 3 * se_mean
        msd = float((d * d).mean())
        se_msd = float((d * d).std()) / math.sqrt(len(d))
        assert abs(msd - 2 * 0.05) <= 3 * se_msd


class TestEndpointDistribution:
    def test_histogram_matches_kernel(self, interval):
        # bin edges sit between lattice cells so each walker cell belongs to
        # exactly one bin; expected masses integrate the kernel over the cells
        h, t = 1e-3, 0.05
        n = 100000
        edges = lattice_fair_edges(1.0, h, 20)
        probs = kernel_bin_probs(edges, t, 0.5)
        ens = simulate_ensemble(interval, GraphPoint("e", 0.5), t, h, 42, n)
        counts, _ = np.histogram(ens.endpoint_coords(), bins=edges)
        z = (counts - n * probs) / np.sqrt(n * probs * (1 - probs))
        assert np.abs(z).max() <= 3.0

    def test_determinism_same_seed(self, interval):
        a = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.02, 2e-3, 5, 5000)
        b = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.02, 2e-3, 5, 5000)
        assert np.array_equal(a.final_s, b.final_s)
        c = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.02, 2e-3, 6, 5000)
        assert not np.array_equal(a.final_s, c.final_s)

    def test_h_refinement_first_order(self, interval):
        # against plain continuum bins the lattice-cell offset is O(h); the
        # noncentral chi-square distance should shrink toward the halving law
        t, n = 0.05, 100000
        edges = np.linspace(0.0, 1.0, 21)
        probs = kernel_bin_probs(edges, t, 0.5)
        dist = []
        for h in (8e-3, 4e-3, 2e-3, 1e-3):
            ens = simulate_ensemble(interval, GraphPoint("e", 0.5), t, h, 42, n)
            counts, _ = np.histogram(ens.endpoint_coords(), bins=edges)
            stat = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
            dist.append(math.sqrt(max(stat - 19.0, 0.0) / n))
        assert dist[0] > dist[1] > dist[2] > dist[3]
        assert 2.0 <= dist[0] / dist[3] <= 10.0

    def test_killed_fraction_matches_killed_mass(self, interval_dirichlet):
        ens = simulate_ensemble(
            interval_dirichlet, GraphPoint("e", 0.5), 0.05, 2e-3, 99, 50000
        )
        s, w = simpson_nodes(1.0, 1e-3)
        surv = float(np.dot(w, [
            kernel_interval(1.0, "dirichlet", "dirichlet", 0.05, 0.5, float(y)).value
            for y in s
        ]))
        se = math.sqrt(surv * (1 - surv) / 50000)
        assert abs(ens.alive.mean() - surv) <= 3 * se


class TestGeneralEngine:
    def test_conservation_on_kirchhoff_star(self, star3):
        ens = simulate_ensemble(star3, GraphPoint("e1", 0.5), 0.02, 5e-3, 11, 4000)
        assert ens.engine == "general"
        assert ens.alive.all()
        assert len(ens.endpoint_coords()) == 4000

    def test_edge_occupancy_matches_kernel(self, star3):
        ens = simulate_ensemble(star3, GraphPoint("e1", 0.5), 0.02, 5e-3, 11, 6000)
        coords = ens.endpoint_coords()
        frac = float(np.mean(coords < 1.0))  # edge e1 occupies [0, 1)
        s, w = simpson_nodes(1.0, 1e-3)
        vals, _ = pathsum_profile(star3, 0.02, GraphPoint("e1", 0.5), "e1", s)
        p1 = float(np.dot(w, vals))
        assert abs(frac - p1) <= 3 * math.sqrt(p1 * (1 - p1) / 6000)

    def test_leaf_dirichlet_absorption(self, star3_dirichlet_leaves):
        g = star3_dirichlet_leaves
        ens = simulate_ensemble(g, GraphPoint("e1", 0.5), 0.05, 5e-3, 12, 4000)
        surv = kernel_mass(g, 0.05, GraphPoint("e1", 0.5))
        se = math.sqrt(surv * (1 - surv) / 4000)
        assert abs(ens.alive.mean() - surv) <= 3 * se

    def test_start_outside_u_rejected(self, star3):
        ball = ball_subdomain(star3, "c", 0.5)
        with pytest.raises(GraphError, match="inside U"):
            simulate_ensemble(star3, GraphPoint("e1", 0.9), 0.01, 5e-3, 1, 10, U=ball)

    def test_u_on_another_graph_rejected(self, star3):
        star4 = make_graph(
            [("c", "kirchhoff")] + [(f"l{i}", "kirchhoff") for i in range(1, 5)],
            [(f"e{i}", "c", f"l{i}", 1.0) for i in range(1, 5)],
        )
        ball = ball_subdomain(star4, "c", 0.5)
        with pytest.raises(GraphError, match="subdomain"):
            simulate_ensemble(star3, GraphPoint("e1", 0.1), 0.01, 5e-3, 1, 10, U=ball)

    def test_lattice_refusal_recorded(self, interval, interval_dirichlet, star3):
        def run(g, x0=GraphPoint("e", 0.1), U=None):
            return simulate_ensemble(g, x0, 0.02, 1e-2, 3, 2000, U=U)

        assert run(interval).lattice_refusal == ""
        assert run(star3, GraphPoint("e1", 0.5)).lattice_refusal == (
            "graph is not a single interval")
        u_d = interval_subdomain(interval_dirichlet, "e", 0.05, 0.6)
        assert run(interval_dirichlet, U=u_d).lattice_refusal == (
            "exit tracking on an interval with a Dirichlet end")
        # U reaches the vertex at 0, which is inside U: arriving there is
        # not an exit, so the only cut is at 0.6
        to_end = run(interval, U=interval_subdomain(interval, "e", 0.0, 0.6))
        assert to_end.engine == "general"
        assert to_end.lattice_refusal == "U reaches an end of the interval"
        exited = to_end.exit_step >= 0
        assert exited.any() and set(to_end.exit_coord[exited]) == {0.6}


class TestPathsAndExits:
    def test_single_path_lattice_consistency(self, star3):
        p = simulate(star3, GraphPoint("e1", 0.2), 0.01, 5e-3, 3, every=1)
        assert not p.killed
        assert len(p.positions) == n_steps(0.01, 5e-3) + 1
        for a, b in zip(p.positions, p.positions[1:]):
            from hklab.graph import distance

            assert distance(star3, a, b) <= 5e-3 + 1e-12

    def test_first_exit_never(self, interval):
        u = interval_subdomain(interval, "e", 0.05, 0.95)
        path = simulate(interval, GraphPoint("e", 0.5), 1e-4, 2e-3, 1, every=1)
        assert first_exit(path, u) is None

    def test_first_exit_snaps_to_cut(self, interval):
        u = interval_subdomain(interval, "e", 0.4, 0.6)
        path = simulate(interval, GraphPoint("e", 0.5), 0.05, 2e-3, 21, every=1)
        out = first_exit(path, u)
        assert out is not None
        t_exit, b = out
        assert (b.edge, b.s) in {("e", 0.4), ("e", 0.6)}
        assert 0 < t_exit <= 0.05

    def test_exit_positions_are_cuts(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        ens = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.05, 2e-3, 8,
                                20000, U=u)
        exited = ens.exit_step >= 0
        coords = np.unique(ens.exit_coord[exited])
        assert set(np.round(coords, 9)) <= {0.25, 0.75}

    def test_exit_times_match_exit_density(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        n = 50000
        ens = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.05, 1e-3, 7, n, U=u)
        times = ens.exit_times()
        bins = np.linspace(0.0, 0.05, 11)
        counts, _ = np.histogram(times, bins=bins)
        for i in range(10):
            ss = np.linspace(bins[i], bins[i + 1], 9)
            q = np.zeros(9)
            for j, sv in enumerate(ss):
                if sv > 0:
                    q[j] = sum(
                        exit_density(u, GraphPoint("e", 0.5), b, float(sv))
                        for b in u.cut_points
                    )
            w = np.ones(9)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            prob = float(np.dot(w, q)) * (bins[i + 1] - bins[i]) / (3 * 8)
            if prob > 1e-4:
                se = math.sqrt(prob * (1 - prob) / n)
                assert abs(counts[i] / n - prob) <= 3 * se


class TestSplice:
    def _setup(self, interval, interval_dirichlet):
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        u_n = interval_subdomain(interval, "e", 0.25, 0.75)
        iso = IsometryMap(u_d, u_n, (MapPiece("e", 0.25, 0.75, "e", 0.25, +1),))
        return u_d, u_n, iso

    def test_identity_splice_bitwise(self, interval):
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        cfg = SpliceConfig(interval, interval, u, identity_map(u),
                           GraphPoint("e", 0.5), 0.05, 2e-3, 20000, 42)
        sp = splice(cfg)
        direct = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.05, 2e-3,
                                   42, 20000)
        assert np.array_equal(sp.final_s, direct.final_s)
        assert np.array_equal(sp.alive, direct.alive)

    def test_identity_splice_star_general_engine(self, star3):
        # the per-step engine snaps exits to the cut, which resets float
        # accumulation; paths agree with direct simulation to rounding
        from hklab.locality import ball_subdomain

        u = ball_subdomain(star3, "c", 0.6)
        cfg = SpliceConfig(star3, star3, u, identity_map(u),
                           GraphPoint("e1", 0.2), 0.02, 5e-3, 2000, 9)
        sp = splice(cfg)
        direct = simulate_ensemble(star3, GraphPoint("e1", 0.2), 0.02, 5e-3, 9, 2000)
        same_edge = sp.final_edge == direct.final_edge
        assert same_edge.mean() > 0.999
        assert np.abs(sp.final_s[same_edge] - direct.final_s[same_edge]).max() < 1e-9

    def test_star_splice_statistics(self, star3, star3_dirichlet_leaves):
        from hklab.kernels import kernel_mass
        from hklab.locality import ball_subdomain

        u_d = ball_subdomain(star3_dirichlet_leaves, "c", 0.6)
        u_n = ball_subdomain(star3, "c", 0.6)
        iso = IsometryMap(
            u_d, u_n,
            tuple(MapPiece(f"e{i}", 0.0, 0.6, f"e{i}", 0.0, +1) for i in (1, 2, 3)),
        )
        cfg = SpliceConfig(star3_dirichlet_leaves, star3, u_d, iso,
                           GraphPoint("e1", 0.2), 0.05, 5e-3, 8000, 13)
        sp = splice(cfg)
        direct = simulate_ensemble(star3, GraphPoint("e1", 0.2), 0.05, 5e-3,
                                   77, 8000)
        _, p = compare_ensembles(sp, direct, "endpoint-histogram", 12)
        assert p > 0.01
        cg, to_cut, _ = u_n.cut_graph()
        stay_exact = kernel_mass(cg, 0.05, to_cut(GraphPoint("e1", 0.2)))
        se = math.sqrt(stay_exact * (1 - stay_exact) / 8000)
        assert abs(sp.stay_fraction() - stay_exact) <= 3 * se

    def test_modified_ends_agree_statistically(self, interval, interval_dirichlet):
        u_d, u_n, iso = self._setup(interval, interval_dirichlet)
        cfg = SpliceConfig(interval_dirichlet, interval, u_d, iso,
                           GraphPoint("e", 0.5), 0.05, 2e-3, 30000, 1)
        sp = splice(cfg)
        direct = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.05, 2e-3,
                                   77, 30000)
        _, p = compare_ensembles(sp, direct, "endpoint-histogram", 20)
        assert p > 0.01

    def test_stay_fraction_matches_killed_mass(self, interval, interval_dirichlet):
        from hklab.locality import kernel_killed

        u_d, u_n, iso = self._setup(interval, interval_dirichlet)
        cfg = SpliceConfig(interval_dirichlet, interval, u_d, iso,
                           GraphPoint("e", 0.5), 0.05, 2e-3, 30000, 2)
        sp = splice(cfg)
        s, w = simpson_nodes(0.5, 2e-4)
        exact = float(np.dot(w, [
            kernel_killed(u_n, 0.05, GraphPoint("e", 0.5),
                          GraphPoint("e", 0.25 + float(v))).value
            for v in s
        ]))
        se = math.sqrt(exact * (1 - exact) / 30000)
        assert abs(sp.stay_fraction() - exact) <= 3 * se

    def test_negative_control_distinguishes(self, interval, interval_dirichlet):
        e_n = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.2, 2e-3, 3, 20000)
        e_d = simulate_ensemble(interval_dirichlet, GraphPoint("e", 0.5), 0.2,
                                2e-3, 4, 20000)
        _, p = compare_ensembles(e_n, e_d, "endpoint-histogram", 20)
        assert p < 1e-6

    @pytest.mark.parametrize("T", [0.05, 1e-4])
    def test_off_lattice_cut_images(self, interval_dirichlet, T):
        # the cut images 0.2505 and 0.7505 are off the 2e-3 step lattice, so
        # the lattice engine cannot carry paths across
        g_b = _segment(1.2, "kirchhoff", "kirchhoff")
        u_a = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        u_b = interval_subdomain(g_b, "e", 0.2505, 0.7505)
        iso = IsometryMap(u_a, u_b, (MapPiece("e", 0.25, 0.75, "e", 0.2505, +1),))
        sp = splice(SpliceConfig(interval_dirichlet, g_b, u_a, iso,
                                 GraphPoint("e", 0.5), T, 2e-3, 2000, 5))
        assert sp.engine == "general"
        assert "off the step lattice" in sp.lattice_refusal
        exited = sp.exit_step >= 0
        if T > 1e-3:
            assert exited.any() and sp.alive.all()
            assert set(np.round(sp.exit_coord[exited], 9)) <= {0.25, 0.75}
        else:
            # no path reaches a cut in 50 steps; each moves with the map
            assert not exited.any()
            lattice = (sp.final_s - 0.0005) / 2e-3
            assert np.abs(lattice - np.round(lattice)).max() < 1e-6
            assert np.isclose(sp.final_s, 0.4965).any()

    def test_exit_point_must_have_image(self, interval, interval_dirichlet):
        u_d = interval_subdomain(interval_dirichlet, "e", 0.25, 0.75)
        sub_u = interval_subdomain(interval_dirichlet, "e", 0.3, 0.7)
        u_n_sub = interval_subdomain(interval, "e", 0.3, 0.7)
        iso_small = IsometryMap(
            sub_u, u_n_sub, (MapPiece("e", 0.3, 0.7, "e", 0.3, +1),)
        )
        cfg = SpliceConfig(interval_dirichlet, interval, u_d, iso_small,
                           GraphPoint("e", 0.5), 0.05, 2e-3, 100, 1)
        with pytest.raises(GraphError):
            splice(cfg)


class TestCompare:
    def test_identical_ensembles_p_one(self, interval):
        a = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.02, 2e-3, 5, 5000)
        stat, p = compare_ensembles(a, a, "endpoint-histogram", 20)
        assert stat == 0.0
        assert p == 1.0

    def test_bin_merging(self):
        c1 = np.array([1.0, 2.0, 300.0, 280.0, 1.0])
        c2 = np.array([2.0, 1.0, 290.0, 300.0, 2.0])
        stat, p = chi_square_two_sample(c1, c2)
        assert 0 <= p <= 1

    def test_insufficient_counts(self):
        with pytest.raises(GraphError):
            chi_square_two_sample(np.array([1.0]), np.array([2.0]))

    def test_mismatched_horizons_rejected(self, interval):
        a = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.02, 2e-3, 5, 100)
        b = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.04, 2e-3, 5, 100)
        with pytest.raises(GraphError):
            compare_ensembles(a, b)


# sha256 prefixes of (final_s, exit_step, exit_coord, alive) recorded from the
# unpack-and-cumsum lattice engine; the step counts cover a horizon inside the
# first byte, a partial first block, exact block multiples and a last block
# whose length is not a whole number of bytes
GOLDEN_H = 2e-3
GOLDEN = {
    ("plain", 5): "135af5da256d0406",
    ("plain", 700): "2b15bd5b94ebcc8a",
    ("plain", 2048): "ca4caa13d95488f8",
    ("plain", 2061): "c58a7079b8071b80",
    ("kill_both", 5): "713a9b3114bcff1a",
    ("kill_both", 700): "591b8bb584eb236f",
    ("kill_both", 2048): "669a7097f307e46c",
    ("kill_both", 2061): "d25c2a7b8f184108",
    ("kill_one", 5): "33e0fc1093826552",
    ("kill_one", 700): "65439069b660a43b",
    ("kill_one", 2048): "187568604b266024",
    ("kill_one", 2061): "0a5e8be968dc495c",
    ("exit", 5): "169785fc24a59546",
    ("exit", 700): "f339451281b89f7d",
    ("exit", 2048): "38b04bb8189dcda1",
    ("exit", 2061): "f9c4537011ab1942",
    ("splice", 5): "91c8f0786a4c0626",
    ("splice", 700): "d1d93b1ae049befc",
    ("splice", 2048): "161ae0f0cd3c9e14",
    ("splice", 2061): "542b1ce4e309bc0f",
}


def _segment(length, left, right):
    return make_graph([("a", left), ("b", right)], [("e", "a", "b", length)])


def _golden_ensemble(kind, steps):
    h, n = GOLDEN_H, 999
    T = steps * time_step(h)
    neumann = _segment(0.1, "kirchhoff", "kirchhoff")
    if kind == "plain":
        return simulate_ensemble(neumann, GraphPoint("e", 0.03), T, h, 11, n)
    if kind == "kill_both":
        g = _segment(0.1, "dirichlet", "dirichlet")
        return simulate_ensemble(g, GraphPoint("e", 0.006), T, h, 12, n)
    if kind == "kill_one":
        g = _segment(0.1, "kirchhoff", "dirichlet")
        return simulate_ensemble(g, GraphPoint("e", 0.094), T, h, 13, n)
    if kind == "exit":
        u = interval_subdomain(neumann, "e", 0.002, 0.096)
        return simulate_ensemble(neumann, GraphPoint("e", 0.05), T, h, 14, n, U=u)
    # Dirichlet interval onto a longer Neumann one, U shifted by 0.1
    g_a = _segment(0.1, "dirichlet", "dirichlet")
    g_b = _segment(0.2, "kirchhoff", "kirchhoff")
    u_a = interval_subdomain(g_a, "e", 0.004, 0.096)
    u_b = interval_subdomain(g_b, "e", 0.104, 0.196)
    iso = IsometryMap(u_a, u_b, (MapPiece("e", 0.004, 0.096, "e", 0.104, +1),))
    return splice(SpliceConfig(g_a, g_b, u_a, iso, GraphPoint("e", 0.05), T, h, n, 15))


class TestGoldenHashes:
    @pytest.mark.parametrize("kind,steps", sorted(GOLDEN))
    def test_lattice_bytes_unchanged(self, kind, steps):
        ens = _golden_ensemble(kind, steps)
        assert ens.engine == "lattice"
        digest = hashlib.sha256()
        for a in (ens.final_s, ens.exit_step, ens.exit_coord, ens.alive):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest()[:16] == GOLDEN[(kind, steps)]


# sha256 prefixes of (final_edge, final_s, alive, exit_step, exit_coord,
# exit_edge) recorded from the per-step engine while direct runs, splices and
# single paths were still three separate loops
GENERAL_GOLDEN = {
    "direct": "db40927018d371bb",
    "dirichlet_leaves": "d48e46990e25b230",
    "tracked": "421ca4066835d94d",
    "splice_d_to_k": "17d67b6995bf416e",
    "splice_identity": "2f6fe23a9a403c5e",
}


def _general_golden_ensemble(kind, star, star_d):
    h, n = 5e-3, 400
    T = 1200 * time_step(h)
    x0 = GraphPoint("e1", 0.2)
    if kind == "direct":
        return simulate_ensemble(star, x0, T, h, 21, n)
    if kind == "dirichlet_leaves":
        return simulate_ensemble(star_d, GraphPoint("e2", 0.9), T, h, 22, n)
    ball = ball_subdomain(star, "c", 0.3)
    if kind == "tracked":
        return simulate_ensemble(star, x0, T, h, 23, n, U=ball)
    if kind == "splice_identity":
        return splice(SpliceConfig(star, star, ball, identity_map(ball), x0, T, h, n, 24))
    ball_d = ball_subdomain(star_d, "c", 0.3)
    iso = IsometryMap(ball_d, ball, tuple(
        MapPiece(f"e{i}", 0.0, 0.3, f"e{i}", 0.0, +1) for i in (1, 2, 3)))
    return splice(SpliceConfig(star_d, star, ball_d, iso, x0, T, h, n, 25))


class TestGeneralGoldenHashes:
    @pytest.mark.parametrize("kind", sorted(GENERAL_GOLDEN))
    def test_general_bytes_unchanged(self, kind, star3, star3_dirichlet_leaves):
        ens = _general_golden_ensemble(kind, star3, star3_dirichlet_leaves)
        assert ens.engine == "general"
        digest = hashlib.sha256()
        for a in (ens.final_edge, ens.final_s, ens.alive, ens.exit_step,
                  ens.exit_coord, ens.exit_edge):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest()[:16] == GENERAL_GOLDEN[kind]

    # path 0 leaves its edge under seed 1 and is absorbed under seed 3
    @pytest.mark.parametrize("s,seed", [(0.1, 1), (0.5, 3), (0.1, 6)])
    def test_simulate_ends_at_path_zero(self, star3_dirichlet_leaves, s, seed):
        g = star3_dirichlet_leaves
        x0 = GraphPoint("e1", s)
        path = simulate(g, x0, 0.05, 5e-3, seed, every=1)
        ens = simulate_ensemble(g, x0, 0.05, 5e-3, seed, 50)
        end = path.positions[-1]
        assert (end.edge, end.s) == (g.edges[ens.final_edge[0]].id, ens.final_s[0])
        assert path.killed == (not ens.alive[0])


def _unpacked_walk(raw, nb):
    """Walk positions after steps 1..nb of each row, by unpacking every bit."""
    bits = np.unpackbits(raw, axis=1)[:, :nb].astype(np.int64)
    return np.cumsum(2 * bits - 1, axis=1)


def _reference_crossings(walk, lo, hi):
    """First 0-based step with walk <= lo or >= hi (-1 if none), and whether
    the level reached there is hi."""
    lo = np.asarray(lo)[:, None]
    hi = np.asarray(hi)[:, None]
    crossed = (walk <= lo) | (walk >= hi)
    first = np.where(crossed.any(axis=1), crossed.argmax(axis=1), -1)
    rows = np.arange(len(walk))
    up = (first >= 0) & (walk[rows, first] >= hi[:, 0])
    return first, up


def _reference_first_passage(seed, n_paths, steps, levels):
    blocks = [_block_bytes(seed, b, n_paths) for b in range(-(-steps // 1024))]
    walk = _unpacked_walk(np.concatenate(blocks, axis=1), steps)
    if levels is None:
        return walk[:, -1], np.full(n_paths, -1), np.zeros(n_paths, dtype=np.int64)
    lo, hi = levels
    first, up = _reference_crossings(walk, np.full(n_paths, lo), np.full(n_paths, hi))
    return (walk[:, -1], np.where(first >= 0, first + 1, -1),
            np.where(first >= 0, np.where(up, hi, lo), 0))


class TestByteTableScan:
    def test_tables_match_unpacked_bits(self):
        byte = np.arange(256, dtype=np.uint8)
        walk = _unpacked_walk(byte[:, None], 8)
        for length in range(1, 9):
            assert np.array_equal(_BYTE_POS[length - 1], walk[:, length - 1])
            assert np.array_equal(_BYTE_MAX[length - 1], walk[:, :length].max(axis=1))
            assert np.array_equal(_BYTE_MIN[length - 1], walk[:, :length].min(axis=1))
            # the untracked sum of a partial byte: shift, then count
            ups = np.bitwise_count(byte >> (8 - length)).astype(np.int64)
            assert np.array_equal(2 * ups - length, walk[:, length - 1])

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("steps", [1, 7, 8, 9, 1023, 1024, 1025, 2061])
    @pytest.mark.parametrize("levels", [
        None, (-1, 1), (-1, 40), (-40, 1), (-2, 2), (-3, 5), (-30, 30), (-90, 60),
    ])
    def test_first_passage_matches_unpacked_cumsum(self, seed, steps, levels):
        got = _first_passage(seed, 300, steps, levels)
        want = _reference_first_passage(seed, 300, steps, levels)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("nb", [1, 3, 8, 13, 1000, 1024])
    def test_crossings_on_byte_and_block_ends(self, nb):
        rng = np.random.default_rng(nb)
        n = 2000
        raw = rng.integers(0, 256, size=(n, 128), dtype=np.uint8)
        walk = _unpacked_walk(raw, nb)
        never = nb + 1
        lo = rng.integers(-12, 0, size=n)
        hi = rng.integers(1, 13, size=n)
        # a third of the rows reach hi for the first time on a byte's last bit
        # and the block's last bit, where the walk sets a new record
        runmax = np.maximum.accumulate(walk, axis=1)
        record = np.zeros_like(walk, dtype=bool)
        record[:, 0] = walk[:, 0] > 0
        record[:, 1:] = runmax[:, 1:] > runmax[:, :-1]
        ends = np.zeros(nb, dtype=bool)
        ends[7::8] = True
        ends[-1] = True
        for i in range(0, n, 3):
            ks = np.nonzero(record[i] & ends)[0]
            if ks.size:
                hi[i] = walk[i, rng.choice(ks)]
                lo[i] = -never
        want_first, want_up = _reference_crossings(walk, lo, hi)
        first, up = _crossings(raw, nb, lo.astype(np.int16), hi.astype(np.int16))
        assert np.array_equal(first, want_first)
        assert np.array_equal(up, want_up)
        if nb >= 8:
            assert np.any(want_first % 8 == 7)
            assert np.any(want_first == nb - 1)
        # some crossing bytes reach both levels; the earlier step decides
        rows = np.nonzero(want_first >= 0)[0]
        b = want_first[rows] // 8
        seg = [walk[i, 8 * j:8 * j + 8] for i, j in zip(rows, b)]
        both = [(s.max() >= hi[i]) and (s.min() <= lo[i]) for s, i in zip(seg, rows)]
        assert any(both) or nb < 3

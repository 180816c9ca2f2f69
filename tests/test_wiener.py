import hashlib
import logging
import math
import subprocess
import sys

import numpy as np
import pytest

from hklab._quad import gauss_legendre
from hklab.graph import GraphError, GraphPoint
from hklab.kernels import kernel_interval, kernel_mass, pathsum
from hklab.locality import (
    IsometryMap,
    MapPiece,
    SubdomainSpec,
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
    _chi2_sf,
    _crossings,
    _first_passage,
    _step_words,
    _stream_keys,
    _word_bounds,
    chi_square_two_sample,
    compare_ensembles,
    n_steps,
    simulate_ensemble,
    splice,
    time_step,
)

from conftest import make_graph, make_star
from walk_engine_reference import reference_walk


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

    def test_step_count_limit(self):
        # each step's key counter must fit one 32-bit word
        assert n_steps(2.0**31, 1.0) == 2**32
        with pytest.raises(GraphError, match="more than 2\\*\\*32 steps"):
            n_steps(2.0**31 + 1.0, 1.0)

    # h^2 / 2 underflows to 0 at 1e-200 and to a subnormal at 1e-160, where
    # T / dt overflows; 1e-4 asks for 2e10 steps
    @pytest.mark.parametrize("T, h", [(0.01, 1e-200), (0.01, 1e-160), (100.0, 1e-4)])
    def test_too_many_steps_rejected(self, T, h, interval, star3):
        with pytest.raises(GraphError, match="more than 2\\*\\*32 steps"):
            simulate_ensemble(interval, GraphPoint("e", 0.5), T, h, 1, 10)
        with pytest.raises(GraphError, match="more than 2\\*\\*32 steps"):
            simulate_ensemble(star3, GraphPoint("e1", 0.5), T, h, 1, 10)
        for g, edge in ((interval, "e"), (star3, "e1")):
            u = interval_subdomain(g, edge, 0.25, 0.75)
            cfg = SpliceConfig(g, g, u, identity_map(u), GraphPoint(edge, 0.5), T, h, 10, 1)
            with pytest.raises(GraphError, match="more than 2\\*\\*32 steps"):
                splice(cfg)

    @pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, True])
    def test_bad_path_count_rejected(self, n, interval, star3):
        # 0 gave a nan stay fraction after numpy warnings, -1 numpy's
        # "negative dimensions" error, 2.5 numpy's TypeError
        match = "at least 1" if type(n) is int else "n_paths must be an integer"
        for g in (interval, star3):
            with pytest.raises(GraphError, match=match):
                simulate_ensemble(g, GraphPoint(g.edges[0].id, 0.5), 0.01, 2e-3, 1, n)
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(GraphError, match=match):
            SpliceConfig(interval, interval, u, identity_map(u),
                         GraphPoint("e", 0.5), 0.01, 2e-3, n, 1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, False, None, "7"])
    def test_bad_seed_rejected(self, seed, interval, star3):
        # 1.5 used to be truncated to 1 without a word
        for g in (interval, star3):
            with pytest.raises(GraphError, match="seed must be an integer"):
                simulate_ensemble(g, GraphPoint(g.edges[0].id, 0.5), 0.01, 2e-3, seed, 10)
        u = interval_subdomain(interval, "e", 0.25, 0.75)
        with pytest.raises(GraphError, match="seed must be an integer"):
            SpliceConfig(interval, interval, u, identity_map(u),
                         GraphPoint("e", 0.5), 0.01, 2e-3, 10, seed)

    def test_numpy_integers_accepted(self, star3):
        a = simulate_ensemble(star3, GraphPoint("e1", 0.5), 0.01, 5e-3, np.int64(3),
                              np.int32(20))
        b = simulate_ensemble(star3, GraphPoint("e1", 0.5), 0.01, 5e-3, 3, 20)
        assert np.array_equal(a.final_s, b.final_s)

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
        s, w = gauss_legendre(64)
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
        s, w = gauss_legendre(64)
        vals, _ = pathsum(star3, 0.02, "e1", 0.5, "e1", s)
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

    @pytest.mark.parametrize("case", ["dk_interval", "kd_interval", "star_leaf"])
    def test_start_on_dirichlet_vertex_rejected(self, case, star3_dirichlet_leaves):
        # both engines used to run from the vertex and report survivors where
        # the kernel mass is 0 (D-K interval from s = 0: 3.8% of 1000 paths
        # alive at T = h = 0.01; the leaf of the star: 5.2%)
        dk = _segment(1.0, "dirichlet", "kirchhoff")
        g, x0, vertex, kirchhoff_end = {
            "dk_interval": (dk, GraphPoint("e", 0.0), "a", GraphPoint("e", 1.0)),
            "kd_interval": (_segment(1.0, "kirchhoff", "dirichlet"), GraphPoint("e", 1.0),
                            "b", GraphPoint("e", 0.0)),
            "star_leaf": (star3_dirichlet_leaves, GraphPoint("e1", 1.0), "l1",
                          GraphPoint("e1", 0.0)),
        }[case]
        with pytest.raises(GraphError, match=f"Dirichlet vertex '{vertex}'"):
            simulate_ensemble(g, x0, 0.01, 0.01, 1, 1000)
        # the graph's Kirchhoff vertex is still a start
        assert simulate_ensemble(g, kirchhoff_end, 0.01, 0.01, 1, 1000).alive.any()

    def test_u_on_another_graph_rejected(self, star3):
        star4 = make_graph(
            [("c", "kirchhoff")] + [(f"l{i}", "kirchhoff") for i in range(1, 5)],
            [(f"e{i}", "c", f"l{i}", 1.0) for i in range(1, 5)],
        )
        ball = ball_subdomain(star4, "c", 0.5)
        with pytest.raises(GraphError, match="subdomain"):
            simulate_ensemble(star3, GraphPoint("e1", 0.1), 0.01, 5e-3, 1, 10, U=ball)

    def test_two_u_pieces_on_one_edge_refused(self, star3):
        u = SubdomainSpec(star3, (("e1", 0.1, 0.3), ("e1", 0.5, 0.7)))
        x0 = GraphPoint("e1", 0.2)
        with pytest.raises(GraphError, match="one U piece per edge"):
            simulate_ensemble(star3, x0, 0.01, 5e-3, 1, 10, U=u)
        # the map covers both pieces, so the refusal is the engine's
        with pytest.raises(GraphError, match="one U piece per edge"):
            splice(SpliceConfig(star3, star3, u, identity_map(u), x0, 0.01, 5e-3, 10, 1))

    def test_first_step_from_a_vertex(self, star3, circle):
        h = 5e-3
        leaf = simulate_ensemble(star3, GraphPoint("e1", 1.0), time_step(h), h, 1, 50)
        assert (leaf.final_edge == 0).all() and (leaf.final_s == 1.0 - h).all()
        # a loop's vertex is both ends of its edge
        loop = simulate_ensemble(circle, GraphPoint("loop", 0.0), time_step(h), h, 1, 50)
        assert set(loop.final_s) == {h, 1.0 - h}

    def test_absorbed_inside_u_is_no_exit(self, interval_dirichlet):
        # U reaches the Dirichlet end at 0: a path absorbed there never left U
        g = interval_dirichlet
        u = interval_subdomain(g, "e", 0.0, 0.6)
        ens = simulate_ensemble(g, GraphPoint("e", 0.1), 0.05, 1e-2, 3, 2000, U=u)
        assert ens.engine == "general"
        absorbed = ~ens.alive & (ens.exit_step < 0)
        assert absorbed.any() and (ens.final_s[absorbed] == 0.0).all()
        exited = ens.exit_step >= 0
        assert exited.any() and set(ens.exit_coord[exited]) == {0.6}

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
    @pytest.mark.parametrize("x0", [GraphPoint("e1", 0.02), GraphPoint("e1", 0.0)],
                             ids=["edge", "centre"])
    def test_steps_move_h(self, star3, x0):
        # the general engine: one step moves every path exactly h, and n
        # steps at most n h, through the centre vertex as well
        h = 5e-3
        for n in (1, 16):
            ens = simulate_ensemble(star3, x0, n * time_step(h), h, 3, 400)
            assert ens.engine == "general" and ens.alive.all()
            ends = [GraphPoint(star3.edges[i].id, float(s))
                    for i, s in zip(ens.final_edge, ens.final_s)]
            # along the leg of x0, or through the centre at s = 0 of every leg
            dist = np.array([abs(p.s - x0.s) if p.edge == x0.edge else x0.s + p.s
                             for p in ends])
            if n == 1:
                assert np.abs(dist - h).max() <= 1e-12
            else:
                assert dist.max() <= n * h + 1e-12
                assert len(set(ens.final_edge.tolist())) == 3  # all legs reached

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
        times = ens.exit_step[ens.exit_step >= 0] * time_step(ens.h)
        bins = np.linspace(0.0, 0.05, 11)
        counts, _ = np.histogram(times, bins=bins)
        # Simpson nodes of every bin, with one array call per cut point
        ss = np.array([np.linspace(bins[i], bins[i + 1], 9) for i in range(10)])
        qs = np.zeros_like(ss)
        inner = ss > 0
        for b in u.cut_points:
            qs[inner] += exit_density(u, GraphPoint("e", 0.5), b, ss[inner])
        for i in range(10):
            q = qs[i]
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
        s, w = gauss_legendre(64)
        s, w = 0.5 * s, 0.5 * w
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

    def test_start_on_dirichlet_vertex_rejected(self, star3_dirichlet_leaves):
        # U covers the Dirichlet vertex the start sits on; both splices used
        # to run, on the general engine
        dk = _segment(1.0, "dirichlet", "kirchhoff")
        star = star3_dirichlet_leaves
        for g, u, x0 in (
            (dk, interval_subdomain(dk, "e", 0.0, 0.5), GraphPoint("e", 0.0)),
            (star, interval_subdomain(star, "e1", 0.5, 1.0), GraphPoint("e1", 1.0)),
        ):
            assert u.contains(x0)
            with pytest.raises(GraphError, match="Dirichlet vertex"):
                SpliceConfig(g, g, u, identity_map(u), x0, 0.01, 0.01, 1000, 1)

    def test_paths_absorbed_inside_u_report_graph_b(self):
        # a path that dies at d before leaving U is reported at d on B: the
        # end of f1, where it used to keep e1's index 0, which is f0 on B
        g_a, g_b, u_a, iso = _absorbing_splice()
        sp = splice(SpliceConfig(g_a, g_b, u_a, iso, GraphPoint("e1", 0.9),
                                 0.05, 0.01, 400, 1))
        assert sp.engine == "general" and sp.graph == g_b
        dead = ~sp.alive
        assert dead.sum() > 200 and not (sp.exit_step[dead] >= 0).any()
        assert (sp.final_edge[dead] == 1).all() and (sp.final_s[dead] == 1.0).all()
        assert all(g_b.point_at_vertex(GraphPoint(g_b.edges[e].id, s)) == "d"
                   for e, s in zip(sp.final_edge[dead], sp.final_s[dead]))

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

    def test_u_piece_must_lie_in_one_map_piece(self, star3):
        # both cut points of U have images, but (0.3, 0.5) inside U has none
        u = SubdomainSpec(star3, (("e1", 0.2, 0.6),))
        gapped = SubdomainSpec(star3, (("e1", 0.1, 0.3), ("e1", 0.5, 0.7)))
        iso = IsometryMap(gapped, gapped, (MapPiece("e1", 0.1, 0.3, "e1", 0.1, +1),
                                           MapPiece("e1", 0.5, 0.7, "e1", 0.5, +1)))
        cfg = SpliceConfig(star3, star3, u, iso, GraphPoint("e1", 0.4), 0.01, 5e-3, 10, 1)
        with pytest.raises(GraphError, match="no image under the map"):
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

    def test_chi2_survival_matches_scipy(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        worst = 0.0
        for dof in range(1, 60):
            for x in np.geomspace(1e-6, 2000.0, 200):
                ref = chi2.sf(x, dof)
                if ref > 1e-290:
                    worst = max(worst, abs(_chi2_sf(float(x), dof) - ref) / ref)
        assert worst < 1e-12
        assert _chi2_sf(0.0, 4) == 1.0

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, hklab; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"

    def test_mismatched_horizons_rejected(self, interval):
        a = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.02, 2e-3, 5, 100)
        b = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.04, 2e-3, 5, 100)
        with pytest.raises(GraphError):
            compare_ensembles(a, b)

    def test_unknown_statistic_rejected(self, interval):
        a = simulate_ensemble(interval, GraphPoint("e", 0.5), 0.02, 2e-3, 5, 100)
        with pytest.raises(GraphError, match="unknown statistic 'exit-time-histogram'"):
            compare_ensembles(a, a, "exit-time-histogram")


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


def _absorbing_splice():
    """(A, B, U, map): a-(e1)-d with d Dirichlet and a-(e2)-l, spliced onto the
    same graph with its edges listed as f0 = a-l and f1 = a-d; U is all of e1,
    d included, and e2 up to 0.5, so paths die at d before they exit."""
    vertices = [("a", "kirchhoff"), ("d", "dirichlet"), ("l", "kirchhoff")]
    g_a = make_graph(vertices, [("e1", "a", "d", 1.0), ("e2", "a", "l", 1.0)])
    g_b = make_graph(vertices, [("f0", "a", "l", 1.0), ("f1", "a", "d", 1.0)])
    u_a = SubdomainSpec(g_a, (("e1", 0.0, 1.0), ("e2", 0.0, 0.5)))
    u_b = SubdomainSpec(g_b, (("f1", 0.0, 1.0), ("f0", 0.0, 0.5)))
    iso = IsometryMap(u_a, u_b, (MapPiece("e1", 0.0, 1.0, "f1", 0.0, +1),
                                 MapPiece("e2", 0.0, 0.5, "f0", 0.0, +1)))
    return g_a, g_b, u_a, iso


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


def _engine_case(kind, star, star_d, circle, interval_d):
    """A run that the golden hashes miss: (graph, x0, U, splice_to, n_paths)."""
    h = 5e-3
    centre = GraphPoint("e1", 0.0)
    if kind == "star_centre":
        return star, centre, None, None, 300
    if kind == "loop_vertex":
        return circle, GraphPoint("loop", 0.0), None, None, 300
    if kind == "tracked_from_centre":
        return star, centre, ball_subdomain(star, "c", 0.3), None, 300
    if kind == "absorbed_inside_u":
        # U covers leaf l1, so paths are absorbed there before any exit
        u = SubdomainSpec(star_d, (("e1", 0.0, 1.0), ("e2", 0.0, 0.3), ("e3", 0.0, 0.3)))
        return star_d, GraphPoint("e1", 0.7), u, None, 300
    if kind == "short_dirichlet_leg":
        # an absorbed path must stay put, though its leg is a few steps long
        g = make_star([1.0, 1.0, 0.1], "dirichlet")
        return g, GraphPoint("e2", 0.05), None, None, 300
    if kind == "absorbed_outside_u":
        # paths cross the cut at 0.9, then some are absorbed at a leaf
        return star_d, GraphPoint("e1", 0.85), ball_subdomain(star_d, "c", 0.9), None, 300
    if kind == "interval_end_in_u":
        u = interval_subdomain(interval_d, "e", 0.0, 0.6)
        return interval_d, GraphPoint("e", 0.1), u, None, 300
    # cuts less than a step from a vertex: a departure from the centre is
    # out at once, and a step can cross the cut and reach the leaf together
    if kind == "cut_near_centre":
        return star, centre, ball_subdomain(star, "c", 0.5 * h), None, 300
    if kind == "cut_near_leaf":
        return star_d, GraphPoint("e1", 0.9), ball_subdomain(star_d, "c", 1 - 0.5 * h), None, 300
    if kind == "off_lattice_cut":
        return star, GraphPoint("e1", 0.2), ball_subdomain(star, "c", 0.3 + 0.3 * h), None, 300
    if kind == "single_path":
        return star, GraphPoint("e1", 0.2), ball_subdomain(star, "c", 0.3), None, 1
    if kind == "multi_edge":
        # vertex b has two half-edges to a; the start is b's last half-edge,
        # and every half-edge of b leaves by the same moves
        g = make_graph([("a", "kirchhoff"), ("b", "kirchhoff"), ("d", "dirichlet")],
                       [("e1", "a", "b", 0.3), ("e2", "a", "b", 0.2), ("e3", "b", "d", 0.1)])
        return g, GraphPoint("e3", 0.0), None, None, 300
    if kind == "splice_absorbed_inside_u":
        g_a, g_b, u_a, iso = _absorbing_splice()
        images = tuple(iso.apply(b) for b in u_a.cut_points)
        return g_a, GraphPoint("e1", 0.9), u_a, (g_b, iso, images), 300
    # splices from the Dirichlet-leaf star onto the Kirchhoff one, or from the
    # Kirchhoff star onto itself, where an exit at a leaf goes on from B
    radius = {"splice_from_centre": 0.3, "splice_cut_near_leaf": 1 - 0.5 * h,
              "splice_single_path": 0.3, "splice_kirchhoff_leaf": 1 - 0.5 * h}[kind]
    g_a = star if kind == "splice_kirchhoff_leaf" else star_d
    ball_d, ball = ball_subdomain(g_a, "c", radius), ball_subdomain(star, "c", radius)
    iso = IsometryMap(ball_d, ball, tuple(
        MapPiece(f"e{i}", 0.0, radius, f"e{i}", 0.0, +1) for i in (1, 2, 3)))
    x0 = {"splice_from_centre": centre, "splice_cut_near_leaf": GraphPoint("e1", 0.9),
          "splice_single_path": GraphPoint("e1", 0.2),
          "splice_kirchhoff_leaf": GraphPoint("e1", 0.9)}[kind]
    images = tuple(iso.apply(b) for b in ball_d.cut_points)
    return g_a, x0, ball_d, (star, iso, images), 1 if "single" in kind else 300


ENGINE_CASES = [
    "star_centre", "loop_vertex", "tracked_from_centre", "short_dirichlet_leg",
    "absorbed_inside_u", "absorbed_outside_u", "interval_end_in_u", "cut_near_centre",
    "cut_near_leaf", "off_lattice_cut", "single_path", "multi_edge", "splice_from_centre",
    "splice_cut_near_leaf", "splice_kirchhoff_leaf", "splice_single_path",
    "splice_absorbed_inside_u",
]


class TestEngineReference:
    @pytest.mark.parametrize("kind", ENGINE_CASES)
    def test_matches_reference_walk(self, kind, star3, star3_dirichlet_leaves, circle,
                                    interval_dirichlet):
        # 1500 steps: the horizon is not a whole number of 1024-step key blocks
        g, x0, u, splice_to, n = _engine_case(kind, star3, star3_dirichlet_leaves,
                                              circle, interval_dirichlet)
        h = 5e-3
        T = 1500 * time_step(h)
        if splice_to is None:
            got = simulate_ensemble(g, x0, T, h, 31, n, U=u)
        else:
            got = splice(SpliceConfig(g, splice_to[0], u, splice_to[1], x0, T, h, n, 31))
        want = reference_walk(g, x0, T, h, 31, n, u, splice_to)
        assert got.engine == "general"
        for name in ("final_edge", "final_s", "alive", "exit_step", "exit_coord",
                     "exit_edge"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        # the case exercises what it is named for
        exited = got.exit_step >= 0
        if u is not None and n > 1 and "absorbed_inside_u" not in kind:
            assert exited.any()
        if kind in ("absorbed_inside_u", "interval_end_in_u", "short_dirichlet_leg",
                    "multi_edge", "splice_absorbed_inside_u"):
            assert (~got.alive & ~exited).any()
        if kind == "multi_edge":
            assert {0, 1} <= set(got.final_edge[got.alive].tolist())
        if kind == "absorbed_outside_u":
            assert (~got.alive & exited).any()


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


def _reference_key(seed, stream, m):
    return np.random.SeedSequence(entropy=(seed, stream, m)).generate_state(2, np.uint64)


def _reference_first_passage(seed, n_paths, steps, levels):
    blocks = [_block_bytes(_reference_key(seed, 2, b), n_paths)
              for b in range(-(-steps // 1024))]
    return _reference_on_blocks(blocks, steps, levels)


def _reference_on_blocks(blocks, steps, levels):
    walk = _unpacked_walk(np.concatenate(blocks, axis=1), steps)
    n_paths = len(walk)
    if levels is None:
        return walk[:, -1], np.full(n_paths, -1), np.zeros(n_paths, dtype=np.int64)
    lo, hi = levels
    first, up = _reference_crossings(walk, np.full(n_paths, lo), np.full(n_paths, hi))
    return (walk[:, -1], np.where(first >= 0, first + 1, -1),
            np.where(first >= 0, np.where(up, hi, lo), 0))


def _first_passage_on_blocks(monkeypatch, blocks, steps, levels):
    """``_first_passage`` reading the given blocks in place of Philox bytes."""
    queue = iter(blocks)
    monkeypatch.setattr("hklab.wiener._block_bytes", lambda key, n_paths: next(queue))
    return _first_passage(0, len(blocks[0]), steps, levels)


# bytes whose walk, MSB first, goes up, down, up, ... and stays in [0, 1],
# or down, up, ... in [-1, 0]; either ends every byte where it began
_UP_DOWN, _DOWN_UP = 0xAA, 0x55


def _rows_with_word(prefix, word, fill, follow=None):
    """One block row per entry of `word`: `prefix` bytes except 64-step word
    word[i], all `fill` (0xFF up, 0x00 down), and the word after it all
    `follow` when given."""
    rows = np.full((len(word), 128), prefix, dtype=np.uint8)
    for row, j in zip(rows, word):
        row[8 * j:8 * j + 8] = fill
        if follow is not None and j < 15:
            row[8 * j + 8:8 * j + 16] = follow
    return rows


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
    @pytest.mark.parametrize("steps", [1, 7, 8, 9, 1023, 1024, 1025, 2061, 5000])
    @pytest.mark.parametrize("levels", [
        None, (-1, 1), (-1, 40), (-40, 1), (-2, 2), (-3, 5), (-30, 30), (-90, 60),
        (-300, 200), (-1100, 1500),
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

    def test_word_bounds_exact_on_whole_words(self):
        # on rows made of all-up and all-down words the walk turns only at
        # word ends, so the bounds are its exact extremes, its start
        # included; on other rows they contain the walk
        rng = np.random.default_rng(5)
        whole = np.repeat(rng.choice([0x00, 0xFF], size=(3000, 16)), 8, axis=1)
        mixed = rng.integers(0, 256, size=(3000, 128))
        biased = np.where(rng.random((3000, 128)) < 0.8, 0xFF, mixed)
        for raw, exact in ((whole, True), (mixed, False), (biased, False)):
            raw = raw.astype(np.uint8)
            walk = np.concatenate([np.zeros((3000, 1), dtype=np.int64),
                                   _unpacked_walk(raw, 1024)], axis=1)
            word_ups = np.ascontiguousarray(np.bitwise_count(raw.view(np.uint64)).T)
            top, bottom = _word_bounds(word_ups)
            if exact:
                assert np.array_equal(top, walk.max(axis=1))
                assert np.array_equal(bottom, walk.min(axis=1))
            else:
                assert np.all(top >= walk.max(axis=1))
                assert np.all(bottom <= walk.min(axis=1))

    @pytest.mark.parametrize("pre_bytes", [0, 5])
    def test_levels_reached_on_a_words_last_step(self, monkeypatch, pre_bytes):
        # the first block leaves the walk at 8 * pre_bytes; in the second, an
        # all-up (all-down) word j takes it exactly to the level on the
        # word's last step and the next word brings it back, so the word
        # bound meets the level with equality
        carry = 8 * pre_bytes
        levels = (carry - 64, carry + 64)
        word = np.arange(16)
        first = np.full((32, 128), _UP_DOWN, dtype=np.uint8)
        first[:, :pre_bytes] = 0xFF
        second = np.concatenate([_rows_with_word(_UP_DOWN, word, 0xFF, follow=0x00),
                                 _rows_with_word(_UP_DOWN, word, 0x00, follow=0xFF)])
        got = _first_passage_on_blocks(monkeypatch, [first, second], 2048, levels)
        want = _reference_on_blocks([first, second], 2048, levels)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.array_equal(got[1], np.tile(1024 + 64 * word + 64, 2))
        assert np.array_equal(got[2], np.repeat(levels[::-1], 16))

    @pytest.mark.parametrize("nb", [1, 63, 64, 65, 1000])
    def test_word_bound_on_partial_blocks(self, monkeypatch, nb):
        # the bound spans the whole block; only the first nb steps of the last
        # block count.  Crafted rows reach the level on the block's last step,
        # or would reach it only past it; random rows start at random carries
        rng = np.random.default_rng(nb)
        last = (nb - 1) // 64  # the word that holds the last step
        reach = nb - 64 * last  # what an all-up last word adds by step nb
        word = [last, min(last + 1, 15)]
        first = np.concatenate([np.full((2, 128), _DOWN_UP, dtype=np.uint8),
                                np.full((2, 128), _UP_DOWN, dtype=np.uint8),
                                rng.integers(0, 256, size=(400, 128), dtype=np.uint8)])
        second = np.concatenate([_rows_with_word(_DOWN_UP, word, 0xFF),
                                 _rows_with_word(_UP_DOWN, word, 0x00),
                                 rng.integers(0, 256, size=(400, 128), dtype=np.uint8)])
        steps = 1024 + nb
        # row 0 (up) and row 2 (down) reach `level` on the block's last step
        for levels, row, level in (((-2, reach), 0, reach), ((-reach, 2), 2, -reach),
                                   ((-30, 30), None, None)):
            got = _first_passage_on_blocks(monkeypatch, [first, second], steps, levels)
            want = _reference_on_blocks([first, second], steps, levels)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            if row is not None:
                assert got[1][row] == steps and got[2][row] == level

    def test_scan_counts_logged_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="hklab.wiener")
        _, hit_step, _ = _first_passage(17, 300, 2061, (-30, 30))
        records = [r for r in caplog.records if r.name == "hklab.wiener"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        blocks, tested, scanned, hits = records[0].args
        assert blocks == 3 and hits == np.count_nonzero(hit_step >= 0) > 0
        # a path is tested in every block it starts unhit
        assert tested == sum(np.count_nonzero((hit_step < 0) | (hit_step > 1024 * b))
                             for b in range(3))
        assert hits <= scanned <= tested

    def test_scan_counts_not_logged_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="hklab.wiener")
        _first_passage(17, 300, 2061, (-30, 30))
        assert not [r for r in caplog.records if r.name == "hklab.wiener"]


class TestStreamKeys:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    @pytest.mark.parametrize("stream", [2, 3])
    def test_keys_match_seed_sequence(self, seed, stream):
        m = np.array([0, 1, 1023, 1024, 2**20, 2**32 - 1])
        keys = _stream_keys(seed, stream, m)
        assert keys.shape == (m.size, 2) and keys.dtype == np.uint64
        for row, mi in zip(keys, m):
            assert np.array_equal(row, _reference_key(seed, stream, int(mi)))

    @pytest.mark.parametrize("m", [2**32, -1])
    def test_counter_beyond_one_word_rejected(self, m):
        with pytest.raises(ValueError, match="32-bit word"):
            _stream_keys(1, 3, np.array([0, m]))

    @pytest.mark.parametrize("seed", [4, 2**40 + 3])
    def test_step_words_match_generator(self, seed):
        # the steps run past the first key block; each word is the raw
        # Philox output, and the engine's step sign and departure double are
        # the ones Generator.random gives
        got = list(_step_words(seed, 1030, 17))
        assert len(got) == 1030
        for m in (0, 1, 1023, 1024, 1029):
            key = _reference_key(seed, 3, m)
            assert np.array_equal(got[m], np.random.Philox(key=key).random_raw(17))
            u = np.random.Generator(np.random.Philox(key=key)).random(17)
            assert np.array_equal((got[m] >> np.uint64(11)) * 2.0**-53, u)
            assert np.array_equal(got[m] < np.uint64(2**63), u < 0.5)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
    @pytest.mark.parametrize("n_paths", [1, 3, 1000])
    def test_block_bytes_match_generator(self, seed, n_paths):
        # _reference_first_passage takes its bytes from _block_bytes too, so
        # this is what ties both to Generator.bytes
        for block in (0, 7):
            key = _reference_key(seed, 2, block)
            gen = np.random.Generator(np.random.Philox(key=key))
            want = np.frombuffer(gen.bytes(128 * n_paths), dtype=np.uint8)
            got = _block_bytes(key, n_paths)
            assert got.shape == (n_paths, 128) and got.dtype == np.uint8
            assert np.array_equal(got.ravel(), want)

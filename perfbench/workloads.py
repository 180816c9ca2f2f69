"""Seeded inputs and cross-check tasks for the three benchmark workloads.

A task is one cross-check: the same quantity computed along two routes and
compared.  A round is one task of every kind the workload has, on fresh
inputs drawn from ``round_rng(workload, seed, index)``; a run executes rounds
one after another (a closed loop with a single client) until its time is up.
Building a round constructs every hklab input object (graphs, subdomains,
maps, splice configurations); executing it only calls hklab on them.

Every call into hklab goes through a module attribute (``kernels.f``, not
``f``) so that the tracer in ``tracing.py`` sees the benchmark's own calls
as well as the package's internal ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hklab import energy, graph, kernels, locality, spectral, twoparticle, wiener

WORKLOADS = ("oracle", "first-exit", "ensemble")

# Kernel walk sums are requested at this tolerance throughout, as in the CLI.
TOL = 1e-10


@dataclass
class Outcome:
    """What a task reports: pass/fail, work done, and its numeric outputs."""

    ok: bool
    detail: str
    kernel_values: int = 0
    path_steps: int = 0
    outputs: list = field(default_factory=list)


@dataclass
class Task:
    kind: str
    run: Callable[[], Outcome]


def round_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


def make_round(workload: str, seed: int, index: int, scale: float = 1.0) -> list[Task]:
    """The tasks of round ``index``; ``scale`` < 1 shrinks every size (tests).

    Graph shapes cycle with the round index, and so do star degrees and the
    times that set a task's cost (see ``_star_degree`` and ``_spread``), so
    every run of a few dozen rounds draws each of them about equally often.
    """
    rng = round_rng(workload, seed, index)
    return _BUILDERS[workload](rng, index, scale)


# -- graphs ------------------------------------------------------------------


def _graph(vertices, edges) -> graph.MetricGraph:
    return graph.MetricGraph(
        tuple(graph.Vertex(*v) for v in vertices),
        tuple(graph.Edge(*e) for e in edges),
    )


def _cond(rng) -> str:
    return graph.DIRICHLET if rng.random() < 0.4 else graph.KIRCHHOFF


def random_graph(rng, kind: str, equal_lengths: bool = False,
                 total_length: float = 2.4, degree: int | None = None) -> graph.MetricGraph:
    """A small graph of the given shape with mixed vertex conditions.

    The total length is fixed, so every draw of a shape costs about the same.
    Edge lengths are drawn in a ratio of at most 12:7, or are all equal with
    ``equal_lengths``; at the default total length the shortest edge stays
    above 0.3, which keeps walk counts enumerable.  A star has ``degree``
    legs, or a random number from 2 to 5.
    """
    def lengths(n):
        if equal_lengths:
            return [total_length / n] * n
        raw = rng.uniform(0.7, 1.2, n)
        return [float(x) for x in raw * (total_length / raw.sum())]

    if kind == "star":
        d = int(rng.integers(2, 6)) if degree is None else degree
        ls = lengths(d)
        return _graph(
            [("c", graph.KIRCHHOFF)] + [(f"l{i}", _cond(rng)) for i in range(d)],
            [(f"e{i}", "c", f"l{i}", ls[i]) for i in range(d)],
        )
    if kind == "triangle":
        ls = lengths(3)
        return _graph(
            [("a", _cond(rng)), ("b", graph.KIRCHHOFF), ("c", graph.KIRCHHOFF)],
            [("e1", "a", "b", ls[0]), ("e2", "b", "c", ls[1]), ("e3", "c", "a", ls[2])],
        )
    if kind == "loop":
        ls = lengths(2)
        return _graph(
            [("o", graph.KIRCHHOFF), ("a", _cond(rng))],
            [("lp", "o", "o", ls[0]), ("st", "o", "a", ls[1])],
        )
    if kind == "multi":
        ls = lengths(3)
        return _graph(
            [("a", graph.KIRCHHOFF), ("b", graph.KIRCHHOFF), ("c", _cond(rng))],
            [("e1", "a", "b", ls[0]), ("e2", "a", "b", ls[1]), ("e3", "b", "c", ls[2])],
        )
    raise ValueError(f"unknown graph kind {kind!r}")


# The eigenmode route is only run where ``spectral.eigen`` finds every mode.
# On graphs with a loop edge it does not (a circle raises "missed
# eigenvalue", a lollipop returns a kernel off by 0.25), nor on most graphs
# with unequal edge lengths: 15 of 40 random stars, triangles and multi-edge
# graphs missed modes, and on the 3-star with legs 1, 1, 0.3 the eigenmode
# kernel at t = 0.04 is -0.082 where the walk sum gives 0.0060.  Tasks with
# that route therefore draw loop-free shapes with one common edge length.
SPECTRAL_KINDS = ("star", "triangle", "multi")
ALL_KINDS = ("star", "triangle", "loop", "multi")


def _points(rng, g, count):
    pts = []
    for _ in range(count):
        e = g.edges[int(rng.integers(len(g.edges)))]
        pts.append(graph.GraphPoint(e.id, float(rng.uniform(0.05, 0.95)) * e.length))
    return pts


def _size(n, scale, least=1):
    return max(least, int(round(n * scale)))


# The cost of a walk sum grows steeply with a star's degree and with t: the
# two-particle trace on a 5-star takes 0.4 s at t = 0.02 and 7 s at t = 0.05
# (one core of a 2-vCPU Xeon VM).  Drawn independently, the number of such
# slow draws changes from run to run and moves the run's medians with it, so
# degrees and these times are spread evenly over the rounds instead.


def _star_degree(index, period):
    """Star degree for a task whose shape cycles with ``period`` rounds:
    2, 3, 4, 5 in turn over the rounds in which it draws a star."""
    return 2 + (index // period) % 4


GOLDEN = 0.6180339887498949


def _spread(k, rng):
    """The k-th number of the golden-ratio sequence in [0, 1), which covers
    the interval evenly in any run of consecutive k, with a seeded jitter."""
    return 0.98 * ((k * GOLDEN) % 1.0) + 0.02 * float(rng.random())


# -- oracle: warm analytic cross-checks ----------------------------------------


def _walk_vs_spectral(g, pts, ts):
    k_max = math.sqrt(math.log(1e14) / min(ts)) + 5.0
    modes = spectral.eigen(g, k_max)
    worst = -math.inf
    vals = []
    for t in ts:
        for x in pts:
            for y in pts:
                a = kernels.kernel_pathsum(g, t, x, y, tol=TOL)
                b = spectral.kernel_spectral(g, t, x, y, modes)
                allow = max(1e-8, a.tail_bound + b.tail_bound)
                worst = max(worst, abs(a.value - b.value) - allow)
                vals.append(a.value)
    n = 2 * len(ts) * len(pts) ** 2
    return Outcome(worst <= 0.0, f"excess over allowance {worst:.3g}", n,
                   outputs=[np.array(vals)])


def _trace_quad_vs_pairs(g, t, step):
    k_max = math.sqrt(math.log(1e17) / t) + 3.0
    zq = twoparticle.trace_two_particle(g, t, step)
    ze = twoparticle.trace_two_particle_eigen(spectral.eigen(g, k_max), t)
    ok = abs(zq - ze) <= 1e-8 * max(1.0, ze)
    # the quadrature samples the diagonal on every edge and the full pair grid
    nodes = sum(_trace_intervals(e.length, step) + 1 for e in g.edges)
    return Outcome(ok, f"|Zq - Ze| = {abs(zq - ze):.3g} (Z = {ze:.6g})",
                   nodes + nodes * nodes, outputs=[np.array([zq, ze])])


def _trace_intervals(length, step):
    n = max(4, math.ceil(length / step))
    return n + (-n) % 4


def _locality_cert(g_n, g_d, iso, v_sub, t_grid, per_piece):
    cert = locality.locality_compare(g_n, g_d, iso, v_sub, t_grid,
                                     points_per_piece=per_piece)
    ok = cert.certified
    n = 2 * len(t_grid) * per_piece**2
    return Outcome(ok, f"eps={cert.eps:.4g} r2={cert.r2:.6f} {cert.reason}", n,
                   outputs=[np.array(cert.sup_diffs)])


def _energy_study(g, fn, r_grid):
    f = energy.sample_function(g, fn, r_grid[-1] / 20.0)
    st = energy.convergence_study(g, f, r_grid)
    # E_r / E_classical tends to 2 at first order in r: the first-order
    # extrapolation from r and r/2 must land on 2
    (_, _, coarse), (_, _, fine) = st.rows
    limit = 2.0 * fine - coarse
    ok = abs(limit - 2.0) <= 5e-3
    return Outcome(ok, f"ratios {coarse:.5f}, {fine:.5f}, extrapolated {limit:.5f}",
                   outputs=[np.array([row[1] for row in st.rows])])


def _smooth_function(rng, g):
    """A function continuous at every vertex: affine between vertex values
    on each edge plus one sine bump that vanishes at both ends."""
    at_vertex = {v.id: float(rng.uniform(-1.0, 1.0)) for v in g.vertices}
    bumps = {e.id: (float(rng.uniform(-0.5, 0.5)), int(rng.integers(1, 3)))
             for e in g.edges}

    def fn(eid, s):
        e = g.edge_obj(eid)
        amp, k = bumps[eid]
        fu, fv = at_vertex[e.u], at_vertex[e.v]
        return fu + (fv - fu) * s / e.length + amp * np.sin(math.pi * k * s / e.length)

    return fn


def _neumann_dirichlet_pair(rng, kind, degree, scale):
    """Two copies of one graph, all-Kirchhoff and all-Dirichlet, agreeing on
    the middle half U of their longest edge; V is the middle fifth."""
    shape = random_graph(rng, kind, degree=degree)
    edges = [(e.id, e.u, e.v, e.length) for e in shape.edges]
    g_n = _graph([(v.id, graph.KIRCHHOFF) for v in shape.vertices], edges)
    g_d = _graph([(v.id, graph.DIRICHLET) for v in shape.vertices], edges)
    e = max(shape.edges, key=lambda e: e.length)
    lo, hi = 0.25 * e.length, 0.75 * e.length
    u_n = locality.interval_subdomain(g_n, e.id, lo, hi)
    u_d = locality.interval_subdomain(g_d, e.id, lo, hi)
    iso = locality.IsometryMap(u_n, u_d, (locality.MapPiece(e.id, lo, hi, e.id, lo, +1),))
    v_sub = locality.interval_subdomain(g_n, e.id, 0.4 * e.length, 0.6 * e.length)
    t_grid = np.geomspace(0.01, 0.05, 8)
    return g_n, g_d, iso, v_sub, t_grid, _size(11, scale, 3)


def _walk_vs_spectral_task(rng, kind, degree, scale):
    g = random_graph(rng, kind, equal_lengths=True, degree=degree)
    pts = _points(rng, g, _size(8, scale, 2))
    # one time in each third of [0.01, 0.05]
    ts = [0.01 + 0.04 * (i + float(rng.random())) / 3 for i in range(3)]
    return Task("walk_vs_spectral", lambda: _walk_vs_spectral(g, pts, ts))


def _oracle_round(rng, index, scale):
    # two walk-sum/eigenmode tasks make five per round, so that the median
    # task falls inside one kind's times instead of between two kinds
    degree = _star_degree(index, 3)
    grid_a = _walk_vs_spectral_task(rng, SPECTRAL_KINDS[index % 3], degree, scale)
    grid_b = _walk_vs_spectral_task(rng, SPECTRAL_KINDS[(index + 2) % 3], degree, scale)

    g2 = random_graph(rng, SPECTRAL_KINDS[(index + 1) % 3], equal_lengths=True,
                      degree=degree)
    t2 = 0.02 + 0.03 * _spread(index // 3, rng)

    pair = _neumann_dirichlet_pair(rng, ALL_KINDS[index % 4], _star_degree(index, 4), scale)

    # the energy form needs no walk sums, so its graph can be short
    g4 = random_graph(rng, ALL_KINDS[(index + 2) % 4], total_length=1.2,
                      degree=_star_degree(index, 4))
    fn = _smooth_function(rng, g4)
    r_grid = [8e-3, 4e-3]

    return [
        grid_a,
        grid_b,
        Task("trace_quad_vs_pairs", lambda: _trace_quad_vs_pairs(g2, t2, 4e-3)),
        Task("locality_certificate", lambda: _locality_cert(*pair)),
        Task("energy_study", lambda: _energy_study(g4, fn, r_grid)),
    ]


# -- first-exit: cold walk sums --------------------------------------------------


def _three_star(legs, leaf=graph.KIRCHHOFF):
    return _graph(
        [("c", graph.KIRCHHOFF)] + [(f"l{i}", leaf) for i in range(3)],
        [(f"e{i}", "c", f"l{i}", float(legs[i])) for i in range(3)],
    )


def _decomposition(spec, t, x, y, nodes):
    res = locality.decomposition_residual(spec, t, x, y, time_step=t / nodes)
    # two kernels at (x, y), then an exit density and a kernel from the cut
    # at every interior Simpson node, for each cut point
    n = 2 + 2 * (nodes - 1) * len(spec.cut_points)
    return Outcome(res < 1e-4, f"residual {res:.3g}", n, outputs=[np.array([res])])


def _cold_symmetry(cases):
    """p_t(x, y) against p_t(y, x): the two directions enumerate their walks
    separately, so on a fresh graph both are cold."""
    worst = 0.0
    vals = []
    for g, t, x, y in cases:
        a = kernels.kernel_pathsum(g, t, x, y, tol=TOL)
        b = kernels.kernel_pathsum(g, t, y, x, tol=TOL)
        worst = max(worst, abs(a.value - b.value) / max(1.0, abs(a.value)))
        vals.append(a.value)
    return Outcome(worst <= 1e-12, f"worst asymmetry {worst:.3g}", 2 * len(cases),
                   outputs=[np.array(vals)])


# Start and end points keep this distance from the cut points: closer in, the
# exit density peaks at s ~ d^2/6, below the resolution of the 128-node time
# quadrature, and the residual measures the quadrature instead of the identity.
CUT_GAP = 0.2


def _first_exit_round(rng, index, scale):
    nodes = 128
    tasks = []

    # interval subdomain on an interval with mixed end conditions
    length = float(rng.uniform(0.9, 1.2))
    g = _graph([("a", _cond(rng)), ("b", _cond(rng))], [("e", "a", "b", length)])
    lo, hi = length * rng.uniform(0.15, 0.25), length * rng.uniform(0.75, 0.85)
    spec = locality.interval_subdomain(g, "e", float(lo), float(hi))
    x, y = (graph.GraphPoint("e", float(s)) for s in rng.uniform(lo + CUT_GAP, hi - CUT_GAP, 2))
    t = float(rng.uniform(0.02, 0.06))
    tasks.append(Task("decomposition_interval",
                      lambda: _decomposition(spec, t, x, y, nodes)))

    # interval subdomain on one leg of a 3-star
    star = _three_star(rng.uniform(0.9, 1.2, 3))
    leg = star.edges[0].length
    lo, hi = leg * rng.uniform(0.15, 0.25), leg * rng.uniform(0.75, 0.85)
    spec_leg = locality.interval_subdomain(star, "e0", float(lo), float(hi))
    xl, yl = (graph.GraphPoint("e0", float(s)) for s in rng.uniform(lo + CUT_GAP, hi - CUT_GAP, 2))
    tl = float(rng.uniform(0.02, 0.06))
    tasks.append(Task("decomposition_star_leg",
                      lambda: _decomposition(spec_leg, tl, xl, yl, nodes)))

    # metric ball around the centre of a 3-star: three cut points
    star_b = _three_star(rng.uniform(0.9, 1.1, 3))
    radius = float(rng.uniform(0.45, 0.5))
    spec_ball = locality.ball_subdomain(star_b, "c", radius)
    xb = graph.GraphPoint("e0", float(rng.uniform(0.05, radius - CUT_GAP)))
    yb = graph.GraphPoint("e1", float(rng.uniform(0.05, radius - CUT_GAP)))
    tb = float(rng.uniform(0.03, 0.04))
    tasks.append(Task("decomposition_ball",
                      lambda: _decomposition(spec_ball, tb, xb, yb, nodes)))

    # cold calls on 3-stars with one leg in [0.08, 0.3]: each costs a few
    # milliseconds, so a batch of them is one task
    cases = []
    for _ in range(_size(12, scale, 2)):
        star_c = _three_star([rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2),
                              rng.uniform(0.08, 0.3)])
        xc, yc = _points(rng, star_c, 2)
        cases.append((star_c, float(rng.uniform(0.01, 0.06)), xc, yc))
    tasks.append(Task("cold_pathsum_symmetry", lambda: _cold_symmetry(cases)))

    # the short-leg star where the doubling of the truncation length
    # overshoots the tolerance by ~86 orders of magnitude.  The long legs get
    # a seeded offset of at most 1e-6, so that every round enumerates its
    # walks afresh at the same cost.
    offset = float(rng.uniform(0.0, 1e-6))
    short = 0.05 if scale >= 1.0 else 0.1
    star_s = _three_star([1.0 + offset, 1.0 + offset, short])
    t_s = 0.035 + float(rng.uniform(0.0, 1e-6))
    probes = [(star_s, t_s, graph.GraphPoint("e0", float(a)), graph.GraphPoint("e1", float(b)))
              for a, b in rng.uniform(0.1, 0.9, (3, 2))]
    tasks.append(Task("short_leg_symmetry", lambda: _cold_symmetry(probes)))
    return tasks


# -- ensemble: Monte Carlo ---------------------------------------------------------

H_LATTICE = 2e-3
H_GENERAL = 5e-3


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31))


def _ens_outputs(*ensembles):
    out = []
    for e in ensembles:
        out.extend([e.final_s, e.exit_step, e.alive])
    return out


def _steps(e) -> int:
    return e.n_paths * wiener.n_steps(e.T, e.h)


def _lattice_identity(cfg):
    sp = wiener.splice(cfg)
    direct = wiener.simulate_ensemble(cfg.graph_a, cfg.x0, cfg.T, cfg.h, cfg.seed,
                                      cfg.n_paths)
    ok = (np.array_equal(sp.final_s, direct.final_s)
          and np.array_equal(sp.alive, direct.alive))
    return Outcome(ok, f"bitwise equal={ok}", path_steps=_steps(sp) + _steps(direct),
                   outputs=_ens_outputs(sp, direct))


def _stay_z(sp, u_target, x0):
    cg, to_cut, _ = u_target.cut_graph()
    exact = kernels.kernel_mass(cg, sp.T, to_cut(x0))
    se = math.sqrt(exact * (1.0 - exact) / sp.n_paths)
    return (sp.stay_fraction() - exact) / se, exact


def _splice_vs_direct(cfg, u_target, direct_seed, bins, kernel_nodes):
    """A spliced ensemble against a direct run on the second graph, plus the
    share of paths that never left U against the killed-kernel mass."""
    sp = wiener.splice(cfg)
    direct = wiener.simulate_ensemble(cfg.graph_b, cfg.x0, cfg.T, cfg.h, direct_seed,
                                      cfg.n_paths)
    _, p = wiener.compare_ensembles(sp, direct, "endpoint-histogram", bins)
    z, exact = _stay_z(sp, u_target, cfg.x0)
    # statistical checks use thresholds a correct run misses with
    # probability ~1e-6, so that thousands of runs stay free of false alarms
    ok = p > 1e-6 and abs(z) <= 5.0
    return Outcome(ok, f"p={p:.3g} stay z={z:+.2f} (exact {exact:.5f})",
                   kernel_nodes, _steps(sp) + _steps(direct),
                   outputs=_ens_outputs(sp, direct))


def _killed_survival(g_d, x0, T, seed, n_paths):
    ens = wiener.simulate_ensemble(g_d, x0, T, H_LATTICE, seed, n_paths)
    exact = kernels.kernel_mass(g_d, T, x0)
    se = math.sqrt(exact * (1.0 - exact) / n_paths)
    z = (float(np.mean(ens.alive)) - exact) / se
    return Outcome(abs(z) <= 5.0, f"survival z={z:+.2f} (exact {exact:.5f})",
                   _mass_nodes(g_d), _steps(ens), outputs=_ens_outputs(ens))


def _negative_control(g_n, g_d, x0, T, seeds, n_paths):
    e_n = wiener.simulate_ensemble(g_n, x0, T, H_LATTICE, seeds[0], n_paths)
    e_d = wiener.simulate_ensemble(g_d, x0, T, H_LATTICE, seeds[1], n_paths)
    _, p = wiener.compare_ensembles(e_n, e_d, "endpoint-histogram", 20)
    return Outcome(p < 1e-6, f"N vs D p={p:.3g}", path_steps=_steps(e_n) + _steps(e_d),
                   outputs=_ens_outputs(e_n, e_d))


def _general_identity(cfg):
    sp = wiener.splice(cfg)
    direct = wiener.simulate_ensemble(cfg.graph_a, cfg.x0, cfg.T, cfg.h, cfg.seed,
                                      cfg.n_paths)
    same = sp.final_edge == direct.final_edge
    dev = float(np.abs(sp.final_s[same] - direct.final_s[same]).max()) if same.any() else 0.0
    ok = same.mean() > 0.999 and dev < 1e-9
    return Outcome(ok, f"same edge {same.mean():.4f}, max |ds| {dev:.3g}",
                   path_steps=_steps(sp) + _steps(direct), outputs=_ens_outputs(sp, direct))


def _mass_nodes(g) -> int:
    # kernel_mass: composite Simpson with 1000 intervals per edge
    return 1001 * len(g.edges)


def _lattice_point(rng, lo, hi):
    return H_LATTICE * int(rng.integers(round(lo / H_LATTICE), round(hi / H_LATTICE) + 1))


def _ensemble_round(rng, index, scale):
    # the negative control needs about a thousand paths to reach p < 1e-6
    n_lat = _size(4096, scale, 1024)
    n_gen = _size(2000, scale, 200)
    T = 0.04
    g_n = _graph([("a", graph.KIRCHHOFF), ("b", graph.KIRCHHOFF)], [("e", "a", "b", 1.0)])
    g_d = _graph([("a", graph.DIRICHLET), ("b", graph.DIRICHLET)], [("e", "a", "b", 1.0)])
    tasks = []

    lo, hi = _lattice_point(rng, 0.2, 0.3), _lattice_point(rng, 0.7, 0.8)
    x0 = graph.GraphPoint("e", _lattice_point(rng, 0.45, 0.55))
    u = locality.interval_subdomain(g_n, "e", lo, hi)
    cfg_id = wiener.SpliceConfig(g_n, g_n, u, locality.identity_map(u), x0, T,
                                 H_LATTICE, n_lat, _seed(rng))
    tasks.append(Task("lattice_identity_splice", lambda: _lattice_identity(cfg_id)))

    u_d = locality.interval_subdomain(g_d, "e", lo, hi)
    u_n = locality.interval_subdomain(g_n, "e", lo, hi)
    iso = locality.IsometryMap(u_d, u_n, (locality.MapPiece("e", lo, hi, "e", lo, +1),))
    cfg_dn = wiener.SpliceConfig(g_d, g_n, u_d, iso, x0, T, H_LATTICE, n_lat, _seed(rng))
    seed_n = _seed(rng)
    tasks.append(Task("lattice_splice_d_to_n", lambda: _splice_vs_direct(
        cfg_dn, u_n, seed_n, 20, _mass_nodes(u_n.cut_graph()[0]))))

    x_kill = graph.GraphPoint("e", _lattice_point(rng, 0.3, 0.7))
    seed_d = _seed(rng)
    tasks.append(Task("lattice_killed_survival",
                      lambda: _killed_survival(g_d, x_kill, T, seed_d, n_lat)))

    seeds_c = (_seed(rng), _seed(rng))
    tasks.append(Task("lattice_negative_control",
                      lambda: _negative_control(g_n, g_d, x_kill, T, seeds_c, n_lat)))

    star_k = _three_star([1.0, 1.0, 1.0])
    star_d = _three_star([1.0, 1.0, 1.0], leaf=graph.DIRICHLET)
    radius = 0.05 * int(rng.integers(10, 13))
    ball_d = locality.ball_subdomain(star_d, "c", radius)
    ball_k = locality.ball_subdomain(star_k, "c", radius)
    iso_star = locality.IsometryMap(ball_d, ball_k, tuple(
        locality.MapPiece(f"e{i}", 0.0, radius, f"e{i}", 0.0, +1) for i in range(3)))
    x_star = graph.GraphPoint("e0", H_GENERAL * int(rng.integers(20, 60)))
    T_gen = 0.02 if scale >= 1.0 else 0.005
    cfg_star = wiener.SpliceConfig(star_d, star_k, ball_d, iso_star, x_star, T_gen,
                                   H_GENERAL, n_gen, _seed(rng))
    seed_sk = _seed(rng)
    tasks.append(Task("general_splice_dirichlet_leaves", lambda: _splice_vs_direct(
        cfg_star, ball_k, seed_sk, 12, _mass_nodes(ball_k.cut_graph()[0]))))

    cfg_gid = wiener.SpliceConfig(star_k, star_k, ball_k, locality.identity_map(ball_k),
                                  x_star, T_gen, H_GENERAL, n_gen, _seed(rng))
    tasks.append(Task("general_identity_splice", lambda: _general_identity(cfg_gid)))
    return tasks


_BUILDERS = {
    "oracle": _oracle_round,
    "first-exit": _first_exit_round,
    "ensemble": _ensemble_round,
}

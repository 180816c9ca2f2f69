"""Random-walk realization of graph diffusion, first exits, and splicing.

Walk convention: steps of size h along an edge, each advancing time by h^2/2,
so the walk variance per unit time is 2 and the limit matches the
exp(-d^2/4t) kernels.  At a Kirchhoff vertex the next step leaves along a
uniformly chosen incident half-edge (the arrival edge included); Dirichlet
vertices absorb.

Randomness is counter-based: step m of every path draws from a Philox stream
keyed by (base seed, block index) with a fixed block size, so ensembles are
bitwise reproducible for a given seed no matter how the work is scheduled,
and a spliced run consumes exactly the bits a direct run would.

The single-interval lattice engine never unpacks those bits.  A block of
1024 steps arrives as 128 packed bytes per path, step k in bit 7 - k % 8 of
byte k // 8 (most significant bit first, the order of ``np.unpackbits``).
The walk total over a block is 2 * popcount - nb.  First passages come from
256-entry byte tables of the walk's position, running max and running min
inside a byte: each byte starts at the sum of the bytes before it, so a
block's extremes and its exact first crossing take a pass over bytes, not
steps.  The outputs are bit-identical to unpacking every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as _chi2

from .graph import DIRICHLET, GraphError, GraphPoint, MetricGraph
from .locality import IsometryMap, SubdomainSpec

_BLOCK = 1024  # steps per RNG block; fixed forever for reproducibility
_BLOCK_BYTES = _BLOCK // 8
_SCAN_ROWS = 4096  # paths per group in the first-passage scan


def _block_bytes(seed: int, block: int, n_paths: int) -> np.ndarray:
    """Packed sign bits of one block, path-major shape (n_paths, BLOCK // 8).

    Step k of a path is bit 7 - k % 8 of its byte k // 8, the MSB-first order
    of ``np.unpackbits``; a set bit is a step up.
    """
    ss = np.random.SeedSequence(entropy=(int(seed) & (2**63 - 1), 2, block))
    gen = np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))
    raw = gen.bytes(_BLOCK_BYTES * n_paths)
    return np.frombuffer(raw, dtype=np.uint8).reshape(n_paths, _BLOCK_BYTES)


def _byte_tables():
    """Walk within one byte, MSB first: row l holds, for all 256 bytes, the
    position after step l + 1 and the running max and min over steps 1..l+1."""
    bits = (np.arange(256) >> np.arange(7, -1, -1)[:, None]) & 1
    pos = np.cumsum(2 * bits - 1, axis=0).astype(np.int16)
    return pos, np.maximum.accumulate(pos), np.minimum.accumulate(pos)


_BYTE_POS, _BYTE_MAX, _BYTE_MIN = _byte_tables()


def _step_uniforms(seed: int, step: int, n_paths: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=(int(seed) & (2**63 - 1), 3, step))
    gen = np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))
    return gen.random(n_paths)


def time_step(h: float) -> float:
    """Duration of one +-h step (h^2/2, giving walk variance 2 per unit time)."""
    return 0.5 * h * h


def _check_horizon(T: float):
    if not (math.isfinite(T) and T > 0):
        raise GraphError(f"horizon T must be finite and positive, got {T!r}")


def n_steps(T: float, h: float) -> int:
    _check_horizon(T)
    steps = int(round(T / time_step(h)))
    if steps < 1:
        raise GraphError("horizon shorter than a single step")
    return steps


def _check_h(g: MetricGraph, h: float):
    if not 0 < h < g.min_edge_length / 4.0:
        raise GraphError("step h must be positive and below a quarter edge length")


# -- results ------------------------------------------------------------------


@dataclass
class EnsembleResult:
    """Lockstep ensemble summary: endpoints, survival, and first-exit data."""

    graph: MetricGraph
    T: float
    h: float
    seed: int
    n_paths: int
    final_edge: np.ndarray  # edge index into graph.edges
    final_s: np.ndarray
    alive: np.ndarray
    exit_step: np.ndarray  # -1 when the path never left U (or no U tracked)
    exit_coord: np.ndarray  # arclength of the crossed cut on its edge
    exit_edge: np.ndarray
    engine: str

    def endpoint_coords(self) -> np.ndarray:
        """Global arclength coordinates of surviving endpoints."""
        offsets = {}
        acc = 0.0
        for i, e in enumerate(self.graph.edges):
            offsets[i] = acc
            acc += e.length
        off = np.array([offsets[i] for i in range(len(self.graph.edges))])
        coords = off[self.final_edge] + self.final_s
        return coords[self.alive]

    def exit_times(self) -> np.ndarray:
        steps = self.exit_step[self.exit_step >= 0]
        return steps * time_step(self.h)

    def stay_fraction(self) -> float:
        return float(np.mean(self.exit_step < 0))


# -- single-edge lattice engine -------------------------------------------------


def _is_lattice_interval(g: MetricGraph, x0: GraphPoint, h: float) -> bool:
    if len(g.edges) != 1 or g.edges[0].u == g.edges[0].v:
        return False
    m = g.edges[0].length / h
    p0 = x0.s / h
    return abs(m - round(m)) < 1e-9 and abs(p0 - round(p0)) < 1e-9


def _fold(z, m: int):
    r = np.mod(z, 2 * m)
    return np.minimum(r, 2 * m - r)


def _first_passage(seed: int, n_paths: int, steps: int, levels=None):
    """Free-walk totals with first-passage detection across two levels.

    The walk S starts at 0 and moves by +-1, one packed sign bit per step.
    The routine returns the total S at the horizon and, when
    ``levels = (lo, hi)`` with lo < 0 < hi is given, the first step at which
    S <= lo or S >= hi and the level reached there (-1 and 0 for paths that
    never reach one).  Every block is read as bytes and never unpacked: a
    block moves S by 2 * popcount - nb, and only paths that have not hit yet
    and start the block within nb steps of a level are scanned byte by byte
    (see ``_crossings``).
    """
    carry = np.zeros(n_paths, dtype=np.int64)
    hit_step = np.full(n_paths, -1, dtype=np.int64)
    hit_level = np.zeros(n_paths, dtype=np.int64)
    done = 0
    block = 0
    while done < steps:
        nb = min(_BLOCK, steps - done)
        raw = _block_bytes(seed, block, n_paths)
        if levels is not None:
            lo, hi = levels
            fresh = np.nonzero(
                (hit_step < 0) & ((hi - carry <= nb) | (carry - lo <= nb))
            )[0]
            # groups of rows small enough for the byte-major copies to stay
            # in cache
            for rows in np.split(fresh, range(_SCAN_ROWS, fresh.size, _SCAN_ROWS)):
                # thresholds beyond nb steps are unreachable; clip to int16
                lo_rel = np.maximum(lo - carry[rows], -nb - 1).astype(np.int16)
                hi_rel = np.minimum(hi - carry[rows], nb + 1).astype(np.int16)
                first, up = _crossings(raw[rows], nb, lo_rel, hi_rel)
                got = first >= 0
                hit_step[rows[got]] = done + 1 + first[got]
                hit_level[rows[got]] = np.where(up[got], hi, lo)
        if nb == _BLOCK:
            ups = np.bitwise_count(raw.view(np.uint64)).sum(axis=1, dtype=np.int64)
        else:
            whole, rest = divmod(nb, 8)
            ups = np.bitwise_count(raw[:, :whole]).sum(axis=1, dtype=np.int64)
            if rest:
                # the trailing byte holds its steps in its top `rest` bits
                ups += np.bitwise_count(raw[:, whole] >> (8 - rest))
        carry += 2 * ups - nb
        done += nb
        block += 1
    return carry, hit_step, hit_level


def _crossings(raw: np.ndarray, nb: int, lo_rel: np.ndarray, hi_rel: np.ndarray):
    """First step (0-based, -1 if none) among the first nb packed steps of
    each row at which the walk from 0 reaches lo_rel or hi_rel, and whether
    the level reached there is hi_rel.

    Each byte starts where the exclusive sum of the earlier byte sums puts
    the walk; adding the byte's running max (min) from ``_BYTE_MAX``
    (``_BYTE_MIN``) gives the highest (lowest) point the walk reaches inside
    it.  The first byte that reaches a level and the position table
    ``_BYTE_POS`` then give the exact step.
    """
    whole, rest = divmod(nb, 8)
    cols = whole + (rest > 0)
    col_bytes = np.ascontiguousarray(raw[:, :cols].T)  # byte-major, (cols, rows)
    start = np.zeros(col_bytes.shape, dtype=np.int16)
    sums = 2 * np.bitwise_count(col_bytes[:-1]).astype(np.int16) - 8
    for j in range(1, cols):
        np.add(start[j - 1], sums[j - 1], out=start[j])
    # the walk stays within 8 of where its byte starts, so only rows that
    # start some byte that close to a level need the tables
    rows = np.nonzero(
        (start.max(axis=0) >= hi_rel - 8) | (start.min(axis=0) <= lo_rel + 8)
    )[0]
    start, col_bytes = start[:, rows], col_bytes[:, rows]
    lo_rel, hi_rel = lo_rel[rows], hi_rel[rows]
    top = start + np.take(_BYTE_MAX[7], col_bytes)
    bottom = start + np.take(_BYTE_MIN[7], col_bytes)
    if rest:
        # only the top `rest` steps of the trailing byte belong to the block
        top[-1] = start[-1] + np.take(_BYTE_MAX[rest - 1], col_bytes[-1])
        bottom[-1] = start[-1] + np.take(_BYTE_MIN[rest - 1], col_bytes[-1])
    never = np.iinfo(np.int64).max
    cols_at = np.arange(rows.size)
    found = []
    for reach, sign, rel in ((top >= hi_rel, 1, hi_rel), (bottom <= lo_rel, -1, lo_rel)):
        j = reach.argmax(axis=0)  # first byte that reaches the level
        inside = start[j, cols_at] + _BYTE_POS[:, col_bytes[j, cols_at]]
        k = (sign * inside >= sign * rel).argmax(axis=0)
        found.append(np.where(reach.any(axis=0), 8 * j + k, never))
    i_hi, i_lo = found
    near_first = np.minimum(i_hi, i_lo)
    crossed = near_first < never
    first = np.full(raw.shape[0], -1, dtype=np.int64)
    up = np.zeros(raw.shape[0], dtype=bool)
    first[rows[crossed]] = near_first[crossed]
    up[rows[crossed]] = (i_hi <= i_lo)[crossed]
    return first, up


def _lattice_ensemble(
    g: MetricGraph,
    x0: GraphPoint,
    T: float,
    h: float,
    seed: int,
    n_paths: int,
    U: SubdomainSpec | None = None,
    splice_to=None,
) -> EnsembleResult:
    """Interval walk by reflection folding of the free lattice walk.

    Reflection at the ends commutes with folding, so only the free prefix
    sums are simulated; Dirichlet absorption and first exits from U are level
    crossings of the free walk (the nearest absorbing images around the
    start).  With splice_to=(graph_b, map_fn) exited paths continue on the
    second interval from the image of the cut they crossed.
    """
    edge = g.edges[0]
    m = int(round(edge.length / h))
    p0 = int(round(x0.s / h))
    steps = n_steps(T, h)
    d_left = g.condition(edge.u) == DIRICHLET
    d_right = g.condition(edge.v) == DIRICHLET

    level_lo = level_hi = None
    mode = "plain"
    if U is not None:
        if len(U.pieces) != 1:
            raise GraphError("lattice engine supports a single-interval U")
        _, lo, hi = U.pieces[0]
        c1, c2 = lo / h, hi / h
        if abs(c1 - round(c1)) > 1e-9 or abs(c2 - round(c2)) > 1e-9:
            raise GraphError("U cut points must sit on the step lattice")
        c1, c2 = int(round(c1)), int(round(c2))
        if not c1 < p0 < c2:
            raise GraphError("start point must lie inside U")
        # exits precede any contact with the interval ends
        level_lo, level_hi = c1 - p0, c2 - p0
        mode = "exit"
    elif d_left or d_right:
        # nearest absorbing images of the Dirichlet ends around the start
        if d_left and d_right:
            level_lo, level_hi = -p0, m - p0
        elif d_left:
            level_lo, level_hi = -p0, 2 * m - p0
        else:
            level_lo, level_hi = -m - p0, m - p0
        mode = "kill"

    g_b = None
    if splice_to is not None:
        if mode != "exit":
            raise GraphError("splicing requires U exit tracking")
        g_b, map_fn = splice_to
        edge_b = g_b.edges[0]
        m_b_f = edge_b.length / h
        m_b = int(round(m_b_f))
        if abs(m_b_f - m_b) > 1e-9:
            raise GraphError("second graph is not on the step lattice")
        if g_b.condition(edge_b.u) == DIRICHLET or g_b.condition(edge_b.v) == DIRICHLET:
            raise GraphError("lattice splice supports reflecting far ends only")

    s_total, hit_step, hit_level = _first_passage(
        seed, n_paths, steps, None if mode == "plain" else (level_lo, level_hi)
    )

    alive = np.ones(n_paths, dtype=bool)
    exit_step = np.full(n_paths, -1, dtype=np.int64)
    exit_coord = np.zeros(n_paths)
    final = _fold(p0 + s_total.astype(np.int64), m)

    if mode == "kill":
        killed = hit_step >= 0
        alive = ~killed
        end_pos = _fold(p0 + hit_level.astype(np.int64), m)
        final = np.where(killed, end_pos, final)
    elif mode == "exit":
        exited = hit_step >= 0
        exit_step = np.where(exited, hit_step, -1)
        cut_pos = p0 + hit_level  # equals c1 or c2 exactly
        exit_coord = np.where(exited, cut_pos.astype(float) * h, 0.0)
        if splice_to is not None:
            # continue on the second interval from the image of the cut
            cut_vals = np.unique(cut_pos[exited]) if exited.any() else []
            cut_b = np.zeros(n_paths, dtype=np.int64)
            for cv in cut_vals:
                img = map_fn(float(cv) * h) / h
                if abs(img - round(img)) > 1e-9:
                    raise GraphError("cut image is not on the step lattice")
                cut_b[cut_pos == cv] = int(round(img))
            # the free walk sat at hit_level when the cut was crossed
            cont = cut_b + (s_total.astype(np.int64) - hit_level.astype(np.int64))
            final_b = _fold(cont, m_b)
            # paths that never left U end inside it; carry them through the
            # isometry on the index lattice (exact for identity pieces)
            c1p, c2p = p0 + level_lo, p0 + level_hi
            lut = np.zeros(m + 1, dtype=np.int64)
            for idx in range(c1p, c2p + 1):
                lut[idx] = int(round(map_fn(idx * h) / h))
            final = np.where(exited, final_b, lut[final])

    graph_out = g_b if splice_to is not None else g
    return EnsembleResult(
        graph_out, T, h, seed, n_paths,
        np.zeros(n_paths, dtype=np.int64), final.astype(float) * h, alive,
        exit_step, exit_coord,
        np.zeros(n_paths, dtype=np.int64), "lattice",
    )


# -- general per-step engine -----------------------------------------------------


def _incidence_tables(g: MetricGraph):
    vids = {v.id: i for i, v in enumerate(g.vertices)}
    eids = {e.id: i for i, e in enumerate(g.edges)}
    max_deg = g.max_degree
    inc_edge = np.zeros((len(g.vertices), max_deg), dtype=np.int64)
    inc_end = np.zeros((len(g.vertices), max_deg), dtype=np.int64)
    deg = np.zeros(len(g.vertices), dtype=np.int64)
    for v in g.vertices:
        hs = g.incidence(v.id)
        deg[vids[v.id]] = len(hs)
        for j, (eid, end) in enumerate(hs):
            inc_edge[vids[v.id], j] = eids[eid]
            inc_end[vids[v.id], j] = end
    lengths = np.array([e.length for e in g.edges])
    end_vertex = np.array([[vids[e.u], vids[e.v]] for e in g.edges], dtype=np.int64)
    dirichlet = np.array([v.condition == DIRICHLET for v in g.vertices])
    return vids, eids, deg, inc_edge, inc_end, lengths, end_vertex, dirichlet


def _general_ensemble(
    g: MetricGraph,
    x0: GraphPoint,
    T: float,
    h: float,
    seed: int,
    n_paths: int,
    U: SubdomainSpec | None = None,
) -> EnsembleResult:
    (vids, eids, deg, inc_edge, inc_end, lengths, end_vertex, dirichlet) = (
        _incidence_tables(g)
    )
    steps = n_steps(T, h)
    edge = np.full(n_paths, eids[x0.edge], dtype=np.int64)
    s = np.full(n_paths, float(x0.s))
    at_vertex = np.full(n_paths, -1, dtype=np.int64)
    v0 = g.point_at_vertex(x0)
    if v0 is not None:
        at_vertex[:] = vids[v0]
    alive = np.ones(n_paths, dtype=bool)
    exit_step = np.full(n_paths, -1, dtype=np.int64)
    exit_coord = np.zeros(n_paths)
    exit_edge = np.zeros(n_paths, dtype=np.int64)

    u_lo = u_hi = u_cover = None
    v_inside = None
    if U is not None:
        u_lo = np.zeros(len(g.edges))
        u_hi = np.full(len(g.edges), -1.0)
        for eid, lo, hi in U.pieces:
            if u_hi[eids[eid]] >= 0:
                raise GraphError("general engine supports one U piece per edge")
            u_lo[eids[eid]] = lo
            u_hi[eids[eid]] = hi
        v_inside = np.array(
            [U._aux["inside"][v.id] for v in g.vertices], dtype=bool
        )

    for step in range(steps):
        u = _step_uniforms(seed, step, n_paths)
        moved = alive.copy()
        death_vertex = _advance(
            np.nonzero(moved)[0], u, edge, s, at_vertex, alive,
            deg, inc_edge, inc_end, lengths, end_vertex, dirichlet, h,
        )
        if U is not None:
            fresh = exit_step < 0
            on_edge = fresh & alive & (at_vertex < 0)
            out = np.zeros(n_paths, dtype=bool)
            cover = u_hi[edge] >= 0
            out[on_edge] = (~cover[on_edge]) | (s[on_edge] <= u_lo[edge[on_edge]]) | (
                s[on_edge] >= u_hi[edge[on_edge]]
            )
            at_v = fresh & alive & (at_vertex >= 0)
            out[at_v] = ~v_inside[at_vertex[at_v]]
            died = fresh & moved & ~alive
            out[died] = ~v_inside[death_vertex[died]]
            if out.any():
                ii = np.nonzero(out)[0]
                exit_step[ii] = step + 1
                near_lo = np.abs(s[ii] - u_lo[edge[ii]]) <= np.abs(s[ii] - u_hi[edge[ii]])
                exit_coord[ii] = np.where(near_lo, u_lo[edge[ii]], u_hi[edge[ii]])
                exit_edge[ii] = edge[ii]

    return EnsembleResult(
        g, T, h, seed, n_paths, edge, s.copy(), alive,
        exit_step, exit_coord, exit_edge, "general",
    )


def _advance(idx, u, edge, s, at_vertex, alive, deg, inc_edge, inc_end, lengths,
             end_vertex, dirichlet, h):
    """One walk step for the paths listed in idx (arrays updated in place).

    Returns the vertex index where each path died this step (-1 elsewhere).
    """
    death_vertex = np.full(len(alive), -1, dtype=np.int64)
    if len(idx) == 0:
        return death_vertex
    atv = idx[at_vertex[idx] >= 0]
    one = idx[at_vertex[idx] < 0]
    if len(atv):
        vidx = at_vertex[atv]
        choice = np.minimum((u[atv] * deg[vidx]).astype(np.int64), deg[vidx] - 1)
        new_edge = inc_edge[vidx, choice]
        new_end = inc_end[vidx, choice]
        edge[atv] = new_edge
        s[atv] = np.where(new_end == 0, h, lengths[new_edge] - h)
        at_vertex[atv] = -1
    if len(one):
        sign = np.where(u[one] < 0.5, -1.0, 1.0)
        s_new = s[one] + sign * h
        s[one] = s_new
        low = s_new <= 0.0
        high = s_new >= lengths[edge[one]]
        for mask, endside in ((low, 0), (high, 1)):
            if not mask.any():
                continue
            ii = one[mask]
            vid = end_vertex[edge[ii], endside]
            s[ii] = 0.0 if endside == 0 else lengths[edge[ii]]
            dead = dirichlet[vid]
            alive[ii[dead]] = False
            death_vertex[ii[dead]] = vid[dead]
            at_vertex[ii[~dead]] = vid[~dead]
    return death_vertex


def _lattice_compatible(g, x0, h, U) -> bool:
    if not _is_lattice_interval(g, x0, h):
        return False
    if U is not None:
        if len(U.pieces) != 1:
            return False
        _, lo, hi = U.pieces[0]
        if abs(lo / h - round(lo / h)) > 1e-9 or abs(hi / h - round(hi / h)) > 1e-9:
            return False
        edge = g.edges[0]
        if g.condition(edge.u) == DIRICHLET or g.condition(edge.v) == DIRICHLET:
            return False  # exit tracking plus absorption needs the general engine
    return True


def simulate_ensemble(
    g: MetricGraph,
    x0: GraphPoint,
    T: float,
    h: float,
    seed: int,
    n_paths: int,
    U: SubdomainSpec | None = None,
) -> EnsembleResult:
    """Lockstep ensemble of n_paths walkers started at x0."""
    _check_h(g, h)
    g.check_point(x0)
    if _lattice_compatible(g, x0, h, U):
        return _lattice_ensemble(g, x0, T, h, seed, n_paths, U=U)
    return _general_ensemble(g, x0, T, h, seed, n_paths, U=U)


# -- single-path simulation -------------------------------------------------------


@dataclass(frozen=True)
class PathSample:
    """One stored trajectory (possibly decimated) with its exact kill record."""

    graph: MetricGraph
    h: float
    positions: tuple[GraphPoint, ...]
    seed: int
    every: int
    killed: bool
    killed_time: float | None

    @property
    def dt(self) -> float:
        return time_step(self.h)

    def time_of(self, index: int) -> float:
        return index * self.every * self.dt


def simulate(
    g: MetricGraph,
    x0: GraphPoint,
    T: float,
    h: float,
    seed: int,
    every: int = 16,
) -> PathSample:
    """Single trajectory; positions stored every ``every`` steps."""
    _check_h(g, h)
    g.check_point(x0)
    (vids, eids, deg, inc_edge, inc_end, lengths, end_vertex, dirichlet) = (
        _incidence_tables(g)
    )
    ids = [e.id for e in g.edges]
    steps = n_steps(T, h)
    edge = eids[x0.edge]
    s = float(x0.s)
    at_vertex = vids[g.point_at_vertex(x0)] if g.point_at_vertex(x0) else -1
    positions = [GraphPoint(ids[edge], s)]
    killed = False
    killed_time = None
    for step in range(steps):
        u = float(_step_uniforms(seed, step, 1)[0])
        if at_vertex >= 0:
            j = min(int(u * deg[at_vertex]), deg[at_vertex] - 1)
            edge = int(inc_edge[at_vertex, j])
            s = h if inc_end[at_vertex, j] == 0 else float(lengths[edge]) - h
            at_vertex = -1
        else:
            s += -h if u < 0.5 else h
            if s <= 0.0 or s >= lengths[edge]:
                endside = 0 if s <= 0.0 else 1
                s = 0.0 if endside == 0 else float(lengths[edge])
                vid = int(end_vertex[edge, endside])
                if dirichlet[vid]:
                    killed = True
                    killed_time = (step + 1) * time_step(h)
                else:
                    at_vertex = vid
        if (step + 1) % every == 0 or step == steps - 1 or killed:
            positions.append(GraphPoint(ids[edge], s))
        if killed:
            break
    return PathSample(g, h, tuple(positions), seed, every, killed, killed_time)


def first_exit(path: PathSample, U: SubdomainSpec):
    """First stored sample outside U: (time, cut point), or None if it stays.

    The crossing position is snapped to the nearest cut point in the graph
    metric (within one step of the true crossing when the path is stored
    undecimated).
    """
    from .graph import distance

    if not U.contains(path.positions[0]):
        raise GraphError("path must start inside U")
    for i, p in enumerate(path.positions):
        if not U.contains(p):
            best = min(U.cut_points, key=lambda b: distance(path.graph, b, p))
            return path.time_of(i), best
    return None


# -- splicing ------------------------------------------------------------------


@dataclass(frozen=True)
class SpliceConfig:
    """Run recipe for a spliced ensemble: A inside U, B after the first exit."""

    graph_a: MetricGraph
    graph_b: MetricGraph
    U: SubdomainSpec
    iso: IsometryMap
    x0: GraphPoint
    T: float
    h: float
    n_paths: int
    seed: int

    def __post_init__(self):
        _check_horizon(self.T)
        if self.U.parent != self.graph_a:
            raise GraphError("U must be a subdomain of graph A")
        if not self.U.contains(self.x0):
            raise GraphError("start point must lie inside U")


def splice(cfg: SpliceConfig) -> EnsembleResult:
    """Simulate on A until the first exit from U, then continue on B.

    The exit point is carried through the isometry; the continuation consumes
    the same step bits a direct run would, so with A = B and the identity map
    the spliced ensemble is bitwise identical to direct simulation.  Interval
    pairs on the step lattice use the fast engine; other graphs fall back to
    the per-step engine.
    """
    _check_h(cfg.graph_a, cfg.h)
    _check_h(cfg.graph_b, cfg.h)
    for b in cfg.U.cut_points:
        cfg.iso.apply(b)  # exit points must have images
    if _lattice_splice_ok(cfg):
        def map_fn(s_a: float) -> float:
            return cfg.iso.apply(GraphPoint(cfg.U.pieces[0][0], s_a)).s

        return _lattice_ensemble(
            cfg.graph_a, cfg.x0, cfg.T, cfg.h, cfg.seed, cfg.n_paths,
            U=cfg.U, splice_to=(cfg.graph_b, map_fn),
        )
    return _general_splice(cfg)


def _lattice_splice_ok(cfg: SpliceConfig) -> bool:
    """Whether the fast interval engine can run this splice.

    The first graph's far-end conditions do not matter: exits through the cut
    points always precede any contact with the interval ends.
    """
    if not _is_lattice_interval(cfg.graph_a, cfg.x0, cfg.h):
        return False
    if len(cfg.graph_b.edges) != 1 or len(cfg.U.pieces) != 1:
        return False
    if any(p.sign <= 0 for p in cfg.iso.pieces):
        return False
    h = cfg.h
    _, lo, hi = cfg.U.pieces[0]
    if abs(lo / h - round(lo / h)) > 1e-9 or abs(hi / h - round(hi / h)) > 1e-9:
        return False
    edge_b = cfg.graph_b.edges[0]
    if abs(edge_b.length / h - round(edge_b.length / h)) > 1e-9:
        return False
    if edge_b.u == edge_b.v:
        return False
    if (
        cfg.graph_b.condition(edge_b.u) == DIRICHLET
        or cfg.graph_b.condition(edge_b.v) == DIRICHLET
    ):
        return False
    return True


def _general_splice(cfg: SpliceConfig) -> EnsembleResult:
    """Per-step splice for arbitrary graphs; exact rule, small-scale speed."""
    g_a, g_b = cfg.graph_a, cfg.graph_b
    ta = _incidence_tables(g_a)
    tb = _incidence_tables(g_b)
    (vids_a, eids_a, deg_a, ie_a, in_a, len_a, ev_a, dir_a) = ta
    (vids_b, eids_b, deg_b, ie_b, in_b, len_b, ev_b, dir_b) = tb
    ids_b = [e.id for e in g_b.edges]
    n = cfg.n_paths
    steps = n_steps(cfg.T, cfg.h)
    h = cfg.h

    u_lo = np.zeros(len(g_a.edges))
    u_hi = np.full(len(g_a.edges), -1.0)
    for eid, lo, hi in cfg.U.pieces:
        if u_hi[eids_a[eid]] >= 0:
            raise GraphError("splice supports one U piece per edge")
        u_lo[eids_a[eid]] = lo
        u_hi[eids_a[eid]] = hi
    v_inside = np.array(
        [cfg.U._aux["inside"][v.id] for v in g_a.vertices], dtype=bool
    )

    edge = np.full(n, eids_a[cfg.x0.edge], dtype=np.int64)
    s = np.full(n, float(cfg.x0.s))
    at_vertex = np.full(n, -1, dtype=np.int64)
    v0 = g_a.point_at_vertex(cfg.x0)
    if v0 is not None:
        at_vertex[:] = vids_a[v0]
    on_b = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    exit_step = np.full(n, -1, dtype=np.int64)
    exit_coord = np.zeros(n)
    exit_edge = np.zeros(n, dtype=np.int64)

    for step in range(steps):
        u = _step_uniforms(cfg.seed, step, n)
        idx_a = np.nonzero(alive & ~on_b)[0]
        dead_v = _advance(idx_a, u, edge, s, at_vertex, alive,
                          deg_a, ie_a, in_a, len_a, ev_a, dir_a, h)
        idx_b = np.nonzero(alive & on_b)[0]
        _advance(idx_b, u, edge, s, at_vertex, alive,
                 deg_b, ie_b, in_b, len_b, ev_b, dir_b, h)
        # first exits from U switch the path onto graph B at the mapped cut;
        # a same-step absorption beyond the cut is discarded, the spliced
        # path never went past the boundary
        out = np.zeros(n, dtype=bool)
        sel = np.nonzero((~on_b) & (at_vertex < 0) & alive)[0]
        if len(sel):
            cover = u_hi[edge[sel]] >= 0
            out[sel] = (~cover) | (s[sel] <= u_lo[edge[sel]]) | (
                s[sel] >= u_hi[edge[sel]]
            )
        at_v = np.nonzero((~on_b) & (at_vertex >= 0) & alive)[0]
        if len(at_v):
            out[at_v] = ~v_inside[at_vertex[at_v]]
        died = np.zeros(n, dtype=bool)
        died[idx_a] = ~alive[idx_a]
        out[died & (dead_v >= 0)] = ~v_inside[dead_v[died & (dead_v >= 0)]]
        new_exits = np.nonzero(out & (exit_step < 0) & ~on_b)[0]
        for i in new_exits:
            eid_a = g_a.edges[edge[i]].id
            lo, hi = u_lo[edge[i]], u_hi[edge[i]]
            if hi < 0:
                cuts = [b for b in cfg.U.cut_points]
                cut = min(cuts, key=lambda b: abs(b.s - s[i]) if b.edge == eid_a else 1e18)
            else:
                cut = GraphPoint(eid_a, lo if abs(s[i] - lo) <= abs(s[i] - hi) else hi)
            img = cfg.iso.apply(cut)
            exit_step[i] = step + 1
            exit_coord[i] = cut.s
            exit_edge[i] = edge[i]
            edge[i] = eids_b[img.edge]
            s[i] = img.s
            at_vertex[i] = -1
            alive[i] = True  # a same-step kill beyond the cut is void
            on_b[i] = True

    # report everything in graph-B coordinates; paths still inside U map over
    # in their own (edge, s) representation, which vertex coverage guarantees
    for i in np.nonzero(~on_b & alive)[0]:
        img = cfg.iso.apply(GraphPoint(g_a.edges[edge[i]].id, float(s[i])))
        edge[i] = eids_b[img.edge]
        s[i] = img.s
    return EnsembleResult(
        g_b, cfg.T, cfg.h, cfg.seed, n, edge, s.copy(), alive,
        exit_step, exit_coord, exit_edge, "general",
    )


# -- ensemble comparison -----------------------------------------------------------


def histogram_counts(values: np.ndarray, lo: float, hi: float, bins: int):
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return counts.astype(float), edges


def _merge_small(c1: np.ndarray, c2: np.ndarray, min_expected: float = 5.0):
    """Merge adjacent bins until every pooled expected count is adequate."""
    c1, c2 = list(c1), list(c2)
    n1, n2 = sum(c1), sum(c2)
    total = n1 + n2
    i = 0
    while i < len(c1):
        pool = c1[i] + c2[i]
        e1 = pool * n1 / total if total else 0.0
        e2 = pool * n2 / total if total else 0.0
        if (e1 < min_expected or e2 < min_expected) and len(c1) > 1:
            j = i + 1 if i + 1 < len(c1) else i - 1
            c1[j] += c1[i]
            c2[j] += c2[i]
            del c1[i], c2[i]
            if j < i:
                i = j
        else:
            i += 1
    return np.array(c1), np.array(c2)


def chi_square_two_sample(c1: np.ndarray, c2: np.ndarray) -> tuple[float, float]:
    """Pearson statistic and p-value for two binned samples."""
    c1, c2 = _merge_small(np.asarray(c1, float), np.asarray(c2, float))
    if len(c1) < 2:
        raise GraphError("insufficient counts after merging bins")
    n1, n2 = c1.sum(), c2.sum()
    total = n1 + n2
    stat = 0.0
    for b in range(len(c1)):
        pool = c1[b] + c2[b]
        e1 = pool * n1 / total
        e2 = pool * n2 / total
        stat += (c1[b] - e1) ** 2 / e1 + (c2[b] - e2) ** 2 / e2
    dof = len(c1) - 1
    return float(stat), float(_chi2.sf(stat, dof))


def compare_ensembles(
    e1: EnsembleResult,
    e2: EnsembleResult,
    statistic: str = "endpoint-histogram",
    bins: int = 20,
) -> tuple[float, float]:
    """Chi-square comparison of two ensembles; returns (statistic, p-value)."""
    if abs(e1.T - e2.T) > 1e-12 or abs(e1.h - e2.h) > 1e-12:
        raise GraphError("ensembles must share horizon and step")
    if statistic == "endpoint-histogram":
        v1, v2 = e1.endpoint_coords(), e2.endpoint_coords()
        lo, hi = 0.0, max(e1.graph.total_length, e2.graph.total_length)
    elif statistic == "exit-time-histogram":
        v1, v2 = e1.exit_times(), e2.exit_times()
        lo, hi = 0.0, e1.T
    else:
        raise GraphError(f"unknown statistic {statistic!r}")
    c1, _ = histogram_counts(v1, lo, hi, bins)
    c2, _ = histogram_counts(v2, lo, hi, bins)
    return chi_square_two_sample(c1, c2)

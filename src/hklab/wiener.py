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

There is one general engine and one fast path.  The general engine walks
every path in lockstep, one step at a time, on any graph.  It serves direct
runs, runs that record first exits from U, and splices, where each path
carries a flag saying whether it has crossed over to the second graph; a
single stored trajectory is its ensemble of one path.  The fast path is the
single-interval lattice engine.  One check, ``_lattice_refusal``, decides
whether a run fits it, and an ensemble the general engine ran records the
check's reason in ``EnsembleResult.lattice_refusal``.

The lattice engine never unpacks the random bits.  A block of
1024 steps arrives as 128 packed bytes per path, step k in bit 7 - k % 8 of
byte k // 8 (most significant bit first, the order of ``np.unpackbits``).
The walk total over a block is 2 * popcount - nb.  First passages come from
256-entry byte tables of the walk's position, running max and running min
inside a byte: each byte starts at the sum of the bytes before it, so a
block's extremes and its exact first crossing take a pass over bytes, not
steps.  The outputs are bit-identical to unpacking every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as _chi2

from .graph import DIRICHLET, GraphError, GraphPoint, MetricGraph, _check_time
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


def n_steps(T: float, h: float) -> int:
    _check_time(T, "horizon T")
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
    lattice_refusal: str = ""  # why the lattice engine did not run; "" if it did

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


def _lattice_refusal(g, x0, h, U=None, splice_to=None) -> str | None:
    """Why the interval lattice engine cannot run this ensemble; None if it can.

    The lattice engine folds one free walk on the step lattice, and first
    exits from U are level crossings of that walk.  So the graph must be one
    interval, U one piece that ends at two cut points inside it, and the
    length, the start, the cuts and, when splicing, the second interval and
    the cut images must all be whole multiples of h.  A direct run cannot
    track exits and absorb at a Dirichlet end at once.  A splice continues
    on a second interval with reflecting ends through an orientation-keeping
    map; the first interval's ends do not matter, since exits through the
    cut points precede any contact with them.
    """
    if len(g.edges) != 1 or g.edges[0].u == g.edges[0].v:
        return "graph is not a single interval"
    edge = g.edges[0]
    marks = [edge.length, x0.s]
    if U is not None:
        if len(U.pieces) != 1:
            return "U has more than one piece"
        if len(U.cut_points) != 2:
            return "U reaches an end of the interval"
        marks += [b.s for b in U.cut_points]
        if splice_to is None and DIRICHLET in (g.condition(edge.u), g.condition(edge.v)):
            return "exit tracking on an interval with a Dirichlet end"
    if splice_to is not None:
        g_b, iso, images = splice_to
        if len(g_b.edges) != 1 or g_b.edges[0].u == g_b.edges[0].v:
            return "second graph is not a single interval"
        edge_b = g_b.edges[0]
        if DIRICHLET in (g_b.condition(edge_b.u), g_b.condition(edge_b.v)):
            return "second interval has a Dirichlet end"
        if any(p.sign <= 0 for p in iso.pieces):
            return "map reverses orientation"
        marks += [edge_b.length] + [b.s for b in images]
    if any(abs(v / h - round(v / h)) > 1e-9 for v in marks):
        return "a length, start, cut point or cut image is off the step lattice"
    return None


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
    start).  With splice_to=(graph_b, iso, images of U's cut points) exited
    paths continue on the second interval from the image of the cut they
    crossed.  Only runs that ``_lattice_refusal`` accepts come here.
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
        _, lo, hi = U.pieces[0]
        c1, c2 = int(round(lo / h)), int(round(hi / h))
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
            g, _, images = splice_to  # the run ends on the second interval
            m_b = int(round(g.edges[0].length / h))
            # the map is a translation by a whole number of steps
            b1, b2 = (int(round(img.s / h)) for img in images)
            cut_b = np.where(hit_level == level_hi, b2, b1)
            # continue on the second interval from the image of the cut; the
            # free walk sat at hit_level when the cut was crossed
            cont = cut_b + (s_total.astype(np.int64) - hit_level.astype(np.int64))
            # paths that never left U end inside it and move with the map
            final = np.where(exited, _fold(cont, m_b), final + (b1 - c1))

    return EnsembleResult(
        g, T, h, seed, n_paths,
        np.zeros(n_paths, dtype=np.int64), final.astype(float) * h, alive,
        exit_step, exit_coord,
        np.zeros(n_paths, dtype=np.int64), "lattice",
    )


# -- general per-step engine -----------------------------------------------------


def _incidence_tables(g: MetricGraph):
    """Vertex and edge indices, and the tables ``_advance`` walks with."""
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
    return vids, eids, (deg, inc_edge, inc_end, lengths, end_vertex, dirichlet)


def _general_walk(
    g: MetricGraph,
    x0: GraphPoint,
    T: float,
    h: float,
    seed: int,
    n_paths: int,
    U: SubdomainSpec | None = None,
    splice_to=None,
):
    """Lockstep per-step walk on any graph.

    A generator: it yields the path state (edge, s, alive) after every step
    and returns the EnsembleResult.  Step m of every path draws the m-th
    uniform of the same stream, so path 0 of an ensemble is the single path
    of its seed.  With U, each path's first exit from U is recorded: the
    step, the crossed cut and its edge.  With splice_to=(graph_b, iso,
    images of U's cut points), an exit also snaps the path to the cut and
    moves it to the cut's image on graph B, where it walks from then on
    (the per-path flag on_b); a same-step absorption beyond the cut is void,
    since the spliced path never went past the boundary.  A splice reports
    every path in graph-B coordinates.
    """
    vids, eids, tables = _incidence_tables(g)
    steps = n_steps(T, h)
    edge = np.full(n_paths, eids[x0.edge], dtype=np.int64)
    s = np.full(n_paths, float(x0.s))
    at_vertex = np.full(n_paths, -1, dtype=np.int64)
    v0 = g.point_at_vertex(x0)
    if v0 is not None:
        at_vertex[:] = vids[v0]
    alive = np.ones(n_paths, dtype=bool)
    on_b = np.zeros(n_paths, dtype=bool)
    exit_step = np.full(n_paths, -1, dtype=np.int64)
    exit_coord = np.zeros(n_paths)
    exit_edge = np.zeros(n_paths, dtype=np.int64)

    if U is not None:
        # an edge without a U piece keeps hi = -1: every point on it is out
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
    if splice_to is not None:
        g_b, iso, images = splice_to
        _, eids_b, tables_b = _incidence_tables(g_b)
        # graph-B edge and arclength of the image of each edge's lo (column
        # 0) and hi (column 1) cut point
        img_edge = np.zeros((len(g.edges), 2), dtype=np.int64)
        img_s = np.zeros((len(g.edges), 2))
        for cut, img in zip(U.cut_points, images):
            k = eids[cut.edge]
            side = int(cut.s == u_hi[k])
            img_edge[k, side] = eids_b[img.edge]
            img_s[k, side] = img.s

    for step in range(steps):
        u = _step_uniforms(seed, step, n_paths)
        died_at = _advance(
            np.nonzero(alive & ~on_b)[0], u, edge, s, at_vertex, alive, tables, h
        )
        if splice_to is not None:
            _advance(np.nonzero(alive & on_b)[0], u, edge, s, at_vertex, alive,
                     tables_b, h)
        if U is not None:
            fresh = exit_step < 0
            out = np.zeros(n_paths, dtype=bool)
            on_edge = fresh & alive & (at_vertex < 0)
            k = edge[on_edge]
            out[on_edge] = (s[on_edge] <= u_lo[k]) | (s[on_edge] >= u_hi[k])
            at_v = fresh & alive & (at_vertex >= 0)
            out[at_v] = ~v_inside[at_vertex[at_v]]
            died = fresh & (died_at >= 0)
            out[died] = ~v_inside[died_at[died]]
            if out.any():
                ii = np.nonzero(out)[0]
                k = edge[ii]
                # the nearer of the edge's two cut points: 0 for lo, 1 for hi
                side = (np.abs(s[ii] - u_lo[k]) > np.abs(s[ii] - u_hi[k])).astype(int)
                exit_step[ii] = step + 1
                exit_coord[ii] = np.where(side, u_hi[k], u_lo[k])
                exit_edge[ii] = k
                if splice_to is not None:
                    edge[ii] = img_edge[k, side]
                    s[ii] = img_s[k, side]
                    at_vertex[ii] = -1
                    alive[ii] = True
                    on_b[ii] = True
        yield edge, s, alive

    if splice_to is not None:
        # paths still inside U map over in their own (edge, s) representation,
        # which vertex coverage guarantees
        for i in np.nonzero(~on_b & alive)[0]:
            img = iso.apply(GraphPoint(g.edges[edge[i]].id, float(s[i])))
            edge[i] = eids_b[img.edge]
            s[i] = img.s
        g = g_b  # the run ends on graph B
    return EnsembleResult(
        g, T, h, seed, n_paths, edge, s.copy(), alive,
        exit_step, exit_coord, exit_edge, "general",
    )


def _run(walk, refusal: str) -> EnsembleResult:
    """Drive a general walk to its horizon and record why the lattice engine
    did not run it."""
    while True:
        try:
            next(walk)
        except StopIteration as end:
            end.value.lattice_refusal = refusal
            return end.value


def _advance(idx, u, edge, s, at_vertex, alive, tables, h):
    """One walk step for the paths listed in idx (arrays updated in place).

    Returns the vertex index where each path died this step (-1 elsewhere).
    """
    deg, inc_edge, inc_end, lengths, end_vertex, dirichlet = tables
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


def simulate_ensemble(
    g: MetricGraph,
    x0: GraphPoint,
    T: float,
    h: float,
    seed: int,
    n_paths: int,
    U: SubdomainSpec | None = None,
) -> EnsembleResult:
    """Lockstep ensemble of n_paths walkers started at x0; with U, the first
    exit of each path from U is recorded."""
    _check_h(g, h)
    g.check_point(x0)
    if U is not None and U.parent != g:
        raise GraphError("U must be a subdomain of the graph")
    if U is not None and not U.contains(x0):
        raise GraphError("start point must lie inside U")
    refusal = _lattice_refusal(g, x0, h, U)
    if refusal is None:
        return _lattice_ensemble(g, x0, T, h, seed, n_paths, U)
    return _run(_general_walk(g, x0, T, h, seed, n_paths, U), refusal)


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
    """Single trajectory; positions stored every ``every`` steps.

    The path is the general engine's ensemble of one path, recorded until
    the horizon or until it is absorbed.
    """
    _check_h(g, h)
    g.check_point(x0)
    ids = [e.id for e in g.edges]
    steps = n_steps(T, h)
    positions = [GraphPoint(x0.edge, float(x0.s))]
    killed, killed_time = False, None
    for step, (edge, s, alive) in enumerate(_general_walk(g, x0, T, h, seed, 1)):
        killed = not alive[0]
        if (step + 1) % every == 0 or step == steps - 1 or killed:
            positions.append(GraphPoint(ids[edge[0]], float(s[0])))
        if killed:
            killed_time = (step + 1) * time_step(h)
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
        _check_time(self.T, "horizon T")
        if self.U.parent != self.graph_a:
            raise GraphError("U must be a subdomain of graph A")
        if not self.U.contains(self.x0):
            raise GraphError("start point must lie inside U")


def splice(cfg: SpliceConfig) -> EnsembleResult:
    """Simulate on A until the first exit from U, then continue on B.

    The exit point is carried through the isometry; the continuation consumes
    the same step bits a direct run would, so with A = B and the identity map
    the spliced ensemble is bitwise identical to direct simulation on the
    lattice engine.  Runs that ``_lattice_refusal`` turns down use the
    per-step engine.
    """
    _check_h(cfg.graph_a, cfg.h)
    _check_h(cfg.graph_b, cfg.h)
    # exit points must have images; each is computed once, here
    images = tuple(cfg.iso.apply(b) for b in cfg.U.cut_points)
    splice_to = (cfg.graph_b, cfg.iso, images)
    run = (cfg.graph_a, cfg.x0, cfg.T, cfg.h, cfg.seed, cfg.n_paths, cfg.U, splice_to)
    refusal = _lattice_refusal(cfg.graph_a, cfg.x0, cfg.h, cfg.U, splice_to)
    if refusal is None:
        return _lattice_ensemble(*run)
    return _run(_general_walk(*run), refusal)


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

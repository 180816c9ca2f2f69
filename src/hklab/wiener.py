"""Random-walk realization of graph diffusion, first exits, and splicing.

Walk convention: steps of size h along an edge, each advancing time by h^2/2,
so the walk variance per unit time is 2 and the limit matches the
exp(-d^2/4t) kernels.  At a Kirchhoff vertex the next step leaves along a
uniformly chosen incident half-edge (the arrival edge included); Dirichlet
vertices absorb.

Randomness is counter-based: step m of every path draws from a Philox stream
keyed by (base seed, block index) with a fixed block size, so ensembles are
bitwise reproducible for a given seed no matter how the work is scheduled,
and a spliced run consumes exactly the bits a direct run would.  A key is the
numpy SeedSequence hash of (seed, stream, counter) -- stream 2 and the block
index for the lattice engine, stream 3 and the step index for the general
engine -- and ``_keys`` computes it on uint32 arrays for 1024 counters at a
time, ahead of the steps or blocks that use them.  The general engine resets
one Philox bit generator to each step's key, so the stream is the one
``SeedSequence`` and a fresh ``Generator`` would give, without building
either per step.  It reads the raw 64-bit words: a word's top bit is the
step's sign, and only a path that leaves a vertex turns its word into the
double ``Generator.random`` would give.

There is one general engine and one fast path.  The general engine walks
every path in lockstep, one step at a time, on any graph's bond table.  It serves direct
runs, runs that record first exits from U, and splices, which walk on the
disjoint union of the two graphs: a path whose edge index lies past the
first graph's edges has crossed over.  Each path carries two event levels,
the arclengths on its edge at or beyond which a step can change more than
its position: 0 and the edge length, or, while it is tracked in U, the
nearer of those and of U's cut points; -inf and inf while it stands at a
vertex or is dead.  A step is one add over all paths and one two-sided
compare with the levels.  Only the paths that compare returns, and those
leaving a vertex, go through the exact arrival and exit tests.

The fast path is the single-interval lattice engine.  One check,
``_lattice_refusal``, decides whether a run fits it, and an ensemble the
general engine ran records the check's reason in
``EnsembleResult.lattice_refusal``.

The lattice engine never unpacks the random bits.  A block of
1024 steps arrives as 128 packed bytes per path, step k in bit 7 - k % 8 of
byte k // 8 (most significant bit first, the order of ``np.unpackbits``).
The walk total over a block is 2 * popcount - nb.  The popcounts of a
block's sixteen 64-step words also bound how high and how low each path can
go in the block, and only paths not yet hit whose bound reaches a level are
scanned for a first passage.  The scan uses 256-entry byte tables of the
walk's position, running max and running min inside a byte: each byte starts
at the sum of the bytes before it, so a block's extremes and its exact first
crossing take a pass over bytes, not steps.  The bound is exact arithmetic
on counts, so the outputs are bit-identical to unpacking every step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import DIRICHLET, GraphError, GraphPoint, MetricGraph, _bond_table, _check_time
from .locality import IsometryMap, SubdomainSpec

_BLOCK = 1024  # steps per RNG block; fixed forever for reproducibility
_BLOCK_BYTES = _BLOCK // 8
_SCAN_ROWS = 4096  # paths per group in the first-passage scan

_log = logging.getLogger(__name__)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which numpy keeps
# stable: the pool size, the hash and mix multipliers, and the xorshift
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _stream_keys(seed: int, stream: int, m: np.ndarray) -> np.ndarray:
    """Philox keys of counters m of a stream, shape (len(m), 2) uint64.

    Row i equals ``SeedSequence(entropy=(seed, stream, m[i])).generate_state(2,
    np.uint64)`` for the seed folded to 63 bits: the same hash, run on uint32
    arrays over all m at once.  A counter must fit one 32-bit word.
    """
    m = np.asarray(m, dtype=np.int64)
    if m.size and (m.min() < 0 or m.max() > _MASK32):
        raise ValueError("a key counter must fit one 32-bit word")
    seed = int(seed) & (2**63 - 1)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    words = [np.full(m.shape, w, dtype=np.uint32) for w in seed_words + [stream]]
    words.append(m.astype(np.uint32))
    words += [np.zeros(m.shape, dtype=np.uint32)] * (_POOL - len(words))
    mult = _INIT_A

    def hashmix(v):
        nonlocal mult
        v = v ^ np.uint32(mult)
        mult = (mult * _MULT_A) & _MASK32
        v = v * np.uint32(mult)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in words]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    mult = _INIT_B
    state = np.empty(m.shape + (4,), dtype=np.uint32)
    for i in range(4):
        v = pool[i] ^ np.uint32(mult)
        mult = (mult * _MULT_B) & _MASK32
        v = v * np.uint32(mult)
        state[..., i] = v ^ (v >> np.uint32(16))
    # two words make one little-endian uint64, as in generate_state
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _keys(seed: int, stream: int, count: int):
    """Yield the keys of counters 0 .. count - 1 of a stream, derived _BLOCK
    counters at a time so that memory stays bounded for any count."""
    for first in range(0, count, _BLOCK):
        yield from _stream_keys(seed, stream, np.arange(first, min(first + _BLOCK, count)))


def _block_bytes(key: np.ndarray, n_paths: int) -> np.ndarray:
    """Packed sign bits of one block, path-major shape (n_paths, BLOCK // 8),
    from the Philox stream with the block's key (stream 2, block index).

    Step k of a path is bit 7 - k % 8 of its byte k // 8, the MSB-first order
    of ``np.unpackbits``; a set bit is a step up.  These are the bytes of
    ``Generator(Philox(key=key)).bytes``, which fills uint32 words from the
    64-bit Philox outputs, low half first: the raw outputs, little-endian.
    """
    raw = np.random.Philox(key=key).random_raw(_BLOCK_BYTES // 8 * n_paths)
    return raw.astype("<u8", copy=False).view(np.uint8).reshape(n_paths, _BLOCK_BYTES)


def _byte_tables():
    """Walk within one byte, MSB first: row l holds, for all 256 bytes, the
    position after step l + 1 and the running max and min over steps 1..l+1."""
    bits = (np.arange(256) >> np.arange(7, -1, -1)[:, None]) & 1
    pos = np.cumsum(2 * bits - 1, axis=0).astype(np.int16)
    return pos, np.maximum.accumulate(pos), np.minimum.accumulate(pos)


_BYTE_POS, _BYTE_MAX, _BYTE_MIN = _byte_tables()


_UP = np.uint64(1 << 63)  # a step word at or above this moves the path up
_FRAC_SHIFT = np.uint64(11)  # Generator.random keeps a word's top 53 bits


def _step_words(seed: int, steps: int, n_paths: int):
    """Yield the raw Philox words of steps 0 .. steps - 1, n_paths per step.

    Step m reads the Philox stream keyed by (seed, 3, m) from counter zero.
    ``Generator.random`` would make the double (w >> 11) * 2**-53 of word w,
    which is below 0.5 exactly when w < 2**63.  One bit generator is reset
    to each key.
    """
    bitgen = np.random.Philox(0)  # any seed: every step sets its own key
    state = bitgen.state  # counter zero and an empty buffer
    for key in _keys(seed, 3, steps):
        state["state"]["key"] = key
        bitgen.state = state
        yield bitgen.random_raw(n_paths)


def time_step(h: float) -> float:
    """Duration of one +-h step (h^2/2, giving walk variance 2 per unit time)."""
    return 0.5 * h * h


def n_steps(T: float, h: float) -> int:
    """Steps in the horizon T, 1 to 2**32: a step key's counter fits 32 bits."""
    _check_time(T, "horizon T")
    if not T <= 2.0**32 * time_step(h):
        raise GraphError(f"horizon T={T:g} takes more than 2**32 steps of h={h:g}")
    steps = int(round(T / time_step(h)))
    if steps < 1:
        raise GraphError("horizon shorter than a single step")
    return steps


def _check_h(g: MetricGraph, h: float):
    if not 0 < h < g.min_edge_length / 4.0:
        raise GraphError("step h must be positive and below a quarter edge length")


def _check_start(g: MetricGraph, x0: GraphPoint):
    """Refuse a start point off the graph or on a Dirichlet vertex, which
    absorbs every path at time 0."""
    v = g.point_at_vertex(x0)
    if v is not None and g.condition(v) == DIRICHLET:
        raise GraphError(f"start point lies on Dirichlet vertex {v!r}", offending=v)


def _check_count_and_seed(n_paths, seed):
    """Refuse a path count or seed that is not an integer (a float or a bool
    is not), and a count below 1."""
    for name, value in (("n_paths", n_paths), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise GraphError(f"{name} must be an integer, got {value!r}")
    if n_paths < 1:
        raise GraphError("n_paths must be at least 1")


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
        lengths = [e.length for e in self.graph.edges]
        off = np.cumsum([0.0] + lengths[:-1])  # edge offsets, summed in edge order
        return (off[self.final_edge] + self.final_s)[self.alive]

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
    block moves S by 2 * popcount - nb.  The up-counts of its 64-step words
    bound how far each path can move inside it (``_word_bounds``), and only
    paths that have not hit yet and whose bound reaches a level are scanned
    byte by byte (see ``_crossings``).  One DEBUG record on this module's
    logger counts the blocks, the unhit rows tested, the rows scanned and
    the hits.
    """
    carry = np.zeros(n_paths, dtype=np.int64)
    hit_step = np.full(n_paths, -1, dtype=np.int64)
    hit_level = np.zeros(n_paths, dtype=np.int64)
    n_blocks = -(-steps // _BLOCK)
    done = tested = scanned = hits = 0
    for key in _keys(seed, 2, n_blocks):
        nb = min(_BLOCK, steps - done)
        raw = _block_bytes(key, n_paths)
        # up-steps of each 64-step word, word-major: (BLOCK // 64, n_paths)
        word_ups = np.ascontiguousarray(np.bitwise_count(raw.view(np.uint64)).T)
        if levels is not None:
            lo, hi = levels
            # the bound covers all BLOCK steps, and so a partial block too;
            # hi - carry and lo - carry can lie past int16, so compare in int64
            top, bottom = _word_bounds(word_ups)
            rows = np.nonzero(
                (hit_step < 0) & ((top >= hi - carry) | (bottom <= lo - carry))
            )[0]
            tested += n_paths - hits
            scanned += rows.size
            # groups of rows small enough for the byte-major copies to stay
            # in cache
            for group in np.split(rows, range(_SCAN_ROWS, rows.size, _SCAN_ROWS)):
                # thresholds beyond nb steps are unreachable; clip to int16
                lo_rel = np.maximum(lo - carry[group], -nb - 1).astype(np.int16)
                hi_rel = np.minimum(hi - carry[group], nb + 1).astype(np.int16)
                first, up = _crossings(raw[group], nb, lo_rel, hi_rel)
                got = first >= 0
                hit_step[group[got]] = done + 1 + first[got]
                hit_level[group[got]] = np.where(up[got], hi, lo)
                hits += int(np.count_nonzero(got))
        if nb == _BLOCK:
            ups = word_ups.sum(axis=0, dtype=np.int16)
        else:
            whole, rest = divmod(nb, 8)
            ups = np.bitwise_count(raw[:, :whole]).sum(axis=1, dtype=np.int64)
            if rest:
                # the trailing byte holds its steps in its top `rest` bits
                ups += np.bitwise_count(raw[:, whole] >> (8 - rest))
        carry += 2 * ups - nb
        done += nb
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("first passage: %d blocks, %d unhit rows tested, %d byte-scanned, "
                   "%d hits", n_blocks, tested, scanned, hits)
    return carry, hit_step, hit_level


def _word_bounds(word_ups: np.ndarray):
    """Highest and lowest point a block's walk from 0 can reach, bounded
    from the up-counts u_j of its 64-step words, word-major shape
    (BLOCK // 64, rows).

    Word j starts at s_j = sum over i < j of (2 u_i - 64) and stays within
    [s_j + u_j - 64, s_j + u_j], so every prefix of the block stays within
    [min_j (s_j + u_j) - 64, max_j (s_j + u_j)].
    """
    reach = word_ups[0].astype(np.int16)  # s_j + u_j, from j = 0
    top, bottom = reach.copy(), reach.copy()
    # s_j + u_j = (s_{j-1} + u_{j-1}) + u_{j-1} + u_j - 64, added in place
    for j in range(1, len(word_ups)):
        reach += word_ups[j - 1]
        reach += word_ups[j]
        reach -= 64
        np.maximum(top, reach, out=top)
        np.minimum(bottom, reach, out=bottom)
    return top, bottom - 64


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


def _general_walk(
    g: MetricGraph,
    x0: GraphPoint,
    T: float,
    h: float,
    seed: int,
    n_paths: int,
    U: SubdomainSpec | None = None,
    splice_to=None,
    *,
    refusal: str,
) -> EnsembleResult:
    """Lockstep per-step walk on any graph.

    Step m of every path draws the m-th word of the same stream.  The walk
    steps on the bond table (``graph._bond_table``) of the disjoint union of
    the graphs, graph B's edges following A's: a path that reaches end
    ``end`` of union edge i is in state 2 i + end, whose Dirichlet and
    outside-U flags decide its fate, and it departs along one of the state's
    moves, which follow ``g.incidence`` at that vertex.  Levels change only
    when a path changes edge, leaves U or reaches a vertex.  s <= max(0, u_lo)
    holds exactly when s <= 0 or s <= u_lo, and likewise for the upper level,
    so the level compare misses no event, and every path's arclength still
    takes the same sequence of float adds.  With U, each path's first exit
    from U is recorded: the step, the crossed cut and its edge.  With
    splice_to=(graph_b, iso, images of U's cut points), the paths walk on the
    union of g and graph B: an exit also snaps the path to the cut and moves
    it, through the map piece of its edge, to the cut's image on graph B,
    where it walks from then on; a same-step absorption beyond the cut is
    void, since the spliced path never went past the boundary.  A splice
    reports every path in graph-B coordinates: the paths still on A at the
    horizon, alive inside U or absorbed at a Dirichlet vertex in it, go
    through the same map pieces in one pass.  The result
    records ``refusal``, the reason ``_lattice_refusal`` gave for not running
    the lattice engine.
    """
    graphs = (g,) if splice_to is None else (g, splice_to[0])
    n_a = len(g.edges)
    eids = {e.id: i for i, e in enumerate(g.edges)}
    lengths = np.array([e.length for x in graphs for e in x.edges])
    n_e = lengths.size
    # union bond table: graph B's states follow A's, offset by 2 n_a; the
    # moves of state i are first[i], ..., first[i] + n_moves[i] - 1
    bonds = [_bond_table(x) for x in graphs]
    rows, cols = (np.concatenate([b[c] + off for b, off in zip(bonds, (0, 2 * n_a))])
                  for c in (0, 1))
    first = np.searchsorted(rows, np.arange(2 * n_e))
    n_moves = np.diff(first, append=rows.size)
    # a move leads into edge col >> 1, one step from the end it leaves by
    move_edge = cols >> 1
    move_s = np.where(cols & 1, h, lengths[move_edge] - h)
    # by state: the arclength of its end, and whether its vertex absorbs
    end_s = np.stack([np.zeros(n_e), lengths], axis=1).ravel()
    dirichlet = np.array([x.condition(v) == DIRICHLET
                          for x in graphs for e in x.edges for v in (e.u, e.v)])
    steps = n_steps(T, h)
    e0 = eids[x0.edge]
    edge = np.full(n_paths, e0, dtype=np.int64)
    s = np.full(n_paths, float(x0.s))
    alive = np.ones(n_paths, dtype=bool)
    exit_step = np.full(n_paths, -1, dtype=np.int64)
    exit_coord = np.zeros(n_paths)
    exit_edge = np.zeros(n_paths, dtype=np.int64)

    # event levels by edge, a path's first row while it is tracked inside U
    # and its second once it is not: a step can take a path to a vertex or
    # across a cut only if it ends at or beyond one of them
    lev_lo = np.zeros(2 * n_e)
    lev_hi = np.concatenate([lengths, lengths])
    if U is not None:
        # an edge without a U piece keeps hi = -1: every point on it is out;
        # graph-B entries do not matter, since only paths on g are tracked
        u_lo = np.zeros(n_e)
        u_hi = np.full(n_e, -1.0)
        for eid, lo, hi in U.pieces:
            if u_hi[eids[eid]] >= 0:
                raise GraphError("general engine supports one U piece per edge")
            u_lo[eids[eid]] = lo
            u_hi[eids[eid]] = hi
        lev_lo[:n_e] = np.maximum(0.0, u_lo)
        lev_hi[:n_e] = np.minimum(lengths, u_hi)
        # graph-B states are left unmarked: no tracked path reaches them
        outside = np.zeros(2 * n_e, dtype=bool)
        outside[:2 * n_a] = [not U.contains(GraphPoint(e.id, end * e.length))
                             for e in g.edges for end in (0, 1)]
    if splice_to is not None:
        _, iso, _ = splice_to
        eids_b = {e.id: n_a + i for i, e in enumerate(splice_to[0].edges)}
        # the map piece that holds each edge's U piece: its B edge, lo_a,
        # hi_a, lo_b and sign, by edge of A
        img, held = np.zeros((5, n_a)), set()
        for p in iso.pieces:
            k = eids.get(p.edge_a)
            if k is not None and p.lo_a <= u_lo[k] < u_hi[k] <= p.hi_a:
                img[:, k] = eids_b[p.edge_b], p.lo_a, p.hi_a, p.lo_b, p.sign
                held.add(k)
        if len(held) < len(U.pieces):
            raise GraphError("a piece of U has no image under the map")
        img_edge, lo_a, hi_a, lo_b, sign = img[0].astype(np.int64), *img[1:]

        def image(k, s_a):
            """``MapPiece.apply`` of each arclength s_a on its edge k of A."""
            return np.where(sign[k] > 0, lo_b[k] + (s_a - lo_a[k]), lo_b[k] + (hi_a[k] - s_a))

    lo = np.full(n_paths, lev_lo[e0])
    hi = np.full(n_paths, lev_hi[e0])
    # paths that stand at a vertex, which they leave on the next step, and
    # their states
    depart = depart_at = np.zeros(0, dtype=np.int64)
    if g.point_at_vertex(x0) is not None:
        depart = np.arange(n_paths)
        depart_at = np.full(n_paths, 2 * e0 + (x0.s > 0), dtype=np.int64)
        lo[:], hi[:] = -np.inf, np.inf
    s_end = np.zeros(n_paths)  # where each path last reached a vertex
    # a word's top bit flips the sign bit of -h: the step is -h for a word
    # below 2**63 (u < 0.5) and +h for one at or above
    minus_h = np.float64(-h).view(np.uint64)

    for step, raw in enumerate(_step_words(seed, steps, n_paths)):
        # every path takes the step: one at a vertex gets its arclength from
        # its departure below, and a dead one its final arclength from s_end
        s += ((raw & _UP) ^ minus_h).view(np.float64)
        hit = ((s <= lo) | (s >= hi)).nonzero()[0]
        if depart.size:
            # the double Generator.random makes of the word picks the move
            u = (raw[depart] >> _FRAC_SHIFT) * 2.0**-53
            d = n_moves[depart_at]
            move = first[depart_at] + np.minimum((u * d).astype(np.int64), d - 1)
            k = move_edge[move]
            edge[depart] = k
            s[depart] = move_s[move]
            k += n_e * (exit_step[depart] >= 0)
            lo[depart] = lev_lo[k]
            hi[depart] = lev_hi[k]
            if U is not None:
                # a departure cannot reach a vertex, but it can cross a cut
                hit = np.concatenate(
                    [hit, depart[(s[depart] <= lo[depart]) | (s[depart] >= hi[depart])]])
        if not hit.size:
            depart = depart_at = depart[:0]
            continue
        k = edge[hit]
        at_end = (s[hit] <= 0.0) | (s[hit] >= lengths[k])
        arrived, k = hit[at_end], k[at_end]
        state = 2 * k + (s[arrived] > 0.0)
        s[arrived] = s_end[arrived] = end_s[state]
        stay = ~dirichlet[state]
        alive[arrived] = stay
        lo[arrived], hi[arrived] = -np.inf, np.inf
        cross = hit[~at_end]
        if U is not None and (cross.size or outside[state].any()):
            # a path that reached a vertex, absorbed or not, is out exactly
            # when the vertex is; one that hit a level elsewhere is out when
            # it is at or beyond a cut
            ii = np.concatenate([arrived, cross])
            kc = edge[cross]
            out = np.concatenate(
                [outside[state], (s[cross] <= u_lo[kc]) | (s[cross] >= u_hi[kc])])
            out &= exit_step[ii] < 0
            if out.any():
                ii = ii[out]
                k = edge[ii]
                # the nearer of the edge's two cut points
                side = np.abs(s[ii] - u_lo[k]) > np.abs(s[ii] - u_hi[k])
                exit_step[ii] = step + 1
                exit_coord[ii] = np.where(side, u_hi[k], u_lo[k])
                exit_edge[ii] = k
                if splice_to is not None:
                    edge[ii] = img_edge[k]
                    s[ii] = image(k, exit_coord[ii])
                    alive[ii] = True
                    # an exit at a vertex goes on from B's edge, not from there
                    stay &= ~out[:arrived.size]
                    cross = np.concatenate([cross, ii])
            # crossings, and exits that moved to B, take the levels of the
            # edge they are on now
            k = edge[cross] + n_e * (exit_step[cross] >= 0)
            lo[cross] = lev_lo[k]
            hi[cross] = lev_hi[k]
        depart, depart_at = arrived[stay], state[stay]

    s = np.where(alive, s, s_end)
    if splice_to is not None:
        on_b = edge >= n_a
        edge[on_b] -= n_a
        # paths still on A, alive inside U or absorbed at a Dirichlet vertex
        # in it, map over through their edge's piece
        ii = np.nonzero(~on_b)[0]
        k = edge[ii]
        edge[ii] = img_edge[k] - n_a
        s[ii] = image(k, s[ii])
        g = splice_to[0]  # the run ends on graph B
    return EnsembleResult(
        g, T, h, seed, n_paths, edge, s, alive,
        exit_step, exit_coord, exit_edge, "general", refusal,
    )


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
    _check_count_and_seed(n_paths, seed)
    _check_h(g, h)
    _check_start(g, x0)
    if U is not None and U.parent != g:
        raise GraphError("U must be a subdomain of the graph")
    if U is not None and not U.contains(x0):
        raise GraphError("start point must lie inside U")
    refusal = _lattice_refusal(g, x0, h, U)
    if refusal is None:
        return _lattice_ensemble(g, x0, T, h, seed, n_paths, U)
    return _general_walk(g, x0, T, h, seed, n_paths, U, refusal=refusal)


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
        _check_count_and_seed(self.n_paths, self.seed)
        if self.U.parent != self.graph_a:
            raise GraphError("U must be a subdomain of graph A")
        if not self.U.contains(self.x0):
            raise GraphError("start point must lie inside U")
        _check_start(self.graph_a, self.x0)


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
    return _general_walk(*run, refusal=refusal)


# -- ensemble comparison -----------------------------------------------------------


def histogram_counts(values: np.ndarray, lo: float, hi: float, bins: int):
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return counts.astype(float), edges


def _merge_small(c1: np.ndarray, c2: np.ndarray):
    """Merge adjacent bins until every pooled expected count is at least 5."""
    c1, c2 = list(c1), list(c2)
    n1, n2 = sum(c1), sum(c2)
    total = n1 + n2
    i = 0
    while i < len(c1):
        pool = c1[i] + c2[i]
        e1 = pool * n1 / total if total else 0.0
        e2 = pool * n2 / total if total else 0.0
        if (e1 < 5 or e2 < 5) and len(c1) > 1:
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
    return float(stat), _chi2_sf(float(stat), dof)


def _chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square law with integer dof at x.

    This is Q(dof/2, x/2) in closed form: erfc(sqrt(x/2)) for odd dof plus
    the terms (x/2)^a e^{-x/2} / Gamma(a + 1) for a = 0 (even dof) or 1/2
    (odd dof) upward in steps of 1 while a < dof/2, each summed from log
    space so that large x underflows to 0 rather than overflowing.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    a = 0.5 * (dof % 2)
    total = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    while a < 0.5 * dof:
        total += math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        a += 1.0
    return total


def compare_ensembles(
    e1: EnsembleResult,
    e2: EnsembleResult,
    statistic: str = "endpoint-histogram",
    bins: int = 20,
) -> tuple[float, float]:
    """Chi-square comparison of two ensembles by "endpoint-histogram", the
    one statistic; returns (statistic, p-value)."""
    if abs(e1.T - e2.T) > 1e-12 or abs(e1.h - e2.h) > 1e-12:
        raise GraphError("ensembles must share horizon and step")
    if statistic != "endpoint-histogram":
        raise GraphError(f"unknown statistic {statistic!r}")
    hi = max(e1.graph.total_length, e2.graph.total_length)
    c1, _ = histogram_counts(e1.endpoint_coords(), 0.0, hi, bins)
    c2, _ = histogram_counts(e2.endpoint_coords(), 0.0, hi, bins)
    return chi_square_two_sample(c1, c2)

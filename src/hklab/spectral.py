"""Eigenvalues and eigenfunctions of the graph Laplacian; spectral heat kernel.

Roots k of the secular equation are counted exactly, with multiplicity, by
the eigenphases of the bond-scattering matrix U(k) = sigma e^{ikL}, read off
a real symmetric Cayley transform (``_phases``).  The root search isolates,
steps by Newton, and certifies: the count on one grid of cells at most
pi / l_max wide brackets the roots; Newton on the eigenphases that cross 0
in a bracket, whose derivative is q^T Lambda q (Hellmann-Feynman), finds its
roots, and splits the bracket where the count shows separate roots; and one
more count just below and just above every root confirms it and its
multiplicity.  The modes come from the null space of I - U(k)^T at the root.

``eigen`` returns a ``ModeTable``: the frequencies and per-edge coefficients
of every mode as read-only arrays.  The vertex check, the eigen report and the
traces read those arrays, and ``modesum`` sums the kernel over them with times
and arclengths broadcast as in ``kernels.pathsum``; ``kernel_spectral`` is its
one-pair view, which a table serves from the mode rows and time factors it
remembers.

The same count gives proven bounds on what a table leaves out, at one time or
an array of times, and ``_certified_k_max`` is the one rule for the k_max a
tolerance needs.
"""

from __future__ import annotations

import logging
import math
import threading
from itertools import groupby

import numpy as np

from .graph import (DIRICHLET, GraphError, GraphPoint, MetricGraph, _bond_table, _check_time,
                    _one_time)
from .kernels import KernelEval, TruncationError, _check_tol


# bytes a mode table may remember for kernel_spectral, rows and time factors
# together, each entry counted as 256 bytes more than its array
_MODE_MEMO_BYTES = 1 << 22


class ModeTable:
    """The modes of one graph, as read-only arrays.

    On edge e mode m is A cos(k s) + B sin(k s), s the arclength from the
    u-endpoint; for k = 0 it is affine, A + B s.  ``k`` holds the
    frequencies, shape (M,); ``searched_to`` is the k up to which the table
    holds every mode, the k_max ``eigen`` was given, or the largest
    frequency (0 without modes) for a table built by hand;
    ``coef[m, i]`` is the (A, B) of mode m on edge i of ``g.edges``, shape
    (M, E, 2); ``col`` maps an edge id to i; ``graph`` is g.

    For ``kernel_spectral`` a table remembers the mode row of each point,
    keyed by (edge id, float(s)), and at each time the factors e^{-k^2 t}
    with ``spectral_tail_bound(g, t, searched_to)``, keyed by float(t).  The
    memo is cleared whenever its next entry would take it past
    _MODE_MEMO_BYTES, and a pickled table arrives without it.  ``at`` and
    ``modesum`` do not use it, so their grids of one-off points do not fill it.
    """

    def __init__(self, g: MetricGraph, k, coef, searched_to: float | None = None):
        self.graph = g
        self.col = {e.id: i for i, e in enumerate(g.edges)}
        self.k = np.array(k, dtype=float)
        self.searched_to = float(self.k.max(initial=0.0) if searched_to is None else searched_to)
        self.coef = np.array(coef, dtype=float).reshape(len(self.k), len(g.edges), 2)
        # per edge and mode: the cos and sin coefficients, and the slope of
        # the affine k = 0 modes, shape (E, 3, M)
        a, b = self.coef.T
        affine = self.k == 0.0
        self._basis = np.stack([a, np.where(affine, 0.0, b), np.where(affine, b, 0.0)],
                               axis=1)
        self._neg_k2 = -self.k**2
        for arr in (self.k, self.coef, self._basis, self._neg_k2):
            arr.flags.writeable = False
        self._memo, self._memo_bytes, self._memo_lock = {}, 0, threading.Lock()

    def __len__(self) -> int:
        return len(self.k)

    def __reduce__(self):
        return ModeTable, (self.graph, self.k, self.coef, self.searched_to)

    def at(self, edges, s: np.ndarray) -> np.ndarray:
        """Every mode at the points (edges[j], s[j]), shape (len(s), M)."""
        rows, cos, sin = self._trig(edges, s)
        return rows[:, 0] * cos + rows[:, 1] * sin + rows[:, 2] * s[:, None]

    def _trig(self, edges, s: np.ndarray):
        """Basis rows (len(s), 3, M), cos k s and sin k s (len(s), M) at the points."""
        try:
            rows = self._basis.take([self.col[eid] for eid in edges], axis=0)
        except KeyError as exc:
            raise GraphError(f"mode table has no edge {exc.args[0]!r}") from None
        ks = s[:, None] * self.k
        return rows, np.cos(ks), np.sin(ks)

    def _row(self, p: GraphPoint) -> np.ndarray:
        """Every mode at p, shape (M,), remembered; p is checked the first time."""
        key = (p.edge, float(p.s))
        row = self._memo.get(key)
        if row is None:
            self.graph.check_point(p)
            row = self.at((p.edge,), np.array([key[1]]))[0]
            self._remember(key, row, row.nbytes)
        return row

    def _at_time(self, t: float) -> tuple[np.ndarray, float]:
        """(e^{-k^2 t} per mode, ``spectral_tail_bound`` at t), remembered."""
        factors = self._memo.get(t)
        if factors is None:
            factors = _decay(self, t), spectral_tail_bound(self.graph, t, self.searched_to)
            self._remember(t, factors, factors[0].nbytes)
        return factors

    def _remember(self, key, value, nbytes: int):
        """Store value, holding nbytes of arrays, under key in the memo; the
        lock keeps the byte count exact when threads share the table, and a
        key another thread stored first is counted once."""
        size = 256 + nbytes
        with self._memo_lock:
            if key in self._memo:
                return
            used = self._memo_bytes + size
            if used > _MODE_MEMO_BYTES:
                self._memo.clear()
                used = size
            self._memo_bytes, self._memo[key] = used, value


# -- the modes of every root ----------------------------------------------------


def _norm_matrix(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """Gram matrices of the per-edge (cos, sin) basis in L2(G) at positive k,
    block diagonal, one per k of a stack, shape (len(ks), 2E, 2E)."""
    ell, k = np.array([e.length for e in g.edges]), ks[:, None]
    wave = np.sin(2 * k * ell) / (4 * k)
    i = np.arange(0, 2 * ell.size, 2)
    gram = np.zeros((ks.size, 2 * ell.size, 2 * ell.size))
    gram[:, i, i], gram[:, i + 1, i + 1] = ell / 2.0 + wave, ell / 2.0 - wave
    gram[:, i, i + 1] = gram[:, i + 1, i] = np.sin(k * ell) ** 2 / (2 * k)
    return gram


def _null_modes(g: MetricGraph, ks: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Coefficient rows of the modes of roots ks that share one multiplicity
    m, orthonormal in L2(G), shape (len(ks), m, 2E) with (A, B) per edge,
    from the m rows a[r] of each root.

    The incoming bond amplitudes of a mode satisfy a = U(k)^T a, so the rows
    of a span them when they are the conjugated m smallest right-singular
    vectors of I - U(k)^T (``_null_vectors``).  On edge i the mode is
    alpha e^{iks} + beta e^{-iks} with beta = a[2i], coming in at s = 0, and
    alpha = a[2i+1] e^{-ik l_i}, coming in at s = l_i; so A = alpha + beta and
    B = i(alpha - beta).  The real and imaginary parts of these rows span the
    real modes; the Gram matrix of _norm_matrix orthonormalizes them, keeping
    its m largest eigenvalues.
    """
    r, m, n = a.shape
    beta = a[:, :, 0::2]
    alpha = a[:, :, 1::2] * np.exp(-1j * ks[:, None, None]
                                   * np.array([e.length for e in g.edges]))
    coef = np.stack([alpha + beta, 1j * (alpha - beta)], axis=3).reshape(r, m, n)
    rows = np.concatenate([coef.real, coef.imag], axis=1)
    evals, evecs = np.linalg.eigh(rows @ _norm_matrix(g, ks) @ rows.transpose(0, 2, 1))
    return (evecs[:, :, -m:] / np.sqrt(evals[:, None, -m:])).transpose(0, 2, 1) @ rows


def _constant_modes(g: MetricGraph) -> np.ndarray:
    """Coefficient rows, shape (c, 2E), of one k = 0 mode per connected
    component without a Dirichlet vertex."""
    dvv = g.vertex_distances()
    comps: list[set[str]] = []
    for v in g.vertices:
        for comp in comps:
            if dvv[(v.id, next(iter(comp)))] < math.inf:
                comp.add(v.id)
                break
        else:
            comps.append({v.id})
    rows = []
    for comp in comps:
        if any(g.condition(vid) == DIRICHLET for vid in comp):
            continue
        vol = sum(e.length for e in g.edges if e.u in comp)
        amp = 1.0 / math.sqrt(vol)
        rows.append([x for e in g.edges for x in (amp if e.u in comp else 0.0, 0.0)])
    return np.array(rows, dtype=float).reshape(len(rows), 2 * len(g.edges))


# eigen refuses a k_max whose Weyl count L k_max / pi is above this many modes
_MAX_MODES = 100_000
# matrix entries per stack of bond-scattering matrices (32 MiB of complex)
_STACK = 2**21
# relative width of the window k(1 +- _CERTIFY) over which the count certifies
# each root; brackets this narrow are not narrowed further
_CERTIFY = 1e-13
# the aim of a count with no phases known, not a rational multiple of pi, where
# the phases of equal-length graphs gather; and the |H| that aims a count again
_AIM, _REAIM = 2.0, 30.0

_log = logging.getLogger(__name__)


def _bond_unitary(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """The bond-scattering matrices U(k) = sigma e^{ikL} on ``graph._bond_table``,
    one per k of a stack, shape (len(ks), 2E, 2E)."""
    rows, cols, sigma, lengths = _bond_table(g)
    n = 2 * len(g.edges)
    u = np.zeros((ks.size, n, n), dtype=complex)
    u[:, rows, cols] = sigma * np.exp(1j * np.outer(ks, lengths))
    return u


def _chunks(ks: np.ndarray, n: int) -> list[np.ndarray]:
    """ks in stacks of at most _STACK entries of n x n matrices."""
    return np.array_split(ks, max(1, -(-ks.size * n * n // _STACK)))


def _bond_form(g: MetricGraph) -> np.ndarray:
    """B' = Q^T (sigma J) Q (cached per graph): sigma = U(0), J swaps the states
    2i and 2i + 1 of edge i, and Q turns them by (1, 1)/sqrt2 and (1, -1)/sqrt2.
    sigma J holds sigma_v between the half-edges at each vertex v, so it is
    symmetric and an involution, as every vertex matrix is, and so is B'."""
    if g._tables["bond_form"] is None:
        rows, cols, sigma, _ = _bond_table(g)
        n = 2 * len(g.edges)
        sigma_j = np.zeros((n, n))
        sigma_j[rows, cols ^ 1] = sigma
        q = np.kron(np.eye(n // 2), [[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        g._tables["bond_form"] = q.T @ sigma_j @ q
    return g._tables["bond_form"]


def _aim(phase: np.ndarray) -> np.ndarray:
    """The middle of the largest gap between the phases of each row, on the circle."""
    s = np.sort(phase, axis=1)
    gap = np.diff(s, axis=1, append=s[:, :1] + 2.0 * math.pi)
    i = gap.argmax(axis=1)[:, None]
    return np.take_along_axis(s + 0.5 * gap, i, axis=1)[:, 0] % (2.0 * math.pi)


def _phases(g: MetricGraph, ks: np.ndarray, alpha: np.ndarray, vectors: bool = False):
    """(theta, speed, again): the eigenphases in [0, 2pi) of U(k), one row per
    k of a stack, aimed at alpha, one per k; with vectors, also d theta / dk
    of each, and else None; and how many rows were aimed again.

    With D = diag(e^{ikl/2}, i e^{ikl/2}) on each edge, U(k) is unitarily
    similar to U~ = D B' D (``_bond_form``), complex symmetric and unitary, so
    its Cayley transform H = Re[i (e^{i alpha} + U~)(e^{i alpha} - U~)^-1] is
    real symmetric, with eigenvalues lambda = -cot((theta - alpha) / 2),
    rising strictly with theta over (alpha, alpha + 2pi).  ``eigvalsh`` has
    them within about eps |H|, so theta within about 2 eps |H|: a row with
    |H| above _REAIM, a phase within 2 / _REAIM of alpha, is done again aimed
    at the middle of its largest gap, where |H| < 4E / pi.  So the phases are
    within about 2 eps _REAIM = 1.3e-14 of exact on graphs of up to 23 edges.
    d theta / dk is v^H Lambda v over a unit eigenvector v of U, Lambda the
    diagonal of bond lengths (Hellmann-Feynman); D is diagonal and Q mixes
    only the two ends of one edge, so it is sum_i l_i q_i^2 over the real
    eigenvector q of H.
    """
    b, ell = _bond_form(g), np.repeat([e.length for e in g.edges], 2)
    n, alpha = ell.size, alpha.copy()
    lam, speed = np.empty((ks.size, n)), np.empty((ks.size, n))
    odd = np.pi * (np.arange(n) % 2)  # the factor i of D, halved

    def cayley(rows):
        for i in _chunks(rows, n):
            # w = e^{-i alpha} U~(k) = (e^{-i alpha/2} D) B' (e^{-i alpha/2} D)
            d = np.exp(0.5j * (np.outer(ks[i], ell) - alpha[i, None] + odd))
            w = d[:, :, None] * b * d[:, None, :]
            h = np.linalg.solve(np.eye(n) - w, np.eye(n) + w).imag
            h = -0.5 * (h + h.transpose(0, 2, 1))
            if vectors:
                lam[i], q = np.linalg.eigh(h)
                speed[i] = ell @ q**2
            else:
                lam[i] = np.linalg.eigvalsh(h)
        return (alpha[:, None] + math.pi + 2.0 * np.arctan(lam)) % (2.0 * math.pi)

    theta = cayley(np.arange(ks.size))
    again = np.flatnonzero(np.maximum(-lam[:, 0], lam[:, -1]) > _REAIM)
    if again.size:
        alpha[again] = _aim(theta[again])
        theta = cayley(again)
    return theta, speed if vectors else None, again.size


def _count(g: MetricGraph, ks: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """(k sum_b L_b - sum_j theta_j(k)) / 2pi from the eigenphases theta_j in
    [0, 2pi) of U(k), one row of ``phases`` per k.

    U is unitary and det U turns as e^{ik sum_b L_b} with sum_b L_b twice the
    total length, while each eigenphase turns forward; so this is an integer
    plus a constant, and it steps up by m where m eigenphases pass through 0:
    at a root k of multiplicity m (Kottos & Smilansky, Ann. Phys. 274, 1999).
    """
    return (2.0 * g.total_length * ks - phases.sum(axis=1)) / (2.0 * math.pi)


def _roots(g: MetricGraph, k_lo: float, k_max: float):
    """(k, m, count): the distinct roots in (k_lo, k_max] and their
    multiplicities, each certified by the exact count, and the count of roots
    there with multiplicity; see ``eigen``."""
    ell = np.repeat([e.length for e in g.edges], 2)  # Lambda: bond 2i + end lies on edge i
    n = ell.size
    # isolate: the count on a grid of cells at most pi / l_max wide, across
    # which no eigenphase turns by more than pi; a cell (lo, hi] over which it
    # jumps, by m, is a bracket
    cells = max(1, math.ceil((k_max - k_lo) * ell.max() / math.pi))
    grid = np.linspace(k_lo, k_max, cells + 1)
    phase, _, again = _phases(g, grid, np.full(grid.size, _AIM))
    # matrices taken to isolate, in Newton and to certify; and aimed again
    tally = np.array([grid.size + again, 0, 0, again])
    counts = _count(g, grid, phase)
    base = counts[0]
    n_grid = np.rint(counts - base).astype(int)
    jump = np.flatnonzero(n_grid[1:] > n_grid[:-1])
    lo, hi, n_lo = grid[jump], grid[jump + 1], n_grid[jump]
    m = n_grid[jump + 1] - n_lo
    # Newton on the sum of each bracket's m crossing eigenphases, from its
    # midpoint; w1 and w2 are its widths one and two rounds back.  Each count
    # aims alpha at the middle of the largest gap between the bracket's last
    # phases, turned on by their mean speed L / E over the step to k
    k = 0.5 * (lo + hi)
    alpha = _aim(phase[jump]) + ell.mean() * (k - lo)
    w1 = w2 = np.full(k.size, math.inf)
    found, rounds = [(np.empty(0), np.empty(0, dtype=int), np.empty(0))], 0
    while k.size:
        rounds += 1
        phase, speed, again = _phases(g, k, alpha, vectors=True)
        tally[[1, 3]] += k.size + again, again
        alpha = _aim(phase)
        c = np.clip(np.rint(_count(g, k, phase) - base).astype(int) - n_lo, 0, m)
        # the bracket's crossings are the c smallest phases, which passed 0 in
        # (lo, k], and the m - c largest, less 2pi, which pass it in (k, hi]:
        # eigenphases turn forward and keep their order
        slot = np.arange(m.max())
        ahead = slot < (m - c)[:, None]
        pick = np.take_along_axis(np.argsort(phase, axis=1),
                                  (slot - (m - c)[:, None]) % n, axis=1)
        theta = np.take_along_axis(phase, pick, axis=1) - 2.0 * math.pi * ahead
        speed = np.take_along_axis(speed, pick, axis=1)
        used = slot < m[:, None]
        # the phases within 1e-13 k l_min of 0 are one root at k, of their
        # multiplicity, placed by one more Newton step
        tol = 1e-13 * ell.min() * k[:, None]
        zero = used & (np.abs(theta) <= tol)
        at = zero.any(axis=1)
        f, fp = (np.where(zero, x, 0.0)[at].sum(axis=1) for x in (theta, speed))
        found.append((np.clip(k[at] - f / fp, lo[at], hi[at]), zero.sum(axis=1)[at], alpha[at]))
        # the bracket splits at k into (lo, k], holding the phases that crossed
        # 0 before k, and (k, hi], holding those that cross it after; one part
        # is empty unless the bracket holds separate roots
        part = np.concatenate([used & (theta > tol), used & (theta < -tol)])
        f, fp = (np.where(part, np.concatenate([x, x]), 0.0).sum(axis=1)
                 for x in (theta, speed))
        crossed, coming = part.sum(axis=1).reshape(2, -1)
        lo, hi = np.concatenate([lo, k]), np.concatenate([k, hi])
        n_lo, m = np.concatenate([n_lo, n_lo + m - coming]), np.concatenate([crossed, coming])
        k, alpha, w1, w2 = (np.concatenate([x, x]) for x in (k, alpha, w1, w2))
        keep = m > 0
        lo, hi, n_lo, m, k, alpha, w1, w2, f, fp = (
            x[keep] for x in (lo, hi, n_lo, m, k, alpha, w1, w2, f, fp))
        # safeguard: a Newton point inside the part is taken, unless the part
        # is not half as wide as two rounds back; otherwise bisect
        width = hi - lo
        nxt = k - f / fp
        newton = (lo < nxt) & (nxt < hi) & (width <= 0.5 * w2)
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        k, alpha = nxt, alpha + ell.mean() * (nxt - k)
        w1, w2 = width, w1
        narrow = width <= _CERTIFY * hi
        found.append((0.5 * (lo + hi)[narrow], m[narrow], alpha[narrow]))
        lo, hi, n_lo, m, k, alpha, w1, w2 = (
            x[~narrow] for x in (lo, hi, n_lo, m, k, alpha, w1, w2))
    roots, mult, alpha = (np.concatenate(x) for x in zip(*found))
    order = np.argsort(roots)
    roots, mult, alpha = roots[order], mult[order], alpha[order]
    # roots whose certifying windows overlap are one root that rounding split
    starts = np.flatnonzero(np.r_[True, roots[1:] * (1.0 - _CERTIFY)
                                  > roots[:-1] * (1.0 + _CERTIFY)])[:roots.size]
    roots = np.add.reduceat(roots, starts) / np.diff(np.r_[starts, roots.size])
    mult, alpha = np.add.reduceat(mult, starts), alpha[starts]
    window = np.concatenate([roots * (1.0 - _CERTIFY), roots * (1.0 + _CERTIFY)])
    phase, _, again = _phases(g, window, np.tile(alpha, 2))
    tally[[2, 3]] += window.size + again, again
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("eigen: %d grid cells, %d Newton rounds, %d/%d/%d matrices "
                   "(grid/Newton/certify), %d aimed again", cells, rounds, *tally.tolist())
    below, above = np.rint(_count(g, window, phase) - base).astype(int).reshape(2, -1)
    bad = np.flatnonzero((below != np.cumsum(mult) - mult) | (above != np.cumsum(mult)))
    if bad.size:
        i = bad[0]
        raise GraphError(f"root k={roots[i]} of multiplicity {mult[i]} is not certified: "
                         f"the exact count steps by {above[i] - below[i]} across it")
    return roots, mult, int(n_grid[-1])


def _null_vectors(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """Right-singular vectors of I - U(k)^T, smallest singular value last, for
    each k of a stack: one batched SVD, shape (len(ks), 2E, 2E)."""
    n = 2 * len(g.edges)
    return np.concatenate([np.linalg.svd(np.eye(n) - _bond_unitary(g, k).transpose(0, 2, 1))[2]
                           for k in _chunks(ks, n)])


def eigen(g: MetricGraph, k_max: float) -> ModeTable:
    """All modes with frequency k <= k_max, orthonormal in L2(G).

    N(k), the number of roots in (0, k] with multiplicity, is counted exactly
    by ``_count`` from k_lo = pi/4L, below every positive root (the first
    eigenvalue is at least (pi/2L)^2, Nicaise 1987).  The roots are found in
    three steps, each batched over all brackets:

    * isolate: the count on a uniform grid of (k_lo, k_max] in cells at most
      pi / l_max wide, across which no eigenphase turns by more than pi; a
      cell over which N jumps, by m, is a bracket.  l_max <= L, so there are
      at most about L k_max / pi + 1 cells, one per mode;
    * Newton: from the bracket's midpoint, step on the sum of the m
      eigenphases that cross 0 in it, less 2pi for each not yet across, with
      derivative the sum of q^T Lambda q over their real unit eigenvectors
      (Hellmann-Feynman, ``_phases``), one ``eigh`` stack a round.  The count
      at the iterate k splits the bracket: phases within 1e-13 k l_min of 0
      are a root at k, the others go to (lo, k] or (k, hi] by whether they
      crossed 0 before k, and two nonempty parts hold separate roots.  Only a
      Newton point outside its part, or a part not half as wide as two rounds
      back, gives way to bisection; a part 1e-13 relative wide is a root;
    * certify: one batched count at k(1 -+ 1e-13) around every root confirms
      it and its multiplicity, or ``GraphError`` is raised.  Roots whose
      windows overlap are first merged into one, at their mean with their
      summed multiplicity: rounding can pull the eigenphases of a multiple
      root apart, and separate null spaces would give modes that are not
      orthogonal.

    Every count aims its Cayley transform (``_phases``) at 2.0 on the grid,
    and otherwise at the middle of the largest gap between the bracket's last
    phases, turned by their mean speed L / E over the step.  One DEBUG
    record on this module's logger gives the grid's cells, the Newton rounds,
    the matrices of each step and how many were aimed again.

    The roots must number N(k_max), their modes come from one batched SVD and
    one ``_null_modes`` batch per multiplicity, and each mode must meet every
    vertex condition (``vertex_residuals`` within 1e-10 for the value and
    1e-8 for the flux), or ``GraphError`` is raised.
    """
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be finite and positive")
    weyl = g.total_length * k_max / math.pi
    if weyl > _MAX_MODES:
        raise ValueError(
            f"k_max={k_max:g} asks for about {weyl:.3g} modes, above {_MAX_MODES}"
        )
    k_lo = min(k_max, math.pi / (4.0 * g.total_length))
    roots, mult, count = _roots(g, k_lo, k_max)
    constant = _constant_modes(g)
    if mult.sum() != count:
        raise GraphError(f"found {len(constant) + mult.sum()} modes up to k={k_max:g}, "
                         f"exact count {len(constant) + count}")
    vh = _null_vectors(g, roots)
    rows = np.empty((count, constant.shape[1]))
    # one batch per multiplicity; each root's m rows go back to its place
    first = np.cumsum(mult) - mult
    for m in np.unique(mult).tolist():
        at = mult == m
        rows[(first[at][:, None] + np.arange(m)).ravel()] = _null_modes(
            g, roots[at], vh[at, -m:].conj()).reshape(-1, rows.shape[1])
    freqs = np.concatenate([np.zeros(len(constant)), np.repeat(roots, mult)])
    modes = ModeTable(g, freqs, np.concatenate([constant, rows]), k_max)
    value, flux = vertex_residuals(modes)
    bad = (value > 1e-10) | (flux > 1e-8)
    if bad.any():
        m, j = np.argwhere(bad)[0]
        v = g.vertices[j]
        if value[m, j] > 1e-10:
            what = "Dirichlet" if v.condition == DIRICHLET else "continuity"
        else:
            what = "flux condition"
        raise GraphError(f"mode k={modes.k[m]}: {what} violated at {v.id}")
    return modes


def vertex_residuals(modes: ModeTable) -> tuple[np.ndarray, np.ndarray]:
    """(value, flux) residuals of every mode at every vertex, each (M, V).

    ``value`` is the largest |end value| at a Dirichlet vertex and the spread
    of the end values at any other; ``flux`` is |sum of outward derivatives|,
    or 0 at a Dirichlet vertex.  Columns follow ``g.vertices``.
    """
    g = modes.graph
    halves = [h for v in g.vertices for h in g.incidence(v.id)]
    starts = np.cumsum([0] + [g.degree(v.id) for v in g.vertices[:-1]])
    far = np.array([end == 1 for _, end in halves])
    s = np.where(far, [g.edge_obj(eid).length for eid, _ in halves], 0.0)
    rows, cos, sin = modes._trig([eid for eid, _ in halves], s)
    val = rows[:, 0] * cos + rows[:, 1] * sin + rows[:, 2] * s[:, None]
    der = modes.k * (rows[:, 1] * cos - rows[:, 0] * sin) + rows[:, 2]
    der = np.where(far[:, None], -der, der)
    dirichlet = np.array([[v.condition == DIRICHLET] for v in g.vertices])
    hi, lo = np.maximum.reduceat(val, starts), np.minimum.reduceat(val, starts)
    value = np.where(dirichlet, np.maximum(hi, -lo), hi - lo)
    flux = np.where(dirichlet, 0.0, np.abs(np.add.reduceat(der, starts)))
    return value.T, flux.T


# -- derived quantities ---------------------------------------------------------


def _decay(modes: ModeTable, t) -> np.ndarray:
    """e^{-k_m^2 t}, the modes on the last axis; t is a time or an array."""
    return np.exp(np.multiply.outer(t, modes._neg_k2))


def _mode_sum(modes: ModeTable, t, phi_x: np.ndarray, phi_y: np.ndarray) -> np.ndarray:
    """sum_m e^{-k_m^2 t} phi_m(x) phi_m(y), the modes on the last axis of
    phi_x and phi_y; t, a time or an array, broadcasts with their other axes."""
    return np.vecdot(phi_x * phi_y, _decay(modes, t))


def modesum(modes: ModeTable, t, edge_x: str, sx, edge_y: str, sy) -> tuple[np.ndarray, float]:
    """p_t between arclengths sx on edge_x and sy on edge_y of ``modes.graph``
    over the table's modes; t, sx and sy broadcast as in ``kernels.pathsum``.

    Returns (values, tail bound); the values equal ``kernel_spectral``'s at
    each pair and time, bit for bit.  The bound is ``spectral_tail_bound`` at
    the least time, and holds at every time since it falls as t grows.
    """
    g = modes.graph
    t = np.asarray(t, dtype=float)
    _check_time(t)
    sx, sy = np.asarray(sx, dtype=float), np.asarray(sy, dtype=float)
    g.check_arclengths(edge_x, sx)
    g.check_arclengths(edge_y, sy)
    phi_x, phi_y = (modes.at([edge] * s.size, s.ravel()).reshape(s.shape + modes.k.shape)
                    for edge, s in ((edge_x, sx), (edge_y, sy)))
    return _mode_sum(modes, t, phi_x, phi_y), spectral_tail_bound(g, t.min(), modes.searched_to)


def kernel_spectral(g: MetricGraph, t: float, x: GraphPoint, y: GraphPoint, modes: ModeTable,
                    tol: float | None = None) -> KernelEval:
    """``modesum`` at one pair: the spectral heat kernel over a mode table,
    with the tail bound beyond the k the table was searched to.  A bound above
    ``tol``, when given, raises ``TruncationError``; a tol that is not finite
    and positive, ValueError; a table of a graph not equal to g, GraphError.

    The table remembers the mode rows at x and y and the factors at t (see
    ``ModeTable``), so a loop over pairs and times that come back costs about
    one dot product a call, with the same bits as a fresh table.
    """
    t = _one_time(t)
    if tol is not None:
        _check_tol(tol)
    if modes.graph is not g and modes.graph != g:
        raise GraphError("mode table belongs to another graph")
    phi = modes._row(x) * modes._row(y)
    decay, bound = modes._at_time(t)
    if tol is not None and bound > tol:
        raise TruncationError(f"k_max={modes.searched_to:.3g} insufficient for tolerance "
                              f"{tol:g} at t={t:g}")
    return KernelEval(t, x, y, float(np.vecdot(phi, decay)), bound)


def spectral_tail_bound(g: MetricGraph, t, k_max: float):
    """Bound on the kernel's terms beyond k_max, at any pair of points:
    max(1, 4 / l_min) ``trace_tail_bound(g, t, k_max)`` for k_max >= 2 / l_min,
    and inf below that; t may be an array or a list, and the bound falls as t grows.

    On an edge of length l a mode is A cos(ks) + B sin(ks), so |phi|^2 <=
    A^2 + B^2 there.  The Gram matrix of (cos, sin) on the edge
    (``_norm_matrix``) has eigenvalues l/2 +- |sin kl| / 2k, so for
    k >= 2 / l_min its least eigenvalue is at least l/4 >= l_min/4, and a mode
    of unit norm has A^2 + B^2 <= 4 / l_min on every edge.  Each omitted term
    e^{-k^2 t} phi(x) phi(y) is then at most 4 / l_min times e^{-k^2 t}, and
    ``trace_tail_bound`` bounds the sum of those over the roots k > k_max,
    counted with multiplicity.  The factor is at least 1, so the bound also
    covers the heat trace's omitted terms.
    """
    bound = trace_tail_bound(g, t, k_max)
    if k_max < 2.0 / g.min_edge_length:
        return bound + math.inf  # inf in the shape of t
    return max(1.0, 4.0 / g.min_edge_length) * bound


def trace_tail_bound(g: MetricGraph, t, k_max: float):
    """Bound on the heat trace's terms beyond k_max: sum over roots k > K of
    e^{-k^2 t} <= e^{-K^2 t} (L / (2 pi K t) + 2E), for K = k_max > 0, and
    inf otherwise; t may be an array or a list, and the bound falls as t grows.

    The count of roots in (k1, k2] is at most L (k2 - k1) / pi + 2E
    (``_count``), L the total length and E the edge count.  Summing by parts
    against that count gives 2E e^{-K^2 t} plus L / pi times the Gaussian
    integral from K, which is at most e^{-K^2 t} / (2 K t).
    """
    t = np.asarray(t, dtype=float) if type(t) is not float and np.ndim(t) else t
    _check_time(t)
    if not k_max > 0.0:
        return t + math.inf  # inf in the shape of t
    return np.exp(-(k_max**2) * t) * (
        g.total_length / (2.0 * math.pi * k_max * t) + 2.0 * len(g.edges))


def _certified_k_max(g: MetricGraph, t: float, tol: float) -> float:
    """The k_max of every mode table that must certify tol at time t.

    It is K, bisected to 1e-12 relative, the least k with
    ``spectral_tail_bound(g, t, k) <= tol``; the bound falls as k grows.
    ``eigen`` finds every mode up to K and records K in the table, and
    ``kernel_spectral`` takes its bound there.
    """
    _check_time(t)
    _check_tol(tol)
    lo = hi = 2.0 / g.min_edge_length
    while not spectral_tail_bound(g, t, hi) <= tol:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if spectral_tail_bound(g, t, mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def eigen_report(modes: ModeTable) -> list[dict]:
    """Rows for the eigen CSV: k, lambda, multiplicity, residuals.

    The modes of one root share one k, so consecutive equal k form a row.
    """
    value, flux = vertex_residuals(modes)
    rows, start = [], 0
    for k, group in groupby(modes.k.tolist()):
        stop = start + len(list(group))
        rows.append(
            {
                "k": k,
                "lambda": k**2,
                "multiplicity": stop - start,
                "continuity_residual": float(value[start:stop].max(initial=0.0)),
                "kirchhoff_residual": float(flux[start:stop].max(initial=0.0)),
            }
        )
        start = stop
    return rows

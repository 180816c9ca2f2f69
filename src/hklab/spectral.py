"""Eigenvalues and eigenfunctions of the graph Laplacian; spectral heat kernel.

Roots k of the secular equation are counted exactly, with multiplicity, by
the eigenphases of the bond-scattering matrix U(k) = sigma e^{ikL}.  The root
search isolates, steps by Newton, and certifies: bisection on that count
brackets the roots until no eigenphase turns by more than pi across a
bracket; safeguarded Newton on the eigenphases that cross 0 in a bracket,
whose derivative is v^H Lambda v (Hellmann-Feynman), finds its root, and
splits the bracket where the count shows separate roots; and one more count
just below and just above every root confirms it and its multiplicity.  The
modes come from the null space of I - U(k)^T at the root.

``eigen`` returns a ``ModeTable``: the frequencies and per-edge coefficients
of every mode as read-only arrays.  The vertex check, the eigen report and the
traces read those arrays, and ``modesum`` sums the kernel over them with times
and arclengths broadcast as in ``kernels.pathsum``; ``kernel_spectral`` is its
one-pair view.

The same count gives proven bounds on what a table leaves out, at one time or
an array of times, and ``_certified_k_max`` is the one rule for the k_max a
tolerance needs.
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from .graph import DIRICHLET, GraphError, GraphPoint, MetricGraph, _bond_table, _check_time
from .kernels import KernelEval, TruncationError


class ModeTable:
    """The modes of one graph, as read-only arrays.

    On edge e mode m is A cos(k s) + B sin(k s), s the arclength from the
    u-endpoint; for k = 0 it is affine, A + B s.  ``k`` holds the
    frequencies, shape (M,); ``searched_to`` is the k up to which the table
    holds every mode, the k_max ``eigen`` was given, or the largest
    frequency (0 without modes) for a table built by hand;
    ``coef[m, i]`` is the (A, B) of mode m on edge i of ``g.edges``, shape
    (M, E, 2); ``col`` maps an edge id to i; ``graph`` is g.
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
        for arr in (self.k, self.coef, self._basis):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.k)

    def __reduce__(self):
        return ModeTable, (self.graph, self.k, self.coef, self.searched_to)

    def at(self, edges, s: np.ndarray) -> np.ndarray:
        """Every mode at the points (edges[j], s[j]), shape (len(s), M)."""
        try:
            rows = self._basis.take([self.col[eid] for eid in edges], axis=0)
        except KeyError as exc:
            raise GraphError(f"mode table has no edge {exc.args[0]!r}") from None
        ks = np.multiply.outer(s, self.k)
        return rows[:, 0] * np.cos(ks) + rows[:, 1] * np.sin(ks) + rows[:, 2] * s[:, None]


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


def _bond_unitary(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """The bond-scattering matrices U(k) = sigma e^{ikL} on ``graph._bond_table``,
    one per k of a stack, shape (len(ks), 2E, 2E)."""
    rows, cols, sigma, lengths = _bond_table(g)
    n = 2 * len(g.edges)
    u = np.zeros((ks.size, n, n), dtype=complex)
    u[:, rows, cols] = sigma * np.exp(1j * np.outer(ks, lengths))
    return u


def _stacks(g: MetricGraph, ks: np.ndarray):
    """Yield ``_bond_unitary`` over ks, at most _STACK matrix entries at a time."""
    n = 2 * len(g.edges)
    for chunk in np.array_split(ks, max(1, -(-ks.size * n * n // _STACK))):
        yield _bond_unitary(g, chunk)


def _count(g: MetricGraph, ks: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """(k sum_b L_b - sum_j theta_j(k)) / 2pi from the eigenphases theta_j in
    [0, 2pi) of U(k), one row of ``phases`` per k.

    U is unitary and det U turns as e^{ik sum_b L_b} with sum_b L_b twice the
    total length, while each eigenphase turns forward; so this is an integer
    plus a constant, and it steps up by m where m eigenphases pass through 0:
    at a root k of multiplicity m (Kottos & Smilansky, Ann. Phys. 274, 1999).
    """
    return (2.0 * g.total_length * ks - phases.sum(axis=1)) / (2.0 * math.pi)


def _phase_count(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """``_count`` at each k of a stack, from the eigenvalues of U(k) alone."""
    phases = [np.angle(np.linalg.eigvals(u)) for u in _stacks(g, ks)]
    return _count(g, ks, np.concatenate(phases) % (2.0 * math.pi))


def _roots(g: MetricGraph, k_lo: float, k_max: float, base: float, top: int):
    """(k, m): the distinct roots in (k_lo, k_max] and their multiplicities,
    each certified by the exact count; see ``eigen``."""
    ell = np.repeat([e.length for e in g.edges], 2)  # Lambda: bond 2i + end lies on edge i
    n = ell.size
    # isolate: bisect on the count until no eigenphase turns by more than pi
    # across a jumping bracket (lo, hi], which holds m = n_hi - n_lo crossings
    lo, hi = np.array([k_lo]), np.array([k_max])
    n_lo, n_hi = np.array([0]), np.array([top])
    while True:
        jump = n_hi > n_lo
        lo, hi, n_lo, n_hi = lo[jump], hi[jump], n_lo[jump], n_hi[jump]
        wide = (hi - lo) * ell.max() > math.pi
        if not wide.any():
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        n_mid = np.clip(np.rint(_phase_count(g, mid) - base).astype(int),
                        n_lo[wide], n_hi[wide])
        lo = np.concatenate([lo[~wide], lo[wide], mid])
        hi = np.concatenate([hi[~wide], mid, hi[wide]])
        n_lo = np.concatenate([n_lo[~wide], n_lo[wide], n_mid])
        n_hi = np.concatenate([n_hi[~wide], n_mid, n_hi[wide]])
    # Newton on the sum of each bracket's m crossing eigenphases, from its
    # midpoint; dk is the last step, which the next must halve
    m = n_hi - n_lo
    k = 0.5 * (lo + hi)
    dk = hi - lo
    found_k, found_m = [np.empty(0)], [np.empty(0, dtype=int)]
    while k.size:
        w, v = (np.concatenate(x) for x in zip(*(np.linalg.eig(u) for u in _stacks(g, k))))
        phase = np.angle(w) % (2.0 * math.pi)
        c = np.clip(np.rint(_count(g, k, phase) - base).astype(int) - n_lo, 0, m)
        # the bracket's crossings are the c smallest phases, which passed 0 in
        # (lo, k], and the m - c largest, less 2pi, which pass it in (k, hi]:
        # eigenphases turn forward and keep their order
        slot = np.arange(m.max())
        ahead = slot < (m - c)[:, None]
        pick = np.take_along_axis(np.argsort(phase, axis=1),
                                  (slot - (m - c)[:, None]) % n, axis=1)
        theta = np.take_along_axis(phase, pick, axis=1) - 2.0 * math.pi * ahead
        # d theta / dk = v^H Lambda v for a unit eigenvector v (Hellmann-Feynman)
        speed = np.take_along_axis(np.einsum("i,bij->bj", ell, np.abs(v) ** 2), pick, axis=1)
        used = slot < m[:, None]
        theta, speed = np.where(used, theta, 0.0), np.where(used, speed, 0.0)
        # all m phases at 0 together: one root of multiplicity m, placed by
        # one more Newton step
        done = np.abs(theta).max(axis=1) <= 1e-13 * ell.min() * k
        f, fp = theta[done].sum(axis=1), speed[done].sum(axis=1)
        found_k.append(np.clip(k[done] - f / fp, lo[done], hi[done]))
        found_m.append(m[done])
        # otherwise the bracket splits at k into (lo, k], holding the c
        # crossed phases, and (k, hi], holding the m - c others; one part is
        # empty unless the bracket holds separate roots
        go = ~done
        part = np.concatenate([~ahead[go], ahead[go]])
        f = np.where(part, np.tile(theta[go], (2, 1)), 0.0).sum(axis=1)
        fp = np.where(part, np.tile(speed[go], (2, 1)), 0.0).sum(axis=1)
        lo, hi = np.r_[lo[go], k[go]], np.r_[k[go], hi[go]]
        n_lo, m = np.r_[n_lo[go], n_lo[go] + c[go]], np.r_[c[go], m[go] - c[go]]
        k, dk = np.tile(k[go], 2), np.tile(dk[go], 2)
        keep = m > 0
        lo, hi, n_lo, m, k, dk, f, fp = (x[keep] for x in (lo, hi, n_lo, m, k, dk, f, fp))
        # safeguard: a Newton point outside the part, or a step not half the
        # last one, gives way to bisection
        nxt = k - f / fp
        newton = (lo < nxt) & (nxt < hi) & (2.0 * np.abs(nxt - k) < dk)
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        k, dk = nxt, np.abs(nxt - k)
        narrow = hi - lo <= _CERTIFY * hi
        found_k.append(0.5 * (lo[narrow] + hi[narrow]))
        found_m.append(m[narrow])
        lo, hi, n_lo, m, k, dk = (x[~narrow] for x in (lo, hi, n_lo, m, k, dk))
    roots, mult = np.concatenate(found_k), np.concatenate(found_m)
    if not roots.size:
        return roots, mult
    order = np.argsort(roots)
    roots, mult = roots[order], mult[order]
    # roots whose certifying windows overlap are one root that rounding split
    starts = np.flatnonzero(np.r_[True, roots[1:] * (1.0 - _CERTIFY)
                                  > roots[:-1] * (1.0 + _CERTIFY)])
    roots = np.add.reduceat(roots, starts) / np.diff(np.r_[starts, roots.size])
    mult = np.add.reduceat(mult, starts)
    counts = np.rint(_phase_count(g, np.concatenate(
        [roots * (1.0 - _CERTIFY), roots * (1.0 + _CERTIFY)])) - base).astype(int)
    below, above = counts.reshape(2, -1)
    bad = np.flatnonzero((below != np.cumsum(mult) - mult) | (above != np.cumsum(mult)))
    if bad.size:
        i = bad[0]
        raise GraphError(f"root k={roots[i]} of multiplicity {mult[i]} is not certified: "
                         f"the exact count steps by {above[i] - below[i]} across it")
    return roots, mult


def _null_vectors(g: MetricGraph, ks: np.ndarray) -> np.ndarray:
    """Right-singular vectors of I - U(k)^T, smallest singular value last, for
    each k of a stack: one batched SVD, shape (len(ks), 2E, 2E)."""
    n = 2 * len(g.edges)
    return np.concatenate([np.linalg.svd(np.eye(n) - u.transpose(0, 2, 1))[2]
                           for u in _stacks(g, ks)])


def eigen(g: MetricGraph, k_max: float) -> ModeTable:
    """All modes with frequency k <= k_max, orthonormal in L2(G).

    N(k), the number of roots in (0, k] with multiplicity, is counted exactly
    by ``_count`` from k_lo = pi/4L, below every positive root (the first
    eigenvalue is at least (pi/2L)^2, Nicaise 1987).  The roots are found in
    three steps, each batched over all brackets:

    * isolate: bisect (k_lo, k_max] on the count until no eigenphase of U(k)
      turns by more than pi across a bracket over which N jumps, by m;
    * Newton: from the bracket's midpoint, step on the sum of the m
      eigenphases that cross 0 in it, less 2pi for each not yet across,
      with derivative tr(V^H Lambda V) over their unit eigenvectors
      V and Lambda the diagonal of bond lengths (Hellmann-Feynman: d theta/dk
      = v^H Lambda v > 0).  Every round makes one ``np.linalg.eig`` stack, and
      the count at the iterate, read off the same eigenvalues, splits the
      bracket there; a split into two nonempty parts means that the m phases
      do not reach 0 together, so the bracket held separate roots.  A Newton
      point outside the bracket, or a step not half the last, gives way to
      bisection.  The bracket converges when its m phases are all within
      1e-13 k l_min of 0, or when it is 1e-13 relative wide;
    * certify: one batched count at k(1 -+ 1e-13) around every root confirms
      it and its multiplicity, or ``GraphError`` is raised.  Roots whose
      windows overlap are first merged into one, at their mean with their
      summed multiplicity: rounding can pull the eigenphases of a multiple
      root apart, and separate null spaces would give modes that are not
      orthogonal.

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
    base, top = _phase_count(g, np.array([k_lo, k_max]))
    count = round(top - base)
    roots, mult = _roots(g, k_lo, k_max, base, count)
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
    rows = modes._basis[[modes.col[eid] for eid, _ in halves]]
    ks = np.multiply.outer(s, modes.k)
    cos, sin = np.cos(ks), np.sin(ks)
    val = rows[:, 0] * cos + rows[:, 1] * sin + rows[:, 2] * s[:, None]
    der = modes.k * (rows[:, 1] * cos - rows[:, 0] * sin) + rows[:, 2]
    der = np.where(far[:, None], -der, der)
    dirichlet = np.array([[v.condition == DIRICHLET] for v in g.vertices])
    hi, lo = np.maximum.reduceat(val, starts), np.minimum.reduceat(val, starts)
    value = np.where(dirichlet, np.maximum(hi, -lo), hi - lo)
    flux = np.where(dirichlet, 0.0, np.abs(np.add.reduceat(der, starts)))
    return value.T, flux.T


# -- derived quantities ---------------------------------------------------------


def _mode_sum(modes: ModeTable, t, phi_x: np.ndarray, phi_y: np.ndarray) -> np.ndarray:
    """sum_m e^{-k_m^2 t} phi_m(x) phi_m(y), the modes on the last axis of
    phi_x and phi_y; t, a time or an array, broadcasts with their other axes."""
    return np.vecdot(phi_x * phi_y, np.exp(-np.multiply.outer(t, modes.k**2)))


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
    phi_x, phi_y = (modes.at([edge] * s.size, s.ravel()).reshape(s.shape + (-1,))
                    for edge, s in ((edge_x, sx), (edge_y, sy)))
    return _mode_sum(modes, t, phi_x, phi_y), spectral_tail_bound(g, t.min(), modes.searched_to)


def kernel_spectral(g: MetricGraph, t: float, x: GraphPoint, y: GraphPoint, modes: ModeTable,
                    tol: float | None = None) -> KernelEval:
    """``modesum`` at one pair: the spectral heat kernel over a mode table,
    with the tail bound beyond the k the table was searched to.  A bound
    above ``tol``, when given, raises ``TruncationError``.
    """
    _check_time(t)
    g.check_point(x)
    g.check_point(y)
    phi_x, phi_y = modes.at((x.edge, y.edge), np.array([x.s, y.s], dtype=float))
    k_max = modes.searched_to
    bound = spectral_tail_bound(g, t, k_max)
    if tol is not None and bound > tol:
        raise TruncationError(f"k_max={k_max:.3g} insufficient for tolerance {tol:g} at t={t:g}")
    return KernelEval(t, x, y, float(_mode_sum(modes, t, phi_x, phi_y)), bound)


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
    t = np.asarray(t, dtype=float) if np.ndim(t) else t
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
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
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

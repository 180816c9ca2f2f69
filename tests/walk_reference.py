"""Reference enumerator of scattering walks, for the tests of the walk families.

``enumerate_walks`` lists every walk from x to y explicitly, bounce by
bounce, pairing each vertex matrix with ``g.incidence``.  It is slow, and
``kernels._families`` is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from hklab.graph import (
    _WEIGHT_FLOOR,
    GraphError,
    GraphPoint,
    MetricGraph,
    scattering_matrix,
)


@dataclass(frozen=True)
class ScatteringWalk:
    """A bounce sequence from x to y with its geometric length and weight.

    ``bounces`` lists (vertex-id, in-edge, out-edge); the weight is the
    product of the scattering entries picked up at each bounce.  The trivial
    walk (same edge, no bounces) has weight 1.
    """

    bounces: tuple[tuple[str, str, str], ...]
    length: float
    weight: float


def enumerate_walks(
    g: MetricGraph, x: GraphPoint, y: GraphPoint, max_length: float
) -> list[ScatteringWalk]:
    """All scattering walks from x to y with geometric length <= max_length.

    Walks are sorted by length with deterministic tie-breaking on the bounce
    sequence.  Walks whose weight underflows to zero (for example reflection
    at a degree-2 Kirchhoff vertex) are dropped; they contribute nothing.
    """
    if max_length < 0:
        raise GraphError("max_length must be nonnegative")
    ex = g.check_point(x)
    ey = g.check_point(y)
    sigmas = {v.id: (g.incidence(v.id), scattering_matrix(g, v.id)) for v in g.vertices}
    dvv = g.vertex_distances()

    def remaining(vid: str) -> float:
        # shortest possible completion from vid to the target point
        return min(dvv[(vid, ey.u)] + y.s, dvv[(vid, ey.v)] + (ey.length - y.s))

    out: list[ScatteringWalk] = []
    if x.edge == y.edge and abs(x.s - y.s) <= max_length:
        out.append(ScatteringWalk((), abs(x.s - y.s), 1.0))

    # frontier entries: (vertex, in-halfedge, accumulated length, weight, bounces)
    frontier = []
    for end, dist0 in ((0, x.s), (1, ex.length - x.s)):
        vid = ex.u if end == 0 else ex.v
        if dist0 + remaining(vid) <= max_length:
            frontier.append((vid, (x.edge, end), dist0, 1.0, ()))
    while frontier:
        nxt = []
        for vid, h_in, acc, w, bounces in frontier:
            hs, sig = sigmas[vid]
            i = hs.index(h_in)
            for j, h_out in enumerate(hs):
                w2 = w * float(sig[i, j])
                if abs(w2) < _WEIGHT_FLOOR:
                    continue
                e_out = g.edge_obj(h_out[0])
                b2 = bounces + ((vid, h_in[0], h_out[0]),)
                if h_out[0] == y.edge:
                    tail = y.s if h_out[1] == 0 else e_out.length - y.s
                    if acc + tail <= max_length:
                        out.append(ScatteringWalk(b2, acc + tail, w2))
                acc2 = acc + e_out.length
                far_end = 1 - h_out[1]
                far_vid = e_out.v if h_out[1] == 0 else e_out.u
                if acc2 + remaining(far_vid) <= max_length:
                    nxt.append((far_vid, (h_out[0], far_end), acc2, w2, b2))
        frontier = nxt

    out.sort(key=lambda wlk: (wlk.length, wlk.bounces))
    return out

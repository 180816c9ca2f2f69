"""Reference per-step walk, for the tests of the general walk engine.

``reference_walk`` is the engine as it stood before event levels: every step
draws each path's double from ``Generator.random``, moves every path on an
edge, scans all paths for those at a vertex, gathers every path's edge
length for the arrival test and runs the U test on every path.  It is slow,
and ``wiener._general_walk`` is checked against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from hklab.graph import DIRICHLET, GraphPoint
from hklab.wiener import EnsembleResult, _stream_keys, n_steps


def _incidence_tables(h, *graphs):
    """Per-vertex tables of the disjoint union of the graphs, built from
    ``g.incidence``: each graph's edges and vertices follow those of the
    graphs before it.  Returns, per graph, the maps from its vertex and edge
    ids to union indices, and the tables: each vertex's degree, the edge of
    its j-th half-edge and the arclength one step into it (padded to the
    largest degree), the edge lengths, each edge's end vertices and each
    vertex's Dirichlet flag."""
    index_maps = []
    n_v = n_e = 0
    for g in graphs:
        index_maps.append(({v.id: n_v + i for i, v in enumerate(g.vertices)},
                           {e.id: n_e + i for i, e in enumerate(g.edges)}))
        n_v += len(g.vertices)
        n_e += len(g.edges)
    lengths = np.array([e.length for g in graphs for e in g.edges])
    max_deg = max(g.max_degree for g in graphs)
    inc_edge = np.zeros((n_v, max_deg), dtype=np.int64)
    start_s = np.zeros((n_v, max_deg))
    deg = np.zeros(n_v, dtype=np.int64)
    end_vertex, dirichlet = [], []
    for g, (vids, eids) in zip(graphs, index_maps):
        for v in g.vertices:
            hs = g.incidence(v.id)
            deg[vids[v.id]] = len(hs)
            for j, (eid, end) in enumerate(hs):
                inc_edge[vids[v.id], j] = eids[eid]
                start_s[vids[v.id], j] = h if end == 0 else lengths[eids[eid]] - h
        end_vertex += [[vids[e.u], vids[e.v]] for e in g.edges]
        dirichlet += [v.condition == DIRICHLET for v in g.vertices]
    tables = (deg, inc_edge, start_s, lengths,
              np.array(end_vertex, dtype=np.int64), np.array(dirichlet))
    return index_maps, tables


def _uniforms(seed, steps, n_paths):
    for key in _stream_keys(seed, 3, np.arange(steps)):
        yield np.random.Generator(np.random.Philox(key=key)).random(n_paths)


def _advance(u, edge, s, at_vertex, alive, tables, h):
    """One walk step for every live path (arrays updated in place); returns
    the paths that reached a vertex this step and that vertex."""
    deg, inc_edge, start_s, lengths, end_vertex, dirichlet = tables
    atv = np.nonzero(at_vertex >= 0)[0]
    moving = alive.copy()
    moving[atv] = False
    np.add(s, np.where(u < 0.5, -h, h), out=s, where=moving)
    if atv.size:
        vidx = at_vertex[atv]
        choice = np.minimum((u[atv] * deg[vidx]).astype(np.int64), deg[vidx] - 1)
        edge[atv] = inc_edge[vidx, choice]
        s[atv] = start_s[vidx, choice]
        at_vertex[atv] = -1
    arrived = np.nonzero(moving & ((s <= 0.0) | (s >= lengths[edge])))[0]
    k = edge[arrived]
    high = s[arrived] > 0.0
    vid = end_vertex[k, high.astype(np.int64)]
    s[arrived] = np.where(high, lengths[k], 0.0)
    dead = dirichlet[vid]
    alive[arrived] = ~dead
    at_vertex[arrived] = np.where(dead, -1, vid)
    return arrived, vid


def reference_walk(g, x0, T, h, seed, n_paths, U=None, splice_to=None):
    """The general engine's ensemble, stepped the old way; same arguments as
    ``wiener._general_walk`` without the lattice refusal."""
    graphs = (g,) if splice_to is None else (g, splice_to[0])
    index_maps, tables = _incidence_tables(h, *graphs)
    vids, eids = index_maps[0]
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

    if U is not None:
        u_lo = np.zeros(sum(len(x.edges) for x in graphs))
        u_hi = np.full(u_lo.size, -1.0)
        for eid, lo, hi in U.pieces:
            u_lo[eids[eid]] = lo
            u_hi[eids[eid]] = hi
        v_inside = np.zeros(sum(len(x.vertices) for x in graphs), dtype=bool)
        for v in g.vertices:
            eid, end = g.incidence(v.id)[0]
            v_inside[vids[v.id]] = U.contains(GraphPoint(eid, end * g.edge_obj(eid).length))
    if splice_to is not None:
        _, iso, images = splice_to
        eids_b = index_maps[1][1]
        img_edge = np.zeros((len(g.edges), 2), dtype=np.int64)
        img_s = np.zeros((len(g.edges), 2))
        for cut, img in zip(U.cut_points, images):
            k = eids[cut.edge]
            side = int(cut.s == u_hi[k])
            img_edge[k, side] = eids_b[img.edge]
            img_s[k, side] = img.s

    for step, u in enumerate(_uniforms(seed, steps, n_paths)):
        arrived, at = _advance(u, edge, s, at_vertex, alive, tables, h)
        if U is not None:
            out = (s <= u_lo[edge]) | (s >= u_hi[edge])
            out &= alive
            out[arrived] = ~v_inside[at]
            out &= exit_step < 0
            ii = np.nonzero(out)[0]
            if ii.size:
                k = edge[ii]
                side = (np.abs(s[ii] - u_lo[k]) > np.abs(s[ii] - u_hi[k])).astype(int)
                exit_step[ii] = step + 1
                exit_coord[ii] = np.where(side, u_hi[k], u_lo[k])
                exit_edge[ii] = k
                if splice_to is not None:
                    edge[ii] = img_edge[k, side]
                    s[ii] = img_s[k, side]
                    at_vertex[ii] = -1
                    alive[ii] = True

    if splice_to is not None:
        on_b = edge >= len(g.edges)
        edge[on_b] -= len(g.edges)
        for i in np.nonzero(~on_b)[0]:
            img = iso.apply(GraphPoint(g.edges[edge[i]].id, float(s[i])))
            edge[i] = eids_b[img.edge] - len(g.edges)
            s[i] = img.s
        g = splice_to[0]
    return EnsembleResult(
        g, T, h, seed, n_paths, edge, s, alive,
        exit_step, exit_coord, exit_edge, "general",
    )

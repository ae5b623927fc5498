"""Brush-fire wall tracing through a seamless parametrization.

Walls live on parametric iso-surfaces that generally cross tets, so the
mesh is refined on the fly: whenever the fire needs to pass through a tet
whose facets do not line up with the active iso-plane, the opposite edge is
split at the plane crossing. A binary split forest keeps stale queue
entries resolvable without rewriting the queue.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

import numpy as np

from .cellcomplex import _segment_side, _wall_neighbor, _WallGeometry
from .errors import IntegrityError, MeshError
from .firehex import WallField, alive
from .octahedral import Transition
from .tetparam import ISO_TOL, ParamTetMesh


class SplitForest:
    """Facet/edge split hierarchy plus tet descent and original-facet tracking."""

    def __init__(self, pm: ParamTetMesh):
        self.facet_children = {}
        self.edge_children = {}
        self.tet_parent = {}
        # Original-facet sets per vertex: an edge lies in an original mesh
        # facet iff its endpoints share one. Split vertices inherit the
        # intersection of their edge's endpoints.
        self.vert_facets = [set() for _ in range(pm.n_vertices)]
        for f in range(pm.n_facets):
            for v in pm.facet_keys[f]:
                self.vert_facets[v].add(f)

    def edge_in_original_facet(self, pm, e) -> bool:
        a, b = pm.edge_keys[e]
        return bool(self.vert_facets[a] & self.vert_facets[b])

    def root_tet(self, t) -> int:
        while t in self.tet_parent:
            t = self.tet_parent[t]
        return t

    def live_facets(self, pm, f):
        if pm.facet_live[f]:
            return [f]
        out = []
        for c in self.facet_children.get(f, ()):
            out.extend(self.live_facets(pm, c))
        return out

    def live_edges(self, pm, e):
        if pm.edge_live[e]:
            return [e]
        out = []
        for c in self.edge_children.get(e, ()):
            out.extend(self.live_edges(pm, c))
        return out

    def record_split(self, pm, e, v, dead_facets, replaced_tets):
        va, vb = pm.edge_keys[e]
        self.vert_facets.append(self.vert_facets[va] & self.vert_facets[vb])
        self.edge_children[e] = (
            pm.edge_id[(min(va, v), max(va, v))],
            pm.edge_id[(min(vb, v), max(vb, v))],
        )
        for f in dead_facets:
            a, b, c = pm.facet_keys[f]
            x = next(u for u in (a, b, c) if u not in (va, vb))
            self.facet_children[f] = (
                pm.facet_id[tuple(sorted((va, v, x)))],
                pm.facet_id[tuple(sorted((vb, v, x)))],
            )
        for old, kids in replaced_tets.items():
            for k in kids:
                self.tet_parent[k] = old


def _split_at(pm, forest, edge, t, axis, value):
    """Split ``edge`` where coordinate ``axis`` in the chart of tet ``t``
    reaches ``value``; returns the new vertex id. The split ratio is a
    chart-independent quantity, so any incident chart would do, but axis and
    value only have meaning in the chart they were computed in."""
    va, vb = pm.edge_keys[edge]
    ca = float(pm.corner_param(t, va)[axis])
    cb = float(pm.corner_param(t, vb)[axis])
    lam = (value - ca) / (cb - ca)
    dead = list(pm.edge_facets[edge])
    v, replaced = pm.split_edge(edge, lam)
    if forest is not None:
        forest.record_split(pm, edge, v, dead, replaced)
    return v


def _iso_axes(pm, e, t):
    """Coordinates in which edge ``e`` is constant within tet ``t``'s chart."""
    va, vb = pm.edge_keys[e]
    pa, pb = pm.corner_param(t, va), pm.corner_param(t, vb)
    return [ax for ax in range(3) if abs(pa[ax] - pb[ax]) <= ISO_TOL], pa


def _opposite_edge(pm, e, t):
    va, vb = pm.edge_keys[e]
    c, d = [u for u in pm.tets[t] if u not in (va, vb)]
    return pm.edge_id[(c, d) if c < d else (d, c)]


def _try_split(pm, forest, e, t, axes_values):
    """Common body of split_iso/split_opp: the first iso-plane through ``e``
    from ``axes_values`` that strictly crosses the opposite edge of ``t``
    triggers a split and yields the new facet; otherwise an existing
    incident iso-facet (restricted to those planes) is returned."""
    va, vb = pm.edge_keys[e]
    opp = _opposite_edge(pm, e, t)
    oa, ob = pm.edge_keys[opp]
    qa, qb = pm.corner_param(t, oa), pm.corner_param(t, ob)
    for ax, val in axes_values:
        lo, hi = sorted((float(qa[ax]), float(qb[ax])))
        if lo + ISO_TOL < val < hi - ISO_TOL:
            v = _split_at(pm, forest, opp, t, ax, val)
            key = tuple(sorted((va, vb, v)))
            return pm.facet_id[key]
    for f in sorted(f for f in pm.cell_facets[t] if e in pm.facet_edges[f]):
        plane = pm.facet_plane(f, t)
        if plane is None:
            continue
        ax = int(np.argmax(np.abs(plane[0])))
        for cand_ax, val in axes_values:
            if cand_ax == ax and abs(plane[1] - val) <= ISO_TOL:
                return f
    return None


def split_iso(pm, e, t, forest=None):
    """If an iso-plane through edge ``e`` crosses the opposite edge of tet
    ``t`` strictly, split there and return the new iso-facet; otherwise
    return an existing iso-facet of ``t`` at ``e``, or None."""
    axes, pa = _iso_axes(pm, e, t)
    if not axes:
        raise MeshError(f"edge {e} is not parametrically aligned in tet {t}")
    return _try_split(pm, forest, e, t, [(ax, float(pa[ax])) for ax in axes])


def split_opp(pm, e, t, f, forest=None):
    """As split_iso, restricted to the iso-plane of reference facet ``f``
    (transitions accounted) and excluding ``f`` itself."""
    anchor = pm.anchor(f)
    plane = pm.facet_plane(f)
    if plane is None:
        raise MeshError(f"reference facet {f} is not an iso-facet")
    tr = pm.fan_transition(e, anchor, t)
    n2, c2 = pm.transport_plane(plane, tr)
    ax = int(np.argmax(np.abs(n2)))
    out = _try_split(pm, forest, e, t, [(ax, c2)])
    return None if out == f else out


def ext(pm, e, e2, n, t) -> float:
    """Distance increment n^T (phi(p_e2) - phi(p_e)) in the chart of tet
    ``t``, using for each edge the endpoint minimizing n^T phi."""
    def low(edge):
        va, vb = pm.edge_keys[edge]
        return min(
            float(np.dot(n, pm.corner_param(t, va))),
            float(np.dot(n, pm.corner_param(t, vb))),
        )

    return low(e2) - low(e)


def _ignition_direction(pm, e, f):
    """Axis-aligned unit vector orthogonal to ``e``, inside iso-facet ``f``,
    pointing from the edge toward the facet's third vertex (anchor chart)."""
    t = pm.anchor(f)
    plane = pm.facet_plane(f, t)
    va, vb = pm.edge_keys[e]
    x = next(u for u in pm.facet_keys[f] if u not in (va, vb))
    pa = pm.corner_param(t, va)
    d = pm.corner_param(t, vb) - pa
    e_ax = int(np.argmax(np.abs(d)))
    n_ax = int(np.argmax(np.abs(plane[0])))
    ax = next(a for a in range(3) if a not in (e_ax, n_ax))
    sign = float(pm.corner_param(t, x)[ax] - pa[ax])
    if abs(sign) <= ISO_TOL:
        raise MeshError(f"degenerate ignition facet {f} at edge {e}")
    n = np.zeros(3)
    n[ax] = 1.0 if sign > 0 else -1.0
    return n


def ignition_sources_param(pm, seed=None):
    """(singular edge, incident tet) pairs in deterministic order; a seed
    permutes them for tie-sensitivity probes."""
    sources = []
    for e in pm.singular_edges():
        for t in sorted(pm.edge_cells[e]):
            sources.append((e, t))
    if seed is not None:
        random.Random(seed).shuffle(sources)
    return sources


def _tag_boundary(pm, field):
    for f in range(pm.n_facets):
        if pm.facet_live[f] and pm.facet_boundary[f]:
            field.tag(f, 0.0, None)


def _spread(pm, forest, field, heap, seq, e, f, d, n, t_ref, origin):
    """Push continuations of freshly tagged facet ``f`` across its regular
    interior edges. Splits triggered along the way may re-anchor ``f``, so
    the chart carrying ``n`` is refreshed before every use."""
    for e2 in list(pm.facet_edges[f]):
        if e2 == e or pm.edge_boundary[e2] or pm.classify_edge(e2).singular:
            continue
        chart = pm.anchor(f)
        n_cur = _entry_direction(pm, forest, f, n, t_ref)
        t_ref = chart
        n = n_cur
        inc = ext(pm, e, e2, n_cur, chart)
        targets = set()
        while True:
            again = False
            for t in sorted(pm.edge_cells[e2]):
                before = pm.n_cells
                f2 = split_opp(pm, e2, t, f, forest)
                if pm.n_cells != before:
                    again = True
                    if f2 is not None:
                        targets.add(f2)
                    break
                if f2 is not None:
                    targets.add(f2)
            if not again:
                break
        chart = pm.anchor(f)
        n_cur = _entry_direction(pm, forest, f, n, t_ref)
        t_ref = chart
        n = n_cur
        for f2 in sorted(targets):
            if f2 in field.tagged or pm.facet_boundary[f2]:
                continue
            tr = pm.fan_transition(e2, chart, pm.anchor(f2))
            n2 = np.asarray(tr.apply_vector(n_cur), float)
            prio = 1 if forest.edge_in_original_facet(pm, e2) else 0
            heapq.heappush(
                heap, (prio, d + inc, seq[0], e2, f2, tuple(n2), pm.anchor(f2), origin)
            )
            seq[0] += 1


def _resolve(pm, forest, heap, seq, entry):
    """Lazy queue repair: map a stale entry onto the live sub-facets that
    still carry a sub-edge of its edge. Returns a live (e, f) pair or None
    after re-pushing split-off children."""
    prio, d, _, e, f, n, t_ref, origin = entry
    if pm.facet_live[f] and pm.edge_live[e]:
        return e, f
    live_e = forest.live_edges(pm, e)
    pushed = False
    for fl in forest.live_facets(pm, f):
        for el in live_e:
            if el in pm.facet_edges[fl]:
                heapq.heappush(heap, (prio, d, seq[0], el, fl, n, t_ref, origin))
                seq[0] += 1
                pushed = True
    if not pushed and not pm.facet_live[f]:
        raise MeshError(f"stale queue entry for facet {f} has no live descendant")
    return None


def _entry_direction(pm, forest, f, n, t_ref):
    """Re-express a queued direction vector in the current anchor chart of
    ``f``. Sub-tets inherit their ancestor's chart verbatim, so only a
    change of side across ``f`` needs a transition."""
    anchor = pm.anchor(f)
    if forest.root_tet(anchor) == forest.root_tet(t_ref):
        return np.asarray(n, float)
    other = next(t for t in pm.facet_cells[f] if t != anchor)
    tr = pm.cell_gluing(other, f, anchor)
    return np.asarray(tr.apply_vector(n), float)


def param_wall_geometry(mesh, field, facets):
    """Planar 2D layout of a wall made of iso-triangles: corner placement by
    chart transport, annulus detection, boundary segments and corners."""
    geom = _WallGeometry()
    f0 = facets[0]
    t0 = mesh.anchor(f0)
    plane0 = mesh.facet_plane(f0, t0)
    if plane0 is None:
        raise MeshError(f"tagged facet {f0} is not an iso-facet")
    n_ax = int(np.argmax(np.abs(plane0[0])))
    u_ax, v_ax = [a for a in range(3) if a != n_ax]
    iso_val = plane0[1]

    def corners_2d(f, tr):
        out = []
        anchor = mesh.anchor(f)
        for v in mesh.facet_keys[f]:
            p = np.asarray(tr.apply(mesh.corner_param(anchor, v)), float)
            if abs(p[n_ax] - iso_val) > 1e-6:
                raise MeshError(f"wall facet {f} leaves its iso-plane under transport")
            out.append((float(p[u_ax]), float(p[v_ax])))
        return tuple(out)

    trans = {f0: Transition()}
    place = {f0: corners_2d(f0, trans[f0])}
    dq = deque([f0])
    while dq:
        f = dq.popleft()
        for e in mesh.facet_edges[f]:
            g = _wall_neighbor(mesh, field, f, e)
            if g is None:
                continue
            tg = trans[f].compose(mesh.fan_transition(e, mesh.anchor(g), mesh.anchor(f)))
            coords = corners_2d(g, tg)
            if g in place:
                old = np.array(place[g])
                new = np.array(coords)
                if np.abs(old - new).max() > 1e-6:
                    shift = old[0] - new[0]
                    if np.abs((old - new) - shift).max() > 1e-6:
                        raise IntegrityError("twisted wall layout")
                    geom.annulus = True
            else:
                place[g] = coords
                trans[g] = tg
                dq.append(g)

    tol = 1e-6
    geom.corner_coords = dict(place)
    seg_dirs = {}
    for f in facets:
        key = mesh.facet_keys[f]
        co = place[f]
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            va, vb = key[i], key[j]
            e = mesh.edge_id[(va, vb) if va < vb else (vb, va)]
            if _wall_neighbor(mesh, field, f, e) is not None:
                continue
            p, q = co[i], co[j]
            geom.boundary_segments.append((e, (p, q)))
            horizontal = abs(p[1] - q[1]) <= tol
            vertical = abs(p[0] - q[0]) <= tol
            if not horizontal and not vertical:
                geom.slit = True
                continue
            for v in (va, vb):
                seg_dirs.setdefault(v, set()).add(horizontal)
    geom.corner_vertices = {v for v, dirs in seg_dirs.items() if len(dirs) == 2}

    if geom.annulus or geom.slit:
        return geom

    pts = np.array([p for co in place.values() for p in co])
    x0, x1 = float(pts[:, 0].min()), float(pts[:, 0].max())
    y0, y1 = float(pts[:, 1].min()), float(pts[:, 1].max())
    area = 0.0
    for co in place.values():
        a, b, c = np.array(co)
        u, v = b - a, c - a
        area += abs(float(u[0] * v[1] - u[1] * v[0])) / 2.0
    if abs(area - (x1 - x0) * (y1 - y0)) > tol * max(1.0, area):
        geom.slit = True
        return geom
    bbox = (x0, x1, y0, y1)
    if any(_segment_side(bbox, p, q) is None for _, (p, q) in geom.boundary_segments):
        geom.slit = True
        return geom
    geom.bbox = bbox
    return geom


def trace_param(pm: ParamTetMesh, seed=None):
    """Brush fire through a seamless parametrization (on a working copy).

    Returns (refined mesh, wall field) with contiguous element ids. Queue
    entries are ordered primarily so that edges interior to original tets
    take precedence over edges on original facets, secondarily by distance.
    """
    work = pm.compact()[0]
    field = _trace(work, seed, use_alive=True)
    return _finish(work, field)


def trace_param_base(pm: ParamTetMesh, seed=None):
    """Conforming variant: fronts never stop at burnt terrain, so walls run
    from singularities all the way to the boundary."""
    work = pm.compact()[0]
    field = _trace(work, seed, use_alive=False)
    return _finish(work, field)


def _finish(work, field):
    refined, fmap = work.compact()
    out = WallField()
    for f in field.tagged:
        out.tag(fmap[f], field.distance.get(f, 0.0), field.origin.get(f))
    return refined, out


def _trace(pm, seed, use_alive):
    forest = SplitForest(pm)
    field = WallField()
    heap = []
    seq = [0]
    for e, t in ignition_sources_param(pm, seed):
        f = split_iso(pm, e, t, forest)
        if f is None or pm.facet_boundary[f]:
            continue
        n = _ignition_direction(pm, e, f)
        prio = 1 if forest.edge_in_original_facet(pm, e) else 0
        heapq.heappush(heap, (prio, 0.0, seq[0], e, f, tuple(n), pm.anchor(f), e))
        seq[0] += 1
    while heap:
        entry = heapq.heappop(heap)
        res = _resolve(pm, forest, heap, seq, entry)
        if res is None:
            continue
        e, f = res
        prio, d, _, _, _, n, t_ref, origin = entry
        if f in field.tagged:
            continue
        if use_alive and not alive(pm, field, e):
            continue
        field.tag(f, d, origin)
        _spread(pm, forest, field, heap, seq, e, f, d, n, t_ref, origin)
    _tag_boundary(pm, field)
    return field

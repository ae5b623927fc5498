"""Brush-fire wall tracing through a seamless parametrization.

Walls live on parametric iso-surfaces that generally cross tets, so the
mesh is refined on the fly: whenever the fire needs to pass through a tet
whose facets do not line up with the active iso-plane, the opposite edge is
split at the plane crossing. The fronts run on the hex tracers' engine,
``firehex._burn``: ``_spread`` is this mesh kind's continuation rule, and a
binary split forest lets ``_resolve`` map queue entries and ignition sources
that a split made stale onto their live pieces, without rewriting the
queue. Queue entries carry the front's direction and the chart it is
expressed in, and edges interior to original tets go before edges on
original facets.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .errors import MeshError
from .firehex import _burn, _tag_boundary
from .tetparam import ISO_TOL, ParamTetMesh


def _live(live, children, x):
    """Live descendants of element ``x`` in a split forest, in split order."""
    if live[x]:
        return [x]
    return [y for c in children.get(x, ()) for y in _live(live, children, c)]


class SplitForest:
    """Facet/edge/tet split hierarchy plus original-facet tracking."""

    def __init__(self, pm: ParamTetMesh):
        self.facet_children = {}
        self.edge_children = {}
        self.tet_children = {}
        self.tet_parent = {}
        # Original-facet sets per vertex: an edge lies in an original mesh
        # facet iff its endpoints share one. Split vertices inherit the
        # intersection of their edge's endpoints.
        self.vert_facets = [set() for _ in range(pm.n_vertices)]
        for f in range(pm.n_facets):
            for v in pm.facet_keys[f]:
                self.vert_facets[v].add(f)

    def root_tet(self, t) -> int:
        while t in self.tet_parent:
            t = self.tet_parent[t]
        return t

    def order(self, pm, e) -> int:
        """Queue order of a front crossing edge ``e``: 1 if the edge lies in
        an original mesh facet, else 0 (inside an original tet)."""
        a, b = pm.edge_keys[e]
        return int(bool(self.vert_facets[a] & self.vert_facets[b]))

    def live_sources(self, pm, e, t):
        """(live sub-edge of ``e``, live descendant of tet ``t`` holding it)
        pairs in descent order. A tet is read when it is reached, so one
        that a split made while the previous pair was lit is replaced by
        its children then."""
        stack = [t]
        while stack:
            t = stack.pop()
            if pm.tets[t] is None:
                stack.extend(reversed(self.tet_children[t]))
                continue
            for el in _live(pm.edge_live, self.edge_children, e):
                if t in pm.edge_cells[el]:  # a tet holds at most one piece of a line
                    yield el, t
                    break

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
            self.tet_children[old] = kids
            self.tet_parent.update(dict.fromkeys(kids, old))


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
    ax, sign, value = pm.transport_plane((int(np.argmax(plane[0])), 1, plane[1]),
                                         pm.fan_transition(e, anchor, t))
    out = _try_split(pm, forest, e, t, [(ax, sign * value)])
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


def _spread(pm, forest, field, e, f, d, data):
    """Continuations of freshly tagged facet ``f`` across its regular
    interior edges, as queue entries. Splits triggered along the way may
    re-anchor ``f``, so the chart carrying the direction is refreshed before
    every use."""
    n, chart = data
    for e2 in list(pm.facet_edges[f]):
        if e2 == e or pm.edge_boundary[e2] or pm.singular(e2):
            continue
        n, chart = _entry_direction(pm, forest, f, n, chart)
        inc = ext(pm, e, e2, n, chart)
        targets = set()
        while True:
            for t in sorted(pm.edge_cells[e2]):
                before = pm.n_cells
                targets.add(split_opp(pm, e2, t, f, forest))
                if pm.n_cells != before:
                    break  # the split replaced tets of e2: scan them afresh
            else:
                break
        targets.discard(None)
        n, chart = _entry_direction(pm, forest, f, n, chart)
        for f2 in sorted(targets):
            if f2 in field or pm.facet_boundary[f2]:
                continue
            tr = pm.fan_transition(e2, chart, pm.anchor(f2))
            n2 = np.asarray(tr.apply_vector(n), float)
            yield forest.order(pm, e2), d + inc, e2, f2, (tuple(n2), pm.anchor(f2))


def _resolve(pm, forest, e, f):
    """The live pieces of a queue entry that a split made stale: each live
    sub-edge of ``e`` on each live sub-facet of ``f``, as (edge, facet)
    pairs. None when the entry is live."""
    if pm.facet_live[f] and pm.edge_live[e]:
        return None
    live_e = _live(pm.edge_live, forest.edge_children, e)
    pieces = [(el, fl) for fl in _live(pm.facet_live, forest.facet_children, f)
              for el in live_e if el in pm.facet_edges[fl]]
    if not pieces and not pm.facet_live[f]:
        raise MeshError(f"stale queue entry for facet {f} has no live descendant")
    return pieces


def _entry_direction(pm, forest, f, n, t_ref):
    """A queued direction vector ``n`` in chart ``t_ref``, re-expressed in
    the current anchor chart of ``f``; returns it with that chart. Sub-tets
    inherit their ancestor's chart verbatim, so only a change of side across
    ``f`` needs a transition."""
    anchor = pm.anchor(f)
    if forest.root_tet(anchor) == forest.root_tet(t_ref):
        return np.asarray(n, float), anchor
    other = next(t for t in pm.facet_cells[f] if t != anchor)
    tr = pm.cell_gluing(other, f, anchor)
    return np.asarray(tr.apply_vector(n), float), anchor


def trace_param(pm: ParamTetMesh, seed=None):
    """Brush fire through a seamless parametrization (on a working copy).

    Returns (refined mesh, wall field) with contiguous element ids. Queue
    entries are ordered primarily so that edges interior to original tets
    take precedence over edges on original facets, secondarily by distance.
    """
    return _trace(pm, seed, stop_at_burnt=True)


def trace_param_base(pm: ParamTetMesh, seed=None):
    """Conforming variant: fronts never stop at burnt terrain, so walls run
    from singularities all the way to the boundary."""
    return _trace(pm, seed, stop_at_burnt=False)


def _trace(pm, seed, stop_at_burnt):
    work = pm.compact()[0]
    forest = SplitForest(work)
    field = {}
    _burn(work, field, _sources(work, forest, seed), stop_at_burnt,
          functools.partial(_spread, work, forest, field),
          functools.partial(_resolve, work, forest))
    _tag_boundary(work, field, 0.0)
    refined, fmap = work.compact()
    for f in field:
        if f not in fmap:  # tags are not carried over to the pieces of a split facet
            raise MeshError(f"tagged facet {f} was split after the fire reached it")
    return refined, {fmap[f]: d for f, d in field.items()}


def _sources(pm, forest, seed):
    """Queue entries of the ignition sources: each source is lit in the live
    descendants of its tet, splitting at its iso-plane where needed."""
    for source in ignition_sources_param(pm, seed):
        for e, t in forest.live_sources(pm, *source):
            f = split_iso(pm, e, t, forest)
            if f is not None and not pm.facet_boundary[f]:
                n = _ignition_direction(pm, e, f)
                yield forest.order(pm, e), 0.0, e, f, (tuple(n), pm.anchor(f))

"""Brush-fire wall tracing on hexahedral meshes.

Fire walls start at singular edges and spread facet-by-facet through the
mesh along straight continuations. A wall field is a dict from each tagged
facet to the distance at which the fire reached it (integers here, reals on
parametrizations); every boundary facet is tagged at distance 0. Its facets
form the walls of the decomposition.

One engine, ``_burn``, runs the fire fronts; its three callers differ only
in whether a front stops where it would cross terrain that is already burnt
and in the order the sources are lit:

- ``trace_hex``: all sources at once, fronts stop at burnt terrain (the
  motorcycle complex);
- ``trace_hex_sparse``: sources one at a time, each fire run to completion,
  sources that are not ``necessary()`` at their turn skipped;
- ``trace_hex_base``: all sources at once, fronts never stop (the
  conforming base complex).
"""

from __future__ import annotations

import heapq
import random


def alive(mesh, field, e) -> bool:
    """True iff at most two facets incident to ``e`` are tagged, or ``e`` is singular."""
    if mesh.singular(e):
        return True
    return sum(1 for f in mesh.edge_facets[e] if f in field) <= 2


def ignition_sources(mesh, seed=None):
    """Fire sources: (singular edge, incident interior facet) pairs.

    Ordered by edge id then facet fan position; a seed permutes the order to
    probe tie sensitivity while keeping runs reproducible.
    """
    sources = []
    for e in mesh.singular_edges():
        fan_f, _, _ = mesh.edge_fan(e)
        for f in fan_f:
            if not mesh.facet_boundary[f]:
                sources.append((e, f))
    if seed is not None:
        random.Random(seed).shuffle(sources)
    return sources


def _tag_boundary(mesh, field, d=0):
    """Tag every live boundary facet not tagged yet, at distance ``d``."""
    for f in range(mesh.n_facets):
        if mesh.facet_live[f] and mesh.facet_boundary[f]:
            field.setdefault(f, d)


def _burn(mesh, field, sources, stop_at_burnt):
    """Run fire fronts from ``sources`` ((edge, facet) pairs) into ``field``,
    a dict facet -> distance.

    Entries are popped smallest distance first, FIFO among equal distances.
    Spreading pushes the straight continuation across every regular interior
    edge of a freshly tagged facet. With ``stop_at_burnt`` an entry whose
    edge is no longer alive() is dropped.
    """
    heap = []
    seq = 0
    for e, f in sources:
        heapq.heappush(heap, (0, seq, e, f))
        seq += 1
    while heap:
        d, _, e, f = heapq.heappop(heap)
        if f in field or (stop_at_burnt and not alive(mesh, field, e)):
            continue
        field[f] = d
        for e2 in field_spread_edges(mesh, f, e):
            f2 = mesh.opp_facet(e2, f)
            if f2 is not None and f2 not in field:
                heapq.heappush(heap, (d + 1, seq, e2, f2))
                seq += 1


def trace_hex(mesh, seed=None) -> dict:
    """Simultaneous brush fire from every ignition source; fronts stop at
    burnt terrain. Boundary facets are tagged at the end."""
    field = {}
    _burn(mesh, field, ignition_sources(mesh, seed), stop_at_burnt=True)
    _tag_boundary(mesh, field)
    return field


def field_spread_edges(mesh, f, e):
    """Regular interior edges of facet ``f`` other than ``e``."""
    out = []
    for e2 in mesh.facet_edges[f]:
        if e2 == e or mesh.edge_boundary[e2]:
            continue
        if not mesh.singular(e2):
            out.append(e2)
    return out


def necessary(mesh, field, e, f) -> bool:
    """Whether skipping fire source (e, f) would leave an inner angle of 270° or more.

    Evaluated over the (possibly cyclically self-overlapping) facet sequence
    f-2, f-1, f, f+1, f+2 around singular edge ``e``: true iff f-1 and f+1
    are both unburnt, or f-1 and f+2 are burnt but f+1 is not, or f-2 and
    f+1 are burnt but f-1 is not. Facet positions that do not exist in an
    open boundary fan count as unburnt.
    """
    fan = mesh.edge_fan(e)
    i = fan.facets.index(f)

    def burnt(j):
        return fan.facet(j) in field

    if not burnt(i - 1) and not burnt(i + 1):
        return True
    if burnt(i - 1) and burnt(i + 2) and not burnt(i + 1):
        return True
    if burnt(i - 2) and burnt(i + 1) and not burnt(i - 1):
        return True
    return False


def trace_hex_sparse(mesh, seed=None) -> dict:
    """Serial variant: sources processed one at a time, each fire run to
    completion, and sources that are not necessary() at their turn skipped."""
    field = {}
    for e, f in ignition_sources(mesh, seed):
        if f in field or not necessary(mesh, field, e, f):
            continue
        _burn(mesh, field, [(e, f)], stop_at_burnt=True)
    _tag_boundary(mesh, field)
    return field


def trace_hex_base(mesh, seed=None) -> dict:
    """Base-complex tagging: fronts spread across every regular interior
    edge without ever stopping at burnt terrain, so walls extend until the
    boundary or singularities. The result is conforming (no T-joints)."""
    field = {}
    _burn(mesh, field, ignition_sources(mesh, seed), stop_at_burnt=False)
    _tag_boundary(mesh, field)
    return field

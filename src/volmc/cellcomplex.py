"""Generalized cell complex on top of a wall field: nodes, arcs, walls and
blocks, plus block classification, torus splitting and reduction by wall
retraction.

Works on any mesh implementing the generic cell-mesh interface (hexahedral
meshes and refined parametrized tet meshes), which places and measures wall
facets (``_wall_layout()``), counts turns around edges (``fan_turns``) and
counts the corners of blocks (``block_corners``).

Extraction and reduction build walls and blocks only, checking each wall's
layout as it is built; its segments and corners are derived on first read
(``_WallGeometry``), as reduction does for interior walls. The complex
derives the rest on first read and holds it: nodes, arcs, and per wall its
arc ids and sides, linked in one pass that derives every wall's facts (only
quantization and the T-arc statistics read them); and the corner count of
every block, which block classification and torus splitting read.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque

from .errors import IntegrityError, VolmcError
from .firehex import trace_hex, trace_hex_base
from .fireparam import trace_param, trace_param_base
from .hexmesh import LAYOUT_TOL
from .octahedral import _ROWS, Transition

_QUARTER_TOL = 0.25
log = logging.getLogger(__name__)


class Arc:
    """Maximal chain of arc edges bounded by nodes, or a closed loop."""

    __slots__ = ("id", "edges", "vertices", "walls", "singular", "tarc", "length")

    def __init__(self, id, edges, vertices, walls, singular, length):
        self.id = id
        self.edges = edges
        self.vertices = vertices
        self.walls = walls
        self.singular = singular
        self.length = length
        self.tarc = False


class Wall:
    __slots__ = ("id", "facets", "boundary", "distance", "_geom")

    def __init__(self, id, facets, boundary, distance, geom):
        self.id = id
        self.facets = facets
        self.boundary = boundary
        self.distance = distance
        self._geom = geom  # its _WallGeometry

    annulus = property(lambda self: self._geom.annulus)
    slit = property(lambda self: self._geom.slit)

    @property
    def dims(self):
        """(p, q) cell dimensions for rectangle walls, None otherwise."""
        b = self._geom.bbox
        return None if b is None else (b[1] - b[0], b[3] - b[2])


class Block:
    __slots__ = ("id", "cells")

    def __init__(self, id, cells):
        self.id = id
        self.cells = cells


class MotorcycleComplex:
    """Nodes, arcs, walls and blocks extracted from a wall field, with
    lookup maps back into the underlying mesh. Walls and blocks are built
    with the complex. The first read of ``nodes``, ``arcs``, ``arc_of``,
    ``wall_arcs`` or ``wall_sides`` links all five (``_link_arcs``), and the
    first ``is_cuboid`` counts the corners of every block; the complex holds
    both. Walls and blocks refer to no complex, so nothing forms a cycle."""

    def __init__(self, mesh, field):
        self.mesh = mesh
        self.field = field
        self.walls = []
        self.blocks = []
        self.wall_of = {}  # facet -> wall id
        self.block_of = {}  # cell -> block id
        self._edges = None  # the field's _EdgeTable
        self._nodes = None  # set, with the other linked facts, by _link_arcs
        self._corners = None  # corners per block id, set by is_cuboid

    def _linked(self):
        if self._nodes is None:
            _link_arcs(self)
        return self

    @property
    def nodes(self):
        """The node vertices, ascending; a node's id is its index."""
        return self._linked()._nodes

    @property
    def arcs(self):
        return self._linked()._arcs

    @property
    def arc_of(self):
        """Edge -> arc id."""
        return self._linked()._arc_of

    @property
    def wall_arcs(self):
        """Wall id -> its arc ids, ascending."""
        return self._linked()._wall_arcs

    @property
    def wall_sides(self):
        """Wall id -> 4 lists of arc ids for a rectangle wall, None otherwise."""
        return self._linked()._wall_sides

    def wall_facet_set(self):
        return set(self.field)


class _EdgeTable:
    """The per-edge facts of a wall field, derived once per edge with a
    tagged facet. ``pair[e]``: the two tagged facets at ``e``, ascending,
    when they continue one wall straight across it. At every other such
    edge (an arc edge), ``ring[e]``: for each tagged facet in fan order the
    facet, the quarter turns swept to the next one and the first cell
    crossed (None, None past the end of an open fan), flattened into one
    tuple. A quarter-turn count within ``_QUARTER_TOL`` of a whole number is
    stored as that int, so consumers compare it exactly."""

    __slots__ = ("mesh", "field", "pair", "ring")

    def __init__(self, mesh, field, pair, ring):
        self.mesh, self.field, self.pair, self.ring = mesh, field, pair, ring

    def facets(self, e):
        """The tagged facets at edge ``e``."""
        return self.pair.get(e) or self.ring.get(e, ())[::3]

    def derive(self, e):
        """Re-derive edge ``e`` from the field under ``validate_field``'s
        per-edge rules."""
        mesh = self.mesh
        self.pair.pop(e, None)
        self.ring.pop(e, None)
        facets, cells, closed = mesh.edge_fan(e)
        at = [i for i, f in enumerate(facets) if f in self.field]
        if not at:
            if not mesh.edge_boundary[e] and mesh.singular(e):
                raise IntegrityError(f"singular edge {e} in block interior")
            return
        ring = []
        for i, j in zip(at, at[1:] + [at[0] + len(cells) if closed else None]):
            q = c = None
            if j is not None:
                q, c = mesh.fan_turns(e, i, j), cells[i]
                if q > 2 + _QUARTER_TOL:
                    raise IntegrityError(
                        f"cell gap of {q * 90:.0f} degrees around edge {e} (open or missing wall)"
                    )
                if abs(q - (r := round(q))) <= _QUARTER_TOL:
                    q = r
            ring += (facets[i], q, c)
        if len(at) == 2 and not mesh.singular(e):
            f, g = sorted(ring[::3])
            if mesh.opp_facet(e, f) == g:
                self.pair[e] = (f, g)
                return
        self.ring[e] = tuple(ring)

    def untag(self, facets):
        """Untag ``facets`` and re-derive the edges they touch, in ascending
        order: every other edge keeps its facts, so this raises exactly when,
        and as, ``validate_field`` of the new field would."""
        for f in sorted(facets):
            if self.mesh.facet_boundary[f]:
                raise IntegrityError(f"boundary facet {f} untagged")
        changed = set()
        for f in facets:
            self.field.pop(f)
            changed.update(self.mesh.facet_edges[f])
        for e in sorted(changed):
            self.derive(e)


def validate_field(mesh, field):
    """Sanity of a tracer fixpoint: boundary tagged, no open wall edges, and
    no cell gap wider than 180° around any edge lying on a wall. Returns the
    field's ``_EdgeTable``."""
    for f in range(mesh.n_facets):
        if mesh.facet_boundary[f] and f not in field:
            raise IntegrityError(f"boundary facet {f} untagged")
    edges = _EdgeTable(mesh, field, {}, {})
    on_walls = {e for f in field for e in mesh.facet_edges[f]}
    for e in range(mesh.n_edges):
        # derive raises for a singular interior edge without a tagged facet
        if e in on_walls or (not mesh.edge_boundary[e] and mesh.singular(e)):
            edges.derive(e)
    return edges


class _WallGeometry:
    """2D layout of a wall, placed by the mesh's ``_wall_layout()`` hooks and
    checked on its bbox and area by ``_lay_out_walls``: coordinates per facet
    corner slot in ``facet_corners`` order (the sorted key on a tet mesh),
    integers on a hex mesh and chart coordinates on a tet mesh, and whether it
    wraps as an annulus. Its other facts are derived together on first read
    (``_derive``). Coordinates count as equal within ``LAYOUT_TOL``, integer ones exactly."""

    __slots__ = ("annulus", "corner_coords", "_edges", "_bbox", "_slit", "_segments",
                 "_sides", "_corners")

    def __init__(self, edges, place, annulus, bbox):  # bbox: the rectangle's, if it is one
        self._edges, self.corner_coords, self.annulus, self._bbox = edges, place, annulus, bbox

    def _derived(self):
        if self._edges is not None:
            self._derive()
        return self

    slit = property(lambda self: self._derived()._slit)
    bbox = property(lambda self: self._derived()._bbox)  # None unless a rectangle
    boundary_segments = property(lambda self: self._derived()._segments)  # (edge, (p, q))
    segment_sides = property(lambda self: self._derived()._sides)  # 0..3, for rectangles
    corner_vertices = property(lambda self: self._derived()._corners)

    def _derive(self):
        """Boundary segments ordered by vertex id, corner vertices (on both a
        horizontal and a vertical segment), the slit verdict and, for a
        rectangle, bbox and segment sides, from the placement and the edge
        table the wall was built on. A diagonal segment, facet areas summing
        to less than the bounding box (an L shape) or a segment off its
        perimeter (as on block facets shared with several other walls) make
        the wall a slit: no side structure, never removable."""
        mesh, pair, place = self._edges.mesh, self._edges.pair, self.corner_coords
        segments, on_segments = [], (set(), set())  # vertices on vertical, horizontal ones
        slit = self._bbox is None and not self.annulus
        for f in sorted(place):
            vs, co = mesh.facet_corners[f], place[f]
            for e, (i, j) in zip(mesh.facet_edges[f], mesh.FACET_EDGES):
                if e in pair:
                    continue
                va, vb, p, q = vs[i], vs[j], co[i], co[j]
                if va > vb:
                    va, vb, p, q = vb, va, q, p
                segments.append((e, (p, q)))
                horizontal = abs(p[1] - q[1]) <= LAYOUT_TOL
                if not horizontal and abs(p[0] - q[0]) > LAYOUT_TOL:
                    slit = True
                    continue
                on_segments[horizontal].update((va, vb))
        sides = None
        if not (slit or self.annulus):
            sides = [_segment_side(self._bbox, p, q) for _, (p, q) in segments]
            slit = None in sides
        self._segments, self._corners = segments, on_segments[0] & on_segments[1]
        self._slit, self._sides, self._edges = slit, None if slit else sides, None
        if slit:
            self._bbox = None


def _lay_out_walls(edges, facets):
    """The walls made of the tagged ``facets``, in order of lowest facet:
    per wall its sorted facets and its layout. One breadth-first flood under
    ``edges.pair`` from a wall's lowest facet finds the wall and places each
    facet it reaches by the mesh's ``_wall_layout()`` hooks, taking bbox and
    area as it goes. A facet placed twice by a shift makes the wall an
    annulus; by anything else it raises. A wall is checked before the next is flooded."""
    mesh, pair, walls, seen = edges.mesh, edges.pair, [], set()
    place_seed, place_across, area_of = mesh._wall_layout()
    for seed in sorted(facets):
        if seed in seen:
            continue
        place, dq, annulus, area = {seed: place_seed(seed)}, deque([seed]), False, 0.0
        x0, y0 = x1, y1 = place[seed][0]
        while dq:
            f = dq.popleft()
            area += area_of(place[f])  # summed in placement order
            for x, y in place[f]:
                if x < x0 or x > x1:
                    x0, x1 = (x, x1) if x < x0 else (x0, x)
                if y < y0 or y > y1:
                    y0, y1 = (y, y1) if y < y0 else (y0, y)
            for k, e in enumerate(mesh.facet_edges[f]):
                g = pair.get(e)
                if g is None:
                    continue
                g = g[0] if g[1] == f else g[1]
                co = place_across(f, place[f], k, e, g)
                old = place.get(g)
                if old is None:
                    place[g] = co
                    dq.append(g)
                elif old != co:
                    d = [x - y for o, q in zip(old, co) for x, y in zip(o, q)]  # dx, dy per corner
                    if max(map(abs, d)) > LAYOUT_TOL:
                        if max(abs(x - d[i % 2]) for i, x in enumerate(d)) > LAYOUT_TOL:
                            raise IntegrityError("twisted wall layout")  # not one shift
                        annulus = True
        seen.update(place)
        walls.append((sorted(place), _WallGeometry(edges, place, True, None) if annulus
                      else _unwrapped_geometry(edges, place, (x0, x1, y0, y1), area)))
    return walls


def _unwrapped_geometry(edges, place, bbox, area):
    """The layout ``place`` of a wall that is no annulus, keeping ``bbox`` if
    it is a rectangle. Facet ``area`` summing to more than the bbox raises,
    unless the wall has a diagonal boundary segment (a slit)."""
    mesh, pair = edges.mesh, edges.pair
    x0, x1, y0, y1 = bbox
    excess, tol = area - (x1 - x0) * (y1 - y0), LAYOUT_TOL * max(1.0, area)
    if excess > tol and not any(  # a diagonal boundary segment makes it a slit instead
            abs(co[i][0] - co[j][0]) > LAYOUT_TOL and abs(co[i][1] - co[j][1]) > LAYOUT_TOL
            for f, co in place.items()
            for e, (i, j) in zip(mesh.facet_edges[f], mesh.FACET_EDGES) if e not in pair):
        raise IntegrityError("wall overlaps itself")
    return _WallGeometry(edges, place, False, bbox if abs(excess) <= tol else None)


def _segment_side(bbox, p, q):
    """Side index 0..3 of a boundary segment of a rectangle wall layout,
    from its coordinates; None for off-perimeter segments. Stays correct
    when an edge occurs on two opposite sides (walls wrapping around a
    split torus)."""
    x0, x1, y0, y1 = bbox
    horizontal = abs(p[1] - q[1]) <= LAYOUT_TOL
    for side, at in ((0, y0), (2, y1)) if horizontal else ((3, x0), (1, x1)):
        if abs(p[horizontal] - at) <= LAYOUT_TOL:
            return side
    return None


def _make_wall(edges, wid, facets, geom):
    """Wall ``wid`` of the sorted tagged ``facets``, laid out as ``geom``."""
    return Wall(wid, frozenset(facets), bool(edges.mesh.facet_boundary[facets[0]]),
                max(map(edges.field.__getitem__, facets)), geom)


def extract_complex(mesh, field) -> MotorcycleComplex:
    """Discover the full node/arc/wall/block structure of a wall field (a
    dict facet -> distance). Each wall's layout is checked here; its facts
    are derived on first read."""
    edges = validate_field(mesh, field)
    walls = [_make_wall(edges, wid, *wall) for wid, wall in enumerate(_lay_out_walls(edges, field))]

    # Blocks: components of cells not separated by tagged facets.
    parent = list(range(mesh.n_cells))

    def root(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for f, cells in enumerate(mesh.facet_cells):
        if len(cells) == 2 and f not in field:
            a, b = sorted((root(cells[0]), root(cells[1])))
            parent[b] = a
    mc = _assemble(edges, walls, root)
    if log.isEnabledFor(logging.DEBUG):  # the arc count links the complex
        log.debug("extract: %d walls, %d arcs, %d blocks",
                  len(mc.walls), len(mc.arcs), len(mc.blocks))
    return mc


def _assemble(edges, walls, root):
    """The complex of the field of edge table ``edges`` with ``walls``,
    numbered by lowest facet, and the blocks of cells grouped by
    ``root(c)``; nodes and arcs are linked on first read."""
    mc = MotorcycleComplex(edges.mesh, edges.field)
    mc._edges, mc.walls = edges, walls
    mc.wall_of = {f: w.id for w in walls for f in w.facets}
    _add_blocks(mc, root)
    return mc


def _add_blocks(mc, root):
    """The blocks of ``mc``: the cells grouped by ``root(c)``, numbered by
    lowest cell."""
    mesh, cells_of = mc.mesh, {}
    for c in range(mesh.n_cells):
        cells_of.setdefault(root(c), []).append(c)
    for bid, cells in enumerate(cells_of.values()):
        mc.blocks.append(Block(bid, frozenset(cells)))
        mc.block_of.update(dict.fromkeys(cells, bid))


def _link_arcs(mc):
    """Nodes and arcs of the walls of ``mc`` from its edge table, with
    ``arc_of``, each wall's arc ids and each rectangle wall's arc ids per
    side, stored on ``mc``. Arc edges are the edges on a wall but not
    interior to one."""
    table, wall_of, geoms = mc._edges, mc.wall_of, [w._geom for w in mc.walls]
    mesh = table.mesh
    sig = {  # arc edge -> (its walls, whether it is singular)
        e: (frozenset(wall_of[f] for f in ring[::3]), mesh.singular(e))
        for e, ring in table.ring.items()
    }

    corner_vertices = set().union(*(geom.corner_vertices for geom in geoms))
    incident = mesh.edge_incidence(sig)
    nodes = {v for v, es in incident.items()
             if len(es) != 2 or v in corner_vertices or sig[es[0]] != sig[es[1]]}
    chains = mesh.edge_chains(incident, nodes)

    ring, arcs, arc_of = table.ring, [], {}
    for aid, (chain, verts) in enumerate(chains):
        walls, singular = sig[chain[0]]
        for e in chain[1:]:
            if sig[e] != (walls, singular):
                raise IntegrityError(f"inconsistent arc chain at edge {e}")
        length = sum(mesh.edge_param_length(e) for e in chain)
        arc = Arc(aid, chain, verts, walls, singular, length)
        arc.tarc = (not arc.singular) and any(2 in ring[e][1::3] for e in chain)
        arcs.append(arc)
        arc_of.update(dict.fromkeys(chain, aid))

    wall_arcs = [[] for _ in geoms]
    for arc in arcs:
        for wid in arc.walls:
            wall_arcs[wid].append(arc.id)
    wall_sides = [None] * len(geoms)
    for wid, geom in enumerate(geoms):
        wall_arcs[wid].sort()
        if geom.segment_sides is not None:
            # An arc may occur on two different sides of the same wall (a
            # wall wrapping around a split torus), so group per side.
            per_side = [{} for _ in range(4)]
            for (e, (p, q)), side in zip(geom.boundary_segments, geom.segment_sides):
                aid = arc_of[e]
                key = min(p, q)
                if aid not in per_side[side] or key < per_side[side][aid]:
                    per_side[side][aid] = key
            wall_sides[wid] = [
                [aid for _, aid in sorted((k, a) for a, k in d.items())]
                for d in per_side
            ]
    mc._nodes, mc._arcs, mc._arc_of = sorted(nodes), arcs, arc_of
    mc._wall_arcs, mc._wall_sides = wall_arcs, wall_sides


# -- block classification ----------------------------------------------------


def is_cuboid(mc, bid) -> bool:
    """Whether block ``bid`` is a cuboid (8 corners) rather than toroidal (0
    corners); any other count raises. A corner is a vertex sector of one
    octant; the mesh counts them for every block at once."""
    if mc._corners is None:
        mc._corners = mc.mesh.block_corners(mc.field, mc.block_of, len(mc.blocks))
    n = mc._corners[bid]
    if n not in (0, 8):
        raise IntegrityError(f"block {bid} has {n} corners (must be 0 or 8)")
    return n == 8


# -- torus splitting ---------------------------------------------------------


def split_tori(mc: MotorcycleComplex) -> MotorcycleComplex:
    """Cut every toroidal block with one confined fire wall so that all
    blocks become (possibly self-adjacent) cuboids."""
    mesh, cut = mc.mesh, 0
    while True:
        toroidal = [b.id for b in mc.blocks if not is_cuboid(mc, b.id)]
        if not toroidal:
            log.debug("split_tori: %d tori cut", cut)
            return mc
        block = mc.blocks[toroidal[0]]
        # Seed the cut at the lowest vertex of the block's first arc, by id,
        # that has a seed facet there: after one of several tori around a
        # singular loop is cut, the lowest arc of the next can be that cut's
        # T-arc, which has none.
        field, iso = mc.field, getattr(mesh, "iso_facet", None)
        walls = {mc.wall_of[f] for c in block.cells for f in mesh.cell_facets[c] if f in mc.wall_of}
        for aid in sorted({a for w in walls for a in mc.wall_arcs[w]}):
            arc = mc.arcs[aid]
            v = min(arc.vertices)
            arc_edges_at_v = {e for e in arc.edges if v in mesh.edge_keys[e]}
            # The cut must run along a parametric iso-surface; tet facets
            # crossing the iso-planes cannot carry it.
            seeds = sorted({
                f for c in mesh.vertex_cells[v] if c in block.cells for f in mesh.cell_facets[c]
                if f not in field and v in mesh.facet_keys[f]
                and arc_edges_at_v.isdisjoint(mesh.facet_edges[f]) and (iso is None or iso(f))
                and all(c2 in block.cells for c2 in mesh.facet_cells[f])})
            if seeds:
                break
        else:
            raise VolmcError(f"no arc of toroidal block {block.id} has a cut seed facet "
                             "at its lowest vertex")
        new_field, dq = field | dict.fromkeys(seeds, 0), deque(seeds)
        while dq:
            f = dq.popleft()
            for e in mesh.facet_edges[f]:
                if mesh.edge_boundary[e] or mesh.singular(e):
                    continue
                if any(g in field for g in mesh.edge_facets[e]):
                    continue  # confined: stop at pre-existing walls
                f2 = mesh.opp_facet(e, f)
                if f2 is not None and f2 not in new_field:
                    new_field[f2] = 0
                    dq.append(f2)
        mc = extract_complex(mesh, new_field)
        cut += 1


# -- reduction ---------------------------------------------------------------


def _retractable(edges, w, block, mode):
    """Whether removing wall ``w`` of the field of edge table ``edges``
    merges its two adjacent blocks into a cuboid, with ``block(c)`` the
    block of cell ``c``: the blocks are distinct and at every perimeter edge
    (the edges of its boundary segments) both form a 90° edge and are
    distinct; in regular mode no perimeter edge may be singular."""
    if mode not in ("full", "regular"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    if w.boundary or w.annulus or w.slit:
        return False
    mesh = edges.mesh
    if len({block(c) for f in w.facets for c in mesh.facet_cells[f]}) != 2:
        return False
    for e, _ in w._geom.boundary_segments:
        if mode == "regular" and mesh.singular(e):
            return False
        ring = edges.ring[e]
        wf = [i for i in range(0, len(ring), 3) if ring[i] in w.facets]
        if len(wf) != 1:
            return False
        # The gap before the wall's facet is the one after the previous
        # tagged facet, wrapping around: on an open fan the first facet has
        # none, as the last (a boundary facet) has no gap after it.
        i, sides = wf[0], []
        for q, c in ((ring[i + 1], ring[i + 2]), (ring[i - 2], ring[i - 1])):
            if q != 1:
                return False
            sides.append(block(c))
        if sides[0] == sides[1]:
            return False
    return True


def removable_walls(mc, mode="full"):
    """The ids of the walls of ``mc`` whose removal merges their two
    adjacent blocks into a cuboid (``_retractable``)."""
    return [w.id for w in mc.walls if _retractable(mc._edges, w, mc.block_of.__getitem__, mode)]


def reduce_complex(mc: MotorcycleComplex, mode="full") -> MotorcycleComplex:
    """Greedy wall retraction: repeatedly remove the farthest removable wall
    until the complex is irreducible in the given mode.

    Ties go to the wall with the lowest min facet, which is the lowest wall
    id, as extraction numbers walls in order of min facet. The retraction
    runs on one local state: the edge table, the walls keyed by min facet, a
    union-find over ``mc.block_of`` and one heap of (distance, key) entries.
    A popped entry is skipped when its wall is gone, has another distance
    or is no longer removable, tested again at pop. Removing wall W untags
    facets only at W's edges, and an edge of W's facets that holds another
    wall's facet is a boundary segment of both, so walls only merge (across
    W's perimeter edges), never split: only the walls with a facet at W's
    perimeter see their fans change, and only those that now continue
    straight across one of its perimeter edges are re-flooded and get a
    new, checked layout. The walls at W's perimeter and the merged walls
    are tested as soon as W is removed, and pushed if removable. Every other
    wall keeps its facets and fans, and merging W's two blocks can only take
    its removability away, since every block test asks for distinct blocks.
    So every removable wall has an entry, and each step removes the
    farthest wall removable at that moment. Which edges of a live wall's
    facets pair never changes, so its facts, derived on first read, do not
    depend on when that is (W's perimeter is read before its facets are
    untagged). The edge table re-derives, and so re-validates, the edges of
    W's facets; every other edge keeps its facts.

    The result is assembled from the state, numbered as ``extract_complex``
    numbers the final field: walls by lowest facet, keeping their geometry,
    and blocks from the union-find by lowest cell. Nodes and arcs are linked
    on first read, by the same ``_link_arcs`` as an extracted complex's.
    When no wall is removable, ``mc`` itself is returned.
    """
    for b in mc.blocks:
        if not is_cuboid(mc, b.id):
            raise VolmcError("reduce requires cuboid blocks; run split_tori first")
    mesh = mc.mesh
    edges = _EdgeTable(mesh, mc.field.copy(), dict(mc._edges.pair), dict(mc._edges.ring))
    walls = {min(w.facets): w for w in mc.walls}
    wall_of = {f: k for k, w in walls.items() for f in w.facets}
    parent = list(range(len(mc.blocks)))

    def block(c):
        b = mc.block_of[c]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    heap, fresh = [], set()  # fresh: keys of the walls laid out here
    tests = rebuilt = removed = 0

    def test(k):
        nonlocal tests
        tests += 1
        return _retractable(edges, walls[k], block, mode)

    def push(keys):
        for k in keys:
            if test(k):
                heapq.heappush(heap, (-walls[k].distance, k))

    push(walls)
    while heap:
        neg_dist, k = heapq.heappop(heap)
        if k not in walls or walls[k].distance != -neg_dist or not test(k):
            continue  # stale entry, or no longer removable
        w = walls.pop(k)
        removed += 1
        a, b = sorted({block(c) for f in w.facets for c in mesh.facet_cells[f]})
        parent[b] = a
        perimeter = [e for e, _ in w._geom.boundary_segments]  # read before untagging
        edges.untag(w.facets)
        for f in w.facets:
            del wall_of[f]
        touched, joined = set(), set()  # walls at W's perimeter; those it now joins
        for e in perimeter:
            tags = edges.facets(e)
            touched.update(wall_of[g] for g in tags)
            if e in edges.pair:
                joined.update(wall_of[g] for g in tags)
        merged = _lay_out_walls(edges, [f for t in joined for f in walls.pop(t).facets])
        for facets, geom in merged:
            walls[facets[0]] = _make_wall(edges, facets[0], facets, geom)
            rebuilt += 1
            fresh.add(facets[0])
            wall_of.update(dict.fromkeys(facets, facets[0]))
        push({facets[0] for facets, _ in merged} | (touched & walls.keys()))
    log.debug("reduce %s: %d walls removed, %d removability tests, %d wall geometries "
              "rebuilt, %d reused", mode, removed, tests, rebuilt, len(walls.keys() - fresh))
    if not removed:
        return mc
    return _assemble(edges, [Wall(wid, w.facets, w.boundary, w.distance, w._geom)
                             for wid, w in enumerate(walls[k] for k in sorted(walls))], block)


# -- tracer dispatch and the two complexes -----------------------------------


def _trace(mesh, seed=None, base=False):
    """(mesh, wall field) from the tracer matching the mesh kind. The
    parametrization tracers refine a copy of the mesh and return it; the hex
    tracers return ``mesh`` itself. ``base`` selects the conforming tracers,
    whose fronts never stop at burnt terrain."""
    if mesh.kind == "hex":
        return mesh, (trace_hex_base if base else trace_hex)(mesh, seed)
    return (trace_param_base if base else trace_param)(mesh, seed)


def motorcycle_complex(mesh, seed=None) -> MotorcycleComplex:
    """The torus-split motorcycle complex of a hex mesh or parametrization."""
    return split_tori(extract_complex(*_trace(mesh, seed)))


def base_complex(mesh, seed=None) -> MotorcycleComplex:
    """The torus-split conforming complex: its walls never stop at others."""
    return split_tori(extract_complex(*_trace(mesh, seed, base=True)))


# -- grid-block oracle (hex pipeline) ----------------------------------------


def grid_block_coords(mesh, field, cells):
    """Directional flood fill of a block's hexes onto an integer grid.

    Returns (dims, trans): the (l, m, n) dimensions and a per-hex Transition
    mapping the hex's unit cube into the block grid, normalized so the grid
    starts at the origin. Transport composes, exactly, the integer
    transitions of the ``face_gluing`` table keyed by corner slots. Raises
    IntegrityError if the cells do not biject onto a full l x m x n box.
    """
    cells = set(cells)
    seed = min(cells)
    trans = {seed: Transition(t=(0, 0, 0))}
    dq = deque([seed])
    while dq:
        c = dq.popleft()
        for f in sorted(mesh.cell_facets[c]):
            if f in field:
                continue
            for c2 in mesh.facet_cells[f]:
                if c2 == c:
                    continue
                if c2 not in cells:
                    raise IntegrityError(f"untagged facet {f} leaves the block")
                t2 = trans[c].compose(mesh.cell_gluing(c2, f, c))
                if c2 in trans:
                    if trans[c2] != t2:
                        raise IntegrityError("block chart transport is inconsistent (wrap)")
                else:
                    trans[c2] = t2
                    dq.append(c2)
    pos = set()  # grid cells taken
    for c, t in trans.items():
        # Corner (0, 0, 0) lands at t.t, corner (1, 1, 1) at the row sums of R plus t.t.
        p = tuple(int(round(min(x, sum(row) + x))) for row, x in zip(_ROWS[t.rot], t.t))
        if p in pos:
            raise IntegrityError("two hexes map to the same grid cell")
        pos.add(p)
    if len(pos) != len(cells):
        raise IntegrityError("block flood fill did not reach all cells")
    lo = [min(p[i] for p in pos) for i in range(3)]
    hi = [max(p[i] for p in pos) for i in range(3)]
    dims = tuple(hi[i] - lo[i] + 1 for i in range(3))
    if dims[0] * dims[1] * dims[2] != len(cells):
        raise IntegrityError(f"block cells do not fill a {dims} grid")
    shift = Transition(t=(-lo[0], -lo[1], -lo[2]))
    return dims, {c: shift.compose(t) for c, t in trans.items()}


def check_grid_blocks(mc: MotorcycleComplex):
    """Run the grid oracle on every block; returns the list of dimensions."""
    return [grid_block_coords(mc.mesh, mc.field, b.cells)[0] for b in mc.blocks]

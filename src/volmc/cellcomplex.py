"""Generalized cell complex on top of a wall field: nodes, arcs, walls and
blocks, plus block classification, torus splitting and reduction by wall
retraction.

Works on any mesh implementing the generic cell-mesh interface (hexahedral
meshes and refined parametrized tet meshes). Wall rectangle geometry is
specialized per mesh kind.
"""

from __future__ import annotations

from collections import deque

from .errors import IntegrityError, VolmcError
from .firehex import WallField, trace_hex, trace_hex_base
from .octahedral import ROTATIONS, Transition, rotation_index

_QUARTER_TOL = 0.25


class BlockType:
    """Cuboid, or toroidal with a twist counted in quarter turns."""

    __slots__ = ("kind", "twist")

    def __init__(self, kind, twist=0):
        self.kind = kind
        self.twist = twist

    @property
    def cuboid(self):
        return self.kind == "cuboid"

    def __eq__(self, other):
        return (
            isinstance(other, BlockType)
            and self.kind == other.kind
            and self.twist == other.twist
        )

    def __repr__(self):
        if self.kind == "cuboid":
            return "BlockType(cuboid)"
        return f"BlockType(toroidal, twist={self.twist})"


class Node:
    __slots__ = ("id", "vertex")

    def __init__(self, id, vertex):
        self.id = id
        self.vertex = vertex


class Arc:
    """Maximal chain of arc edges bounded by nodes, or a closed loop."""

    __slots__ = ("id", "edges", "vertices", "nodes", "walls", "singular", "tarc", "length", "loop")

    def __init__(self, id, edges, vertices, nodes, walls, singular, length, loop):
        self.id = id
        self.edges = edges
        self.vertices = vertices
        self.nodes = nodes
        self.walls = walls
        self.singular = singular
        self.length = length
        self.loop = loop
        self.tarc = False


class Wall:
    __slots__ = ("id", "facets", "boundary", "annulus", "slit", "distance", "arcs", "sides", "dims", "_geom")

    def __init__(self, id, facets, boundary, distance):
        self.id = id
        self.facets = facets
        self.boundary = boundary
        self.distance = distance
        self.annulus = False
        self.slit = False
        self.arcs = []
        self.sides = None  # 4 lists of arc ids for rectangle walls
        self.dims = None  # (p, q) cell dimensions for rectangle walls
        self._geom = None


class Block:
    __slots__ = ("id", "cells", "walls", "type")

    def __init__(self, id, cells, walls):
        self.id = id
        self.cells = cells
        self.walls = walls
        self.type = None


class MotorcycleComplex:
    """Nodes, arcs, walls and blocks extracted from a wall field, with
    lookup maps back into the underlying mesh."""

    def __init__(self, mesh, field):
        self.mesh = mesh
        self.field = field
        self.nodes = []
        self.arcs = []
        self.walls = []
        self.blocks = []
        self.wall_of = {}  # facet -> wall id
        self.arc_of = {}  # edge -> arc id
        self.block_of = {}  # cell -> block id
        self.node_of = {}  # vertex -> node id

    @property
    def n_blocks(self):
        return len(self.blocks)

    def wall_facet_set(self):
        return set(self.field.tagged)


def _tagged_at(mesh, field, e):
    return [f for f in mesh.edge_facets[e] if f in field.tagged]


def _gap(mesh, field, fan, e, i, step):
    """Walk from tagged facet ``fan.facets[i]`` in direction ``step`` (±1) to
    the next tagged facet: (quarter turns swept, first cell crossed), or None
    if the walk runs off the end of an open fan."""
    side = 0 if step == 1 else -1  # fan.cell(j + side) lies beyond facet j
    first = cell = fan.cell(i + side)
    q = 0.0
    j = i
    while cell is not None:
        q += mesh.cell_angle_quarters(cell, e)
        j += step
        if fan.facet(j) in field.tagged:
            return q, first
        cell = fan.cell(j + side)
    return None


def _fan_gaps(mesh, field, e):
    """Cell gaps (in quarter turns) between consecutive tagged facets in the
    fan around edge ``e``. Requires at least one tagged facet at ``e``."""
    fan = mesh.edge_fan(e)
    tag_idx = [i for i, f in enumerate(fan.facets) if f in field.tagged]
    if not tag_idx:
        raise IntegrityError(f"no tagged facet at edge {e}")
    gaps = (_gap(mesh, field, fan, e, i, 1) for i in tag_idx)
    return [g[0] for g in gaps if g is not None]


def validate_field(mesh, field):
    """Sanity of a tracer fixpoint: boundary tagged, no open wall edges, and
    no cell gap wider than 180° around any edge lying on a wall."""
    for f in range(mesh.n_facets):
        if mesh.facet_boundary[f] and f not in field.tagged:
            raise IntegrityError(f"boundary facet {f} untagged")
    for e in range(mesh.n_edges):
        tagged = _tagged_at(mesh, field, e)
        if not tagged:
            if not mesh.edge_boundary[e] and mesh.classify_edge(e).singular:
                raise IntegrityError(f"singular edge {e} in block interior")
            continue
        for g in _fan_gaps(mesh, field, e):
            if g > 2 + _QUARTER_TOL:
                raise IntegrityError(
                    f"cell gap of {g * 90:.0f} degrees around edge {e} (open or missing wall)"
                )


def _wall_neighbor(mesh, field, f, e):
    """The facet continuing ``f``'s wall straight across edge ``e``, or None
    when ``e`` is not interior to a wall."""
    tagged = _tagged_at(mesh, field, e)
    if (
        len(tagged) != 2
        or mesh.classify_edge(e).singular
        or mesh.opp_facet(e, tagged[0]) != tagged[1]
    ):
        return None
    return tagged[0] if tagged[1] == f else tagged[1]


def _wall_components(mesh, field):
    comp_of = {}
    comps = []
    for seed in sorted(field.tagged):
        if seed in comp_of:
            continue
        comp = []
        dq = deque([seed])
        comp_of[seed] = len(comps)
        while dq:
            f = dq.popleft()
            comp.append(f)
            for e in mesh.facet_edges[f]:
                other = _wall_neighbor(mesh, field, f, e)
                if other is not None and other not in comp_of:
                    comp_of[other] = len(comps)
                    dq.append(other)
        comps.append(sorted(comp))
    return comps, comp_of


class _WallGeometry:
    """2D layout of a wall: integer (hex) or parametric (tet) coordinates per
    facet corner slot, annulus wrap detection, boundary segments, corners."""

    __slots__ = (
        "annulus", "slit", "cells", "bbox", "boundary_segments",
        "corner_vertices", "corner_coords",
    )

    def __init__(self):
        self.annulus = False
        self.slit = False
        self.cells = None
        self.bbox = None
        self.boundary_segments = []  # (edge id, (p2d, q2d))
        self.corner_vertices = set()
        self.corner_coords = {}  # facet -> 2D coords per facet_corners slot


def _hex_wall_geometry(mesh, field, facets):
    seed = facets[0]
    place = {seed: ((0, 0), (1, 0), (1, 1), (0, 1))}
    geom = _WallGeometry()
    dq = deque([seed])
    while dq:
        f = dq.popleft()
        quad = mesh.facet_corners[f]
        co = place[f]
        cx = sum(p[0] for p in co) / 4.0
        cy = sum(p[1] for p in co) / 4.0
        for k in range(4):
            va, vb = quad[k], quad[(k + 1) % 4]
            e = mesh.edge_id[(va, vb) if va < vb else (vb, va)]
            f2 = _wall_neighbor(mesh, field, f, e)
            if f2 is None:
                continue
            a, b = co[k], co[(k + 1) % 4]
            mx, my = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
            dx, dy = b[0] - a[0], b[1] - a[1]
            n = (dy, -dx)
            if n[0] * (mx - cx) + n[1] * (my - cy) < 0:
                n = (-dy, dx)
            quad2 = mesh.facet_corners[f2]
            j = next(
                i for i in range(4)
                if {quad2[i], quad2[(i + 1) % 4]} == {va, vb}
            )
            co2 = [None] * 4
            co2[j] = a if quad2[j] == va else b
            co2[(j + 1) % 4] = b if quad2[(j + 1) % 4] == vb else a
            co2[(j + 2) % 4] = (co2[(j + 1) % 4][0] + n[0], co2[(j + 1) % 4][1] + n[1])
            co2[(j + 3) % 4] = (co2[j][0] + n[0], co2[j][1] + n[1])
            co2 = tuple(co2)
            if f2 in place:
                if place[f2] != co2:
                    old, new = place[f2], co2
                    shift = (old[0][0] - new[0][0], old[0][1] - new[0][1])
                    if any(
                        (o[0] - q[0], o[1] - q[1]) != shift for o, q in zip(old, new)
                    ):
                        raise IntegrityError("twisted wall layout")
                    geom.annulus = True
            else:
                place[f2] = co2
                dq.append(f2)

    # Boundary segments and 2D corner vertices.
    geom.corner_coords = dict(place)
    seg_dirs = {}
    for f in facets:
        quad = mesh.facet_corners[f]
        co = place[f]
        for k in range(4):
            va, vb = quad[k], quad[(k + 1) % 4]
            e = mesh.edge_id[(va, vb) if va < vb else (vb, va)]
            if _wall_neighbor(mesh, field, f, e) is not None:
                continue
            pa, pb = co[k], co[(k + 1) % 4]
            if va > vb:
                pa, pb = pb, pa
            # segment coords ordered by vertex id: first entry belongs to
            # the smaller of the edge's two vertex ids
            geom.boundary_segments.append((e, (pa, pb)))
            horizontal = co[k][1] == co[(k + 1) % 4][1]
            for v in (va, vb):
                seg_dirs.setdefault(v, set()).add(horizontal)
    geom.corner_vertices = {v for v, dirs in seg_dirs.items() if len(dirs) == 2}

    if geom.annulus:
        return geom

    cells = {}
    for f, co in place.items():
        cell = (min(p[0] for p in co), min(p[1] for p in co))
        if cell in cells:
            raise IntegrityError("wall overlaps itself")
        cells[cell] = f
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if (x1 - x0 + 1) * (y1 - y0 + 1) != len(cells):
        # Non-rectangular layout (an L shape or a slit). Such walls appear on
        # block facets shared with several other walls; they carry no side
        # structure and are never candidates for removal.
        geom.slit = True
        return geom
    bbox = (x0, x1 + 1, y0, y1 + 1)
    if any(_segment_side(bbox, p, q) is None for _, (p, q) in geom.boundary_segments):
        geom.slit = True
        return geom
    geom.cells = cells
    geom.bbox = bbox
    return geom


def _segment_side(bbox, p, q, tol=1e-6):
    """Side index 0..3 of a boundary segment of a rectangle wall layout,
    from its coordinates; None for off-perimeter segments. Stays correct
    when an edge occurs on two opposite sides (walls wrapping around a
    split torus)."""
    x0, x1, y0, y1 = bbox
    if abs(p[1] - q[1]) <= tol:
        if abs(p[1] - y0) <= tol:
            return 0
        if abs(p[1] - y1) <= tol:
            return 2
        return None
    if abs(p[0] - x0) <= tol:
        return 3
    if abs(p[0] - x1) <= tol:
        return 1
    return None


def _wall_geometry(mesh, field, facets):
    if mesh.kind == "hex":
        return _hex_wall_geometry(mesh, field, facets)
    from .fireparam import param_wall_geometry

    return param_wall_geometry(mesh, field, facets)


def extract_complex(mesh, field: WallField) -> MotorcycleComplex:
    """Discover the full node/arc/wall/block structure of a wall field."""
    validate_field(mesh, field)
    mc = MotorcycleComplex(mesh, field)

    comps, comp_of = _wall_components(mesh, field)
    for wid, facets in enumerate(comps):
        boundary = bool(mesh.facet_boundary[facets[0]])
        dist = max(field.distance.get(f, 0) for f in facets)
        w = Wall(wid, frozenset(facets), boundary, dist)
        w._geom = _wall_geometry(mesh, field, facets)
        w.annulus = w._geom.annulus
        w.slit = w._geom.slit
        if not w.annulus and not w.slit:
            x0, x1, y0, y1 = w._geom.bbox
            w.dims = (x1 - x0, y1 - y0)
        mc.walls.append(w)
    mc.wall_of = {f: wid for f, wid in comp_of.items()}

    # Arc edges: on a wall, but not interior to one.
    arc_edges = set()
    edge_walls = {}
    for e in range(mesh.n_edges):
        tagged = _tagged_at(mesh, field, e)
        if not tagged or _wall_neighbor(mesh, field, tagged[0], e) is not None:
            continue
        arc_edges.add(e)
        edge_walls[e] = frozenset(mc.wall_of[f] for f in tagged)

    corner_vertices = set()
    for w in mc.walls:
        corner_vertices.update(w._geom.corner_vertices)

    incident = {}
    for e in arc_edges:
        for v in mesh.edge_vertices[e]:
            incident.setdefault(v, []).append(e)
    for v in incident:
        incident[v].sort()

    def edge_sig(e):
        return (edge_walls[e], mesh.classify_edge(e).singular)

    node_vertices = set()
    for v, es in incident.items():
        if len(es) != 2 or v in corner_vertices:
            node_vertices.add(v)
        elif edge_sig(es[0]) != edge_sig(es[1]):
            node_vertices.add(v)

    for nid, v in enumerate(sorted(node_vertices)):
        mc.nodes.append(Node(nid, v))
        mc.node_of[v] = nid

    visited = set()

    def other_vertex(e, v):
        a, b = mesh.edge_vertices[e]
        return b if a == v else a

    def walk(v0, e0):
        edges = [e0]
        verts = [v0, other_vertex(e0, v0)]
        visited.add(e0)
        while verts[-1] not in node_vertices:
            v = verts[-1]
            nxt = [e for e in incident[v] if e not in visited]
            if not nxt:
                break
            e = nxt[0]
            visited.add(e)
            edges.append(e)
            verts.append(other_vertex(e, v))
        return edges, verts

    chains = []
    for v in sorted(node_vertices):
        for e in incident.get(v, []):
            if e not in visited:
                chains.append(walk(v, e))
    # Remaining cycles: closed loop arcs without nodes.
    for e in sorted(arc_edges - visited):
        if e in visited:
            continue
        v0 = mesh.edge_vertices[e][0]
        edges, verts = walk(v0, e)
        chains.append((edges, verts))

    for aid, (edges, verts) in enumerate(chains):
        sig = edge_sig(edges[0])
        for e in edges[1:]:
            if edge_sig(e) != sig:
                raise IntegrityError(f"inconsistent arc chain at edge {e}")
        loop = verts[0] == verts[-1] and verts[0] not in node_vertices
        nodes = None
        if verts[0] in node_vertices:
            nodes = (mc.node_of[verts[0]], mc.node_of.get(verts[-1]))
        length = sum(mesh.edge_param_length(e) for e in edges)
        arc = Arc(aid, edges, verts, nodes, sig[0], sig[1], length, loop)
        arc.tarc = (not arc.singular) and any(
            abs(g - 2) <= _QUARTER_TOL for e in edges for g in _fan_gaps(mesh, field, e)
        )
        mc.arcs.append(arc)
        for e in edges:
            mc.arc_of[e] = aid

    for arc in mc.arcs:
        for wid in arc.walls:
            mc.walls[wid].arcs.append(arc.id)
    for w in mc.walls:
        w.arcs.sort()
        if not w.annulus and not w.slit:
            # An arc may occur on two different sides of the same wall (a
            # wall wrapping around a split torus), so group per side.
            per_side = [{} for _ in range(4)]
            for e, (p, q) in w._geom.boundary_segments:
                side = _segment_side(w._geom.bbox, p, q)
                if side is None:
                    raise IntegrityError(f"off-perimeter segment on rectangle wall {w.id}")
                aid = mc.arc_of[e]
                key = min(p, q)
                if aid not in per_side[side] or key < per_side[side][aid]:
                    per_side[side][aid] = key
            w.sides = [
                [aid for _, aid in sorted((k, a) for a, k in d.items())]
                for d in per_side
            ]

    # Blocks: components of cells not separated by tagged facets.
    block_of = {}
    for seed in range(mesh.n_cells):
        if seed in block_of:
            continue
        bid = len(mc.blocks)
        cells = []
        dq = deque([seed])
        block_of[seed] = bid
        while dq:
            c = dq.popleft()
            cells.append(c)
            for f in mesh.cell_facets[c]:
                if f in field.tagged:
                    continue
                for c2 in mesh.facet_cells[f]:
                    if c2 != c and c2 not in block_of:
                        block_of[c2] = bid
                        dq.append(c2)
        walls = set()
        for c in cells:
            for f in mesh.cell_facets[c]:
                if f in field.tagged:
                    walls.add(mc.wall_of[f])
        mc.blocks.append(Block(bid, frozenset(cells), walls))
    mc.block_of = block_of
    return mc


# -- block classification ----------------------------------------------------


def _block_corner_count(mc, block):
    mesh, field = mc.mesh, mc.field
    verts = sorted({v for c in block.cells for v in mesh.cell_vertices(c)})
    corners = 0
    for v in verts:
        cells_at_v = [c for c in mesh.vertex_cells[v] if c in block.cells]
        seen = set()
        for c0 in cells_at_v:
            if c0 in seen:
                continue
            sector = []
            dq = deque([c0])
            seen.add(c0)
            while dq:
                c = dq.popleft()
                sector.append(c)
                for f in mesh.cell_facets[c]:
                    if f in field.tagged or v not in mesh.facet_vertices(f):
                        continue
                    for c2 in mesh.facet_cells[f]:
                        if c2 != c and c2 in block.cells and c2 not in seen:
                            seen.add(c2)
                            dq.append(c2)
            octants = sum(mesh.cell_corner_octants(c, v) for c in sector)
            if abs(octants - 1.0) < 1e-6:
                corners += 1
    return corners


def _torus_twist(mc, block):
    """Holonomy of chart transport around the toroidal block, in quarter turns."""
    mesh = mc.mesh
    seed = min(block.cells)
    trans = {seed: Transition()}
    dq = deque([seed])
    holonomy = None
    while dq:
        c = dq.popleft()
        for f in sorted(mesh.cell_facets[c]):
            if f in mc.field.tagged:
                continue
            for c2 in mesh.facet_cells[f]:
                if c2 == c or c2 not in block.cells:
                    continue
                t2 = trans[c].compose(mesh.cell_gluing(c2, f, c))
                if c2 in trans:
                    if trans[c2].rot != t2.rot or holonomy is None:
                        h = trans[c2].inverse().compose(t2)
                        if not h.is_identity(1e-9):
                            holonomy = h
                else:
                    trans[c2] = t2
                    dq.append(c2)
    if holonomy is None or holonomy.rot == 0:
        return 0
    # Quarter turns about the loop direction (the holonomy translation).
    t = holonomy.t
    axis = max(range(3), key=lambda i: abs(t[i]))
    rot = ROTATIONS[holonomy.rot]
    for k in (1, 2, 3):
        m = _axis_rotation(axis, k if t[axis] > 0 else -k % 4)
        if rotation_index(m) == holonomy.rot:
            return k
    raise IntegrityError("toroidal holonomy is not a rotation about the loop axis")


def _axis_rotation(axis, quarters):
    import numpy as np

    c = [1, 0, -1, 0][quarters % 4]
    s = [0, 1, 0, -1][quarters % 4]
    m = np.zeros((3, 3), dtype=int)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    m[axis, axis] = 1
    m[i, i] = c
    m[i, j] = -s
    m[j, i] = s
    m[j, j] = c
    return m


def classify_block(mc, bid) -> BlockType:
    """Cuboid for 8 corners, toroidal for 0; any other count is invalid."""
    block = mc.blocks[bid]
    if block.type is not None:
        return block.type
    corners = _block_corner_count(mc, block)
    if corners == 8:
        block.type = BlockType("cuboid")
    elif corners == 0:
        block.type = BlockType("toroidal", _torus_twist(mc, block))
    else:
        raise IntegrityError(f"block {bid} has {corners} corners (must be 0 or 8)")
    return block.type


# -- torus splitting ---------------------------------------------------------


def _block_arcs(mc, block):
    out = []
    for arc in mc.arcs:
        for e in arc.edges:
            _, cells, _ = mc.mesh.edge_fan(e)
            if any(c in block.cells for c in cells):
                out.append(arc.id)
                break
    return out


def split_tori(mc: MotorcycleComplex) -> MotorcycleComplex:
    """Cut every toroidal block with one confined fire wall so that all
    blocks become (possibly self-adjacent) cuboids."""
    mesh = mc.mesh
    while True:
        toroidal = [b.id for b in mc.blocks if not classify_block(mc, b.id).cuboid]
        if not toroidal:
            return mc
        block = mc.blocks[toroidal[0]]
        arcs = _block_arcs(mc, block)
        if not arcs:
            raise VolmcError(
                f"toroidal block {block.id} has no arc on its boundary; cannot place a cut"
            )
        arc = mc.arcs[min(arcs)]
        v = min(arc.vertices)
        arc_edges_at_v = [e for e in arc.edges if v in mesh.edge_vertices[e]]
        field = mc.field
        seeds = []
        for c in mesh.vertex_cells[v]:
            if c not in block.cells:
                continue
            for f in mesh.cell_facets[c]:
                if f in field.tagged or v not in mesh.facet_vertices(f):
                    continue
                if any(e in mesh.facet_edges[f] for e in arc_edges_at_v):
                    continue
                # The cut must run along a parametric iso-surface; tet facets
                # crossing the iso-planes cannot carry it.
                iso = getattr(mesh, "iso_facet", None)
                if iso is not None and not iso(f):
                    continue
                if all(c2 in block.cells for c2 in mesh.facet_cells[f]):
                    seeds.append(f)
        seeds = sorted(set(seeds))
        if not seeds:
            raise VolmcError(f"no cut seed facet at vertex {v} of block {block.id}")
        new_field = field.copy()
        dq = deque()
        for f in seeds:
            new_field.tag(f, 0, None)
            dq.append(f)
        while dq:
            f = dq.popleft()
            for e in mesh.facet_edges[f]:
                if mesh.edge_boundary[e] or mesh.classify_edge(e).singular:
                    continue
                if _tagged_at(mesh, field, e):
                    continue  # confined: stop at pre-existing walls
                f2 = mesh.opp_facet(e, f)
                if f2 is not None and f2 not in new_field.tagged:
                    new_field.tag(f2, 0, None)
                    dq.append(f2)
        mc = extract_complex(mesh, new_field)


# -- reduction ---------------------------------------------------------------


def _wall_side_gaps(mc, w, e):
    """At perimeter edge ``e`` of wall ``w``: the two cell gaps flanking the
    wall's facet, as (quarters, block id) pairs; None if ambiguous."""
    mesh, field = mc.mesh, mc.field
    fan = mesh.edge_fan(e)
    wf = [i for i, f in enumerate(fan.facets) if f in field.tagged and mc.wall_of.get(f) == w.id]
    if len(wf) != 1:
        return None
    out = []
    for step in (1, -1):
        gap = _gap(mesh, field, fan, e, wf[0], step)
        if gap is None:
            return None
        q, first_cell = gap
        out.append((q, mc.block_of[first_cell]))
    return out


def removable(mc: MotorcycleComplex, wid, mode="full") -> bool:
    """Whether removing wall ``wid`` merges its two adjacent blocks into a
    cuboid: at every surrounding arc both blocks form a 90° edge and the
    blocks are distinct; in regular mode all surrounding arcs must also be
    regular."""
    if mode not in ("full", "regular"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    w = mc.walls[wid]
    if w.boundary or w.annulus or w.slit:
        return False
    adj = set()
    for f in w.facets:
        for c in mc.mesh.facet_cells[f]:
            adj.add(mc.block_of[c])
    if len(adj) != 2:
        return False
    for aid in w.arcs:
        arc = mc.arcs[aid]
        if mode == "regular" and arc.singular:
            return False
        for e in arc.edges:
            gaps = _wall_side_gaps(mc, w, e)
            if gaps is None:
                return False
            (q1, b1), (q2, b2) = gaps
            if b1 == b2:
                return False
            if abs(q1 - 1) > _QUARTER_TOL or abs(q2 - 1) > _QUARTER_TOL:
                return False
    return True


def removable_walls(mc, mode="full"):
    return [w.id for w in mc.walls if removable(mc, w.id, mode)]


def reduce_complex(mc: MotorcycleComplex, mode="full") -> MotorcycleComplex:
    """Greedy wall retraction: repeatedly remove the farthest removable wall
    (ties by lowest id) until the complex is irreducible in the given mode."""
    for b in mc.blocks:
        if not classify_block(mc, b.id).cuboid:
            raise VolmcError("reduce requires cuboid blocks; run split_tori first")
    while True:
        cands = removable_walls(mc, mode)
        if not cands:
            return mc
        cands.sort(key=lambda wid: (-mc.walls[wid].distance, wid))
        w = mc.walls[cands[0]]
        field = mc.field.copy()
        for f in w.facets:
            field.untag(f)
        mc = extract_complex(mc.mesh, field)


# -- tracer dispatch and base complex ----------------------------------------


def _trace(mesh, seed=None, base=False):
    """(mesh, wall field) from the tracer matching the mesh kind. The
    parametrization tracers refine a copy of the mesh and return it; the hex
    tracers return ``mesh`` itself. ``base`` selects the conforming tracers,
    whose fronts never stop at burnt terrain."""
    if mesh.kind == "hex":
        return mesh, (trace_hex_base if base else trace_hex)(mesh, seed)
    from .fireparam import trace_param, trace_param_base

    return (trace_param_base if base else trace_param)(mesh, seed)


def base_complex(mesh, seed=None) -> MotorcycleComplex:
    """Conforming decomposition where walls never stop at other walls."""
    return extract_complex(*_trace(mesh, seed, base=True))


# -- grid-block oracle (hex pipeline) ----------------------------------------


def grid_block_coords(mesh, field, cells):
    """Directional flood fill of a block's hexes onto an integer grid.

    Returns (dims, trans): the (l, m, n) dimensions and a per-hex Transition
    mapping the hex's unit cube into the block grid, normalized so the grid
    starts at the origin. Raises IntegrityError if the cells do not biject
    onto a full l x m x n box.
    """
    cells = set(cells)
    seed = min(cells)
    trans = {seed: Transition(t=(0, 0, 0))}
    dq = deque([seed])
    while dq:
        c = dq.popleft()
        for f in sorted(mesh.cell_facets[c]):
            if f in field.tagged:
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
        a = t.apply((0, 0, 0))
        b = t.apply((1, 1, 1))
        p = tuple(int(round(min(x, y))) for x, y in zip(a, b))
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


def grid_check_block(mesh, field, cells) -> tuple:
    """Grid oracle: dimensions of the block's full l x m x n box, or an
    IntegrityError when the cells do not form one."""
    dims, _ = grid_block_coords(mesh, field, cells)
    return dims


def check_grid_blocks(mc: MotorcycleComplex):
    """Run the grid oracle on every block; returns the list of dimensions."""
    return [grid_check_block(mc.mesh, mc.field, b.cells) for b in mc.blocks]

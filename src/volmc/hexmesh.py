"""Cell mesh connectivity shared by hex and tet meshes, and the hexahedral mesh.

Corner numbering follows the VTK hexahedron convention: corners 0-3 form the
bottom quad (counter-clockwise seen from outside, i.e. from below), corners
4-7 the matching top quad, corner 4 above corner 0.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import MeshError
from .octahedral import _INDEX, Transition

# Wall layouts treat 2D coordinates within this distance as equal, and a tet
# wall facet's corners must stay this close to their iso-plane; integer (hex)
# layouts thus compare exactly.
LAYOUT_TOL = 1e-6

# Local integer coordinates of the 8 VTK corners inside a unit cube.
HEX_CORNER_COORDS = np.array(
    [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ],
    dtype=np.int64,
)

HEX_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)

# Faces as cyclic corner quadruples, outward-oriented.
HEX_FACES = (
    (0, 3, 2, 1),  # z = 0
    (4, 5, 6, 7),  # z = 1
    (0, 1, 5, 4),  # y = 0
    (2, 3, 7, 6),  # y = 1
    (1, 2, 6, 5),  # x = 1
    (3, 0, 4, 7),  # x = 0
)

# The three face slots at each corner slot.
_CORNER_FACES = np.array([[i for i, face in enumerate(HEX_FACES) if k in face] for k in range(8)])

# Outward normals of the faces above, in local corner coordinates.
HEX_FACE_NORMALS = np.array(
    [(0, 0, -1), (0, 0, 1), (0, -1, 0), (0, 1, 0), (1, 0, 0), (-1, 0, 0)],
    dtype=np.int64,
)
# The two tables above as tuples of ints, for exact arithmetic without numpy.
_CORNERS = tuple(map(tuple, HEX_CORNER_COORDS.tolist()))
_NORMALS = tuple(map(tuple, HEX_FACE_NORMALS.tolist()))


_REFLECTION = "facet {f} glues hex {h} to hex {h2} by a reflection: one of them is mirrored"


@functools.cache
def _solve_gluing(s0, s1, s2, r0, r1, r2, fh, fh2):
    """The ``face_gluing`` table: the exact transition for corner slots
    ``s*``/``r*`` and face slots ``fh``/``fh2``. A mirrored gluing has no
    entry: ``HexMesh`` rejects it when it is built (``_check_mirrors``)."""
    p0, p1, p2 = _CORNERS[s0], _CORNERS[s1], _CORNERS[s2]
    q0, q1, q2, n, n2 = _CORNERS[r0], _CORNERS[r1], _CORNERS[r2], _NORMALS[fh], _NORMALS[fh2]
    # Rows of the bases [p1 - p0, p2 - p0, n] and [q1 - q0, q2 - q0, -n2]. Three distinct
    # corners of a unit face (a hex repeats none) and its normal make the first unimodular
    # (one column may be a face diagonal): its inverse is adj / det, det = ±1.
    b = [(p1[i] - p0[i], p2[i] - p0[i], n[i]) for i in range(3)]
    c = [(q1[i] - q0[i], q2[i] - q0[i], -n2[i]) for i in range(3)]
    adj = [[b[(j + 1) % 3][(i + 1) % 3] * b[(j + 2) % 3][(i + 2) % 3]
            - b[(j + 1) % 3][(i + 2) % 3] * b[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)] for i in range(3)]
    det = sum(b[0][k] * adj[k][0] for k in range(3))
    m = [[det * sum(c[i][k] * adj[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    rot = _INDEX[tuple(x for row in m for x in row)]
    t = tuple(q0[i] - sum(m[i][j] * p0[j] for j in range(3)) for i in range(3))
    return Transition(rot, t)


class Fan(NamedTuple):
    """Alternating facet/cell fan around an edge.

    ``facets[i]`` lies between ``cells[i-1]`` and ``cells[i]``. A closed
    (interior) fan has as many facets as cells and its indices wrap around.
    An open (boundary) fan has one more facet than cells; it starts and ends
    with the edge's two boundary facets.
    """

    facets: tuple
    cells: tuple
    closed: bool

    # The two accessors are written out rather than sharing a helper: they
    # sit in the innermost loops of tracing and reduction.

    def facet(self, i):
        """``facets[i]``, wrapping on a closed fan; None past the ends of an open fan."""
        facets = self.facets
        if self.closed:
            return facets[i % len(facets)]
        return facets[i] if 0 <= i < len(facets) else None

    def cell(self, i):
        """``cells[i]``, wrapping on a closed fan; None past the ends of an open fan."""
        cells = self.cells
        if self.closed:
            return cells[i % len(cells)]
        return cells[i] if 0 <= i < len(cells) else None


def build_fan(mesh, e) -> Fan:
    """The fan around edge ``e`` of a hex or tet mesh; raises MeshError when
    the cells around ``e`` do not form one manifold fan."""
    facets = mesh.edge_facets[e]
    va, vb = mesh.edge_keys[e]
    pair = {}  # cell -> its two facets at e, until the walk passes the cell
    for c in mesh.edge_cells[e]:
        cell, cf = mesh._cells[c], mesh.cell_facets[c]
        i, j = mesh.EDGE_FACES[cell.index(va), cell.index(vb)]
        # A facet whose cycle differs between its cells does not hold e.
        if cf[i] not in facets or cf[j] not in facets:
            n = (cf[i] in facets) + (cf[j] in facets)
            raise MeshError(f"{mesh.kind} {c} has {n} facets at edge {e}")
        pair[c] = cf[i], cf[j]
    boundary = [f for f in facets if mesh.facet_boundary[f]] if mesh.edge_boundary[e] else []
    if boundary:
        if len(boundary) != 2:
            raise MeshError(
                f"non-manifold boundary edge {e}: {len(boundary)} boundary facets"
            )
        start = min(boundary)
    else:
        start = facets[0]
    fan_f, fan_c = [start], []
    f = start
    while True:
        cs = mesh.facet_cells[f]  # one or two cells
        c = cs[0] if cs[0] in pair else cs[-1]
        ab = pair.pop(c, None)
        if ab is None:
            break
        fan_c.append(c)
        f = ab[1] if ab[0] == f else ab[0]
        fan_f.append(f)
    closed = not boundary
    if closed:
        if fan_f[-1] != start or pair:
            raise MeshError(f"edge {e} has a non-manifold (split) fan")
        fan_f.pop()
    elif pair or len(fan_f) != len(facets):
        raise MeshError(f"boundary edge {e} has a non-manifold (split) fan")
    return Fan(tuple(fan_f), tuple(fan_c), closed)


def _number(keys, ids, key_list, obj, corner_list=None, corners=None):
    """Ids of the rows of ``keys`` (n x k), with the sorted distinct keys and
    their ids. Keys missing from ``ids`` become tuples of ``obj`` ints, numbered
    in sorted order after all earlier ones; ``corner_list`` then gets the row
    of ``corners`` at each new key's first occurrence."""
    order = np.lexsort(keys.T[::-1])
    head = np.ones(len(keys), bool)
    head[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    inverse = np.empty(len(keys), np.int64)
    inverse[order] = np.cumsum(head) - 1
    uniq, first = keys[order[head]], order[head]  # a stable sort keeps first occurrences first
    uniq_keys = list(zip(*obj[uniq].T.tolist()))  # tuples without temporary lists
    uniq_ids = np.array([ids.get(key, -1) for key in uniq_keys], np.int64)
    new = np.flatnonzero(uniq_ids < 0)
    uniq_ids[new] = len(key_list) + np.arange(len(new))
    new_keys = [uniq_keys[i] for i in new.tolist()]
    ids.update(zip(new_keys, obj[uniq_ids[new]].tolist()))
    key_list.extend(new_keys)
    if corner_list is not None:
        corner_list.extend(zip(*obj[corners[first[new]]].T.tolist()))
    return uniq_ids[inverse], uniq, uniq_ids


def _groups(keys, values, n):
    """``values`` grouped by ``keys`` in 0..n-1: n lists, each in input order."""
    vals = values[np.argsort(keys, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return [vals[a:b] for a, b in zip([0] + ends[:-1], ends)]


class CellMesh:
    """Vertices, cells and their derived facets and edges, with full incidence.

    Shared by :class:`HexMesh` and the tet mesh of a parametrization, so that
    tracing, complex extraction and reduction run on either. Cells are vertex
    id tuples; a cell replaced by refinement is None. Facets and edges are
    keyed by their sorted vertex tuples.

    Ids are stable: every build numbers the keys it has not seen before in
    sorted order, after all earlier ids, and never renumbers a key. A fresh
    mesh thus numbers its facets and edges lexicographically by key. A facet
    or edge that no live cell contains keeps its id but is dead
    (``facet_live``/``edge_live``).

    A subclass gives its cell type as data: ``FACES`` (cyclic corner tuples),
    ``EDGES`` (corner pairs), ``FACET_EDGES`` (pairs of positions in
    ``facet_corners`` that form the facet's edges, in ``facet_edges`` order),
    ``CYCLIC_FACETS`` (``facet_corners`` is the face cycle of the lowest
    incident cell when true, the sorted key otherwise),
    ``_edge_quarters(e)``, the quarter-turn count of an edge, ``fan_turns(e,
    i, j)``, the quarter turns from fan position ``i`` to ``j``,
    ``_wall_layout()``, the corner placement and facet area of wall layouts,
    and ``block_corners(walls, block_of, n_blocks)``, the corners of each
    block: its vertex sectors of one octant.
    ``EDGE_FACES`` is derived from ``FACES`` once per subclass.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Corner pair (either order) -> the two face slots that hold the edge.
        cls.EDGE_FACES = {}
        for i, face in enumerate(cls.FACES):
            for a, b in zip(face, face[1:] + face[:1]):
                for key in ((a, b), (b, a)):
                    cls.EDGE_FACES[key] = cls.EDGE_FACES.get(key, ()) + (i,)

    def __init__(self, cells):
        self.facet_keys, self.facet_corners, self.facet_id = [], [], {}
        self.edge_keys, self.edge_id = [], {}
        self._build_incidence(cells)

    def _build_incidence(self, cells):
        """Derive all incidence from ``cells`` in array passes; raises
        MeshError naming the first bad cell or a facet shared by more than
        two cells."""
        kind, nv = self.kind, self.n_vertices
        faces, fedges = np.array(self.FACES), np.array(self.FACET_EDGES)
        live = np.array([c for c, cell in enumerate(cells) if cell is not None], np.int64)
        corners = np.array([cells[c] for c in live], np.int64).reshape(len(live), faces.max() + 1)
        srt = np.sort(corners, axis=1)
        repeated = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        bad = np.flatnonzero(repeated | (srt[:, 0] < 0) | (srt[:, -1] >= nv))
        if len(bad):
            c = live[bad[0]]
            if repeated[bad[0]]:
                raise MeshError(f"{kind} {c} has repeated corners")
            raise MeshError(f"{kind} {c} references a vertex outside 0..{nv - 1}")
        cycles = corners[:, faces].reshape(-1, faces.shape[1])
        fkeys = np.sort(cycles, axis=1)
        ends = np.sort(corners[:, np.array(self.EDGES)], axis=2).reshape(-1, 2)
        # One shared int per id in every list built here; tolist() makes one per entry.
        obj = np.arange(max(nv, len(cells), len(self.facet_keys) + len(fkeys),
                            len(self.edge_keys) + len(ends))).astype(object)
        fid, _, _ = _number(fkeys, self.facet_id, self.facet_keys, obj,
                            self.facet_corners, cycles if self.CYCLIC_FACETS else fkeys)
        eid, ekeys, ekey_ids = _number(ends, self.edge_id, self.edge_keys, obj)
        nf, ne = len(self.facet_keys), len(self.edge_keys)
        self.cell_facets = [None] * len(cells)
        for c, fs in zip(live.tolist(), obj[fid].reshape(len(live), len(faces)).tolist()):
            self.cell_facets[c] = fs
        facet_cells = self.facet_cells = _groups(fid, obj[live].repeat(len(faces)), nf)
        self.edge_cells = _groups(eid, obj[live].repeat(len(self.EDGES)), ne)
        self.vertex_cells = _groups(corners.ravel(), obj[live].repeat(corners.shape[1]), nv)
        count = np.bincount(fid, minlength=nf)
        if (count > 2).any():
            f = int(np.argmax(count > 2))
            raise MeshError(f"non-manifold facet {self.facet_keys[f]}: "
                            f"{count[f]} incident {kind}s {facet_cells[f]}")
        self.facet_live = (count > 0).tolist()
        self.edge_live = (np.bincount(eid, minlength=ne) > 0).tolist()
        self.facet_boundary = (count == 1).tolist()
        # Edges of each live facet, looked up by their keys among the cell edges.
        lf = np.flatnonzero(count > 0)
        fcorners = np.array(self.facet_corners, np.int64).reshape(nf, faces.shape[1])
        pairs = np.sort(fcorners[lf][:, fedges], axis=2)
        codes = ekeys[:, 0] * nv + ekeys[:, 1]
        feid = ekey_ids[np.searchsorted(codes, pairs[..., 0] * nv + pairs[..., 1])]
        self.facet_edges = _groups(lf.repeat(len(fedges)), obj[feid.ravel()], nf)
        self.edge_facets = _groups(feid.ravel(), obj[lf].repeat(len(fedges)), ne)
        boundary = np.bincount(feid.ravel(), (count[lf] == 1).repeat(len(fedges)), minlength=ne)
        self.edge_boundary = (boundary > 0).tolist()
        self._cells = cells
        self._fans = {}
        self._singular = {}

    @property
    def n_cells(self):
        return len(self._cells)

    @property
    def n_facets(self):
        return len(self.facet_keys)

    @property
    def n_edges(self):
        return len(self.edge_keys)

    def live_cells(self):
        return [c for c, cell in enumerate(self._cells) if cell is not None]

    def cell_vertices(self, c):
        return list(self._cells[c])

    def edge_fan(self, e) -> Fan:
        """The :class:`Fan` of facets and cells around edge ``e``, built on first use."""
        fan = self._fans.get(e)
        if fan is None:
            fan = self._fans[e] = build_fan(self, e)
        return fan

    def singular(self, e) -> bool:
        """Whether edge ``e`` is singular: regular at 4 quarter turns
        interior, 2 on the boundary."""
        s = self._singular.get(e)
        if s is None:
            s = self._singular[e] = self._edge_quarters(e) != (2 if self.edge_boundary[e] else 4)
        return s

    def singular_edges(self):
        return [
            e for e in range(self.n_edges)
            if self.edge_live[e] and self.singular(e)
        ]

    def vertex_sectors(self, v, walls):
        """The cells at vertex ``v`` joined through the facets at ``v`` not
        in ``walls``: sorted lists, ordered by lowest cell."""
        seen, out = set(), []
        for c0 in self.vertex_cells[v]:  # ascending, so sectors come by lowest cell
            if c0 in seen:
                continue
            seen.add(c0)
            sector = [c0]
            for c in sector:  # grows while it is read
                for f in self.cell_facets[c]:
                    if f in walls or v not in self.facet_keys[f]:
                        continue
                    for c2 in self.facet_cells[f]:
                        if c2 not in seen:
                            seen.add(c2)
                            sector.append(c2)
            out.append(sorted(sector))
        return out

    def edge_incidence(self, edges):
        """Vertex -> the ``edges`` at it, ascending."""
        incident = {}
        for e in sorted(edges):
            for v in self.edge_keys[e]:
                incident.setdefault(v, []).append(e)
        return incident

    def edge_chains(self, incident, nodes):
        """The edges of ``incident`` (from ``edge_incidence``) as maximal
        chains between vertices in ``nodes``, each (edges, vertices). A walk
        leaves every node in ascending order along each of its edges not yet
        walked, in ascending order, and takes the lowest such edge at every
        other vertex; closed loops without a node follow, each from its
        lowest edge's lower vertex back to it."""
        keys, walked, chains = self.edge_keys, set(), []

        def other(e, v):
            a, b = keys[e]
            return b if a == v else a

        def walk(v, e):
            # Lists made by a literal are allocated to size: most chains are
            # one or two edges long, and every complex keeps its chains.
            edges, verts = [e], [v, other(e, v)]
            walked.add(e)
            while verts[-1] not in nodes:
                v = verts[-1]
                e = next((e2 for e2 in incident[v] if e2 not in walked), None)
                if e is None:
                    break
                walked.add(e)
                edges.append(e)
                verts.append(other(e, v))
            chains.append((edges, verts))

        for v in sorted(nodes):
            for e in incident.get(v, ()):
                if e not in walked:
                    walk(v, e)
        for e in sorted({e for es in incident.values() for e in es}):
            if e not in walked:
                walk(keys[e][0], e)
        return chains


class HexMesh(CellMesh):
    """Immutable hexahedral mesh; every edge fan is built, and so checked to
    be manifold, and every hex checked to be no mirror image of its
    neighbours, at construction."""

    kind = "hex"
    FACES = HEX_FACES
    EDGES = HEX_EDGES
    FACET_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0))
    CYCLIC_FACETS = True

    def __init__(self, positions, hexes):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.hexes = np.asarray(hexes, dtype=np.int64).reshape(-1, 8)
        self.n_vertices = len(self.positions)
        super().__init__(self.hexes.tolist())
        for e in range(self.n_edges):
            self.edge_fan(e)
        self._check_mirrors()

    def _check_mirrors(self):
        """Raise MeshError at the lowest interior facet whose two face cycles
        run the same way: a reflection glues its hexes. With the fans built,
        the two are one cycle, compared by its lowest vertex's successor."""
        cycles = self.hexes[:, HEX_FACES].reshape(-1, 4)
        succ = cycles[np.arange(len(cycles)), (np.argmin(cycles, axis=1) + 1) % 4]
        fid = np.array(self.cell_facets, np.int64).ravel()
        order = np.argsort(fid, kind="stable")
        a, b = order[:-1], order[1:]
        bad = np.flatnonzero((fid[a] == fid[b]) & (succ[a] == succ[b]))
        if len(bad):
            f = int(fid[a[bad[0]]])
            h, h2 = self.facet_cells[f]
            raise MeshError(_REFLECTION.format(f=f, h=h, h2=h2))

    def edge_param_length(self, e) -> float:
        return 1.0

    def fan_turns(self, e, i, j) -> int:
        """Quarter turns around ``e`` from fan position ``i`` to ``j >= i``: one per hex."""
        return j - i

    def block_corners(self, walls, block_of, n_blocks):
        """Corners per block id, for the blocks ``block_of`` (cell -> block
        id) of the wall facets ``walls``. Every hex corner is one octant, so
        a corner is a hex whose three facets at it are walls (as every
        boundary facet is)."""
        walled = np.zeros(self.n_facets, bool)
        walled[np.fromiter(walls, np.int64, len(walls))] = True
        faces = np.array(self.cell_facets, np.int64).reshape(-1, len(HEX_FACES))
        corner = walled[faces][:, _CORNER_FACES].all(axis=2)  # hex x corner slot
        block = np.empty(self.n_cells, np.int64)  # every hex is in a block
        block[np.fromiter(block_of, np.int64)] = np.fromiter(block_of.values(), np.int64)
        return np.bincount(block[np.nonzero(corner)[0]], minlength=n_blocks).tolist()

    def edge_valence(self, e) -> int:
        return len(self.edge_cells[e])

    _edge_quarters = edge_valence

    def _wall_layout(self):
        """Layout hooks of ``cellcomplex._lay_out_walls``: the unit square of
        a seed facet in ``facet_corners`` order, the unit square of facet
        ``g`` unfolded across edge ``e``, slot ``k``, of a placed facet ``f``
        with corners ``co``, and a placed facet's area, exactly 1."""
        corners, facet_edges = self.facet_corners, self.facet_edges

        def unfold(f, co, k, e, g):
            a, b, c = co[k], co[(k + 1) % 4], co[(k + 2) % 4]
            n = (b[0] - c[0], b[1] - c[1])  # unit step across edge k, away from f
            j = facet_edges[g].index(e)
            if corners[g][j] != corners[f][k]:
                a, b = b, a
            out = [None] * 4
            out[j], out[(j + 1) % 4] = a, b
            out[(j + 2) % 4] = (b[0] + n[0], b[1] + n[1])
            out[(j + 3) % 4] = (a[0] + n[0], a[1] + n[1])
            return tuple(out)

        return lambda seed: ((0, 0), (1, 0), (1, 1), (0, 1)), unfold, lambda co: 1.0

    def opp_facet(self, e, f):
        """The facet continuing ``f`` straight across regular edge ``e``; None if absent."""
        if self.singular(e):
            raise MeshError(f"opp_facet undefined: edge {e} is singular")
        fan = self.edge_fan(e)
        i = fan.facets.index(f)
        g = fan.facet(i + 2)
        return fan.facet(i - 2) if g is None else g

    def local_coords(self, h, v):
        """Unit-cube corner coordinates of vertex ``v`` within hex ``h``."""
        return tuple(HEX_CORNER_COORDS[self._cells[h].index(v)])

    def face_gluing(self, h, f, h2) -> Transition:
        """Integer chart transition from hex ``h``'s unit cube to hex ``h2``'s.

        Maps h-local corner coordinates to h2-local coordinates; h's cube
        lands on the cube adjacent to h2's across the shared facet ``f``.
        Read from a table keyed by the corner slots of ``f``'s first three key
        vertices and by ``f``'s face slots, in both hexes.
        """
        a, b, c = self.facet_keys[f][:3]
        ch, ch2 = self._cells[h], self._cells[h2]
        return _solve_gluing(ch.index(a), ch.index(b), ch.index(c), ch2.index(a), ch2.index(b),
                             ch2.index(c), self.cell_facets[h].index(f), self.cell_facets[h2].index(f))

    # Generic name used by block transport (same signature for tet meshes).
    cell_gluing = face_gluing

"""Cell mesh connectivity shared by hex and tet meshes, and the hexahedral mesh.

Corner numbering follows the VTK hexahedron convention: corners 0-3 form the
bottom quad (counter-clockwise seen from outside, i.e. from below), corners
4-7 the matching top quad, corner 4 above corner 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import MeshError
from .octahedral import Transition, rotation_index

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

# Outward normals of the faces above, in local corner coordinates.
HEX_FACE_NORMALS = np.array(
    [(0, 0, -1), (0, 0, 1), (0, -1, 0), (0, 1, 0), (1, 0, 0), (-1, 0, 0)],
    dtype=np.int64,
)


class EdgeClass:
    """Regularity label of an edge, with the quarter-turn count k where known."""

    __slots__ = ("singular", "k", "boundary")

    def __init__(self, singular: bool, k: int, boundary: bool):
        self.singular = singular
        self.k = k
        self.boundary = boundary

    @property
    def regular(self) -> bool:
        return not self.singular

    def __repr__(self):
        kind = "Singular" if self.singular else "Regular"
        side = "boundary" if self.boundary else "interior"
        return f"EdgeClass({kind}, k={self.k}, {side})"


class Fan(NamedTuple):
    """Alternating facet/cell fan around an edge.

    ``facets[i]`` lies between ``cells[i-1]`` and ``cells[i]``. A closed
    (interior) fan has as many facets as cells and its indices wrap around.
    An open (boundary) fan has one more facet than cells; it starts and ends
    with the edge's two boundary facets.
    """

    facets: list
    cells: list
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
    cells = mesh.edge_cells[e]
    pair = {}  # cell -> its two facets at e
    for c in cells:
        fs = [f for f in mesh.cell_facets[c] if e in mesh.facet_edges[f]]
        if len(fs) != 2:
            raise MeshError(f"{mesh.kind} {c} has {len(fs)} facets at edge {e}")
        pair[c] = fs
    boundary = [f for f in facets if mesh.facet_boundary[f]]
    if boundary:
        if len(boundary) != 2:
            raise MeshError(
                f"non-manifold boundary edge {e}: {len(boundary)} boundary facets"
            )
        start = min(boundary)
    else:
        start = facets[0]
    fan_f, fan_c = [start], []
    seen = set()
    f = start
    while True:
        nxt = [c for c in mesh.facet_cells[f] if c not in seen]
        if not nxt:
            break
        c = nxt[0]
        seen.add(c)
        fan_c.append(c)
        a, b = pair[c]
        f = b if a == f else a
        fan_f.append(f)
    closed = not boundary
    if closed:
        if fan_f[-1] != start or len(fan_c) != len(cells):
            raise MeshError(f"edge {e} has a non-manifold (split) fan")
        fan_f = fan_f[:-1]
    elif len(fan_c) != len(cells) or len(fan_f) != len(facets):
        raise MeshError(f"boundary edge {e} has a non-manifold (split) fan")
    return Fan(fan_f, fan_c, closed)


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
    incident cell when true, the sorted key otherwise) and
    ``_edge_quarters(e)``, the quarter-turn count of an edge.
    """

    def __init__(self, cells):
        self.facet_keys, self.facet_corners, self.facet_id = [], [], {}
        self.edge_keys, self.edge_id = [], {}
        self._build_incidence(cells)

    def _build_incidence(self, cells):
        """Derive all incidence from ``cells``; raises MeshError naming the
        first bad cell or a facet shared by more than two cells."""
        kind, nv = self.kind, self.n_vertices
        faces, cyclic = self.FACES, self.CYCLIC_FACETS
        facet_id, edge_id = self.facet_id, self.edge_id
        live, cell_fkeys, cell_ekeys = [], [], []
        new_facets, new_edges = {}, set()  # unseen keys; facets -> corners
        for c, cell in enumerate(cells):
            if cell is None:
                continue
            if len(set(cell)) != len(cell):
                raise MeshError(f"{kind} {c} has repeated corners")
            if min(cell) < 0 or max(cell) >= nv:
                raise MeshError(f"{kind} {c} references a vertex outside 0..{nv - 1}")
            fkeys = [tuple(sorted([cell[i] for i in face])) for face in faces]
            ekeys = []
            for a, b in self.EDGES:
                va, vb = cell[a], cell[b]
                ekeys.append((va, vb) if va < vb else (vb, va))
            for key, face in zip(fkeys, faces):
                if key not in facet_id and key not in new_facets:
                    new_facets[key] = tuple(cell[i] for i in face) if cyclic else key
            new_edges.update(k for k in ekeys if k not in edge_id)
            live.append(c)
            cell_fkeys.append(fkeys)
            cell_ekeys.append(ekeys)
        for key in sorted(new_facets):
            facet_id[key] = len(self.facet_keys)
            self.facet_keys.append(key)
            self.facet_corners.append(new_facets[key])
        for key in sorted(new_edges):
            edge_id[key] = len(self.edge_keys)
            self.edge_keys.append(key)

        nf, ne = len(self.facet_keys), len(self.edge_keys)
        self.cell_facets = [None] * len(cells)
        facet_cells = self.facet_cells = [[] for _ in range(nf)]
        edge_cells = self.edge_cells = [[] for _ in range(ne)]
        vertex_cells = self.vertex_cells = [[] for _ in range(nv)]
        for c, fkeys, ekeys in zip(live, cell_fkeys, cell_ekeys):
            fs = self.cell_facets[c] = [facet_id[k] for k in fkeys]
            for f in fs:
                facet_cells[f].append(c)
            for k in ekeys:
                edge_cells[edge_id[k]].append(c)
            for v in cells[c]:
                vertex_cells[v].append(c)
        for f, fc in enumerate(facet_cells):
            if len(fc) > 2:
                raise MeshError(
                    f"non-manifold facet {self.facet_keys[f]}: {len(fc)} incident {kind}s {fc}"
                )
        self.facet_live = [bool(fc) for fc in facet_cells]
        self.edge_live = [bool(ec) for ec in edge_cells]
        self.facet_boundary = [len(fc) == 1 for fc in facet_cells]
        self.facet_edges = [[] for _ in range(nf)]
        self.edge_facets = [[] for _ in range(ne)]
        for f in range(nf):
            if not facet_cells[f]:
                continue
            corners = self.facet_corners[f]
            for i, j in self.FACET_EDGES:
                va, vb = corners[i], corners[j]
                e = edge_id[(va, vb) if va < vb else (vb, va)]
                self.facet_edges[f].append(e)
                self.edge_facets[e].append(f)
        self.edge_boundary = [
            any(self.facet_boundary[f] for f in fs) for fs in self.edge_facets
        ]
        self._cells = cells
        self._corner_of = [
            None if cell is None else {v: i for i, v in enumerate(cell)} for cell in cells
        ]
        self._fans = {}
        self._eclass = {}

    @property
    def n_cells(self):
        return len(self._cells)

    @property
    def n_facets(self):
        return len(self.facet_keys)

    @property
    def n_edges(self):
        return len(self.edge_keys)

    @property
    def edge_vertices(self):
        return self.edge_keys

    def live_cells(self):
        return [c for c, cell in enumerate(self._cells) if cell is not None]

    def facet_vertices(self, f):
        return self.facet_keys[f]

    def cell_vertices(self, c):
        return list(self._cells[c])

    def edge_fan(self, e) -> Fan:
        """The :class:`Fan` of facets and cells around edge ``e``, built on first use."""
        fan = self._fans.get(e)
        if fan is None:
            fan = self._fans[e] = build_fan(self, e)
        return fan

    def classify_edge(self, e) -> EdgeClass:
        """Regularity by quarter turns: regular at k = 4 interior, k = 2 boundary."""
        cls = self._eclass.get(e)
        if cls is None:
            k = self._edge_quarters(e)
            boundary = self.edge_boundary[e]
            cls = self._eclass[e] = EdgeClass(k != (2 if boundary else 4), k, boundary)
        return cls

    def singular_edges(self):
        return [
            e for e in range(self.n_edges)
            if self.edge_live[e] and self.classify_edge(e).singular
        ]


class HexMesh(CellMesh):
    """Immutable hexahedral mesh; every edge fan is built, and so checked to
    be manifold, at construction."""

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

    def edge_param_length(self, e) -> float:
        return 1.0

    def cell_angle_quarters(self, c, e) -> float:
        """Parametric dihedral angle of cell ``c`` at edge ``e`` in 90° units."""
        return 1.0

    def cell_corner_octants(self, c, v) -> float:
        """Parametric solid angle of cell ``c`` at its vertex ``v`` in octant units."""
        return 1.0

    def edge_valence(self, e) -> int:
        return len(self.edge_cells[e])

    _edge_quarters = edge_valence

    def opp_facet(self, e, f):
        """The facet continuing ``f`` straight across regular edge ``e``; None if absent."""
        if self.classify_edge(e).singular:
            raise MeshError(f"opp_facet undefined: edge {e} is singular")
        fan = self.edge_fan(e)
        i = fan.facets.index(f)
        g = fan.facet(i + 2)
        return fan.facet(i - 2) if g is None else g

    def local_coords(self, h, v):
        """Unit-cube corner coordinates of vertex ``v`` within hex ``h``."""
        return tuple(HEX_CORNER_COORDS[self._corner_of[h][v]])

    def face_gluing(self, h, f, h2) -> Transition:
        """Integer chart transition from hex ``h``'s unit cube to hex ``h2``'s.

        Maps h-local corner coordinates to h2-local coordinates; h's cube
        lands on the cube adjacent to h2's across the shared facet ``f``.
        """
        quad = self.facet_keys[f]
        p = HEX_CORNER_COORDS[[self._corner_of[h][v] for v in quad]]
        q = HEX_CORNER_COORDS[[self._corner_of[h2][v] for v in quad]]
        u1, u2 = p[1] - p[0], p[2] - p[0]
        v1, v2 = q[1] - q[0], q[2] - q[0]
        n_h = HEX_FACE_NORMALS[self.cell_facets[h].index(f)]
        n_h2 = HEX_FACE_NORMALS[self.cell_facets[h2].index(f)]
        basis_from = np.column_stack([u1, u2, n_h])
        basis_to = np.column_stack([v1, v2, -n_h2])
        det = int(round(np.linalg.det(basis_from)))
        if det == 0:
            raise MeshError(f"degenerate facet {f} corner configuration")
        inv = np.linalg.inv(basis_from.astype(float))
        rot_mat = basis_to.astype(float) @ inv
        rot = rotation_index(rot_mat)
        t = q[0] - np.array([int(round(x)) for x in rot_mat @ p[0]], dtype=np.int64)
        return Transition(rot, tuple(int(x) for x in t))

    # Generic name used by block transport (same signature for tet meshes).
    cell_gluing = face_gluing

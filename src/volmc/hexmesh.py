"""Hexahedral mesh connectivity: vertices, hexes, derived edges and quad facets.

Corner numbering follows the VTK hexahedron convention: corners 0-3 form the
bottom quad (counter-clockwise seen from outside, i.e. from below), corners
4-7 the matching top quad, corner 4 above corner 0.

All derived element ids are deterministic: edges and facets are sorted
lexicographically by their (sorted) vertex id tuples before numbering.
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


class HexMesh:
    """Immutable hexahedral mesh with full vertex/edge/facet/hex incidence.

    Built via :func:`build_hex_connectivity`; do not mutate after construction.
    """

    def __init__(self, positions, hexes):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.hexes = np.asarray(hexes, dtype=np.int64).reshape(-1, 8)
        self.n_vertices = len(self.positions)
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        nv = self.n_vertices
        for hi, h in enumerate(self.hexes):
            if len(set(int(v) for v in h)) != 8:
                raise MeshError(f"hex {hi} has repeated corners")
            if h.min() < 0 or h.max() >= nv:
                raise MeshError(f"hex {hi} references vertex out of range")

        edge_keys = set()
        facet_keys = {}
        for hi, h in enumerate(self.hexes):
            for a, b in HEX_EDGES:
                va, vb = int(h[a]), int(h[b])
                edge_keys.add((va, vb) if va < vb else (vb, va))
            for fi, face in enumerate(HEX_FACES):
                quad = tuple(int(h[c]) for c in face)
                key = tuple(sorted(quad))
                facet_keys.setdefault(key, []).append((hi, quad))

        self.edge_vertices = sorted(edge_keys)
        self.edge_id = {k: i for i, k in enumerate(self.edge_vertices)}
        self.n_edges = len(self.edge_vertices)

        self.facet_keys = sorted(facet_keys)
        self.facet_id = {k: i for i, k in enumerate(self.facet_keys)}
        self.n_facets = len(self.facet_keys)

        self.facet_hexes = [[] for _ in range(self.n_facets)]
        self.facet_corners = [None] * self.n_facets  # cyclic quad, from first incident hex
        for key, incident in facet_keys.items():
            f = self.facet_id[key]
            incident.sort()
            if len(incident) > 2:
                raise MeshError(
                    f"non-manifold facet {key}: {len(incident)} incident hexes {[h for h, _ in incident]}"
                )
            self.facet_hexes[f] = [hi for hi, _ in incident]
            self.facet_corners[f] = incident[0][1]

        self.hex_facets = [[] for _ in range(len(self.hexes))]
        self.hex_edges = [[] for _ in range(len(self.hexes))]
        self.facet_edges = [[] for _ in range(self.n_facets)]
        self.edge_facets = [[] for _ in range(self.n_edges)]
        self.edge_hexes = [[] for _ in range(self.n_edges)]
        for hi, h in enumerate(self.hexes):
            for face in HEX_FACES:
                quad = tuple(sorted(int(h[c]) for c in face))
                self.hex_facets[hi].append(self.facet_id[quad])
            for a, b in HEX_EDGES:
                va, vb = int(h[a]), int(h[b])
                e = self.edge_id[(va, vb) if va < vb else (vb, va)]
                self.hex_edges[hi].append(e)
        for f, quad in enumerate(self.facet_corners):
            for i in range(4):
                va, vb = quad[i], quad[(i + 1) % 4]
                e = self.edge_id[(va, vb) if va < vb else (vb, va)]
                self.facet_edges[f].append(e)
                self.edge_facets[e].append(f)
        for e in range(self.n_edges):
            self.edge_facets[e] = sorted(set(self.edge_facets[e]))
            hs = set()
            for f in self.edge_facets[e]:
                hs.update(self.facet_hexes[f])
            self.edge_hexes[e] = sorted(hs)

        self.facet_boundary = np.array(
            [len(hs) == 1 for hs in self.facet_hexes], dtype=bool
        )
        self.edge_boundary = np.zeros(self.n_edges, dtype=bool)
        for e in range(self.n_edges):
            self.edge_boundary[e] = any(self.facet_boundary[f] for f in self.edge_facets[e])

        # Local corner coordinates per (hex, vertex).
        self._local = [
            {int(h[c]): tuple(HEX_CORNER_COORDS[c]) for c in range(8)}
            for h in self.hexes
        ]

        self.vertex_cells = [[] for _ in range(self.n_vertices)]
        for hi, h in enumerate(self.hexes):
            for v in h:
                self.vertex_cells[int(v)].append(hi)

        self._fans = [build_fan(self, e) for e in range(self.n_edges)]

    # -- generic cell-mesh interface ----------------------------------------
    # Shared with the refined tetrahedral mesh so complex extraction and
    # reduction can run on either pipeline.

    kind = "hex"

    @property
    def n_cells(self):
        return len(self.hexes)

    @property
    def facet_cells(self):
        return self.facet_hexes

    @property
    def cell_facets(self):
        return self.hex_facets

    @property
    def edge_cells(self):
        return self.edge_hexes

    def facet_vertices(self, f):
        return self.facet_keys[f]

    def cell_vertices(self, c):
        return [int(v) for v in self.hexes[c]]

    def edge_param_length(self, e) -> float:
        return 1.0

    def cell_angle_quarters(self, c, e) -> float:
        """Parametric dihedral angle of cell ``c`` at edge ``e`` in 90° units."""
        return 1.0

    def cell_corner_octants(self, c, v) -> float:
        """Parametric solid angle of cell ``c`` at its vertex ``v`` in octant units."""
        return 1.0

    # -- queries ------------------------------------------------------------

    def edge_fan(self, e) -> Fan:
        """The :class:`Fan` of facets and hexes around edge ``e``."""
        return self._fans[e]

    def edge_valence(self, e) -> int:
        return len(self.edge_hexes[e])

    def classify_edge(self, e) -> EdgeClass:
        """Valence-based regularity: interior edges are regular at 4 hexes, boundary at 2."""
        boundary = bool(self.edge_boundary[e])
        k = self.edge_valence(e)
        singular = k != (2 if boundary else 4)
        return EdgeClass(singular, k, boundary)

    def opp_facet(self, e, f):
        """The facet continuing ``f`` straight across regular edge ``e``; None if absent."""
        cls = self.classify_edge(e)
        if cls.singular:
            raise MeshError(f"opp_facet undefined: edge {e} is singular")
        fan = self._fans[e]
        i = fan.facets.index(f)
        g = fan.facet(i + 2)
        return fan.facet(i - 2) if g is None else g

    def singular_edges(self):
        return [e for e in range(self.n_edges) if self.classify_edge(e).singular]

    def local_coords(self, h, v):
        """Unit-cube corner coordinates of vertex ``v`` within hex ``h``."""
        return self._local[h][v]

    def hex_face_index(self, h, f):
        return self.hex_facets[h].index(f)

    def face_gluing(self, h, f, h2) -> Transition:
        """Integer chart transition from hex ``h``'s unit cube to hex ``h2``'s.

        Maps h-local corner coordinates to h2-local coordinates; h's cube
        lands on the cube adjacent to h2's across the shared facet ``f``.
        """
        quad = self.facet_keys[f]
        la = self._local[h]
        lb = self._local[h2]
        vs = list(quad)
        p = np.array([la[v] for v in vs], dtype=np.int64)
        q = np.array([lb[v] for v in vs], dtype=np.int64)
        u1, u2 = p[1] - p[0], p[2] - p[0]
        v1, v2 = q[1] - q[0], q[2] - q[0]
        n_h = HEX_FACE_NORMALS[self.hex_face_index(h, f)]
        n_h2 = HEX_FACE_NORMALS[self.hex_face_index(h2, f)]
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


def build_hex_connectivity(hexes, positions) -> HexMesh:
    """Build a :class:`HexMesh` with full derived incidence from raw cells.

    Rejects non-manifold configurations (facets with 3+ hexes, split edge
    fans) with a :class:`MeshError` naming the offending element.
    """
    return HexMesh(positions, hexes)

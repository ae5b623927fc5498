"""Tetrahedral meshes carrying a seamless volumetric parametrization.

Each tet stores its own chart: a parameter triple per corner. Charts of
adjacent tets differ by a rigid transition whose rotation lies in the
octahedral group; these transitions are recovered from the stored values.
The mesh shares its incidence code with HexMesh through CellMesh, so
complex extraction and reduction run unchanged on either pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MeshError, NotSeamlessError
from .hexmesh import CellMesh, HexMesh
from .octahedral import ROTATIONS, Transition, fit_rotation

# Facets whose parameter image is constant in one coordinate within this
# tolerance count as iso-facets; sanitized inputs satisfy this exactly.
ISO_TOL = 1e-9

TET_FACE_CORNERS = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _tet_volume(p):
    return float(np.linalg.det(np.array([p[1] - p[0], p[2] - p[0], p[3] - p[0]]))) / 6.0


class ParamTetMesh(CellMesh):
    """Tet mesh with per-corner parameter values and derived incidence.

    ``split_edge`` refines it in place; ``compact`` produces a fresh mesh of
    the live tets only, for extraction.
    """

    kind = "tet"
    FACES = TET_FACE_CORNERS
    EDGES = TET_EDGES
    FACET_EDGES = ((0, 1), (0, 2), (1, 2))  # on the sorted key: ab, ac, bc
    CYCLIC_FACETS = False

    def __init__(self, positions, tets, params):
        self._positions = [np.asarray(p, float) for p in positions]
        self.tets = [tuple(int(v) for v in t) for t in tets]
        self.params = [np.asarray(p, float).reshape(4, 3).copy() for p in params]
        super().__init__(self.tets)
        for t, par in enumerate(self.params):
            if not np.isfinite(par).all():
                raise MeshError(f"tet {t} has a non-finite parameter value")
            if _tet_volume(par) <= 0:
                raise MeshError(f"tet {t} has a degenerate or flipped parametric image")
        self._trans = {}

    @property
    def positions(self):
        return np.array(self._positions)

    @property
    def n_vertices(self):
        return len(self._positions)

    def corner_param(self, t, v):
        """Parameter value of vertex ``v`` in tet ``t``'s chart."""
        return self.params[t][self._corner_of[t][v]]

    # -- transitions ----------------------------------------------------------

    def facet_transition(self, f) -> Transition:
        """Rigid octahedral chart transition across interior facet ``f``,
        mapping the chart of its lower-id tet to that of the higher-id tet."""
        if f in self._trans:
            return self._trans[f]
        cells = self.facet_cells[f]
        if len(cells) != 2:
            raise MeshError(f"facet {f} is not interior")
        s, t = cells
        key = self.facet_keys[f]
        ps = np.array([self.corner_param(s, v) for v in key])
        pt = np.array([self.corner_param(t, v) for v in key])
        d1, d2 = ps[1] - ps[0], ps[2] - ps[0]
        g1, g2 = pt[1] - pt[0], pt[2] - pt[0]
        rot, _ = fit_rotation(
            (d1, d2, np.cross(d1, d2)), (g1, g2, np.cross(g1, g2))
        )
        if rot is None:
            raise NotSeamlessError(
                f"no octahedral rotation matches the charts across facet {f}"
            )
        shift = pt[0] - ROTATIONS[rot] @ ps[0]
        tr = Transition(rot, tuple(shift))
        scale = max(1.0, float(np.abs(ps).max()), float(np.abs(pt).max()))
        for a, b in zip(ps, pt):
            if np.abs(np.asarray(tr.apply(a)) - b).max() > 1e-6 * scale:
                raise NotSeamlessError(f"chart transition across facet {f} is not rigid")
        self._trans[f] = tr
        return tr

    def cell_gluing(self, a, f, b) -> Transition:
        """Chart transition from tet ``a`` to tet ``b`` across their shared facet ``f``."""
        s, t = self.facet_cells[f]
        tr = self.facet_transition(f)
        if (a, b) == (s, t):
            return tr
        if (a, b) == (t, s):
            return tr.inverse()
        raise MeshError(f"tets {a}, {b} do not share facet {f}")

    # -- fans and edge classification ----------------------------------------

    def dihedral_quarters(self, t, e) -> float:
        """Parametric dihedral angle of tet ``t`` at edge ``e``, in 90° units."""
        va, vb = self.edge_keys[e]
        others = [v for v in self.tets[t] if v not in (va, vb)]
        pa = self.corner_param(t, va)
        axis = self.corner_param(t, vb) - pa
        axis = axis / np.linalg.norm(axis)
        w = []
        for v in others:
            d = self.corner_param(t, v) - pa
            d = d - np.dot(d, axis) * axis
            w.append(d / np.linalg.norm(d))
        ang = math.atan2(np.linalg.norm(np.cross(w[0], w[1])), float(np.dot(w[0], w[1])))
        return ang / (math.pi / 2)

    cell_angle_quarters = dihedral_quarters

    def cell_corner_octants(self, t, v) -> float:
        """Parametric solid angle of tet ``t`` at vertex ``v`` in octant units."""
        p0 = self.corner_param(t, v)
        a, b, c = [self.corner_param(t, u) - p0 for u in self.tets[t] if u != v]
        la, lb, lc = np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(c)
        num = abs(float(np.dot(a, np.cross(b, c))))
        den = (
            la * lb * lc
            + float(np.dot(a, b)) * lc
            + float(np.dot(a, c)) * lb
            + float(np.dot(b, c)) * la
        )
        omega = 2.0 * math.atan2(num, den)
        if omega < 0:
            omega += 2.0 * math.pi
        return omega / (math.pi / 2)

    def _edge_quarters(self, e) -> int:
        """Total parametric dihedral angle at ``e`` as a whole number of 90° turns."""
        total = sum(self.dihedral_quarters(t, e) for t in self.edge_cells[e])
        k = int(round(total))
        if abs(total - k) > 1e-6 * max(1.0, total):
            raise NotSeamlessError(
                f"edge {e} angle sum {total * 90:.9f} degrees is not a multiple of 90; "
                "sanitize the parametrization first"
            )
        return k

    def edge_param_length(self, e) -> float:
        va, vb = self.edge_keys[e]
        t = self.edge_cells[e][0]
        return float(np.linalg.norm(self.corner_param(t, vb) - self.corner_param(t, va)))

    # -- iso-facet geometry ---------------------------------------------------

    def anchor(self, f):
        """The tet whose chart facet ``f`` adopts."""
        return self.facet_cells[f][0]

    def facet_plane(self, f, t=None):
        """(axis vector, value) of iso-facet ``f`` in the chart of tet ``t``
        (default: the facet's anchor); None if the facet is not iso."""
        if t is None:
            t = self.anchor(f)
        pts = np.array([self.corner_param(t, v) for v in self.facet_keys[f]])
        for axis in range(3):
            col = pts[:, axis]
            if col.max() - col.min() <= ISO_TOL:
                n = np.zeros(3)
                n[axis] = 1.0
                return n, float(col[0])
        return None

    def iso_facet(self, f) -> bool:
        return self.facet_plane(f) is not None

    def _plane_matches(self, plane_a, plane_b):
        na, ca = plane_a
        nb, cb = plane_b
        if np.allclose(na, nb, atol=1e-9):
            return abs(ca - cb) <= ISO_TOL
        if np.allclose(na, -nb, atol=1e-9):
            return abs(ca + cb) <= ISO_TOL
        return False

    def transport_plane(self, plane, tr: Transition):
        n, c = plane
        n2 = np.asarray(tr.apply_vector(n), float)
        c2 = c + float(np.dot(n2, np.asarray(tr.t)))
        return n2, c2

    def fan_transition(self, e, t_from, t_to) -> Transition:
        """Chart transition from tet ``t_from`` to ``t_to`` composed along the
        fan of edge ``e`` (path-independent across regular edges)."""
        if t_from == t_to:
            return Transition()
        fan = self.edge_fan(e)
        i, j = fan.cells.index(t_from), fan.cells.index(t_to)
        step = 1 if fan.closed or j > i else -1
        tr = Transition()
        t, k = t_from, i
        while t != t_to:
            g = fan.facet(k + 1 if step == 1 else k)
            k += step
            t2 = fan.cell(k)
            tr = self.cell_gluing(t, g, t2).compose(tr)
            t = t2
        return tr

    def opp_facet(self, e, f):
        """The iso-facet continuing ``f`` coplanarly across regular edge ``e``
        (transitions accounted); None if there is none."""
        if self.classify_edge(e).singular:
            raise MeshError(f"opp_facet undefined: edge {e} is singular")
        fan = self.edge_fan(e)
        i = fan.facets.index(f)

        def walk(step):
            side = 0 if step == 1 else -1  # fan.cell(j + side) lies beyond facet j
            t = fan.cell(i + side)
            if t is None:
                return None
            plane = self.facet_plane(f, t)
            if plane is None:
                return None
            j = i
            while True:
                j += step
                g = fan.facet(j)
                if g is None or g == f:
                    return None
                cand = self.facet_plane(g, t)
                if cand is not None and self._plane_matches(cand, plane):
                    return g
                t2 = fan.cell(j + side)
                if t2 is None:
                    return None
                plane = self.transport_plane(plane, self.cell_gluing(t, g, t2))
                t = t2

        out = walk(1)
        if out is None:
            out = walk(-1)
        return out

    # -- refinement ------------------------------------------------------------

    def split_edge(self, e, lam):
        """Split edge ``e`` at affine parameter ``lam`` of its vertex pair,
        subdividing every incident tet; returns (new vertex id, mapping from
        each replaced tet to its two children)."""
        if not 0.0 < lam < 1.0:
            raise MeshError(f"split parameter {lam} outside the open unit interval")
        va, vb = self.edge_keys[e]
        v = len(self._positions)
        self._positions.append((1 - lam) * self._positions[va] + lam * self._positions[vb])
        replaced = {}
        for t in sorted(self.edge_cells[e]):
            tet = self.tets[t]
            par = self.params[t]
            ca, cb = self._corner_of[t][va], self._corner_of[t][vb]
            pv = (1 - lam) * par[ca] + lam * par[cb]
            kids = []
            for corner in (cb, ca):  # keep va in the first sub-tet, vb in the second
                tet2 = list(tet)
                tet2[corner] = v
                par2 = par.copy()
                par2[corner] = pv
                kids.append(len(self.tets))
                self.tets.append(tuple(tet2))
                self.params.append(par2)
            replaced[t] = tuple(kids)
            self.tets[t] = None
            self.params[t] = None
        self._build_incidence(self.tets)
        self._trans = {}
        return v, replaced

    def compact(self):
        """Fresh mesh containing only the live tets; returns (mesh, facet id
        map old->new)."""
        live = self.live_cells()
        out = ParamTetMesh(
            self._positions,
            [self.tets[t] for t in live],
            [self.params[t] for t in live],
        )
        fmap = {}
        for f, key in enumerate(self.facet_keys):
            if self.facet_live[f] and key in out.facet_id:
                fmap[f] = out.facet_id[key]
        return out, fmap


def hex_to_param(mesh: HexMesh) -> ParamTetMesh:
    """Unit-cube parametrization of a hex mesh on a 12-tets-per-hex split.

    Each hex contributes a center vertex; every quad facet is split into two
    triangles along the diagonal through its lowest vertex id (consistent
    from both sides), and each triangle forms a tet with the center. Charts
    are the hexes' unit cubes, so chart transitions across hex interfaces
    coincide with the hexes' integer face gluings.
    """
    positions = [tuple(p) for p in mesh.positions]
    centers = {}
    for h in range(mesh.n_cells):
        centers[h] = len(positions)
        positions.append(tuple(np.mean(mesh.positions[list(mesh.hexes[h])], axis=0)))
    tets = []
    params = []
    for h in range(mesh.n_cells):
        c = centers[h]
        for f in mesh.cell_facets[h]:
            quad = list(mesh.facet_corners[f])
            i0 = quad.index(min(quad))
            q = quad[i0:] + quad[:i0]
            for tri in ((q[0], q[1], q[2]), (q[0], q[2], q[3])):
                verts = list(tri) + [c]
                par = np.array(
                    [mesh.local_coords(h, v) for v in tri] + [(0.5, 0.5, 0.5)],
                    dtype=float,
                )
                if _tet_volume(par) < 0:
                    verts[1], verts[2] = verts[2], verts[1]
                    par[[1, 2]] = par[[2, 1]]
                tets.append(verts)
                params.append(par)
    return ParamTetMesh(positions, tets, params)

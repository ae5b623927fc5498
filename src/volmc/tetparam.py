"""Tetrahedral meshes carrying a seamless volumetric parametrization.

Each tet stores its own chart: a parameter triple per corner. Charts of
adjacent tets differ by a rigid transition whose rotation lies in the
octahedral group; these transitions are recovered from the stored values.
The mesh shares its incidence code with HexMesh through CellMesh, so
complex extraction and reduction run unchanged on either pipeline.

Chart geometry lives in tables built in one array pass over all live tets
and interior facets on the first query: per tet its dihedral angles, corner
solid angles and iso axis per face; per facet its transition. A facet with
no rigid octahedral transition raises ``NotSeamlessError`` when queried.
``split_edge`` computes rows only for the tets it creates and the facets
they touch.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshError, NotSeamlessError
from .hexmesh import LAYOUT_TOL, CellMesh, HexMesh
from .octahedral import _ROT_FLOAT, ROTATIONS, Transition, fit_rotation

# Facets whose parameter image is constant in one coordinate within this
# tolerance count as iso-facets; sanitized inputs satisfy this exactly.
ISO_TOL = 1e-9

TET_FACE_CORNERS = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Index arrays of the table pass: the two corners off each edge, the three
# corners other than each corner, and the slot of each corner pair's edge.
_EDGE_A, _EDGE_B = np.array(TET_EDGES).T
_EDGE_REST = np.array([[c for c in range(4) if c not in e] for e in TET_EDGES])
_CORNER_REST = np.array([[c for c in range(4) if c != k] for k in range(4)])
_EDGE_SLOT = {(a, b): k for k, e in enumerate(TET_EDGES) for a, b in (e, e[::-1])}
# Where each rotation takes each coordinate axis: (image axis, sign).
_AXIS_IMAGE = [[(int(abs(m[:, a]).argmax()), int(m[:, a].sum())) for a in range(3)] for m in ROTATIONS]
# Rotation-table codes of facets without a rigid octahedral transition.
_NO_FIT, _NOT_RIGID = -1, -2


def _dot(a, b):
    return (a * b).sum(-1)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _tet_rows(par, ids):
    """Dihedral quarters (n x 6), corner octants (n x 4) and iso axes per
    face slot (n x 4, -1 where the face is not iso) of tets with corner
    parameters ``par`` (n x 4 x 3) and vertex ids ``ids`` (n x 4)."""
    rows = np.arange(len(par))[:, None]
    # Each dihedral angle is measured from the edge's lower-id vertex.
    flip = ids[:, _EDGE_A] > ids[:, _EDGE_B]
    pa = par[rows, np.where(flip, _EDGE_B, _EDGE_A)]
    axis = _unit(par[rows, np.where(flip, _EDGE_A, _EDGE_B)] - pa)[:, :, None]
    d = par[:, _EDGE_REST] - pa[:, :, None]
    w = _unit(d - _dot(d, axis)[..., None] * axis)
    w0, w1 = w[:, :, 0], w[:, :, 1]
    dihedral = np.arctan2(np.linalg.norm(np.cross(w0, w1), axis=-1), _dot(w0, w1)) / (np.pi / 2)

    a, b, c = np.moveaxis(par[:, _CORNER_REST] - par[:, :, None], 2, 0)
    la, lb, lc = (np.linalg.norm(x, axis=-1) for x in (a, b, c))
    num = np.abs(_dot(a, np.cross(b, c)))
    den = la * lb * lc + _dot(a, b) * lc + _dot(a, c) * lb + _dot(b, c) * la
    omega = 2.0 * np.arctan2(num, den)
    octant = np.where(omega < 0, omega + 2.0 * np.pi, omega) / (np.pi / 2)

    face = par[:, np.array(TET_FACE_CORNERS)]
    iso = face.max(axis=2) - face.min(axis=2) <= ISO_TOL
    iso_axis = np.where(iso.any(-1), iso.argmax(-1), -1)
    return dihedral, octant, iso_axis


def _transition_rows(ps, pt):
    """Rotation index (or a ``_NO_FIT``/``_NOT_RIGID`` code) and shift of
    the transitions carrying facet corner parameters ``ps`` onto ``pt``
    (both m x 3 x 3, corners in facet key order)."""
    d, g = ps[:, 1:] - ps[:, :1], pt[:, 1:] - pt[:, :1]
    rot, _ = fit_rotation(
        np.concatenate([d, np.cross(d[:, 0], d[:, 1])[:, None]], axis=1),
        np.concatenate([g, np.cross(g[:, 0], g[:, 1])[:, None]], axis=1),
    )
    r = _ROT_FLOAT[rot]
    shift = pt[:, 0] - np.einsum("mij,mj->mi", r, ps[:, 0])
    moved = np.einsum("mij,mkj->mki", r, ps) + shift[:, None]
    scale = np.maximum(1.0, np.maximum(np.abs(ps).max(axis=(1, 2)), np.abs(pt).max(axis=(1, 2))))
    rigid = np.abs(moved - pt).max(axis=(1, 2)) <= 1e-6 * scale
    return np.where(rot < 0, _NO_FIT, np.where(rigid, rot, _NOT_RIGID)), shift


class _Charts:
    """The chart tables of a ParamTetMesh as arrays indexed by tet or facet
    id (rows of dead tets and of facets that are not interior are unused),
    with the facet transitions built so far and their inverses."""

    def __init__(self):
        self.dihedral, self.octant = np.zeros((0, 6)), np.zeros((0, 4))
        self.iso = np.zeros((0, 4), dtype=np.int8)
        self.rot, self.shift = np.zeros(0, dtype=np.int8), np.zeros((0, 3))
        self.trans, self.inverse = {}, {}

    def grow(self, n_cells, n_facets):
        """Pad the tables with zero rows up to ``n_cells`` tets and ``n_facets`` facets."""
        for name, n in (("dihedral", n_cells), ("octant", n_cells), ("iso", n_cells),
                        ("rot", n_facets), ("shift", n_facets)):
            a = getattr(self, name)
            setattr(self, name, np.concatenate([a, np.zeros((n - len(a),) + a.shape[1:], a.dtype)]))


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
        par = np.array([np.asarray(p, float).reshape(4, 3) for p in params]).reshape(-1, 4, 3)
        self.params = list(par)
        # Built by _charts. Not a cached_property: writing the instance __dict__
        # makes every attribute read of the mesh slower.
        self._chart_tables = None
        super().__init__(self.tets)
        finite = np.isfinite(par).all(axis=(1, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            bad = np.flatnonzero(~finite | ~(np.linalg.det(par[:, 1:] - par[:, :1]) > 0))
        if len(bad):
            what = "a degenerate or flipped parametric image" if finite[bad[0]] else "a non-finite parameter value"
            raise MeshError(f"tet {bad[0]} has {what}")

    @property
    def positions(self):
        return np.array(self._positions)

    @property
    def n_vertices(self):
        return len(self._positions)

    def corner_param(self, t, v):
        """Parameter value of vertex ``v`` in tet ``t``'s chart."""
        return self.params[t][self.tets[t].index(v)]

    @property
    def _charts(self) -> _Charts:
        """The chart tables, built over every live tet and interior facet on first use."""
        ch = self._chart_tables
        if ch is None:
            ch = self._chart_tables = _Charts()
            interior = [f for f, cells in enumerate(self.facet_cells) if len(cells) == 2]
            self._fill_rows(ch, self.live_cells(), interior)
        return ch

    def _fill_rows(self, ch, tets, facets):
        """(Re)compute the rows of ``tets`` and of interior ``facets`` in tables ``ch``."""
        ch.grow(self.n_cells, self.n_facets)
        if tets:
            par = np.array([self.params[t] for t in tets])
            ids = np.array([self.tets[t] for t in tets])
            # A sliver's angles come out NaN, named as an error where they are read (``singular``).
            with np.errstate(invalid="ignore", divide="ignore"):
                ch.dihedral[tets], ch.octant[tets], ch.iso[tets] = _tet_rows(par, ids)
        if facets:
            cells = [self.facet_cells[f] for f in facets]
            ids = np.array([[self.tets[c] for c in cs] for cs in cells])
            keys = np.array([self.facet_keys[f] for f in facets])
            corners = (ids[:, :, None, :] == keys[:, None, :, None]).argmax(-1)  # of each key vertex
            par = np.array([[self.params[c] for c in cs] for cs in cells])
            par = np.take_along_axis(par, corners[..., None], axis=2)
            ch.rot[facets], ch.shift[facets] = _transition_rows(par[:, 0], par[:, 1])

    # -- transitions ----------------------------------------------------------

    def facet_transition(self, f) -> Transition:
        """Rigid octahedral chart transition across interior facet ``f``,
        mapping the chart of its lower-id tet to that of the higher-id tet."""
        if len(self.facet_cells[f]) != 2:
            raise MeshError(f"facet {f} is not interior")
        ch = self._charts
        tr = ch.trans.get(f)
        if tr is not None:
            return tr
        rot = int(ch.rot[f])
        if rot == _NO_FIT:
            raise NotSeamlessError(
                f"no octahedral rotation matches the charts across facet {f}"
            )
        if rot == _NOT_RIGID:
            raise NotSeamlessError(f"chart transition across facet {f} is not rigid")
        tr = ch.trans[f] = Transition(rot, tuple(ch.shift[f]))
        return tr

    def cell_gluing(self, a, f, b) -> Transition:
        """Chart transition from tet ``a`` to tet ``b`` across their shared facet ``f``."""
        s, t = self.facet_cells[f]
        if (a, b) == (s, t):
            return self.facet_transition(f)
        if (a, b) == (t, s):
            inverse = self._charts.inverse
            tr = inverse.get(f)
            if tr is None:
                tr = inverse[f] = self.facet_transition(f).inverse()
            return tr
        raise MeshError(f"tets {a}, {b} do not share facet {f}")

    # -- fans and edge classification ----------------------------------------

    def dihedral_quarters(self, t, e) -> float:
        """Parametric dihedral angle of tet ``t`` at edge ``e``, in 90° units."""
        va, vb = self.edge_keys[e]
        tet = self.tets[t]
        return self._charts.dihedral[t, _EDGE_SLOT[tet.index(va), tet.index(vb)]]

    def fan_turns(self, e, i, j) -> float:
        """Quarter turns around ``e`` from fan position ``i`` to ``j >= i``, added in fan order."""
        cells = self.edge_fan(e).cells
        return sum(self.dihedral_quarters(cells[k % len(cells)], e) for k in range(i, j))

    def cell_corner_octants(self, t, v) -> float:
        """Parametric solid angle of tet ``t`` at vertex ``v`` in octant units."""
        return self._charts.octant[t, self.tets[t].index(v)]

    def block_corners(self, walls, block_of, n_blocks):
        """Corners per block id, for the blocks ``block_of`` (tet -> block
        id) of the wall facets ``walls``: the vertex sectors of one octant,
        in one pass over the vertices."""
        corners = [0] * n_blocks
        for v in range(self.n_vertices):
            for sector in self.vertex_sectors(v, walls):
                if abs(sum(self.cell_corner_octants(c, v) for c in sector) - 1.0) < 1e-6:
                    corners[block_of[sector[0]]] += 1
        return corners

    def _edge_quarters(self, e) -> int:
        """Total parametric dihedral angle at ``e`` as a whole number of 90° turns."""
        total = sum(self.dihedral_quarters(t, e) for t in self.edge_cells[e])  # in tet-id order
        if np.isnan(total):
            raise NotSeamlessError(f"edge {e} angle sum is NaN: a tet at the edge is degenerate")
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

    def iso_plane(self, f, t):
        """(axis, value) of iso-facet ``f`` in the chart of tet ``t``; None
        if the facet is not iso."""
        axis = int(self._charts.iso[t, self.cell_facets[t].index(f)])
        if axis < 0:
            return None
        return axis, float(self.corner_param(t, self.facet_keys[f][0])[axis])

    def iso_facet(self, f) -> bool:
        return self.iso_plane(f, self.anchor(f)) is not None

    @staticmethod
    def transport_plane(plane, tr: Transition):
        """Carry the plane ``sign * x[axis] = value``, given as (axis, sign,
        value), through transition ``tr``. The normal stays an exact signed
        unit axis, so transported planes compare exactly."""
        axis, sign, value = plane
        axis, turn = _AXIS_IMAGE[tr.rot][axis]
        sign *= turn
        return axis, sign, value + sign * tr.t[axis]

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

    def _wall_layout(self):
        """Layout hooks of ``cellcomplex._lay_out_walls``: the in-plane
        chart coordinates of a seed facet's corners in ``facet_corners``
        (sorted key) order, starting a wall; those of facet ``g`` across edge
        ``e`` of a placed facet ``f``, carried through the fan transition
        into ``f``'s layout chart; and a placed triangle's area. Raises
        MeshError for a seed that is not an iso-facet and for a corner
        carried off the seed's iso-plane."""
        trans, plane = {}, None  # current wall: placed facet -> its chart to the seed's; iso-plane

        def place_seed(seed):
            nonlocal plane
            plane = self.iso_plane(seed, self.anchor(seed))
            if plane is None:
                raise MeshError(f"tagged facet {seed} is not an iso-facet")
            trans.clear()
            return corners(seed, trans.setdefault(seed, Transition()))

        def corners(g, tr):
            (n_ax, value), anchor, out = plane, self.anchor(g), []
            u_ax, v_ax = [a for a in range(3) if a != n_ax]
            for v in self.facet_keys[g]:
                p = np.asarray(tr.apply(self.corner_param(anchor, v)), float)
                if abs(p[n_ax] - value) > LAYOUT_TOL:
                    raise MeshError(f"wall facet {g} leaves its iso-plane under transport")
                out.append((float(p[u_ax]), float(p[v_ax])))
            return tuple(out)

        def carry(f, co, k, e, g):
            tr = trans[f].compose(self.fan_transition(e, self.anchor(g), self.anchor(f)))
            trans.setdefault(g, tr)  # the first placement of g is the one kept
            return corners(g, tr)

        def area(co):
            (ax, ay), (bx, by), (cx, cy) = co
            return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / 2.0

        return place_seed, carry, area

    def opp_facet(self, e, f):
        """The iso-facet continuing ``f`` coplanarly across regular edge ``e``
        (transitions accounted); None if there is none."""
        if self.singular(e):
            raise MeshError(f"opp_facet undefined: edge {e} is singular")
        fan = self.edge_fan(e)
        i = fan.facets.index(f)

        def walk(step):
            side = 0 if step == 1 else -1  # fan.cell(j + side) lies beyond facet j
            t = fan.cell(i + side)
            if t is None:
                return None
            plane = self.iso_plane(f, t)
            if plane is None:
                return None
            axis, sign, value = plane[0], 1, plane[1]  # sign * x[axis] = value in the chart of t
            j = i
            while True:
                j += step
                g = fan.facet(j)
                if g is None or g == f:
                    return None
                cand = self.iso_plane(g, t)
                if cand is not None and cand[0] == axis and abs(cand[1] - sign * value) <= ISO_TOL:
                    return g
                t2 = fan.cell(j + side)
                if t2 is None:
                    return None
                axis, sign, value = self.transport_plane((axis, sign, value), self.cell_gluing(t, g, t2))
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
            ca, cb = tet.index(va), tet.index(vb)
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
        if self._chart_tables is not None:  # built already: update the rows the split touched
            kids = [k for pair in replaced.values() for k in pair]
            touched = {f for k in kids for f in self.cell_facets[k] if len(self.facet_cells[f]) == 2}
            self._fill_rows(self._charts, kids, sorted(touched))
            self._charts.trans, self._charts.inverse = {}, {}
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
                tets.append(list(tri) + [c])
                params.append([mesh.local_coords(h, v) for v in tri] + [(0.5, 0.5, 0.5)])
    tets = np.array(tets, dtype=np.int64).reshape(-1, 4)
    params = np.array(params, dtype=float).reshape(-1, 4, 3)
    flipped = np.linalg.det(params[:, 1:] - params[:, :1]) < 0  # swap corners 1 and 2 there
    tets[flipped] = tets[flipped][:, [0, 2, 1, 3]]
    params[flipped] = params[flipped][:, [0, 2, 1, 3]]
    return ParamTetMesh(positions, tets, params)

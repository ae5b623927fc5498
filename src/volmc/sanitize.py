"""Exact repair of almost-seamless parametrizations.

Numerically optimized parametrizations satisfy the seamlessness and
boundary-alignment constraints only approximately. This module rewrites the
parameter values so that every chart transition is an exact rigid octahedral
map and every boundary facet is exactly constant in its aligned coordinate,
while moving values only by a tiny, bounded amount and preserving the
singular edge set.

The pipeline: re-anchor charts over a dual spanning tree (shrinking the cut
set to the topologically necessary facets), detect the cut structure (cut
facets, cut edges, nodes, sheets, and the sheet sides at each vertex), solve
a small exact core system over node-sector values, and propagate to all other
vertices.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import IntegrityError, NotSeamlessError
from .octahedral import IDENTITY, ROTATIONS, Transition
from .tetparam import ParamTetMesh

# A re-anchored transition counts as identity when its translation is below
# this; real cut translations are on the order of the parametric cell size.
CUT_TOL = 1e-3
# Quantization grid exponent for free variables: multiples of D * 2^-30.
GRID_EXP = 30


def reanchor(pm: ParamTetMesh) -> ParamTetMesh:
    """Compose charts over a dual-graph spanning tree so that transitions
    across tree facets become (numerically) identity; the remaining
    non-identity facets form a small cut set."""
    n = pm.n_cells
    acc = [None] * n
    for seed in range(n):
        if acc[seed] is not None:
            continue
        acc[seed] = Transition()
        dq = deque([seed])
        while dq:
            t = dq.popleft()
            for f in sorted(pm.cell_facets[t]):
                for t2 in pm.facet_cells[f]:
                    if t2 == t or acc[t2] is not None:
                        continue
                    acc[t2] = acc[t].compose(pm.cell_gluing(t2, f, t))
                    dq.append(t2)
    params = [
        np.array([acc[t].apply(pm.params[t][c]) for c in range(4)])
        for t in range(n)
    ]
    return ParamTetMesh(pm._positions, pm.tets, params)


class Sheet:
    __slots__ = ("id", "kind", "rot", "axis", "side", "nodes")

    def __init__(self, id, kind):
        self.id = id
        self.kind = kind  # "cut" or "align"
        self.rot = None  # cut: octahedral rotation index (minus -> plus)
        self.axis = None  # align: constant coordinate
        # facet -> its tets: (minus tet, plus tet) on a cut sheet, (its tet,)
        # on an align sheet
        self.side = {}
        self.nodes = []  # its node vertices, ascending; nodes[0] is its base


class CutStructure:
    """Cut facets, cut edges, nodes, sheets and vertex sectors of a
    (re-anchored) parametrization. ``sides_at`` maps each vertex of a sheet
    facet to the distinct (sheet, sector tuple) pairs of the sheet facets at
    it, in ascending facet order: (minus, plus) sectors on a cut sheet,
    (sector,) on an align sheet."""

    def __init__(self, pm):
        self.pm = pm
        self.cut_facets = set()
        self.cut_edges = set()
        self.nodes = set()
        self.sheets = []
        self.facet_sheet = {}
        self.sides_at = {}
        self._sector_cache = {}

    def sectors(self, v):
        """Partition of the tets at vertex ``v`` into sectors separated by
        cut facets; sorted lists, ordered by their lowest tet."""
        out = self._sector_cache.get(v)
        if out is None:
            out = self._sector_cache[v] = self.pm.vertex_sectors(v, self.cut_facets)
        return out

    def sector_index(self, v, t):
        for i, sec in enumerate(self.sectors(v)):
            if t in sec:
                return i
        raise IntegrityError(f"tet {t} not incident to vertex {v}")


def _boundary_axis(pm, f):
    t = pm.facet_cells[f][0]
    pts = np.array([pm.corner_param(t, v) for v in pm.facet_keys[f]])
    spread = pts.max(axis=0) - pts.min(axis=0)
    return int(np.argmin(spread))


def _minus_side(pm, e, f, minus_t, g):
    """Tet of ``g`` lying on the same sheet side as tet ``minus_t`` of ``f``.

    ``f`` and ``g`` are the only two cut facets in the fan of ``e``; together
    they cut the fan into two arcs, and the tet of ``g`` on ``minus_t``'s arc
    is the answer. The fan is closed: ``e`` is not a cut edge, and
    detect_cut_structure makes every boundary edge that carries a cut facet a
    cut edge."""
    fan = pm.edge_fan(e)
    fi, gi = fan.facets.index(f), fan.facets.index(g)
    return fan.cell(gi - 1) if minus_t == fan.cell(fi) else fan.cell(gi)


def detect_cut_structure(pm: ParamTetMesh) -> CutStructure:
    """Classify cut facets/edges, nodes and sheets of a re-anchored
    parametrization (terminology of the exact-repair construction), and
    list the sheet sides at each vertex (``sides_at``)."""
    cs = CutStructure(pm)

    for f in range(pm.n_facets):
        if pm.facet_boundary[f]:
            continue
        tr = pm.facet_transition(f)
        if tr.rot != IDENTITY or max(abs(x) for x in tr.t) > CUT_TOL:
            cs.cut_facets.add(f)

    align_axis = {
        f: _boundary_axis(pm, f)
        for f in range(pm.n_facets)
        if pm.facet_boundary[f]
    }

    for e in range(pm.n_edges):
        n_cut = sum(1 for f in pm.edge_facets[e] if f in cs.cut_facets)
        if pm.singular(e):
            cs.cut_edges.add(e)
        elif n_cut == 1 or n_cut > 2:
            cs.cut_edges.add(e)
        # A regular boundary edge without cut facets spans 2 quarter turns in
        # one chart: its boundary facets lie on one iso-plane, one align sheet.
        elif pm.edge_boundary[e] and n_cut:
            cs.cut_edges.add(e)

    incid = pm.edge_incidence(cs.cut_edges)
    for v, es in incid.items():
        if len(es) == 1 or len(es) > 2:
            cs.nodes.add(v)
    boundary_vertices = set()
    for f in align_axis:
        boundary_vertices.update(pm.facet_keys[f])
    for e in cs.cut_edges:
        if not pm.edge_boundary[e]:
            for v in pm.edge_keys[e]:
                if v in boundary_vertices:
                    cs.nodes.add(v)

    _branch_nodes(cs, incid)
    _build_sheets(cs, align_axis)
    _sheet_nodes(cs)
    for f in sorted(cs.facet_sheet):
        sheet = cs.sheets[cs.facet_sheet[f]]
        for v in pm.facet_keys[f]:
            sides = (sheet, tuple(cs.sector_index(v, t) for t in sheet.side[f]))
            at = cs.sides_at.setdefault(v, [])
            if sides not in at:
                at.append(sides)
    return cs


def _branch_nodes(cs, incid):
    """Give every closed chain of cut edges two nodes: its start, or its
    lowest vertex on a cycle without a node, and its lowest other vertex.
    A chain stops at the first node it reaches, so no other vertex of a
    closed chain is a node, and a cycle without a node is a component of
    its own: the order of the chains does not matter."""
    for _, verts in cs.pm.edge_chains(incid, cs.nodes):
        if verts[0] == verts[-1]:
            start = verts[0] if verts[0] in cs.nodes else min(verts)
            cs.nodes.update((start, min(set(verts) - {start})))


def _build_sheets(cs, align_axis):
    """Flood the cut facets, then the boundary facets, into sheets across
    edges that are not cut edges, each from its lowest facet. A cut sheet
    orients each facet as the flood reaches it: its minus tet lies on the
    side of the minus tet of the facet it was reached from, and its
    transition read minus -> plus must have the seed's rotation."""
    pm = cs.pm
    for kind, pool in (("cut", cs.cut_facets), ("align", align_axis)):
        for f0 in sorted(pool):
            if f0 in cs.facet_sheet:
                continue
            sheet = Sheet(len(cs.sheets), kind)
            side = sheet.side
            side[f0] = tuple(pm.facet_cells[f0])
            if kind == "cut":
                sheet.rot = pm.facet_transition(f0).rot
            dq = deque([f0])
            while dq:
                f = dq.popleft()
                for e in pm.facet_edges[f]:
                    if e in cs.cut_edges:
                        continue
                    for g in pm.edge_facets[e]:
                        if g in side or g not in pool:
                            continue
                        side[g] = cells = tuple(pm.facet_cells[g])
                        if kind == "cut":
                            a, b = cells
                            gm = _minus_side(pm, e, f, side[f][0], g)
                            side[g] = (gm, b if a == gm else a)
                            rot = pm.facet_transition(g).rot
                            if side[g] != cells:
                                rot = Transition(rot).inverse().rot
                            if rot != sheet.rot:
                                raise NotSeamlessError(
                                    f"cut sheet {sheet.id} has inconsistent transitions"
                                )
                        dq.append(g)
            if kind == "align":
                axes = {align_axis[g] for g in side}
                if len(axes) != 1:
                    raise NotSeamlessError(
                        f"align sheet {sheet.id} mixes alignment axes {sorted(axes)}"
                    )
                sheet.axis = axes.pop()
            cs.sheets.append(sheet)
            cs.facet_sheet.update(dict.fromkeys(side, sheet.id))


def _sheet_nodes(cs):
    """Give every sheet two nodes at least, its lowest vertices that are not
    nodes yet; then list the nodes of each sheet."""
    verts = [sorted({v for f in s.side for v in cs.pm.facet_keys[f]}) for s in cs.sheets]
    for vs in verts:
        have = sum(v in cs.nodes for v in vs)
        cs.nodes.update([v for v in vs if v not in cs.nodes][: max(0, 2 - have)])
    for sheet, vs in zip(cs.sheets, verts):
        sheet.nodes = [v for v in vs if v in cs.nodes]


# -- core system -------------------------------------------------------------


class CoreSystem:
    """Homogeneous integer system over node-sector parameter variables."""

    def __init__(self):
        self.var_index = {}  # (vertex, sector index) -> first of 3 columns
        self.rows = []  # dict: column -> integer coefficient

    def var(self, key):
        if key not in self.var_index:
            self.var_index[key] = 3 * len(self.var_index)
        return self.var_index[key]

    @property
    def n_cols(self):
        return 3 * len(self.var_index)


def _node_sides(cs, sheet, v):
    """Distinct sector tuples of node ``v`` on the sides of the sheet's
    facets at it, in facet order. A sheet may touch a node through several
    wedges, each giving its own tuple."""
    return [sides for s, sides in cs.sides_at[v] if s is sheet]


def build_core_system(cs: CutStructure) -> CoreSystem:
    """Per sheet, one equation for each side tuple of its non-base nodes:
    the sheet's transition (cut) or constant coordinate (align) read there
    equals the one read at the base. Node sectors in no equation get
    variables too, which the solve leaves free."""
    sys = CoreSystem()
    for sheet in cs.sheets:
        base = sheet.nodes[0]
        b = [sys.var((base, s)) for s in _node_sides(cs, sheet, base)[0]]
        for v in sheet.nodes:
            for sides in _node_sides(cs, sheet, v):
                c = [sys.var((v, s)) for s in sides]
                if c == b:
                    continue
                if sheet.kind == "align":
                    sys.rows.append({c[0] + sheet.axis: 1, b[0] + sheet.axis: -1})
                    continue
                R = ROTATIONS[sheet.rot]
                for i in range(3):  # plus(c) - plus(b) = R (minus(c) - minus(b))
                    row = {}
                    terms = [(c[1] + i, 1), (b[1] + i, -1)]
                    for j in range(3):
                        terms += [(c[0] + j, -int(R[i, j])), (b[0] + j, int(R[i, j]))]
                    for col, val in terms:
                        if val:
                            row[col] = row.get(col, 0) + val
                    if row:
                        sys.rows.append(row)
    for v in sorted(cs.nodes):
        for i in range(len(cs.sectors(v))):
            sys.var((v, i))
    return sys


def _rref(rows, n_cols):
    """Reduced row echelon form over the rationals; returns (pivot rows as
    dense Fraction lists, pivot column list)."""
    mat = []
    for r in rows:
        dense = [Fraction(0)] * n_cols
        for c, val in r.items():
            dense[c] += val
        mat.append(dense)
    pivots = []
    rank = 0
    for col in range(n_cols):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        piv = mat[rank][col]
        mat[rank] = [x / piv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def _snap(x: float, grid: Fraction) -> Fraction:
    return round(Fraction(x) / grid) * grid


def _back_substitute(reduced, pivots, vals):
    """Fill the pivot variables of ``vals`` (free ones already set) from the
    reduced rows of an augmented system, whose last column is the
    right-hand side."""
    n = len(vals)
    for row, c in reversed(list(zip(reduced, pivots))):
        acc = row[n]
        for j in range(c + 1, n):
            if row[j] != 0:
                acc -= row[j] * vals[j]
        vals[c] = acc
    return vals


def _exact_floats(values, what):
    """Exact rationals as floats; an IntegrityError naming ``what`` if one
    has no exact float."""
    out = [float(x) for x in values]
    for i, (f, x) in enumerate(zip(out, values)):
        if Fraction(f) != x:
            raise IntegrityError(f"{what} {i} is not exactly representable")
    return out


def solve_exact(sys: CoreSystem, init):
    """Exact solution of the homogeneous core system near ``init`` (one
    float per column), as (float per column, grid).

    Free variables are snapped to a dyadic grid coarse enough that every
    implied variable evaluates to an exactly representable float; all rows
    then hold with exact floating-point equality.
    """
    n = sys.n_cols
    reduced, pivots = _rref(sys.rows, n + 1)  # zero right-hand side column
    denom = 1
    for row in reduced:
        for x in row:
            denom = lcm(denom, x.denominator)
    grid = Fraction(denom, 2 ** GRID_EXP)
    pivot_set = set(pivots)
    vals = [None if c in pivot_set else _snap(init[c], grid) for c in range(n)]
    _back_substitute(reduced, pivots, vals)
    return _exact_floats(vals, "column"), grid


# -- propagation -------------------------------------------------------------


def _solve_local(rows, rhs, init, grid):
    """Exact 3-variable solve: pinned components from the constraint rows,
    remaining components snapped from ``init``."""
    reduced, pivots = _rref([dict(enumerate(r + [b])) for r, b in zip(rows, rhs)], 4)
    if 3 in pivots:  # a row reduced to 0 = nonzero
        raise IntegrityError("inconsistent local alignment/holonomy constraints")
    vals = [None if c in pivots else _snap(init[c], grid) for c in range(3)]
    return _back_substitute(reduced, pivots, vals)


def propagate(cs: CutStructure, node_values, grid) -> ParamTetMesh:
    """Rebuild all parameter values from exact node-sector values.

    Per cut sheet the exact transition is read from the base node, per align
    sheet the exact constant coordinate. Every non-node vertex gets one
    sector value (snapped to ``grid``, alignment and branch-holonomy pins
    imposed exactly) which is propagated to its other sectors through the
    exact sheet transitions.
    """
    pm = cs.pm
    exact = {}  # sheet id -> its Transition (cut) or its (axis, constant) pin (align)
    for sheet in cs.sheets:
        base = sheet.nodes[0]
        base_values = [node_values[(base, s)] for s in _node_sides(cs, sheet, base)[0]]
        if sheet.kind == "cut":
            shift = np.array(base_values[1]) - ROTATIONS[sheet.rot] @ np.array(base_values[0])
            exact[sheet.id] = Transition(sheet.rot, tuple(shift))
        else:
            exact[sheet.id] = (sheet.axis, base_values[0][sheet.axis])

    values = dict(node_values)  # (vertex, sector index) -> exact float triple
    for v in range(pm.n_vertices):
        if not pm.vertex_cells[v] or v in cs.nodes:
            continue
        sectors = cs.sectors(v)
        # sector graph at v: adjacency through cut sheets; pins of align sheets
        adj = [[] for _ in sectors]
        aligns = [[] for _ in sectors]
        start = None  # the sector of v's lowest boundary facet, else 0
        for sheet, s in cs.sides_at.get(v, ()):
            if sheet.kind == "cut":
                tr = exact[sheet.id]
                adj[s[0]].append((s[1], tr))
                adj[s[1]].append((s[0], tr.inverse()))
            else:
                if start is None:
                    start = s[0]
                if exact[sheet.id] not in aligns[s[0]]:
                    aligns[s[0]].append(exact[sheet.id])
        if start is None:
            start = 0
        # spanning tree of sector transitions from the start sector
        path = {start: Transition()}
        order = [start]
        dq = deque([start])
        extra = []
        while dq:
            s = dq.popleft()
            for s2, tr in adj[s]:
                if s2 in path:
                    extra.append((s, s2, tr))
                else:
                    path[s2] = tr.compose(path[s])
                    order.append(s2)
                    dq.append(s2)
        if len(path) != len(sectors):
            raise IntegrityError(f"disconnected sector graph at vertex {v}")
        rows, rhs = [], []
        for s in range(len(sectors)):
            P = path[s]
            RP = ROTATIONS[P.rot]
            for k, c in aligns[s]:
                rows.append([Fraction(int(RP[k, j])) for j in range(3)])
                rhs.append(Fraction(c) - Fraction(P.t[k]))
        for s, s2, tr in extra:
            # closure: path[s2] must equal tr o path[s] on the start value
            C = path[s2].inverse().compose(tr.compose(path[s]))
            RC = ROTATIONS[C.rot]
            for comp in range(3):
                row = [
                    Fraction(int(RC[comp, j]) - (1 if comp == j else 0))
                    for j in range(3)
                ]
                if any(row) or C.t[comp] != 0:
                    rows.append(row)
                    rhs.append(Fraction(-C.t[comp]))
        t0 = sectors[start][0]
        init = [float(x) for x in pm.corner_param(t0, v)]
        base = _exact_floats(_solve_local(rows, rhs, init, grid), f"vertex {v} component")
        for s in order:
            values[(v, s)] = tuple(
                float(x) for x in np.asarray(path[s].apply(np.array(base)))
            )
    params = []
    for t in range(pm.n_cells):
        par = np.zeros((4, 3))
        for c, v in enumerate(pm.tets[t]):
            par[c] = values[(v, cs.sector_index(v, t))]
        params.append(par)
    return ParamTetMesh(pm._positions, pm.tets, params)


# -- verification and driver -------------------------------------------------


def verify_seamless(pm: ParamTetMesh):
    """Report of exact-equality violations: transition residuals on interior
    facet edges, alignment residuals on boundary facet edges."""
    report = []
    for f in range(pm.n_facets):
        key = pm.facet_keys[f]
        pairs = [(key[0], key[1]), (key[0], key[2]), (key[1], key[2])]
        if pm.facet_boundary[f]:
            t = pm.facet_cells[f][0]
            k = _boundary_axis(pm, f)
            for a, b in pairs:
                if pm.corner_param(t, a)[k] != pm.corner_param(t, b)[k]:
                    report.append(("align", f, (a, b)))
            continue
        s, t = pm.facet_cells[f]
        try:
            tr = pm.facet_transition(f)
        except NotSeamlessError:
            report.append(("transition-fit", f, None))
            continue
        R = ROTATIONS[tr.rot]
        for a, b in pairs:
            ds = pm.corner_param(s, b) - pm.corner_param(s, a)
            dt = pm.corner_param(t, b) - pm.corner_param(t, a)
            if not np.array_equal(R @ ds, dt):
                report.append(("transition", f, (a, b)))
    return report


def _node_init(cs, sys: CoreSystem):
    """Each column's input value: the variable's node value in its sector's
    lowest tet."""
    init = [0.0] * sys.n_cols
    for (v, sidx), col in sys.var_index.items():
        init[col:col + 3] = map(float, cs.pm.corner_param(cs.sectors(v)[sidx][0], v))
    return init


def sanitize(pm: ParamTetMesh) -> ParamTetMesh:
    """Full repair pipeline; the result passes verify_seamless exactly."""
    anchored = reanchor(pm)
    cs = detect_cut_structure(anchored)
    sys = build_core_system(cs)
    sol, grid = solve_exact(sys, _node_init(cs, sys))
    node_values = {key: tuple(sol[col:col + 3]) for key, col in sys.var_index.items()}
    return propagate(cs, node_values, grid)


def add_noise(pm: ParamTetMesh, eps=1e-8, seed=0) -> ParamTetMesh:
    """Perturb every per-corner parameter value independently; used to model
    the inexactness of numerically optimized inputs."""
    rng = np.random.default_rng(seed)
    params = [
        pm.params[t] + rng.uniform(-eps, eps, size=(4, 3))
        for t in range(pm.n_cells)
    ]
    return ParamTetMesh(pm._positions, pm.tets, params)

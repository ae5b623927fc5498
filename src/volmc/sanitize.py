"""Exact repair of almost-seamless parametrizations.

Numerically optimized parametrizations satisfy the seamlessness and
boundary-alignment constraints only approximately. This module rewrites the
parameter values so that every chart transition is an exact rigid octahedral
map and every boundary facet is exactly constant in its aligned coordinate,
while moving values only by a tiny, bounded amount and preserving the
singular edge set.

The pipeline: re-anchor charts over a dual spanning tree (shrinking the cut
set to the topologically necessary facets), detect the cut structure (cut
facets, cut edges, branches, sheets, sectors), solve a small exact core
system over node-sector values, and propagate to all other vertices.
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
    order = []
    for seed in range(n):
        if acc[seed] is not None:
            continue
        acc[seed] = Transition()
        dq = deque([seed])
        while dq:
            t = dq.popleft()
            order.append(t)
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
    __slots__ = ("id", "kind", "facets", "rot", "axis", "side", "nodes", "base")

    def __init__(self, id, kind, facets):
        self.id = id
        self.kind = kind  # "cut" or "align"
        self.facets = facets
        self.rot = None  # cut: octahedral rotation index (minus -> plus)
        self.axis = None  # align: constant coordinate
        self.side = {}  # cut: facet -> (minus tet, plus tet)
        self.nodes = []
        self.base = None


class Branch:
    __slots__ = ("id", "edges", "ends")

    def __init__(self, id, edges, ends):
        self.id = id
        self.edges = edges
        self.ends = ends


class CutStructure:
    """Cut facets, cut edges, nodes, branches, sheets and vertex sectors of a
    (re-anchored) parametrization."""

    def __init__(self, pm):
        self.pm = pm
        self.cut_facets = set()
        self.cut_edges = set()
        self.nodes = set()
        self.branches = []
        self.sheets = []
        self.facet_sheet = {}
        self._sector_cache = {}

    def sectors(self, v):
        """Partition of the tets at vertex ``v`` into sectors separated by
        cut facets; sorted lists, ordered by their lowest tet."""
        if v in self._sector_cache:
            return self._sector_cache[v]
        pm = self.pm
        cells = pm.vertex_cells[v]
        parent = {t: t for t in cells}

        def find(t):
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        for t in cells:
            for f in pm.cell_facets[t]:
                if pm.facet_boundary[f] or f in self.cut_facets:
                    continue
                if v not in pm.facet_keys[f]:
                    continue
                a, b = pm.facet_cells[f]
                parent[find(a)] = find(b)
        groups = {}
        for t in cells:
            groups.setdefault(find(t), []).append(t)
        out = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
        self._sector_cache[v] = out
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
    """Classify cut facets/edges, nodes, branches and sheets of a re-anchored
    parametrization (terminology of the exact-repair construction)."""
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
        if pm.classify_edge(e).singular:
            cs.cut_edges.add(e)
        elif n_cut == 1 or n_cut > 2:
            cs.cut_edges.add(e)
        elif pm.edge_boundary[e]:
            if n_cut >= 1:
                cs.cut_edges.add(e)
            else:
                bf = [f for f in pm.edge_facets[e] if pm.facet_boundary[f]]
                if len(bf) == 2 and align_axis[bf[0]] != align_axis[bf[1]]:
                    cs.cut_edges.add(e)

    incid = {}
    for e in cs.cut_edges:
        for v in pm.edge_keys[e]:
            incid.setdefault(v, []).append(e)
    for v, es in incid.items():
        if len(es) == 1 or len(es) > 2:
            cs.nodes.add(v)
    boundary_vertices = set()
    for f in range(pm.n_facets):
        if pm.facet_boundary[f]:
            boundary_vertices.update(pm.facet_keys[f])
    for e in cs.cut_edges:
        if not pm.edge_boundary[e]:
            for v in pm.edge_keys[e]:
                if v in boundary_vertices:
                    cs.nodes.add(v)

    _build_branches(cs, incid)
    _build_sheets(cs, align_axis)
    _ensure_two_nodes(cs)
    _finish_sheet_nodes(cs)
    return cs


def _build_branches(cs, incid):
    pm = cs.pm
    visited = set()

    def other(e, v):
        a, b = pm.edge_keys[e]
        return b if a == v else a

    def walk(v0, e0):
        edges = [e0]
        visited.add(e0)
        v = other(e0, v0)
        while v not in cs.nodes:
            nxt = [e for e in incid[v] if e not in visited]
            if not nxt:
                break
            e = min(nxt)
            visited.add(e)
            edges.append(e)
            v = other(e, v)
        return edges, v

    for v in sorted(cs.nodes):
        for e in sorted(incid.get(v, [])):
            if e not in visited:
                edges, end = walk(v, e)
                cs.branches.append(Branch(len(cs.branches), edges, (v, end)))
    # circular branches: closed cut-edge cycles without any node
    for e in sorted(cs.cut_edges - visited):
        if e in visited:
            continue
        v0 = pm.edge_keys[e][0]
        edges, end = walk(v0, e)
        verts = sorted({v for e2 in edges for v in pm.edge_keys[e2]})
        for aux in verts[:2]:
            cs.nodes.add(aux)
        cs.branches.append(Branch(len(cs.branches), edges, (verts[0], verts[0])))
    # loop branches: start and end at the same node, no interior node
    for br in cs.branches:
        if br.ends[0] == br.ends[1] and len(br.edges) > 1:
            interior = sorted(
                {v for e2 in br.edges for v in pm.edge_keys[e2]} - {br.ends[0]}
            )
            if interior and not any(v in cs.nodes for v in interior):
                cs.nodes.add(interior[0])


def _build_sheets(cs, align_axis):
    pm = cs.pm
    assigned = {}

    def grow(seed, pool):
        comp = [seed]
        assigned[seed] = True
        dq = deque([seed])
        while dq:
            f = dq.popleft()
            for e in pm.facet_edges[f]:
                if e in cs.cut_edges:
                    continue
                for g in pm.edge_facets[e]:
                    if g in pool and g not in assigned:
                        assigned[g] = True
                        comp.append(g)
                        dq.append(g)
        return sorted(comp)

    for f in sorted(cs.cut_facets):
        if f in assigned:
            continue
        sheet = Sheet(len(cs.sheets), "cut", grow(f, cs.cut_facets))
        _orient_cut_sheet(cs, sheet)
        cs.sheets.append(sheet)
        for g in sheet.facets:
            cs.facet_sheet[g] = sheet.id
    boundary = {f for f in range(pm.n_facets) if pm.facet_boundary[f]}
    for f in sorted(boundary):
        if f in assigned:
            continue
        sheet = Sheet(len(cs.sheets), "align", grow(f, boundary))
        axes = {align_axis[g] for g in sheet.facets}
        if len(axes) != 1:
            raise NotSeamlessError(
                f"align sheet {sheet.id} mixes alignment axes {sorted(axes)}"
            )
        sheet.axis = axes.pop()
        cs.sheets.append(sheet)
        for g in sheet.facets:
            cs.facet_sheet[g] = sheet.id


def _orient_cut_sheet(cs, sheet):
    pm = cs.pm
    f0 = sheet.facets[0]
    s, t = pm.facet_cells[f0]
    sheet.side[f0] = (s, t)
    sheet.rot = pm.facet_transition(f0).rot
    dq = deque([f0])
    fset = set(sheet.facets)
    while dq:
        f = dq.popleft()
        minus_t = sheet.side[f][0]
        for e in pm.facet_edges[f]:
            if e in cs.cut_edges:
                continue
            for g in pm.edge_facets[e]:
                if g not in fset or g in sheet.side:
                    continue
                gm = _minus_side(pm, e, f, minus_t, g)
                a, b = pm.facet_cells[g]
                side = (gm, b if a == gm else a)
                sheet.side[g] = side
                tr = pm.facet_transition(g)
                rot = tr.rot if side == (a, b) else Transition(tr.rot).inverse().rot
                if rot != sheet.rot:
                    raise NotSeamlessError(
                        f"cut sheet {sheet.id} has inconsistent transitions"
                    )
                dq.append(g)


def _sheet_vertices(cs, sheet):
    return sorted({v for f in sheet.facets for v in cs.pm.facet_keys[f]})


def _ensure_two_nodes(cs):
    for sheet in cs.sheets:
        verts = _sheet_vertices(cs, sheet)
        have = [v for v in verts if v in cs.nodes]
        for v in verts:
            if len(have) >= 2:
                break
            if v not in cs.nodes:
                cs.nodes.add(v)
                have.append(v)
        if len(have) < 2:
            raise IntegrityError(f"sheet {sheet.id} has fewer than two vertices")


def _finish_sheet_nodes(cs):
    for sheet in cs.sheets:
        sheet.nodes = [v for v in _sheet_vertices(cs, sheet) if v in cs.nodes]
        sheet.base = sheet.nodes[0]


# -- core system -------------------------------------------------------------


class CoreSystem:
    """Homogeneous integer system over node-sector parameter variables."""

    def __init__(self):
        self.var_index = {}  # (vertex, sector index) -> first of 3 columns
        self.rows = []  # dict: column -> integer coefficient
        self.grid = None  # dyadic snapping grid of the free variables, set by solve_exact

    def var(self, key):
        if key not in self.var_index:
            self.var_index[key] = 3 * len(self.var_index)
        return self.var_index[key]

    @property
    def n_cols(self):
        return 3 * len(self.var_index)


def _node_side_pairs(cs, sheet, v):
    """Distinct (minus sector, plus sector) pairs of node ``v`` across the
    facets of a cut sheet, in facet order. A sheet may touch a node through
    several wedges, each inducing its own pair."""
    pm = cs.pm
    pairs = []
    for f in sheet.facets:
        if v in pm.facet_keys[f]:
            m, p = sheet.side[f]
            pair = (cs.sector_index(v, m), cs.sector_index(v, p))
            if pair not in pairs:
                pairs.append(pair)
    if not pairs:
        raise IntegrityError(f"node {v} not on sheet {sheet.id}")
    return pairs


def build_core_system(cs: CutStructure) -> CoreSystem:
    """One transition equation per non-base node of each cut sheet, one
    alignment equation per non-base node of each align sheet."""
    pm = cs.pm
    sys = CoreSystem()
    for sheet in cs.sheets:
        base = sheet.base
        if sheet.kind == "cut":
            R = ROTATIONS[sheet.rot]
            bm, bp = _node_side_pairs(cs, sheet, base)[0]
            cb_m = sys.var((base, bm))
            cb_p = sys.var((base, bp))
            for v in sheet.nodes:
                for vm, vp in _node_side_pairs(cs, sheet, v):
                    cm = sys.var((v, vm))
                    cp = sys.var((v, vp))
                    if (cm, cp) == (cb_m, cb_p):
                        continue
                    for comp in range(3):
                        row = {}

                        def add(col, val):
                            if val:
                                row[col] = row.get(col, 0) + val

                        add(cp + comp, 1)
                        add(cb_p + comp, -1)
                        for j in range(3):
                            r = int(R[comp, j])
                            add(cm + j, -r)
                            add(cb_m + j, r)
                        if row:
                            sys.rows.append(row)
        else:
            k = sheet.axis
            cb = sys.var((base, _align_sectors(cs, sheet, base)[0]))
            for v in sheet.nodes:
                for sec in _align_sectors(cs, sheet, v):
                    c = sys.var((v, sec))
                    if c == cb:
                        continue
                    sys.rows.append({c + k: 1, cb + k: -1})
    return sys


def _align_sectors(cs, sheet, v):
    """Distinct sectors of node ``v`` holding boundary facets of an align
    sheet, in facet order."""
    pm = cs.pm
    out = []
    for f in sheet.facets:
        if v in pm.facet_keys[f]:
            sec = cs.sector_index(v, pm.facet_cells[f][0])
            if sec not in out:
                out.append(sec)
    if not out:
        raise IntegrityError(f"node {v} not on align sheet {sheet.id}")
    return out


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


def solve_exact(sys: CoreSystem, init) -> dict:
    """Exact solution of the homogeneous core system near ``init``.

    Free variables are snapped to a dyadic grid coarse enough that every
    implied variable evaluates to an exactly representable float; all rows
    then hold with exact floating-point equality. The grid is stored as
    ``sys.grid``.
    """
    n = sys.n_cols
    reduced, pivots = _rref(sys.rows, n + 1)  # zero right-hand side column
    denom = 1
    for row in reduced:
        for x in row:
            denom = lcm(denom, x.denominator)
    sys.grid = grid = Fraction(denom, 2 ** GRID_EXP)
    pivot_set = set(pivots)
    vals = [None if c in pivot_set else _snap(init.get(c, 0.0), grid) for c in range(n)]
    _back_substitute(reduced, pivots, vals)
    out = {}
    for c, x in enumerate(vals):
        f = float(x)
        if Fraction(f) != x:
            raise IntegrityError(f"solution value at column {c} is not exactly representable")
        out[c] = f
    return out


# -- propagation -------------------------------------------------------------


def _solve_local(rows, rhs, init, grid):
    """Exact 3-variable solve: pinned components from the constraint rows,
    remaining components snapped from ``init``."""
    reduced, pivots = _rref([dict(enumerate(r + [b])) for r, b in zip(rows, rhs)], 4)
    if 3 in pivots:  # a row reduced to 0 = nonzero
        raise IntegrityError("inconsistent local alignment/holonomy constraints")
    vals = [None if c in pivots else _snap(init[c], grid) for c in range(3)]
    return _back_substitute(reduced, pivots, vals)


def propagate(cs: CutStructure, node_values, grid=None) -> ParamTetMesh:
    """Rebuild all parameter values from exact node-sector values.

    Per cut sheet the exact transition is read from the base node, per align
    sheet the exact constant coordinate. Every non-node vertex gets one
    sector value (snapped, alignment and branch-holonomy pins imposed
    exactly) which is propagated to its other sectors through the exact
    sheet transitions.
    """
    pm = cs.pm
    if grid is None:
        grid = Fraction(1, 2 ** GRID_EXP)

    sheet_tr = {}
    sheet_const = {}
    for sheet in cs.sheets:
        if sheet.kind == "cut":
            bm, bp = _node_side_pairs(cs, sheet, sheet.base)[0]
            um = np.array(node_values[(sheet.base, bm)])
            up = np.array(node_values[(sheet.base, bp)])
            shift = up - ROTATIONS[sheet.rot] @ um
            sheet_tr[sheet.id] = Transition(sheet.rot, tuple(shift))
        else:
            bsec = _align_sectors(cs, sheet, sheet.base)[0]
            sheet_const[sheet.id] = node_values[(sheet.base, bsec)][sheet.axis]

    values = {}  # (vertex, sector index) -> exact float triple
    for v in range(pm.n_vertices):
        if not pm.vertex_cells[v]:
            continue
        sectors = cs.sectors(v)
        if v in cs.nodes:
            for i in range(len(sectors)):
                values[(v, i)] = node_values[(v, i)]
            continue
        # sector graph at v: adjacency through cut sheets
        adj = [[] for _ in sectors]
        for f in sorted(cs.cut_facets):
            if v not in pm.facet_keys[f]:
                continue
            sheet = cs.sheets[cs.facet_sheet[f]]
            m, p = sheet.side[f]
            a, b = cs.sector_index(v, m), cs.sector_index(v, p)
            tr = sheet_tr[sheet.id]
            adj[a].append((b, tr))
            adj[b].append((a, tr.inverse()))
        aligns = [[] for _ in sectors]
        boundary_facets = sorted(
            f for f in range(pm.n_facets)
            if pm.facet_boundary[f] and v in pm.facet_keys[f]
        )
        for f in boundary_facets:
            sheet = cs.sheets[cs.facet_sheet[f]]
            s = cs.sector_index(v, pm.facet_cells[f][0])
            pin = (sheet.axis, sheet_const[sheet.id])
            if pin not in aligns[s]:
                aligns[s].append(pin)
        if boundary_facets:
            start = cs.sector_index(v, pm.facet_cells[boundary_facets[0]][0])
        else:
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
        vals = _solve_local(rows, rhs, init, grid)
        base = []
        for x in vals:
            f = float(x)
            if Fraction(f) != x:
                raise IntegrityError(f"vertex {v} value is not exactly representable")
            base.append(f)
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
    pm = cs.pm
    init = {}
    for (v, sidx), col in sys.var_index.items():
        t = cs.sectors(v)[sidx][0]
        val = pm.corner_param(t, v)
        for comp in range(3):
            init[col + comp] = float(val[comp])
    return init


def sanitize(pm: ParamTetMesh) -> ParamTetMesh:
    """Full repair pipeline; the result passes verify_seamless exactly."""
    anchored = reanchor(pm)
    cs = detect_cut_structure(anchored)
    sys = build_core_system(cs)
    sol = solve_exact(sys, _node_init(cs, sys))
    node_values = {}
    for (v, sidx), col in sys.var_index.items():
        node_values[(v, sidx)] = (sol[col], sol[col + 1], sol[col + 2])
    # nodes may have sectors that carry no variable (unconstrained); give
    # them snapped init values so propagation sees every node sector
    grid = sys.grid
    for v in sorted(cs.nodes):
        for sidx, sec in enumerate(cs.sectors(v)):
            if (v, sidx) not in node_values:
                val = cs.pm.corner_param(sec[0], v)
                node_values[(v, sidx)] = tuple(
                    float(_snap(float(x), grid)) for x in val
                )
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

"""Quantization of a cuboid motorcycle complex into a conforming hex mesh.

Each arc receives a positive integer length such that every wall keeps equal
opposite side sums (so walls stay parametric rectangles and blocks stay
cuboids), with the objective sum (l_a - s ||a||)^2 pulling the assignment
toward a target sizing s. Blocks are then rescaled by a piecewise-affine map
and tiled by l x m x n unit-hex grids that agree across shared walls,
including across T-joints.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import IntegrityError
from .hexmesh import HEX_CORNER_COORDS, HexMesh


class QuantizationProblem:
    """Integer length variables (one per arc) with two balance rows per wall
    and a separable quadratic objective."""

    def __init__(self, arcs, lengths, s, rows, walls):
        self.arcs = arcs  # arc ids, sorted
        self.lengths = lengths  # arc id -> original parametric length
        self.s = float(s)
        self.rows = rows  # list of {arc id: integer coefficient}
        self.walls = walls  # wall ids the rows came from, parallel to rows
        self.targets = {a: self.s * lengths[a] for a in arcs}  # arc id -> s * length
        self.relaxed = None  # arc id -> relaxed (real) length, set by build_ip
        self.incumbent = None  # (objective, lengths) of a feasible point, set by build_ip


def build_ip(mc, s) -> QuantizationProblem:
    """Eq-style balance rows A_i vs A_{i+2} per wall; raises on annulus or
    slit walls, which carry no rectangle side structure."""
    for w in mc.walls:
        if w.annulus:
            raise IntegrityError(f"wall {w.id} is an annulus; quantization undefined")
        if w.slit:
            raise IntegrityError(f"wall {w.id} is a slit; quantization undefined")
    arcs = sorted(a.id for a in mc.arcs)
    lengths = {a.id: float(a.length) for a in mc.arcs}
    rows, row_walls = [], []
    for w in mc.walls:
        for lo, hi in ((0, 2), (3, 1)):
            row = {}
            for aid in w.sides[lo]:
                row[aid] = row.get(aid, 0) + 1
            for aid in w.sides[hi]:
                row[aid] = row.get(aid, 0) - 1
            row = {a: c for a, c in row.items() if c}
            if row:
                rows.append(row)
                row_walls.append(w.id)
    qp = QuantizationProblem(arcs, lengths, s, rows, row_walls)
    qp.relaxed = _relaxed(qp)
    qp.incumbent = _first_feasible(qp)
    if qp.incumbent is None:
        raise IntegrityError("quantization constraints are infeasible")
    return qp


def _relaxed(qp):
    """Projection of the targets onto the row null space (bounds ignored)."""
    n = len(qp.arcs)
    idx = {a: i for i, a in enumerate(qp.arcs)}
    t = np.array([qp.targets[a] for a in qp.arcs])
    if not qp.rows:
        return dict(zip(qp.arcs, t))
    A = np.zeros((len(qp.rows), n))
    for r, row in enumerate(qp.rows):
        for a, c in row.items():
            A[r, idx[a]] = c
    At = A @ t
    lam, *_ = np.linalg.lstsq(A @ A.T, At, rcond=None)
    x = t - A.T @ lam
    return dict(zip(qp.arcs, x))


def _dfs(qp, lo, hi, best_obj, best_sol, first_only=False):
    """Exact search over the integer box with constraint propagation.

    Rows with a single unassigned variable force it; otherwise the most
    constrained variable is branched on, values ordered by distance to the
    relaxed solution. Returns (objective, assignment) of the best leaf."""
    arcs = qp.arcs
    targets = qp.targets
    relaxed = qp.relaxed
    mincost = {
        a: 0.0
        if lo[a] <= targets[a] <= hi[a]
        else min((lo[a] - targets[a]) ** 2, (hi[a] - targets[a]) ** 2)
        for a in arcs
    }
    rows = qp.rows
    arc_rows = {a: [] for a in arcs}
    for r, row in enumerate(rows):
        for a in row:
            arc_rows[a].append(r)
    assign = {}
    state = [[sum(1 for _ in row), 0] for row in rows]  # [unassigned, sum]
    found = [best_obj, dict(best_sol) if best_sol else None]
    stop = [False]

    def bound(partial):
        return partial + sum(mincost[a] for a in arcs if a not in assign)

    def choose():
        for r, (cnt, _) in enumerate(state):
            if cnt == 1:
                a = next(a for a in rows[r] if a not in assign)
                c = rows[r][a]
                val = -state[r][1] // c if state[r][1] % c == 0 else None
                return a, (None if val is None else [val]), r
        free = [a for a in arcs if a not in assign]
        a = max(free, key=lambda x: (len(arc_rows[x]), -x))
        vals = sorted(range(lo[a], hi[a] + 1), key=lambda v: (abs(v - relaxed[a]), v))
        return a, vals, None

    def rec(partial):
        if stop[0]:
            return
        if found[0] is not None and bound(partial) >= found[0]:
            return
        if len(assign) == len(arcs):
            if all(s == 0 for cnt, s in state):
                found[0] = partial
                found[1] = dict(assign)
                if first_only:
                    stop[0] = True
            return
        a, vals, forced_row = choose()
        if vals is None:
            return  # forced value is fractional: dead end
        for v in vals:
            if not lo[a] <= v <= hi[a]:
                continue
            ok = True
            assign[a] = v
            for r in arc_rows[a]:
                state[r][0] -= 1
                state[r][1] += rows[r][a] * v
                if state[r][0] == 0 and state[r][1] != 0:
                    ok = False
            if ok:
                rec(partial + (v - targets[a]) ** 2)
            for r in arc_rows[a]:
                state[r][0] += 1
                state[r][1] -= rows[r][a] * v
            del assign[a]
            if stop[0]:
                return
            if forced_row is not None:
                break  # a forced variable has a single admissible value

    rec(0.0)
    return found[0], found[1]


def _first_feasible(qp):
    u0 = max(3, int(math.ceil(2 * max([1.0] + list(qp.targets.values())))) + 2)
    for _ in range(10):
        lo = {a: 1 for a in qp.arcs}
        hi = {a: u0 for a in qp.arcs}
        obj, sol = _dfs(qp, lo, hi, None, None, first_only=True)
        if sol is not None:
            return obj, sol
        u0 *= 2
    return None


def solve_quantization(qp: QuantizationProblem) -> dict:
    """Optimal integer arc lengths of a problem from build_ip: its feasible
    incumbent bounds the search box (any better solution has every
    |l_a - t_a| below the square root of the incumbent objective), then an
    exact search runs inside that box."""
    if qp.incumbent is None:
        raise IntegrityError("quantization problem has no feasible point; build it with build_ip")
    obj0, sol0 = qp.incumbent
    r = math.sqrt(obj0)
    targets = qp.targets
    lo = {a: max(1, int(math.ceil(targets[a] - r))) for a in qp.arcs}
    hi = {a: max(1, int(math.floor(targets[a] + r))) for a in qp.arcs}
    _, sol = _dfs(qp, lo, hi, obj0 + 1e-12, sol0)  # starts from a copy of sol0
    for row in qp.rows:
        if sum(c * sol[a] for a, c in row.items()) != 0:
            raise IntegrityError("quantization row violated by solver output")
    return sol


# -- geometric realization ---------------------------------------------------


def _arc_point(mc, aid, t, ell):
    """3D point at integer position ``t`` of the arc's uniform subdivision
    into ``ell`` pieces; identical from every wall referencing the arc."""
    mesh = mc.mesh
    arc = mc.arcs[aid]
    spans = [mesh.edge_param_length(e) for e in arc.edges]
    total = sum(spans)
    s = t * total / ell
    pos = mesh.positions
    acc = 0.0
    for i, span in enumerate(spans):
        if s <= acc + span + 1e-12:
            lam = min(1.0, max(0.0, (s - acc) / span))
            a, b = arc.vertices[i], arc.vertices[i + 1]
            return (1 - lam) * pos[a] + lam * pos[b]
        acc += span
    return np.asarray(pos[arc.vertices[-1]], float)


class _WallGrid:
    """Integer rescaling of one rectangle wall: per-side arc sequences, new
    dimensions (P, Q), and evaluation of new grid points."""

    def __init__(self, mc, wid, ell):
        self.mc = mc
        self.w = mc.walls[wid]
        self.ell = ell
        geom = self.w._geom
        self.geom = geom
        x0, x1, y0, y1 = geom.bbox
        self.off = (x0, y0)
        self.W, self.H = x1 - x0, y1 - y0
        self.sides = {}
        for s in range(4):
            self.sides[s] = self._side_arcs(s)
        self.P = sum(ell[a] for a, *_ in self.sides[0])
        self.Q = sum(ell[a] for a, *_ in self.sides[3])
        if self.P != sum(ell[a] for a, *_ in self.sides[2]) or self.Q != sum(
            ell[a] for a, *_ in self.sides[1]
        ):
            raise IntegrityError(f"wall {wid}: opposite side sums differ under quantization")
        self.node_new = {}  # vertex -> wall-local new coords (several on wrap walls)
        self.node_orig = {}  # vertex -> wall-local original coords
        for s in range(4):
            self._side_nodes(s)

    def unique_nodes(self):
        """Corner/side nodes with a single unambiguous position."""
        return {v: cs[0] for v, cs in self.node_new.items() if len(cs) == 1}

    def _side_arcs(self, s):
        from .cellcomplex import _segment_side

        axis = 0 if s in (0, 2) else 1
        spans = {}
        segs = {}
        for e, (p, q) in self.geom.boundary_segments:
            if _segment_side(self.geom.bbox, p, q) != s:
                continue
            aid = self.mc.arc_of[e]
            lo = min(p[axis], q[axis]) - self.off[axis]
            hi = max(p[axis], q[axis]) - self.off[axis]
            cur = spans.get(aid)
            spans[aid] = (min(lo, cur[0]) if cur else lo, max(hi, cur[1]) if cur else hi)
            segs.setdefault(aid, {})[e] = (p, q)
        ordered = sorted(spans.items(), key=lambda kv: kv[1][0])
        out = []
        new_lo = 0
        for aid, (lo, hi) in ordered:
            arc = self.mc.arcs[aid]
            # Orient via the arc's first edge: the segment coords of that
            # edge are ordered by vertex id, which pins the chain direction
            # even when the arc's two endpoints coincide.
            e0 = arc.edges[0]
            p, q = segs[aid][e0]
            a, b = self.mc.mesh.edge_vertices[e0]
            start = p if arc.vertices[0] == a else q
            rest = q if arc.vertices[0] == a else p
            fwd = start[axis] <= rest[axis]
            out.append((aid, lo, hi, new_lo, new_lo + self.ell[aid], fwd))
            new_lo += self.ell[aid]
        return out

    def _side_nodes(self, s):
        axis = 0 if s in (0, 2) else 1

        def embed(coord, orig):
            if s == 0:
                return (coord, 0), (orig, 0)
            if s == 2:
                return (coord, self.Q), (orig, self.H)
            if s == 3:
                return (0, coord), (0, orig)
            return (self.P, coord), (self.W, orig)

        for aid, lo, hi, nlo, nhi, fwd in self.sides[s]:
            arc = self.mc.arcs[aid]
            for vert, coord, orig in (
                (arc.vertices[0], nlo if fwd else nhi, lo if fwd else hi),
                (arc.vertices[-1], nhi if fwd else nlo, hi if fwd else lo),
            ):
                nw, og = embed(coord, orig)
                if nw not in self.node_new.setdefault(vert, []):
                    self.node_new[vert].append(nw)
                if og not in self.node_orig.setdefault(vert, []):
                    self.node_orig[vert].append(og)

    def _side_map(self, s, u):
        """Original side coordinate at new side coordinate ``u``."""
        for aid, lo, hi, nlo, nhi, fwd in self.sides[s]:
            if u <= nhi or (aid, lo, hi, nlo, nhi, fwd) == self.sides[s][-1]:
                return lo + (u - nlo) * (hi - lo) / (nhi - nlo)
        raise IntegrityError("side coordinate out of range")

    def orig_of(self, u, v):
        x = (1 - v / self.Q) * self._side_map(0, u) + (v / self.Q) * self._side_map(2, u)
        y = (1 - u / self.P) * self._side_map(3, v) + (u / self.P) * self._side_map(1, v)
        return x, y

    def _interior_pos(self, u, v):
        x, y = self.orig_of(u, v)
        p = min(self.W - 1, max(0, int(math.floor(x))))
        q = min(self.H - 1, max(0, int(math.floor(y))))
        f = self.geom.cells[(p + self.off[0], q + self.off[1])]
        fx, fy = x - p, y - q
        quad = self.mc.mesh.facet_corners[f]
        pos = np.zeros(3)
        for slot, vert in enumerate(quad):
            cx, cy = self.geom.corner_coords[f][slot]
            wx = fx if cx - self.off[0] == p + 1 else 1 - fx
            wy = fy if cy - self.off[1] == q + 1 else 1 - fy
            pos += wx * wy * np.asarray(self.mc.mesh.positions[vert], float)
        return pos

    def _side_point(self, s, u):
        for aid, lo, hi, nlo, nhi, fwd in self.sides[s]:
            if nlo <= u <= nhi:
                arc = self.mc.arcs[aid]
                if u == nlo:
                    vert = arc.vertices[0] if fwd else arc.vertices[-1]
                    return ("n", vert), np.asarray(self.mc.mesh.positions[vert], float)
                if u == nhi:
                    vert = arc.vertices[-1] if fwd else arc.vertices[0]
                    return ("n", vert), np.asarray(self.mc.mesh.positions[vert], float)
                t = (u - nlo) if fwd else (nhi - u)
                return ("a", aid, t), _arc_point(self.mc, aid, t, self.ell[aid])
        raise IntegrityError("side coordinate out of range")

    def point(self, u, v):
        """(canonical key, position) of the new integer grid point (u, v)."""
        if v == 0:
            return self._side_point(0, u)
        if v == self.Q:
            return self._side_point(2, u)
        if u == 0:
            return self._side_point(3, v)
        if u == self.P:
            return self._side_point(1, v)
        return ("w", self.w.id, u, v), self._interior_pos(u, v)


def _fit_transform(p, q):
    """2D integer transform q = R p + t from two point correspondences plus
    a third for verification; R is one of the 8 signed axis permutations."""
    p = [np.asarray(x, float) for x in p]
    q = [np.asarray(x, float) for x in q]
    P = np.array([p[1] - p[0], p[2] - p[0]]).T
    Q = np.array([q[1] - q[0], q[2] - q[0]]).T
    R = Q @ np.linalg.inv(P)
    R = np.array([[int(round(x)) for x in row] for row in R])
    t = np.array(q[0]) - R @ np.array(p[0])
    return R, np.array([int(round(x)) for x in t])


class _FaceGrid:
    """One block face: the walls tiling it, their placements in original and
    new face coordinates, and new-grid point evaluation."""

    def __init__(self, mc, wall_grids, incidences, axis, side, dims):
        self.axis = axis
        self.side = side
        self.u_ax, self.v_ax = [a for a in range(3) if a != axis]
        self.walls = {}  # wid -> (R, t_orig, t_new)
        groups = {}
        for f, coords3 in incidences:
            groups.setdefault(mc.wall_of[f], []).append((f, coords3))
        # original-frame placement of each wall
        orig_place = {}
        for wid, items in groups.items():
            wg = wall_grids[wid]
            f, coords3 = items[0]
            face_q = [(c[self.u_ax], c[self.v_ax]) for c in coords3]
            local_p = [
                (c[0] - wg.off[0], c[1] - wg.off[1]) for c in wg.geom.corner_coords[f]
            ]
            R, t = _fit_transform(local_p, face_q)
            for f2, coords2 in items[1:]:
                for slot, c in enumerate(coords2):
                    loc = wg.geom.corner_coords[f2][slot]
                    got = R @ np.array([loc[0] - wg.off[0], loc[1] - wg.off[1]]) + t
                    if tuple(got) != (c[self.u_ax], c[self.v_ax]):
                        raise IntegrityError(f"wall {wid} placement inconsistent on face")
            orig_place[wid] = (R, t)
        # new-frame placement by propagating over shared corner/side nodes
        offsets = {}
        seed = min(groups)
        offsets[seed] = np.zeros(2, dtype=int)
        dq = deque([seed])
        placed = {seed}
        uniq = {wid: wall_grids[wid].unique_nodes() for wid in groups}
        while dq:
            wid = dq.popleft()
            R, _ = orig_place[wid]
            for wid2 in groups:
                if wid2 in placed:
                    continue
                shared = set(uniq[wid]) & set(uniq[wid2])
                if not shared:
                    continue
                n = min(shared)
                R2, _ = orig_place[wid2]
                pos = R @ np.array(uniq[wid][n]) + offsets[wid]
                offsets[wid2] = pos - R2 @ np.array(uniq[wid2][n])
                placed.add(wid2)
                dq.append(wid2)
        if len(placed) != len(groups):
            raise IntegrityError("disconnected wall arrangement on block face")
        # verify every unambiguous shared node agrees, then zero the origin
        corners = []
        for wid in groups:
            wg = wall_grids[wid]
            R, _ = orig_place[wid]
            for n, locs in wg.node_new.items():
                for loc in locs:
                    corners.append((n if len(locs) == 1 else None, R @ np.array(loc) + offsets[wid]))
        seen = {}
        for n, c in corners:
            if n is None:
                continue
            key = tuple(int(x) for x in c)
            if n in seen and seen[n] != key:
                raise IntegrityError("grid mismatch across walls of a block face")
            seen[n] = key
        lo = np.min([c for _, c in corners], axis=0)
        for wid in groups:
            R, t = orig_place[wid]
            self.walls[wid] = (R, t, offsets[wid] - lo)
        self.dims = tuple(int(x) for x in (np.max([c for _, c in corners], axis=0) - lo))
        self.wall_grids = wall_grids

    def rects(self):
        out = {}
        for wid, (R, _, off) in self.walls.items():
            wg = self.wall_grids[wid]
            a = R @ np.array([0, 0]) + off
            b = R @ np.array([wg.P, wg.Q]) + off
            out[wid] = (np.minimum(a, b), np.maximum(a, b))
        return out

    def point(self, p, q):
        pt = np.array([p, q])
        if not hasattr(self, "_rects"):
            self._rects = self.rects()
        for wid in sorted(self.walls):
            lo, hi = self._rects[wid]
            if (lo <= pt).all() and (pt <= hi).all():
                R, _, off = self.walls[wid]
                local = np.linalg.inv(R.astype(float)) @ (pt - off)
                u, v = int(round(local[0])), int(round(local[1]))
                wg = self.wall_grids[wid]
                if 0 <= u <= wg.P and 0 <= v <= wg.Q:
                    return wg.point(u, v)
        raise IntegrityError(f"face point ({p}, {q}) lies on no wall")


class BlockMap:
    """Piecewise-affine rescaling of one block: affine per meta-tet spanned
    by the block center and the triangulated integer sub-rectangles of its
    (rescaled) walls."""

    def __init__(self, bid, dims, new_dims, tets):
        self.bid = bid
        self.dims = dims
        self.new_dims = new_dims
        self.tets = tets  # list of (orig 4x3, new 4x3, M_new_to_orig, o0, n0)
        # stacked arrays for fast point location
        self._n0 = np.array([t[1][0] for t in tets])
        Tinv = []
        self._bad = np.zeros(len(tets), bool)
        for i, t in enumerate(tets):
            T = (np.array(t[1][1:]) - t[1][0]).T
            try:
                Tinv.append(np.linalg.inv(T))
            except np.linalg.LinAlgError:
                Tinv.append(np.eye(3))
                self._bad[i] = True
        self._Tinv = np.array(Tinv)
        self._M = np.array([t[2] for t in tets])
        self._o0 = np.array([t[3] for t in tets])
        self._nb = np.array([t[4] for t in tets])

    def orientation_ok(self):
        for orig, new, *_ in self.tets:
            vo = np.linalg.det(np.array(orig[1:]) - orig[0])
            vn = np.linalg.det(np.array(new[1:]) - new[0])
            if vo * vn <= 0:
                return False
        return True

    def to_original(self, p):
        """Original block coordinates of a new-grid point (inverse of the
        rescaling); locates the containing meta-tet by barycentric test."""
        p = np.asarray(p, float)
        lam = np.einsum("tij,tj->ti", self._Tinv, p - self._n0)
        slack = np.minimum(lam.min(axis=1), 1.0 - lam.sum(axis=1))
        slack[self._bad] = -np.inf
        i = int(np.argmax(slack))
        if slack[i] < -1e-9:
            raise IntegrityError("new grid point outside all meta-tets")
        return self._o0[i] + self._M[i] @ (p - self._nb[i])


class _QuantizedBlock:
    def __init__(self, mc, wall_grids, bid, ell):
        from .cellcomplex import grid_block_coords

        self.mc = mc
        self.bid = bid
        block = mc.blocks[bid]
        self.dims, self.trans = grid_block_coords(mc.mesh, mc.field, block.cells)
        mesh = mc.mesh
        # block surface facets with per-vertex block-grid coordinates
        by_face = {}
        for c in block.cells:
            for f in mesh.cell_facets[c]:
                if f not in mc.field.tagged:
                    continue
                quad = mesh.facet_corners[f]
                coords3 = [
                    tuple(int(x) for x in self.trans[c].apply(mesh.local_coords(c, v)))
                    for v in quad
                ]
                for axis in range(3):
                    vals = {c3[axis] for c3 in coords3}
                    if len(vals) == 1 and vals <= {0, self.dims[axis]}:
                        side = 0 if vals == {0} else 1
                        by_face.setdefault((axis, side), []).append((f, coords3))
                        break
                else:
                    raise IntegrityError(f"facet {f} not axis-aligned on block {bid}")
        self.faces = {
            key: _FaceGrid(mc, wall_grids, incs, key[0], key[1], self.dims)
            for key, incs in by_face.items()
        }
        nd = [None, None, None]
        for (axis, side), fg in self.faces.items():
            u_ax, v_ax = fg.u_ax, fg.v_ax
            for ax, val in ((u_ax, fg.dims[0]), (v_ax, fg.dims[1])):
                if nd[ax] is None:
                    nd[ax] = val
                elif nd[ax] != val:
                    raise IntegrityError(f"block {bid}: face grids disagree on new dimensions")
        self.new_dims = tuple(nd)
        # hex lookup by block grid cell, corner positions in block coords
        self.cell_hex = {}
        for c, tr in self.trans.items():
            a = tr.apply((0, 0, 0))
            b = tr.apply((1, 1, 1))
            self.cell_hex[tuple(int(round(min(x, y))) for x, y in zip(a, b))] = c
        self.map = self._build_map()

    def _build_map(self):
        center_o = np.array(self.dims, float) / 2.0
        center_n = np.array(self.new_dims, float) / 2.0
        tets = []
        for (axis, side), fg in self.faces.items():
            const_o = 0.0 if side == 0 else float(self.dims[axis])
            const_n = 0.0 if side == 0 else float(self.new_dims[axis])

            def embed(c2, const, u_ax=fg.u_ax, v_ax=fg.v_ax, axis=axis):
                out = np.zeros(3)
                out[axis] = const
                out[u_ax], out[v_ax] = c2
                return out

            for wid, (R, t_orig, off) in fg.walls.items():
                wg = fg.wall_grids[wid]
                for u in range(wg.P):
                    for v in range(wg.Q):
                        quad = [(u, v), (u + 1, v), (u + 1, v + 1), (u, v + 1)]
                        news = [embed(R @ np.array(c) + off, const_n) for c in quad]
                        origs = [
                            embed(R @ np.array(wg.orig_of(*c)) + t_orig, const_o)
                            for c in quad
                        ]
                        for tri in ((0, 1, 2), (0, 2, 3)):
                            new4 = [center_n] + [news[i] for i in tri]
                            orig4 = [center_o] + [origs[i] for i in tri]
                            N = np.array(new4[1:]) - new4[0]
                            O = np.array(orig4[1:]) - orig4[0]
                            M = O.T @ np.linalg.inv(N.T)
                            tets.append((orig4, new4, M, new4[0] * 0 + orig4[0], new4[0]))
        bm = BlockMap(self.bid, self.dims, self.new_dims, tets)
        if not bm.orientation_ok():
            raise IntegrityError(f"block {self.bid}: inverted meta-tet in rescaling map")
        return bm

    def interior_position(self, i, j, k):
        u, v, w = self.map.to_original((i, j, k))
        mesh = self.mc.mesh
        ci = min(self.dims[0] - 1, max(0, int(math.floor(u))))
        cj = min(self.dims[1] - 1, max(0, int(math.floor(v))))
        ck = min(self.dims[2] - 1, max(0, int(math.floor(w))))
        h = self.cell_hex[(ci, cj, ck)]
        fx, fy, fz = u - ci, v - cj, w - ck
        pos = np.zeros(3)
        for corner in mesh.cell_vertices(h):
            loc = self.trans[h].apply(mesh.local_coords(h, corner))
            wx = fx if int(round(loc[0])) == ci + 1 else 1 - fx
            wy = fy if int(round(loc[1])) == cj + 1 else 1 - fy
            wz = fz if int(round(loc[2])) == ck + 1 else 1 - fz
            pos += wx * wy * wz * np.asarray(mesh.positions[corner], float)
        return pos

    def point(self, i, j, k):
        coords = (i, j, k)
        for (axis, side), fg in sorted(self.faces.items()):
            target = 0 if side == 0 else self.new_dims[axis]
            if coords[axis] == target:
                return fg.point(coords[fg.u_ax], coords[fg.v_ax])
        return ("b", self.bid, i, j, k), self.interior_position(i, j, k)


def reparametrize_block(mc, bid, ell) -> BlockMap:
    """Piecewise-affine rescaling map of one block under arc lengths ``ell``."""
    wall_grids = _build_wall_grids(mc, ell)
    return _QuantizedBlock(mc, wall_grids, bid, ell).map


def _build_wall_grids(mc, ell):
    return {w.id: _WallGrid(mc, w.id, ell) for w in mc.walls}


def extract_hexmesh(mc, ell) -> HexMesh:
    """Conforming hex mesh: an l x m x n unit grid per block, glued through
    canonical per-wall/per-arc grid keys so that shared walls (including
    T-joint sub-walls) carry identical grids from both sides."""
    wall_grids = _build_wall_grids(mc, ell)
    vid = {}
    positions = []
    hexes = []

    def vertex(key, pos):
        if key not in vid:
            vid[key] = len(positions)
            positions.append(pos)
        return vid[key]

    for block in mc.blocks:
        qb = _QuantizedBlock(mc, wall_grids, block.id, ell)
        L, M, N = qb.new_dims
        ids = {}
        for i in range(L + 1):
            for j in range(M + 1):
                for k in range(N + 1):
                    key, pos = qb.point(i, j, k)
                    ids[(i, j, k)] = vertex(key, pos)
        for i in range(L):
            for j in range(M):
                for k in range(N):
                    hexes.append(
                        [
                            ids[(i + dx, j + dy, k + dz)]
                            for dx, dy, dz in HEX_CORNER_COORDS
                        ]
                    )
    return HexMesh(positions, hexes)

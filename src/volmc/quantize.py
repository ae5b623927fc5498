"""Quantization of a cuboid motorcycle complex into a conforming hex mesh.

Each arc receives a positive integer length such that every wall keeps equal
opposite side sums (so walls stay parametric rectangles and blocks stay
cuboids), with the objective sum (l_a - s ||a||)^2 pulling the assignment
toward a target sizing s. Blocks are then rescaled by a piecewise-affine map
and tiled by l x m x n unit-hex grids that agree across shared walls,
including across T-joints.

The lengths come from one exact mixed-integer linear program, the chord
program. For an integer v, (v - t)^2 equals the largest of the chords of
x -> (x - t)^2 between consecutive integers k and k + 1, the lines
(k - t)^2 + (2 (k - t) + 1) (v - k). So with one integer v_a >= 1 and one
real z_a per arc, minimizing sum z_a subject to the balance rows and z_a
above every chord of arc a over an integer range [lo_a, hi_a] around its
target is the quantization problem exactly, as long as each v_a stays
inside its range: outside it, the chords only underestimate the square.
When every target is already an integer >= 1 and balances every row, the
targets are an assignment of objective 0 and so the unique optimum, a
certificate that needs no solver; hex complexes at a whole-number s always
give one.
"""

from __future__ import annotations

import numbers
from collections import deque
from functools import cached_property

import numpy as np

from .errors import IntegrityError, MeshError, VolmcError
from .hexmesh import HEX_CORNER_COORDS, HexMesh
from .octahedral import ROTATIONS


class QuantizationProblem:
    """Integer length variables (one per arc) with two balance rows per wall
    and a separable quadratic objective."""

    def __init__(self, arcs, lengths, s, rows):
        self.arcs = arcs  # arc ids, sorted
        self.rows = rows  # list of {arc id: integer coefficient}
        self.targets = {a: float(s) * lengths[a] for a in arcs}  # arc id -> s * length


def build_ip(mc, s) -> QuantizationProblem:
    """Eq-style balance rows A_i vs A_{i+2} per wall; raises on a scale ``s``
    that is negative or not finite, and on annulus or slit walls, which
    carry no rectangle side structure."""
    if not 0 <= s < np.inf:
        raise VolmcError(f"scale {s} must be finite and not negative")
    for w in mc.walls:
        if w.annulus:
            raise IntegrityError(f"wall {w.id} is an annulus; quantization undefined")
        if w.slit:
            raise IntegrityError(f"wall {w.id} is a slit; quantization undefined")
    arcs = sorted(a.id for a in mc.arcs)
    lengths = {a.id: float(a.length) for a in mc.arcs}
    rows = []
    for sides in mc.wall_sides:
        for lo, hi in ((0, 2), (3, 1)):
            row = {}
            for aid in sides[lo]:
                row[aid] = row.get(aid, 0) + 1
            for aid in sides[hi]:
                row[aid] = row.get(aid, 0) - 1
            row = {a: c for a, c in row.items() if c}
            if row:
                rows.append(row)
    return QuantizationProblem(arcs, lengths, s, rows)


def solve_quantization(qp: QuantizationProblem) -> dict:
    """Optimal integer arc lengths (all >= 1) of a problem from build_ip.

    When every target is an integer >= 1 and balances every row, the
    targets themselves are the unique optimum (objective 0) and are returned
    as they are. Otherwise the chord program of the module docstring is
    solved with HiGHS; where a solution leaves an arc's chord range, the
    ranges are doubled and it is solved again. HiGHS stops at a relative gap
    of 0 or at its default absolute gap of 1e-6, which ``milp`` does not
    expose, so the objective is optimal to within 1e-6. Raises
    IntegrityError when no assignment satisfies the rows."""
    n = len(qp.arcs)
    t = np.array([qp.targets[a] for a in qp.arcs])

    def balanced(ell):
        return all(sum(c * ell[a] for a, c in row.items()) == 0 for row in qp.rows)

    if (t == np.floor(t)).all() and (t >= 1).all():
        ell = {a: int(x) for a, x in zip(qp.arcs, t)}
        if balanced(ell):
            return ell

    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    col = {a: i for i, a in enumerate(qp.arcs)}
    entries = [(r, col[a], c) for r, row in enumerate(qp.rows) for a, c in row.items()]
    r, j, c = np.array(entries, float).reshape(-1, 3).T
    balance = csr_array((c, (r, j)), shape=(len(qp.rows), 2 * n))
    cost = np.r_[np.zeros(n), np.ones(n)]  # variables: lengths v, then chord bounds z
    bounds = Bounds(np.r_[np.ones(n), np.full(n, -np.inf)], np.inf)
    integrality = np.r_[np.ones(n), np.zeros(n)]
    width = 2
    while True:
        lo = np.maximum(1, np.floor(t) - width)
        hi = np.ceil(t) + width
        count = (hi - lo).astype(np.int64)  # chords per arc, between k and k + 1
        arc = np.repeat(np.arange(n), count)
        k = lo[arc] + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        slope = 2 * (k - t[arc]) + 1
        chords = csr_array((np.r_[slope, -np.ones(len(k))],
                            (np.tile(np.arange(len(k)), 2), np.r_[arc, n + arc])),
                           shape=(len(k), 2 * n))
        res = milp(cost, integrality=integrality, bounds=bounds,
                   constraints=[LinearConstraint(balance, 0, 0),
                                LinearConstraint(chords, -np.inf, slope * k - (k - t[arc]) ** 2)],
                   options={"mip_rel_gap": 0})
        if res.x is None:
            raise IntegrityError(f"quantization has no solution: {res.message}")
        v = np.rint(res.x[:n])
        if ((lo <= v) & (v <= hi)).all():
            break
        width *= 2
    ell = {a: int(x) for a, x in zip(qp.arcs, v)}
    if not balanced(ell):
        raise IntegrityError("quantization row violated by solver output")
    return ell


# -- geometric realization ---------------------------------------------------


def _wall_grids(mc, ell):
    """The grid of every wall under arc lengths ``ell``; raises VolmcError,
    naming the arc, unless ``ell`` gives every arc an integer length >= 1."""
    for a in mc.arcs:
        n = ell.get(a.id)
        if not isinstance(n, numbers.Integral) or n < 1:
            raise VolmcError(f"arc {a.id}: length {n!r} is not an integer >= 1")
    return {w.id: _WallGrid(mc, w.id, ell) for w in mc.walls}


def _arc_point(mc, aid, t, ell):
    """3D point at integer position ``t`` (0 < t < ell) of the arc's uniform
    subdivision into ``ell`` pieces; identical from every wall referencing
    the arc."""
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


class _WallGrid:
    """Integer rescaling of one rectangle wall: per-side arc sequences, new
    dimensions (P, Q), its arc ends and its new grid points. ``ends`` holds
    each arc end as a wall-local (original, new) coordinate pair; ``uv``,
    ``orig`` and ``nodes`` hold every new grid point's new and original
    coordinates, key and position, built once for all blocks at the wall."""

    def __init__(self, mc, wid, ell):
        self.mc = mc
        self.w = mc.walls[wid]
        self.ell = ell
        self.geom = geom = self.w._geom
        x0, x1, y0, y1 = geom.bbox
        self.off = (x0, y0)
        self.W, self.H = x1 - x0, y1 - y0
        self.sides = {s: self._side_arcs(s) for s in range(4)}
        self.P = sum(ell[a] for a, *_ in self.sides[0])
        self.Q = sum(ell[a] for a, *_ in self.sides[3])
        if self.P != sum(ell[a] for a, *_ in self.sides[2]) or self.Q != sum(
            ell[a] for a, *_ in self.sides[1]
        ):
            raise IntegrityError(f"wall {wid}: opposite side sums differ under quantization")
        ends = []
        for s, arcs in self.sides.items():
            for _, lo, hi, nlo, nhi, _ in arcs:
                for o, n in ((lo, nlo), (hi, nhi)):
                    ends.append({0: ((o, 0), (n, 0)), 1: ((self.W, o), (self.P, n)),
                                 2: ((o, self.H), (n, self.Q)), 3: ((0, o), (0, n))}[s])
        self.ends = np.array(ends, np.int64)  # arc end, original or new, coordinate

    def _side_arcs(self, s):
        axis = 0 if s in (0, 2) else 1
        at, segs = {}, {}  # arc id -> side coordinates of its segments; edge -> segment
        for (e, (p, q)), side in zip(self.geom.boundary_segments, self.geom.segment_sides):
            if side == s:
                at.setdefault(self.mc.arc_of[e], []).extend(
                    (p[axis] - self.off[axis], q[axis] - self.off[axis]))
                segs[e] = (p, q)
        out = []
        new_lo = 0
        for aid in sorted(at, key=lambda a: min(at[a])):
            arc = self.mc.arcs[aid]
            # Orient via the arc's first edge: the segment coords of that
            # edge are ordered by vertex id, which pins the chain direction
            # even when the arc's two endpoints coincide.
            e0 = arc.edges[0]
            p, q = segs[e0]
            a, b = self.mc.mesh.edge_keys[e0]
            start = p if arc.vertices[0] == a else q
            rest = q if arc.vertices[0] == a else p
            fwd = start[axis] <= rest[axis]
            out.append((aid, min(at[aid]), max(at[aid]), new_lo, new_lo + self.ell[aid], fwd))
            new_lo += self.ell[aid]
        return out

    def _side_map(self, s, u):
        """Original side coordinates at integer new side coordinates ``u``:
        affine on the first arc whose new span reaches ``u``."""
        _, lo, hi, nlo, nhi, _ = map(np.array, zip(*self.sides[s]))
        k = np.minimum(np.searchsorted(nhi, u), len(nhi) - 1)
        return lo[k] + (u - nlo[k]) * (hi[k] - lo[k]) / (nhi[k] - nlo[k])

    @cached_property
    def uv(self):
        """New coordinates (u, v) of all new grid points, v fastest, (n, 2)."""
        return np.stack(np.divmod(np.arange((self.P + 1) * (self.Q + 1)), self.Q + 1), 1)

    @cached_property
    def orig(self):
        """Wall-local original coordinates (x, y) of all new grid points, (n, 2)."""
        u, v = self.uv.T
        x = (1 - v / self.Q) * self._side_map(0, u) + (v / self.Q) * self._side_map(2, u)
        y = (1 - u / self.P) * self._side_map(3, v) + (u / self.P) * self._side_map(1, v)
        return np.stack([x, y], 1)

    def _interior_pos(self, x, y):
        """Bilinear positions, in the wall's quads, of interior points at
        wall-local original coordinates (x, y)."""
        p = np.clip(np.floor(x).astype(np.int64), 0, self.W - 1)
        q = np.clip(np.floor(y).astype(np.int64), 0, self.H - 1)
        x0, y0 = self.off
        cells = {(min(c[0] for c in co), min(c[1] for c in co)): f  # lower-left corner -> facet
                 for f, co in self.geom.corner_coords.items()}
        fs = [cells[(a + x0, b + y0)] for a, b in zip(p.tolist(), q.tolist())]
        corners = np.array([self.geom.corner_coords[f] for f in fs]).reshape(-1, 4, 2)
        quads = np.array([self.mc.mesh.facet_corners[f] for f in fs], np.int64).reshape(-1, 4)
        fx, fy = (x - p)[:, None], (y - q)[:, None]
        wx = np.where(corners[..., 0] - x0 == p[:, None] + 1, fx, 1 - fx)
        wy = np.where(corners[..., 1] - y0 == q[:, None] + 1, fy, 1 - fy)
        positions = self.mc.mesh.positions
        pos = np.zeros((len(fs), 3))
        for slot in range(4):
            pos += (wx[:, slot] * wy[:, slot])[:, None] * positions[quads[:, slot]]
        return pos

    def _side_point(self, s, u):
        for aid, lo, hi, nlo, nhi, fwd in self.sides[s]:
            if nlo <= u <= nhi:
                arc = self.mc.arcs[aid]
                if u in (nlo, nhi):  # the arc's first vertex is at nlo when it runs forward
                    vert = arc.vertices[0] if (u == nlo) == fwd else arc.vertices[-1]
                    return ("n", vert), np.asarray(self.mc.mesh.positions[vert], float)
                t = (u - nlo) if fwd else (nhi - u)
                return ("a", aid, t), _arc_point(self.mc, aid, t, self.ell[aid])
        raise IntegrityError("side coordinate out of range")

    @cached_property
    def nodes(self):
        """(keys, positions) of all new grid points, in ``uv`` order. Keys are
        canonical: a mesh vertex, an arc point or a point of this wall, so
        every block touching the wall gets the same ones."""
        P, Q = self.P, self.Q
        u, v = self.uv.T
        inner = (u % P != 0) & (v % Q != 0)
        keys = [("w", self.w.id, a, b) for a, b in zip(u.tolist(), v.tolist())]
        pos = np.empty((len(keys), 3))
        pos[inner] = self._interior_pos(*self.orig[inner].T)
        for i in np.flatnonzero(~inner).tolist():
            a, b = keys[i][2:]
            side = 0 if b == 0 else 2 if b == Q else 3 if a == 0 else 1
            keys[i], pos[i] = self._side_point(side, a if side in (0, 2) else b)
        return keys, pos


class BlockMap:
    """Piecewise-affine rescaling of one block: affine per meta-tet spanned
    by the block center and the triangulated integer sub-rectangles of its
    (rescaled) walls.

    ``orig`` and ``new`` hold, per meta-tet, its three face-triangle corners
    in original and new block coordinates (T x 3 x 3); the block centers are
    the fourth corners.
    """

    def __init__(self, dims, new_dims, orig, new):
        self.dims, self.new_dims = dims, new_dims
        self.orig, self.new = orig, new
        self._o0 = np.array(dims, float) / 2.0
        self._n0 = np.array(new_dims, float) / 2.0
        O, N = orig - self._o0, new - self._n0
        self._Tinv = np.linalg.inv(N.transpose(0, 2, 1))
        self._M = O.transpose(0, 2, 1) @ self._Tinv
        # Meta-tets sorted by their unit square: the face axis and the
        # square's lowest corner in new block coordinates.
        keys = self._square_key((new == new[:, :1]).all(axis=1).argmax(axis=1), new.min(axis=1))
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    def _square_key(self, axis, low):
        """Index of the unit square with lowest corner ``low`` on a face normal to ``axis``."""
        return axis * np.prod(np.add(self.new_dims, 1)) + np.ravel_multi_index(
            np.rint(low).astype(np.int64).T, np.add(self.new_dims, 1))

    def orientation_ok(self):
        dets = np.linalg.det(self.orig - self._o0) * np.linalg.det(self.new - self._n0)
        return not np.any(dets <= 0)

    def _candidates(self, pts):
        """Sorted (point, meta-tet) index pairs that include every meta-tet
        whose closure holds its point. An integer point other than the center
        lies in the pyramid over face (a, side) when its offset from the
        center, scaled by the half-dimensions, is largest in |axis a|, and
        there over the unit square (both, on a grid line) that holds its
        projection from the center: exact integer tests. A meta-tet that
        misses an integer point misses it by a barycentric margin of at least
        1 / (4 new_dims[a]), so no other one reaches a slack of -1e-9. The
        center and non-integer points get every meta-tet."""
        nd = np.array(self.new_dims, np.int64)
        exact = (pts == np.floor(pts)).all(axis=1)
        d2 = np.where(exact[:, None], 2 * pts - nd, 0).astype(np.int64)  # twice the offset
        everywhere = np.flatnonzero(~exact | ~d2.any(axis=1))
        pi = [np.repeat(everywhere, len(self._keys))]
        ti = [np.tile(np.arange(len(self._keys)), len(everywhere))]
        for a in range(3):
            b, c = [x for x in range(3) if x != a]
            ha = np.abs(d2[:, a])
            sel = np.flatnonzero((ha > 0) & (np.abs(d2[:, b]) * nd[a] <= ha * nd[b])
                                 & (np.abs(d2[:, c]) * nd[a] <= ha * nd[c]))
            den = 2 * ha[sel]
            low = np.zeros((len(sel), 3), np.int64)
            low[:, a] = np.where(d2[sel, a] > 0, nd[a], 0)
            options = []
            for x in (b, c):
                num = nd[x] * ha[sel] + d2[sel, x] * nd[a]
                k = num // den
                options.append(np.clip([k, k - (num % den == 0)], 0, nd[x] - 1))
            for kb in options[0]:
                for kc in options[1]:
                    low[:, b], low[:, c] = kb, kc
                    key = self._square_key(a, low)
                    lo = np.searchsorted(self._keys, key, "left")
                    cnt = np.searchsorted(self._keys, key, "right") - lo
                    rep = np.repeat(np.arange(len(sel)), cnt)
                    pi.append(sel[rep])
                    at = lo[rep] + np.arange(len(rep)) - (np.cumsum(cnt) - cnt)[rep]
                    ti.append(self._order[at])
        pair = np.unique(np.concatenate(pi) * len(self._keys) + np.concatenate(ti))
        return np.divmod(pair, len(self._keys))

    def to_original(self, p):
        """Original block coordinates of new-grid points, one point (3,) or a
        stack (n, 3): the inverse of the rescaling. Each point goes through
        the meta-tet of largest barycentric slack, the lowest index on a tie."""
        p = np.asarray(p, float)
        pts = p.reshape(-1, 3)
        pi, ti = self._candidates(pts)
        # One row per pair, bit for bit the rows of a per-point einsum over all meta-tets.
        lam = np.einsum("kij,kj->ki", self._Tinv[ti], pts[pi] - self._n0)
        slack = np.minimum(lam.min(axis=1), 1.0 - lam.sum(axis=1))
        order = np.lexsort((ti, -slack, pi))
        first = order[np.diff(pi[order], prepend=-1) != 0]
        if len(first) < len(pts) or (slack[first] < -1e-9).any():
            raise IntegrityError("new grid point outside all meta-tets")
        out = self._o0 + (self._M[ti[first]] @ (pts - self._n0)[:, :, None])[:, :, 0]
        return out.reshape(p.shape)


class _QuantizedBlock:
    """One block under the arc lengths of its wall grids: the block-grid
    coordinates of its hexes' corners, the placement of each wall on each of
    its faces, its new dimensions and its rescaling map.

    ``places`` holds (axis, side, wall grid, E, t, n) per block face, in the
    order its first facet is reached, and per wall on it, in the same order.
    A point at wall-local original coordinates p lies at block-grid
    coordinates E p + t, and the wall's new grid point p at E p + n; E is a
    signed axis permutation (3 x 2)."""

    def __init__(self, mc, wall_grids, bid):
        from .cellcomplex import grid_block_coords

        self.mc = mc
        self.bid = bid
        block = mc.blocks[bid]
        self.dims, trans = grid_block_coords(mc.mesh, mc.field, block.cells)
        mesh = mc.mesh
        # Block-grid coordinates of every corner slot of every hex.
        self.cells = np.array(list(trans))
        rot = np.array([ROTATIONS[trans[c].rot] for c in self.cells])
        shift = np.array([trans[c].t for c in self.cells], float)
        loc = HEX_CORNER_COORDS @ rot.transpose(0, 2, 1) + shift[:, None]
        self.corners = np.rint(loc).astype(np.int64)
        row = {c: i for i, c in enumerate(self.cells.tolist())}
        # block surface facets with per-vertex block-grid coordinates, by face and wall
        by_face = {}
        for c in block.cells:
            slots = mesh.cell_vertices(c)
            loc = self.corners[row[c]].tolist()
            for f in mesh.cell_facets[c]:
                if f not in mc.field:
                    continue
                coords3 = [loc[slots.index(v)] for v in mesh.facet_corners[f]]
                for axis in range(3):
                    vals = {c3[axis] for c3 in coords3}
                    if len(vals) == 1 and vals <= {0, self.dims[axis]}:
                        side = 0 if vals == {0} else 1
                        walls = by_face.setdefault((axis, side), {})
                        walls.setdefault(mc.wall_of[f], []).append((f, coords3))
                        break
                else:
                    raise IntegrityError(f"facet {f} not axis-aligned on block {bid}")
        places = [(axis, side, *self._place(wall_grids[wid], incs))
                  for (axis, side), walls in by_face.items() for wid, incs in walls.items()]
        self._flood(places)
        self.map = self._build_map()

    @staticmethod
    def _place(wg, incs):
        """(wg, E, t) of wall grid ``wg`` on a block face, from its facets
        ``incs`` there. Facet corner slots are cyclic and one unit apart, so
        with Pd and Qd the edge vectors from slot 0 to slots 1 and 3 of the
        first facet, in the wall's layout and in the block, E = Qd Pd^T."""
        p = np.array([wg.geom.corner_coords[f] for f, _ in incs]) - wg.off
        q = np.array([coords3 for _, coords3 in incs])
        E = (q[0, [1, 3]] - q[0, 0]).T @ (p[0, [1, 3]] - p[0, 0])
        t = q[0, 0] - E @ p[0, 0]
        if (p @ E.T + t != q).any():
            raise IntegrityError(f"wall {wg.w.id} placement inconsistent on face")
        return wg, E, t

    def _flood(self, places):
        """The placements with their new offsets n, and the block's new
        dimensions, from one flood over block-grid nodes (placed arc ends)
        that starts with the origin in place. A placement reached at one of
        its nodes is offset to keep that node's new coordinates; each of its
        other nodes takes the ones this gives, or must already have them."""
        at, ends = {}, []  # node -> placements with an arc end there; per placement, its ends
        for i, (_, _, wg, E, t) in enumerate(places):
            nodes = [tuple(x) for x in (wg.ends[:, 0] @ E.T + t).tolist()]
            ends.append((nodes, wg.ends[:, 1] @ E.T))
            for node in nodes:
                at.setdefault(node, []).append(i)
        new, offsets = {(0, 0, 0): (0, 0, 0)}, {}
        dq = deque(new)
        while dq:
            node = dq.popleft()
            for i in at.get(node, ()):
                if i in offsets:
                    continue
                nodes, rel = ends[i]
                offsets[i] = new[node] - rel[nodes.index(node)]
                for key, n in zip(nodes, map(tuple, (rel + offsets[i]).tolist())):
                    if key not in new:
                        new[key] = n
                        dq.append(key)
                    elif new[key] != n:
                        raise IntegrityError("grid mismatch across walls of a block face")
        if len(offsets) < len(places):
            raise IntegrityError("disconnected wall arrangement on block face")
        self.new_dims = new[self.dims]
        self.places = [(*place, offsets[i]) for i, place in enumerate(places)]

    def _build_map(self):
        orig, new = [], []
        for _, _, wg, E, t, n in self.places:
            P, Q = wg.P, wg.Q
            # Corners (u, v), (u+1, v), (u+1, v+1), (u, v+1) of each quad,
            # split along the diagonal into two triangles.
            low = np.flatnonzero((wg.uv[:, 0] < P) & (wg.uv[:, 1] < Q))
            tri = low[:, None, None] + np.array([[0, Q + 1, Q + 2], [0, Q + 2, 1]])
            tri = tri.reshape(-1, 3)
            # The wall's nodes in original and new block coordinates; E
            # permutes and negates, so these are exact.
            orig.append((wg.orig @ E.T + t)[tri])
            new.append((wg.uv @ E.T + n)[tri])
        bm = BlockMap(self.dims, self.new_dims, np.concatenate(orig), np.concatenate(new))
        if not bm.orientation_ok():
            raise IntegrityError(f"block {self.bid}: inverted meta-tet in rescaling map")
        return bm

    def _interior_positions(self, ijk):
        """Trilinear positions, in the original hexes, of interior new grid points."""
        mesh = self.mc.mesh
        low = self.corners.min(axis=1)
        grid = np.empty(self.dims, np.int64)
        grid[tuple(low.T)] = np.arange(len(low))
        uvw = self.map.to_original(ijk.astype(float))
        cell = np.clip(np.floor(uvw).astype(np.int64), 0, np.array(self.dims) - 1)
        h = grid[tuple(cell.T)]
        f = (uvw - cell)[:, None, :]
        w = np.where(self.corners[h] > low[h][:, None], f, 1 - f)
        weight = w[..., 0] * w[..., 1] * w[..., 2]
        corner = mesh.hexes[self.cells[h]]
        pos = np.zeros((len(ijk), 3))
        for slot in range(8):
            pos += weight[:, slot, None] * mesh.positions[corner[:, slot]]
        return pos

    def points(self):
        """(keys, positions) of the block's new grid points, flattened with k
        fastest. One index grid over the block names the wall node that gives
        each boundary point its key and position. The placements write their
        nodes into it in reverse precedence order, so the first face in
        sorted order that holds a point wins, and within that face the lowest
        wall id. An interior point's key is its own, as no other block shares it."""
        shape = np.add(self.new_dims, 1)
        ijk = np.indices(shape).reshape(3, -1).T
        src = np.full(len(ijk), -1)  # the index grid, flattened: index into wall_keys
        pos = np.empty((len(ijk), 3))
        wall_keys = []
        for _, _, wg, E, _, n in sorted(self.places, key=lambda p: (p[0], p[1], p[2].w.id),
                                        reverse=True):
            keys, wpos = wg.nodes
            at = np.ravel_multi_index((wg.uv @ E.T + n).T, shape)
            src[at] = len(wall_keys) + np.arange(len(keys))
            pos[at] = wpos
            wall_keys += keys
        inner = ((ijk > 0) & (ijk < self.new_dims)).all(axis=1)
        missing = np.flatnonzero(~inner & (src < 0))
        if len(missing):
            raise IntegrityError(f"face point {tuple(ijk[missing[0]].tolist())} lies on no wall")
        keys = [wall_keys[k] if k >= 0 else ("b", self.bid, i) for i, k in enumerate(src.tolist())]
        pos[inner] = self._interior_positions(ijk[inner])
        return keys, pos


def reparametrize_block(mc, bid, ell) -> BlockMap:
    """Piecewise-affine rescaling map of one block under arc lengths ``ell``."""
    return _QuantizedBlock(mc, _wall_grids(mc, ell), bid).map


def extract_hexmesh(mc, ell) -> HexMesh:
    """Conforming hex mesh: an l x m x n unit grid per block, glued through
    canonical per-wall/per-arc grid keys so that shared walls (including
    T-joint sub-walls) carry identical grids from both sides. Vertices are
    numbered in order of first appearance, block by block. Only complexes
    of hex meshes are supported."""
    if mc.mesh.kind != "hex":
        raise MeshError(f"hex extraction takes the complex of a hex mesh, not a {mc.mesh.kind} mesh")
    wall_grids = _wall_grids(mc, ell)
    vid = {}  # key -> vertex id
    positions, hexes = [np.empty((0, 3))], [np.empty((0, 8), np.int64)]  # a complex may have no block
    for block in mc.blocks:
        qb = _QuantizedBlock(mc, wall_grids, block.id)
        keys, pos = qb.points()
        n = len(vid)
        ids = np.array([vid.setdefault(key, len(vid)) for key in keys])
        fresh, first = np.unique(ids, return_index=True)
        positions.append(pos[first[fresh >= n]])
        L, M, N = qb.new_dims
        grid = ids.reshape(L + 1, M + 1, N + 1)
        hexes.append(np.stack([grid[dx:dx + L, dy:dy + M, dz:dz + N]
                               for dx, dy, dz in HEX_CORNER_COORDS], axis=-1).reshape(-1, 8))
    return HexMesh(np.concatenate(positions), np.concatenate(hexes))

"""Synthetic fixture meshes: boxes, singular pies, a hex torus ring, and
randomized glued-cube blobs, used for testing and benchmarking."""

from __future__ import annotations

import math
import random

from .errors import MeshError
from .hexmesh import HexMesh, build_hex_connectivity


def box_mesh(nx=1, ny=1, nz=1) -> HexMesh:
    """Axis-aligned nx x ny x nz grid of unit hexes. Singularity-free."""

    def vid(x, y, z):
        return (z * (ny + 1) + y) * (nx + 1) + x

    positions = [
        (x, y, z)
        for z in range(nz + 1)
        for y in range(ny + 1)
        for x in range(nx + 1)
    ]
    hexes = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                hexes.append(
                    (
                        vid(x, y, z), vid(x + 1, y, z), vid(x + 1, y + 1, z), vid(x, y + 1, z),
                        vid(x, y, z + 1), vid(x + 1, y, z + 1), vid(x + 1, y + 1, z + 1), vid(x, y + 1, z + 1),
                    )
                )
    return build_hex_connectivity(hexes, positions)


def pie_mesh(k=3, layers=2) -> HexMesh:
    """k hex columns sharing a central vertical axis; the axis edges are
    interior with valence k, hence singular for k != 4."""
    if k < 3:
        raise ValueError("need at least 3 sectors")
    positions = []
    index = {}

    def add(name, p):
        index[name] = len(positions)
        positions.append(p)

    for z in range(layers + 1):
        add(("c", z), (0.0, 0.0, float(z)))
        for i in range(k):
            th = 2 * math.pi * i / k
            add(("a", i, z), (math.cos(th), math.sin(th), float(z)))
            thm = th + math.pi / k
            r = math.sqrt(2.0)
            add(("m", i, z), (r * math.cos(thm), r * math.sin(thm), float(z)))

    hexes = []
    for z in range(layers):
        for i in range(k):
            j = (i + 1) % k
            bot = (index[("c", z)], index[("a", i, z)], index[("m", i, z)], index[("a", j, z)])
            top = (index[("c", z + 1)], index[("a", i, z + 1)], index[("m", i, z + 1)], index[("a", j, z + 1)])
            hexes.append(bot + top)
    return build_hex_connectivity(hexes, positions)


def torus_mesh(k=8) -> HexMesh:
    """Swept ring of k hexes with square cross section: a solid torus with a
    single layer of cells and no interior edges. Its one raw block is toroidal."""
    if k < 3:
        raise ValueError("need at least 3 segments")
    ring_radius = 2.0
    half = 0.4
    corners = ((-half, -half), (half, -half), (half, half), (-half, half))
    positions = []
    for j in range(k):
        th = 2 * math.pi * j / k
        for dr, dz in corners:
            r = ring_radius + dr
            positions.append((r * math.cos(th), r * math.sin(th), dz))

    def vid(j, s):
        return (j % k) * 4 + s

    hexes = []
    for j in range(k):
        a = [vid(j, s) for s in range(4)]
        b = [vid(j + 1, s) for s in range(4)]
        # Cross-section at angle j+1 forms the bottom face so the sweep keeps
        # a positive Jacobian.
        hexes.append((b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3]))
    return build_hex_connectivity(hexes, positions)


def notched_box_mesh(n=3) -> HexMesh:
    """n^3 grid with one corner cell removed: three concave boundary edges of
    valence 3 (singular) meeting at the inner corner vertex."""
    cells = [
        (x, y, z)
        for z in range(n)
        for y in range(n)
        for x in range(n)
        if (x, y, z) != (n - 1, n - 1, n - 1)
    ]
    return mesh_from_cells(cells)


def composite_mesh() -> HexMesh:
    """Fixture with several disjoint singular arcs: a notched box widened by a
    slab so both concave and convex singular configurations appear."""
    cells = [
        (x, y, z)
        for z in range(3)
        for y in range(3)
        for x in range(3)
        if (x, y, z) not in ((2, 2, 2), (2, 2, 1))
    ]
    cells += [(x, y, 3) for y in range(3) for x in range(2)]
    return mesh_from_cells(cells)


def mesh_from_cells(cells) -> HexMesh:
    """Hex mesh from a set of unit grid cells (lowest-corner coordinates)."""
    cells = sorted(set(tuple(map(int, c)) for c in cells))
    offsets = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
    vindex = {}
    positions = []
    hexes = []
    for cx, cy, cz in cells:
        corner_ids = []
        for ox, oy, oz in offsets:
            key = (cx + ox, cy + oy, cz + oz)
            if key not in vindex:
                vindex[key] = len(positions)
                positions.append(tuple(float(v) for v in key))
            corner_ids.append(vindex[key])
        hexes.append(tuple(corner_ids))
    return build_hex_connectivity(hexes, positions)


def _bridged(cells, cand):
    """Whether adding ``cand`` keeps all edge/corner contacts face-bridged.

    A neighbor touching only along an edge or corner makes the mesh
    non-manifold unless a cell sharing a face with both is present too.
    """
    cx, cy, cz = cand
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                touch = abs(dx) + abs(dy) + abs(dz)
                if touch < 2:
                    continue
                other = (cx + dx, cy + dy, cz + dz)
                if other not in cells:
                    continue
                steps = []
                if dx:
                    steps.append((cx + dx, cy, cz))
                if dy:
                    steps.append((cx, cy + dy, cz))
                if dz:
                    steps.append((cx, cy, cz + dz))
                shared = sum(s in cells for s in steps)
                if touch == 2 and shared == 0:
                    return False
                if touch == 3 and shared < 2:
                    return False
    return True


def random_glued_cubes(seed, n_cells=60) -> HexMesh:
    """Randomized connected blob of grid cells, grown by face-neighbor
    accretion. Retries with derived sub-seeds until the result is manifold."""
    dirs = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    for attempt in range(1000):
        rng = random.Random(f"{seed}:{attempt}")
        cells = {(0, 0, 0)}
        order = [(0, 0, 0)]
        stuck = 0
        while len(cells) < n_cells and stuck < 50 * n_cells:
            base = order[rng.randrange(len(order))]
            d = dirs[rng.randrange(6)]
            cand = (base[0] + d[0], base[1] + d[1], base[2] + d[2])
            if cand in cells or not _bridged(cells, cand):
                stuck += 1
                continue
            cells.add(cand)
            order.append(cand)
        if len(cells) < n_cells:
            continue
        try:
            return mesh_from_cells(cells)
        except MeshError:
            continue
    raise MeshError(f"could not grow a manifold blob for seed {seed}")


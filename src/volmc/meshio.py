"""File input/output: MEDIT .mesh and legacy VTK hex meshes, a plain text
format for parametrized tet meshes, and OBJ wall export.

Coordinates are serialized with 17 significant digits so that reading a
written file reproduces every float bit-exactly.
"""

import numpy as np

from .errors import ParseError, VolmcError
from .hexmesh import HexMesh
from .tetparam import ParamTetMesh

FMT = "%.17g"


def _fnum(x):
    return FMT % float(x)


class _Lines:
    """Token stream over a text file that tracks line numbers for errors."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.i = 0

    def next_tokens(self):
        while self.i < len(self.lines):
            self.i += 1
            toks = self.lines[self.i - 1].split()
            if toks and not toks[0].startswith("#"):
                return toks
        return None

    @property
    def lineno(self):
        return self.i

    def fail(self, msg):
        raise ParseError(msg, line=self.lineno)


# -- MEDIT .mesh -------------------------------------------------------------


def _read_medit(path):
    src = _Lines(path)
    positions = None
    hexes = None
    while True:
        toks = src.next_tokens()
        if toks is None:
            break
        kw = toks[0].lower()
        if kw in ("meshversionformatted", "dimension"):
            if len(toks) == 1 and src.next_tokens() is None:
                src.fail(f"missing value after {toks[0]}")
        elif kw == "vertices":
            n = _count(src, toks)
            positions = []
            for _ in range(n):
                row = src.next_tokens()
                if row is None or len(row) < 3:
                    src.fail("expected vertex line with 3 coordinates")
                positions.append(_floats(src, row[:3]))
        elif kw == "hexahedra":
            n = _count(src, toks)
            hexes = []
            for _ in range(n):
                row = src.next_tokens()
                if row is None or len(row) < 8:
                    src.fail("expected hexahedron line with 8 vertex ids")
                hexes.append([_index(src, t) - 1 for t in row[:8]])
        elif kw == "end":
            break
        elif kw in ("edges", "triangles", "quadrilaterals", "tetrahedra", "corners", "ridges"):
            src.fail(f"unsupported cell section '{toks[0]}' in hex mesh file")
        else:
            src.fail(f"unknown keyword '{toks[0]}'")
    if positions is None:
        src.fail("file has no Vertices section")
    if hexes is None:
        src.fail("file has no Hexahedra section")
    return positions, hexes


def _count(src, toks):
    row = toks[1:] if len(toks) > 1 else src.next_tokens()
    if not row:
        src.fail("expected element count")
    return _index(src, row[0])


def _index(src, tok):
    try:
        return int(tok)
    except ValueError:
        src.fail(f"expected integer, got '{tok}'")


def _floats(src, toks):
    try:
        return [float(t) for t in toks]
    except ValueError:
        src.fail(f"expected number in '{' '.join(toks)}'")


def _write_medit(mesh, path):
    with open(path, "w") as fh:
        fh.write("MeshVersionFormatted 2\nDimension 3\n")
        fh.write(f"Vertices\n{len(mesh.positions)}\n")
        for p in mesh.positions:
            fh.write(" ".join(_fnum(x) for x in p) + " 0\n")
        fh.write(f"Hexahedra\n{len(mesh.hexes)}\n")
        for h in mesh.hexes:
            fh.write(" ".join(str(int(v) + 1) for v in h) + " 0\n")
        fh.write("End\n")


# -- legacy VTK --------------------------------------------------------------

VTK_HEXAHEDRON = 12


def _read_vtk(path):
    src = _Lines(path)
    positions = None
    hexes = None
    while True:
        toks = src.next_tokens()
        if toks is None:
            break
        kw = toks[0].upper()
        if kw == "POINTS":
            if len(toks) < 2:
                src.fail("POINTS needs a count")
            n = _index(src, toks[1])
            flat = []
            while len(flat) < 3 * n:
                row = src.next_tokens()
                if row is None:
                    src.fail("unexpected end of file in POINTS")
                flat.extend(_floats(src, row))
            positions = [flat[3 * i : 3 * i + 3] for i in range(n)]
        elif kw == "CELLS":
            if len(toks) < 2:
                src.fail("CELLS needs a count")
            n = _index(src, toks[1])
            hexes = []
            for _ in range(n):
                row = src.next_tokens()
                if row is None:
                    src.fail("unexpected end of file in CELLS")
                if _index(src, row[0]) != 8 or len(row) != 9:
                    src.fail("only 8-vertex cells are supported")
                hexes.append([_index(src, t) for t in row[1:]])
        elif kw == "CELL_TYPES":
            n = _index(src, toks[1]) if len(toks) > 1 else 0
            for _ in range(n):
                row = src.next_tokens()
                if row is None:
                    src.fail("unexpected end of file in CELL_TYPES")
                for t in row:
                    if _index(src, t) != VTK_HEXAHEDRON:
                        src.fail(f"unsupported VTK cell type {t}")
    if positions is None or hexes is None:
        src.fail("file has no POINTS or CELLS section")
    return positions, hexes


def _write_vtk(mesh, path):
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nhex mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(mesh.positions)} double\n")
        for p in mesh.positions:
            fh.write(" ".join(_fnum(x) for x in p) + "\n")
        nh = len(mesh.hexes)
        fh.write(f"CELLS {nh} {9 * nh}\n")
        for h in mesh.hexes:
            fh.write("8 " + " ".join(str(int(v)) for v in h) + "\n")
        fh.write(f"CELL_TYPES {nh}\n")
        for _ in range(nh):
            fh.write(f"{VTK_HEXAHEDRON}\n")


def _detect_format(path, fmt=None):
    if fmt is not None:
        return fmt
    p = str(path).lower()
    if p.endswith(".vtk"):
        return "vtk"
    return "mesh"


def read_hex_mesh(path, fmt=None) -> HexMesh:
    """Read a hexahedral mesh from a MEDIT .mesh or legacy VTK file.

    The VTK hexahedron corner order (bottom quad counterclockwise, then top
    quad) matches the internal convention, as does MEDIT's.
    """
    fmt = _detect_format(path, fmt)
    if fmt == "mesh":
        positions, hexes = _read_medit(path)
    elif fmt == "vtk":
        positions, hexes = _read_vtk(path)
    else:
        raise ParseError(f"unknown mesh format '{fmt}'")
    return HexMesh(positions, hexes)


def write_hex_mesh(mesh: HexMesh, path):
    """Write a hexahedral mesh as legacy VTK to a ``.vtk`` path and as
    MEDIT .mesh to any other."""
    (_write_vtk if _detect_format(path) == "vtk" else _write_medit)(mesh, path)


# -- parametrized tet mesh ---------------------------------------------------


def read_param(path) -> ParamTetMesh:
    """Read a parametrized tet mesh.

    Format: a header line ``nverts ntets``, then one ``x y z`` line per
    vertex, then one line per tet with 4 vertex ids followed by the 12
    parameter values (u v w per corner, in corner order).
    """
    src = _Lines(path)
    head = src.next_tokens()
    if head is None or len(head) != 2:
        src.fail("expected header line 'nverts ntets'")
    nv, nt = _index(src, head[0]), _index(src, head[1])
    positions = []
    for _ in range(nv):
        row = src.next_tokens()
        if row is None or len(row) != 3:
            src.fail("expected vertex line with 3 coordinates")
        positions.append(_floats(src, row))
    tets = []
    params = []
    for _ in range(nt):
        row = src.next_tokens()
        if row is None or len(row) != 16:
            src.fail("expected tet line with 4 ids and 12 parameter values")
        tets.append([_index(src, t) for t in row[:4]])
        params.append(np.array(_floats(src, row[4:])).reshape(4, 3))
    if src.next_tokens() is not None:
        src.fail("trailing data after last tet")
    return ParamTetMesh(positions, tets, params)


def read_mesh(path, fmt=None) -> HexMesh | ParamTetMesh:
    """Read a parametrized tet mesh from a ``.param`` file, and a hex mesh
    (``read_hex_mesh`` with ``fmt``) from any other."""
    if str(path).endswith(".param"):
        return read_param(path)
    return read_hex_mesh(path, fmt)


def write_param(pm: ParamTetMesh, path):
    positions = pm.positions  # read once: each read builds a fresh array
    with open(path, "w") as fh:
        fh.write(f"{len(positions)} {len(pm.tets)}\n")
        for p in positions:
            fh.write(" ".join(_fnum(x) for x in p) + "\n")
        for tet, par in zip(pm.tets, pm.params):
            nums = " ".join(_fnum(x) for x in np.asarray(par).ravel())
            fh.write(" ".join(str(v) for v in tet) + " " + nums + "\n")


# -- OBJ wall export ---------------------------------------------------------


def export_walls(mc, path, explode=0.0):
    """Write the walls of a complex as an OBJ file, one group per wall.

    With ``explode`` > 0 each block contributes its own copies of its walls,
    translated away from the global centroid along the block centroid ray by
    ``explode`` times the centroid offset; groups are then named per block
    and wall. Raises VolmcError for an ``explode`` that is not finite.
    """
    if not np.isfinite(explode):
        raise VolmcError(f"explode {explode} must be finite")
    mesh = mc.mesh
    # Read once: a tet mesh builds its positions array on every read.
    pos = dict(enumerate(np.asarray(mesh.positions, float)))
    out = ["# motorcycle complex walls"]
    verts = []

    def emit(vertices, shift):
        ids = []
        for v in vertices:
            verts.append(pos[v] + shift)
            ids.append(len(verts))
        return ids

    if explode <= 0:
        for w in mc.walls:
            out.append(f"g wall_{w.id}")
            for f in sorted(w.facets):
                ids = emit(mesh.facet_corners[f], 0.0)
                out.append("f " + " ".join(str(i) for i in ids))
    else:
        center = np.mean([pos[v] for v in pos], axis=0)
        facet_walls = mc.wall_of
        for b in mc.blocks:
            bc = np.mean(
                [pos[v] for c in b.cells for v in mesh.cell_vertices(c)], axis=0
            )
            shift = explode * (bc - center)
            by_wall = {}
            for c in b.cells:
                for f in mesh.cell_facets[c]:
                    if f in facet_walls:
                        by_wall.setdefault(facet_walls[f], set()).add(f)
            for wid in sorted(by_wall):
                out.append(f"g block_{b.id}_wall_{wid}")
                for f in sorted(by_wall[wid]):
                    ids = emit(mesh.facet_corners[f], shift)
                    out.append("f " + " ".join(str(i) for i in ids))
    with open(path, "w") as fh:
        body = []
        for v in verts:
            body.append("v " + " ".join(_fnum(x) for x in v))
        face_lines = iter(out)
        fh.write(next(face_lines) + "\n")
        fh.write("\n".join(body) + ("\n" if body else ""))
        for line in face_lines:
            fh.write(line + "\n")

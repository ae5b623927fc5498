import random
import re

import numpy as np
import pytest

from volmc import synth
from volmc.errors import MeshError, ParseError, VolmcError
from volmc.meshio import (
    export_walls,
    read_hex_mesh,
    read_mesh,
    read_param,
    write_hex_mesh,
    write_param,
)
from volmc.sanitize import add_noise
from volmc.tetparam import hex_to_param


@pytest.mark.parametrize("ext", ["mesh", "vtk"])
def test_hex_roundtrip_bit_exact(tmp_path, ext):
    hm = synth.composite_mesh()
    path = tmp_path / f"m.{ext}"
    write_hex_mesh(hm, str(path))
    back = read_hex_mesh(str(path))
    assert np.array_equal(hm.positions, back.positions)
    assert np.array_equal(hm.hexes, back.hexes)


def test_hex_roundtrip_awkward_floats(tmp_path):
    hm = synth.box_mesh(1, 1, 1)
    pos = hm.positions + np.array([1 / 3, 1e-17, np.pi])
    hm2 = type(hm)(pos, hm.hexes)
    for ext in ("mesh", "vtk"):
        path = tmp_path / f"m.{ext}"
        write_hex_mesh(hm2, str(path))
        assert np.array_equal(read_hex_mesh(str(path)).positions, pos)


def test_vtk_hand_written_single_hex(tmp_path):
    path = tmp_path / "one.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\nx\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 8 double\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n"
        "CELLS 1 9\n8 0 1 2 3 4 5 6 7\nCELL_TYPES 1\n12\n"
    )
    hm = read_hex_mesh(str(path))
    assert len(hm.hexes) == 1
    # bottom quad then top quad: corner 0 at origin, corner 6 opposite
    assert tuple(hm.positions[hm.hexes[0][0]]) == (0, 0, 0)
    assert tuple(hm.positions[hm.hexes[0][6]]) == (1, 1, 1)


VTK_HEADER = "# vtk DataFile Version 3.0\nx\nASCII\nDATASET UNSTRUCTURED_GRID\n"


def test_unknown_vtk_cell_type_rejected(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text(
        VTK_HEADER + "POINTS 8 double\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n"
        "CELLS 1 9\n8 0 1 2 3 4 5 6 7\nCELL_TYPES 1\n11\n"
    )
    with pytest.raises(ParseError, match="^line 17: unsupported VTK cell type 11$"):
        read_hex_mesh(str(path))


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("version.mesh", "MeshVersionFormatted\n", "line 1: missing value after MeshVersionFormatted"),
        ("tets.mesh", "MeshVersionFormatted 2\nDimension 3\nTetrahedra\n0\n",
         "line 3: unsupported cell section 'Tetrahedra' in hex mesh file"),
        ("cells.vtk", VTK_HEADER + "POINTS 0 double\nCELLS\n", "line 6: CELLS needs a count"),
        ("trailing.param", "4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3 0 0 0 1 0 0 0 1 0 0 0 1\n0\n",
         "line 7: trailing data after last tet"),
    ],
)
def test_parse_error_names_line(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read_mesh(str(path))


def test_medit_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("MeshVersionFormatted 2\nDimension 3\nVertices\n2\n0 0 0 0\noops\n")
    with pytest.raises(ParseError) as err:
        read_hex_mesh(str(path))
    assert err.value.line == 6


def test_param_roundtrip_bit_exact(tmp_path):
    pm = add_noise(hex_to_param(synth.pie_mesh(3)), eps=1e-8, seed=2)
    path = tmp_path / "m.param"
    write_param(pm, str(path))
    back = read_param(str(path))
    assert np.array_equal(pm.positions, back.positions)
    assert pm.tets == back.tets
    for a, b in zip(pm.params, back.params):
        assert np.array_equal(a, b)


def test_param_hand_written_single_tet(tmp_path):
    path = tmp_path / "one.param"
    path.write_text(
        "4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "0 1 2 3 0 0 0 1 0 0 0 1 0 0 0 1\n"
    )
    pm = read_param(str(path))
    assert len(pm.tets) == 1
    assert np.array_equal(pm.params[0], np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float))


def test_read_mesh_reads_every_format(tmp_path):
    """``read_mesh`` reads .mesh and .vtk files as hex meshes and .param
    files as parametrizations; ``fmt`` names the hex format of any other."""
    hm = synth.pie_mesh(3)
    pm = hex_to_param(hm)
    for name in ("m.mesh", "m.vtk"):
        write_hex_mesh(hm, str(tmp_path / name))
        back = read_mesh(str(tmp_path / name))
        assert back.kind == "hex" and np.array_equal(back.hexes, hm.hexes), name
    write_param(pm, str(tmp_path / "m.param"))
    back = read_mesh(tmp_path / "m.param")
    assert back.kind == "tet" and back.tets == pm.tets
    (tmp_path / "m.txt").write_bytes((tmp_path / "m.vtk").read_bytes())
    assert np.array_equal(read_mesh(str(tmp_path / "m.txt"), "vtk").hexes, hm.hexes)


def test_param_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.param"
    path.write_text("4 2\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3 0 0 0 1 0 0 0 1 0 0 0 1\n")
    with pytest.raises(ParseError):
        read_param(str(path))


@pytest.mark.parametrize(
    "tet_line",
    [
        "0 1 2 4 0 0 0 1 0 0 0 1 0 0 0 1",  # vertex id past the end
        "0 1 2 -1 0 0 0 1 0 0 0 1 0 0 0 1",  # negative vertex id
        "0 1 2 3 0 0 0 1 0 0 0 1 0 0 0 nan",
        "0 1 2 3 0 0 0 inf 0 0 0 1 0 0 0 1",
    ],
)
def test_param_bad_tet_rejected(tmp_path, tet_line):
    path = tmp_path / "bad.param"
    path.write_text(f"4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n{tet_line}\n")
    with pytest.raises(MeshError, match="tet 0"):
        read_param(str(path))


def _corruptions(text, rng, n):
    """``n`` corruptions of ``text``: a truncation, one token replaced by a
    bad value, or one token dropped."""
    tokens = [m.span() for m in re.finditer(r"\S+", text)]
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            yield text[:rng.randrange(len(text))]
            continue
        a, b = rng.choice(tokens)
        bad = rng.choice(["-1", "999999", "nan", "x", "1e400"]) if kind == 1 else ""
        yield text[:a] + bad + text[b:]


def test_corrupted_files_raise_volmc_error(tmp_path):
    """A corrupted mesh or parametrization file parses or raises a
    VolmcError subclass, never a raw exception."""
    rng = random.Random(0)
    hm = synth.box_mesh(2, 1, 1)
    sources = []
    for ext in ("mesh", "vtk"):
        write_hex_mesh(hm, str(tmp_path / f"m.{ext}"))
        sources.append((ext, read_hex_mesh))
    write_param(hex_to_param(synth.box_mesh(1, 1, 1)), str(tmp_path / "m.param"))
    sources.append(("param", read_param))
    outcomes = {"parsed": 0, "rejected": 0}
    for ext, read in sources:
        path = tmp_path / f"bad.{ext}"
        for text in _corruptions((tmp_path / f"m.{ext}").read_text(), rng, 150):
            path.write_text(text)
            try:
                read(str(path))
                outcomes["parsed"] += 1
            except VolmcError:
                outcomes["rejected"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_obj_group_count_equals_wall_count(tmp_path, complexes):
    for name, mc in complexes.items():
        path = tmp_path / f"{name}.obj"
        export_walls(mc, str(path))
        txt = path.read_text()
        assert txt.count("\ng wall_") == len(mc.walls), name


def test_box_exports_six_groups(tmp_path, complexes):
    path = tmp_path / "box.obj"
    export_walls(complexes["box"], str(path))
    assert path.read_text().count("\ng wall_") == 6


def test_pie3_has_interior_wall_groups(tmp_path, complexes):
    mc = complexes["pie3"]
    interior = [w for w in mc.walls if not w.boundary]
    assert interior
    path = tmp_path / "pie3.obj"
    export_walls(mc, str(path))
    txt = path.read_text()
    for w in interior:
        assert f"g wall_{w.id}\n" in txt


def test_exploded_export_shifts_blocks(tmp_path, complexes):
    mc = complexes["composite"]
    flat = tmp_path / "flat.obj"
    expl = tmp_path / "expl.obj"
    export_walls(mc, str(flat))
    export_walls(mc, str(expl), explode=0.5)
    assert expl.read_text().count("\ng block_") > len(mc.walls) - 1
    # exploded copies move: vertex sets differ
    assert flat.read_text() != expl.read_text()

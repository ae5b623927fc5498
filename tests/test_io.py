import numpy as np
import pytest

from volmc import synth
from volmc.cellcomplex import extract_complex, split_tori
from volmc.errors import MeshError, ParseError
from volmc.firehex import trace_hex
from volmc.meshio import (
    export_walls,
    read_hex_mesh,
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


def test_unknown_vtk_cell_type_rejected(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text(
        "# vtk DataFile Version 3.0\nx\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "CELLS 1 5\n4 0 1 2 3\nCELL_TYPES 1\n10\n"
    )
    with pytest.raises(ParseError):
        read_hex_mesh(str(path))


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

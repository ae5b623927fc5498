import pytest

from volmc import synth
from volmc.cellcomplex import motorcycle_complex

FIXTURE_BUILDERS = {
    "box": lambda: synth.box_mesh(2, 2, 2),
    "pie3": lambda: synth.pie_mesh(3),
    "pie5": lambda: synth.pie_mesh(5),
    "notch": lambda: synth.notched_box_mesh(),
    "torus": lambda: synth.torus_mesh(),
    "composite": lambda: synth.composite_mesh(),
}


@pytest.fixture(scope="session")
def meshes():
    return {name: build() for name, build in FIXTURE_BUILDERS.items()}


@pytest.fixture(scope="session")
def complexes(meshes):
    """Raw (torus-split) motorcycle complex per fixture, seed 0."""
    return {name: motorcycle_complex(hm, seed=0) for name, hm in meshes.items()}


@pytest.fixture
def mirrored_box(tmp_path):
    """A MEDIT file ``mirrored.mesh`` of ``box_mesh(2, 1, 1)`` with hex 1's
    bottom and top quads swapped: hex 1 is the mirror image of a hex glued
    to hex 0 by a rotation. ``HexMesh`` rejects it, so it is written from
    plain lists."""
    box = synth.box_mesh(2, 1, 1)
    hexes = box.hexes.tolist()
    hexes[1] = hexes[1][4:] + hexes[1][:4]
    path = tmp_path / "mirrored.mesh"
    path.write_text("".join(
        [f"MeshVersionFormatted 2\nDimension 3\nVertices\n{len(box.positions)}\n"]
        + [" ".join(map(repr, p)) + " 0\n" for p in box.positions.tolist()]
        + [f"Hexahedra\n{len(hexes)}\n"]
        + [" ".join(str(v + 1) for v in h) + " 0\n" for h in hexes] + ["End\n"]))
    return path

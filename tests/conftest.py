import pytest

from volmc import synth
from volmc.cellcomplex import extract_complex, split_tori
from volmc.firehex import trace_hex
from volmc.hexmesh import HexMesh

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
    out = {}
    for name, hm in meshes.items():
        field = trace_hex(hm, seed=0)
        out[name] = split_tori(extract_complex(hm, field))
    return out


@pytest.fixture
def mirrored_box():
    """``box_mesh(2, 1, 1)`` with hex 1's bottom and top quads swapped: hex 1
    is the mirror image of a hex glued to hex 0 by a rotation."""
    box = synth.box_mesh(2, 1, 1)
    hexes = box.hexes.tolist()
    hexes[1] = hexes[1][4:] + hexes[1][:4]
    return HexMesh(box.positions, hexes)

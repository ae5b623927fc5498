import numpy as np
import pytest

from volmc import synth
from volmc.errors import MeshError
from volmc.hexmesh import HEX_CORNER_COORDS, HEX_FACE_NORMALS, HexMesh, _solve_gluing
from volmc.meshio import read_hex_mesh
from volmc.octahedral import Transition, rotation_index


def test_box_counts():
    hm = synth.box_mesh(2, 2, 2)
    assert len(hm.hexes) == 8
    assert hm.n_vertices == 27
    assert hm.n_facets == 36
    assert hm.n_edges == 54


def test_single_hex_boundary():
    hm = synth.box_mesh(1, 1, 1)
    assert all(hm.facet_boundary)
    assert all(hm.edge_boundary[e] for e in range(hm.n_edges))
    # convex corner edges have valence 1, not the regular boundary valence 2
    assert all(hm.singular(e) for e in range(hm.n_edges))


def test_interior_edge_valence():
    hm = synth.box_mesh(2, 2, 2)
    interior = [e for e in range(hm.n_edges) if not hm.edge_boundary[e]]
    assert len(interior) == 6
    for e in interior:
        assert hm.edge_valence(e) == 4 and not hm.singular(e)


@pytest.mark.parametrize("k", [3, 5])
def test_pie_singular_edges(k):
    hm = synth.pie_mesh(k)
    sing = [e for e in hm.singular_edges() if not hm.edge_boundary[e]]
    # the central axis: one edge per layer
    assert len(sing) == 2
    for e in sing:
        assert hm.edge_valence(e) == k


def test_torus_has_no_interior_singularities():
    hm = synth.torus_mesh()
    assert [e for e in hm.singular_edges() if not hm.edge_boundary[e]] == []


def test_repeated_corner_rejected():
    with pytest.raises(MeshError):
        HexMesh(np.eye(8, 3), [[0, 1, 2, 3, 4, 5, 6, 6]])


def test_out_of_range_vertex_rejected():
    with pytest.raises(MeshError):
        HexMesh(np.zeros((4, 3)), [[0, 1, 2, 3, 4, 5, 6, 7]])


def test_non_manifold_facet_rejected():
    # three unit cubes stacked on the same bottom face
    base = synth.box_mesh(1, 1, 1)
    pos = list(map(tuple, base.positions))
    hexes = [list(base.hexes[0])]
    for dz in (1.0, 2.0):
        top = []
        for v in base.hexes[0]:
            x, y, z = base.positions[v]
            p = (x, y, z + dz)
            if p not in pos:
                pos.append(p)
            top.append(pos.index(p))
        hexes.append(top)
    hexes.append(list(hexes[1]))  # duplicate cell glues 3 hexes on one facet
    with pytest.raises(MeshError):
        HexMesh(pos, hexes)


def test_non_manifold_edge_rejected():
    # two unit cubes that share only the edge x = y = 1
    pos = [tuple(map(float, c)) for c in HEX_CORNER_COORDS]
    pos += [tuple(map(float, c + (1, 1, 0))) for c in HEX_CORNER_COORDS]
    second = [8 + i for i in range(8)]
    second[0], second[4] = 2, 6  # the shared corners (1, 1, 0) and (1, 1, 1)
    with pytest.raises(MeshError, match="non-manifold boundary edge"):
        HexMesh(pos, [list(range(8)), second])


def test_local_coords_match_corner_table():
    hm = synth.box_mesh(1, 1, 1)
    h = 0
    for c, v in enumerate(hm.hexes[h]):
        assert tuple(hm.local_coords(h, int(v))) == tuple(HEX_CORNER_COORDS[c])


def test_face_gluing_is_rigid_and_consistent():
    hm = synth.box_mesh(2, 1, 1)
    shared = [f for f in range(hm.n_facets) if not hm.facet_boundary[f]]
    assert len(shared) == 1
    f = shared[0]
    h1, h2 = hm.facet_cells[f]
    g = hm.face_gluing(h1, f, h2)
    for v in hm.facet_keys[f]:
        a = hm.local_coords(h1, v)
        b = hm.local_coords(h2, v)
        assert np.allclose(g.apply(a), b)


def float_face_gluing(hm, h, f, h2):
    """Reference: the transition solved in floats with ``det`` and ``inv``."""
    quad = hm.facet_keys[f]
    p = HEX_CORNER_COORDS[[hm.hexes[h].tolist().index(v) for v in quad]]
    q = HEX_CORNER_COORDS[[hm.hexes[h2].tolist().index(v) for v in quad]]
    basis_from = np.column_stack([p[1] - p[0], p[2] - p[0],
                                  HEX_FACE_NORMALS[hm.cell_facets[h].index(f)]])
    basis_to = np.column_stack([q[1] - q[0], q[2] - q[0],
                                -HEX_FACE_NORMALS[hm.cell_facets[h2].index(f)]])
    assert int(round(np.linalg.det(basis_from))) != 0
    rot_mat = basis_to.astype(float) @ np.linalg.inv(basis_from.astype(float))
    t = q[0] - np.array([int(round(x)) for x in rot_mat @ p[0]], dtype=np.int64)
    return Transition(rotation_index(rot_mat), tuple(int(x) for x in t))


def test_face_gluing_matches_float_reference():
    """The integer adjugate solve gives the float solve's transition on
    every interior facet, in both cell orders."""
    meshes = [synth.composite_mesh(), synth.notched_box_mesh(4), synth.pie_mesh(5),
              synth.torus_mesh()] + [synth.random_glued_cubes(seed, 40) for seed in range(10)]
    checked = 0
    for hm in meshes:
        for f in range(hm.n_facets):
            if len(hm.facet_cells[f]) == 2:
                for h, h2 in (hm.facet_cells[f], hm.facet_cells[f][::-1]):
                    got = hm.face_gluing(h, f, h2)
                    assert got == float_face_gluing(hm, h, f, h2), (f, h, h2)
                    assert all(type(x) is int for x in got.t)
                    checked += 1
    assert checked > 1500


def test_face_gluing_table_cold_and_warm_agree(meshes):
    """On the fixtures and 10 blobs, a gluing solved on an emptied table
    equals the one read from a table that all their gluings have filled."""
    hms = list(meshes.values()) + [synth.random_glued_cubes(seed, 40) for seed in range(10)]
    calls = [(hm, h, f, h2) for hm in hms for f in range(hm.n_facets)
             if len(hm.facet_cells[f]) == 2
             for h, h2 in (hm.facet_cells[f], hm.facet_cells[f][::-1])]
    warm = [hm.face_gluing(h, f, h2) for hm, h, f, h2 in calls]
    assert _solve_gluing.cache_info().currsize < len(calls) // 10
    for (hm, h, f, h2), g in zip(calls, warm):
        _solve_gluing.cache_clear()
        assert hm.face_gluing(h, f, h2) == g, (f, h, h2)
    assert len(calls) > 1000


def test_construction_names_a_mirrored_hex(mirrored_box):
    """``HexMesh`` names the mirrored box's one interior facet, so
    ``face_gluing`` never meets a reflection."""
    f = synth.box_mesh(2, 1, 1).facet_boundary.index(False)
    with pytest.raises(MeshError, match=f"^facet {f} glues hex 0 to hex 1 by a reflection: "
                                        "one of them is mirrored$"):
        read_hex_mesh(str(mirrored_box))



def test_edge_fan_structure():
    hm = synth.pie_mesh(3)
    e = [x for x in hm.singular_edges() if not hm.edge_boundary[x]][0]
    facets, cells, closed = hm.edge_fan(e)
    assert closed and len(cells) == 3 and len(facets) == 3
    hm2 = synth.box_mesh(1, 1, 1)
    facets2, cells2, closed2 = hm2.edge_fan(0)
    assert not closed2 and len(facets2) == len(cells2) + 1


def test_edge_chains_close_a_loop_from_its_lowest_edge():
    hm = synth.box_mesh(1, 1, 1)  # vertex x + 2y + 4z
    bottom = hm.facet_edges[hm.facet_id[(0, 1, 2, 3)]]
    chains = hm.edge_chains(hm.edge_incidence(bottom), set())
    e = hm.edge_id
    assert chains == [([e[0, 1], e[1, 3], e[2, 3], e[0, 2]], [0, 1, 3, 2, 0])]


def test_edge_chains_leave_a_node_along_each_edge():
    hm = synth.box_mesh(3, 1, 1)  # vertices 0..3 along the x axis
    e = hm.edge_id
    line = [e[0, 1], e[1, 2], e[2, 3]]
    chains = hm.edge_chains(hm.edge_incidence(line), {1})
    assert chains == [([e[0, 1]], [1, 0]), ([e[1, 2], e[2, 3]], [1, 2, 3])]


def test_vertex_sectors_split_at_walls():
    hm = synth.box_mesh(2, 2, 2)  # cell x + 2y + 4z around centre vertex 13
    mid = {f for f, key in enumerate(hm.facet_keys)
           if all(hm.positions[v][0] == 1 for v in key)}  # the plane x = 1
    assert hm.vertex_sectors(13, set()) == [list(range(8))]
    assert hm.vertex_sectors(13, mid) == [[0, 2, 4, 6], [1, 3, 5, 7]]
    assert hm.vertex_sectors(0, mid) == [[0]]

import numpy as np
import pytest

from volmc import synth
from volmc.errors import MeshError
from volmc.octahedral import IDENTITY
from volmc.tetparam import ParamTetMesh, hex_to_param


def unit_tet():
    pos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    par = [np.array(pos, float)]
    return ParamTetMesh(pos, [(0, 1, 2, 3)], par)


def test_single_tet_basics():
    pm = unit_tet()
    assert len(pm.tets) == 1
    assert pm.n_facets == 4
    assert all(pm.facet_boundary[f] for f in range(pm.n_facets))


def test_flipped_param_rejected():
    pos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    par = [np.array([(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)], float)]
    with pytest.raises(MeshError):
        ParamTetMesh(pos, [(0, 1, 2, 3)], par)


def test_repeated_vertex_rejected():
    pos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(MeshError):
        ParamTetMesh(pos, [(0, 1, 2, 2)], [np.eye(4, 3)])


@pytest.mark.parametrize(
    "tet, corner_params",
    [
        ((0, 1, 2, 4), None),  # vertex id past the end
        ((0, 1, 2, -1), None),  # negative id, which would wrap to the last vertex
        ((0, 1, 2, 3), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, np.nan)]),
        ((0, 1, 2, 3), [(0, 0, 0), (1, 0, 0), (0, np.inf, 0), (0, 0, 1)]),
    ],
)
def test_bad_tet_rejected(tet, corner_params):
    pos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    par = np.array(corner_params if corner_params is not None else pos, float)
    with pytest.raises(MeshError, match="tet 0"):
        ParamTetMesh(pos, [tet], [par])


def test_hex_to_param_tet_count(meshes):
    for name, hm in meshes.items():
        pm = hex_to_param(hm)
        # hexes split into tets; every hex contributes the same number
        assert len(pm.tets) % len(hm.hexes) == 0, name
        assert len(pm.tets) // len(hm.hexes) == 12, name


def test_hex_to_param_transitions_are_rigid(meshes):
    """Across every interior facet, the gluing maps one chart's parameter
    values exactly onto the other's."""
    hm = meshes["pie3"]
    pm = hex_to_param(hm)
    for f in range(pm.n_facets):
        if pm.facet_boundary[f]:
            continue
        a, b = pm.facet_cells[f]
        g = pm.cell_gluing(a, f, b)
        for v in pm.facet_keys[f]:
            pa = pm.corner_param(a, v)
            pb = pm.corner_param(b, v)
            assert np.allclose(g.apply(pa), pb, atol=1e-12)


def test_hex_to_param_interior_gluings_identity():
    """Within one hex, the tets share a single chart."""
    hm = synth.box_mesh(1, 1, 1)
    pm = hex_to_param(hm)
    for f in range(pm.n_facets):
        if pm.facet_boundary[f]:
            continue
        a, b = pm.facet_cells[f]
        g = pm.cell_gluing(a, f, b)
        assert g.rot == IDENTITY


def test_singular_edges_match_hex(meshes):
    """The parametric singular set reproduces the hex-mesh singular set."""
    for name, hm in meshes.items():
        pm = hex_to_param(hm)
        hex_mids = set()
        for e in hm.singular_edges():
            if hm.edge_boundary[e]:
                continue
            a, b = hm.edge_vertices[e]
            hex_mids.add(tuple(np.round((hm.positions[a] + hm.positions[b]) / 2, 9)))
        par_mids = set()
        for e in pm.singular_edges():
            if pm.edge_boundary[e]:
                continue
            a, b = pm.edge_keys[e]
            par_mids.add(tuple(np.round((pm.positions[a] + pm.positions[b]) / 2, 9)))
        assert hex_mids == par_mids, name


def test_compact_preserves_geometry():
    pm = hex_to_param(synth.box_mesh(1, 1, 1))
    out, fmap = pm.compact()
    assert len(out.tets) == len(pm.live_cells())
    assert out.positions.shape[1] == 3
    for old, new in fmap.items():
        assert sorted(pm.facet_keys[old]) == sorted(out.facet_keys[new])


def test_split_edge_keeps_ids_and_matches_fresh_mesh():
    pm = hex_to_param(synth.box_mesh(2, 2, 2))
    e = next(e for e in range(pm.n_edges) if not pm.edge_boundary[e])
    facet_keys, edge_keys = list(pm.facet_keys), list(pm.edge_keys)
    split_facets, split_tets = list(pm.edge_facets[e]), list(pm.edge_cells[e])
    _, replaced = pm.split_edge(e, 0.5)

    assert pm.facet_keys[: len(facet_keys)] == facet_keys
    assert pm.edge_keys[: len(edge_keys)] == edge_keys
    assert not pm.edge_live[e]
    assert not any(pm.facet_live[f] for f in split_facets)
    assert sorted(replaced) == split_tets
    assert all(pm.tets[t] is None and len(kids) == 2 for t, kids in replaced.items())

    live = pm.live_cells()
    fresh = ParamTetMesh(pm.positions, [pm.tets[t] for t in live], [pm.params[t] for t in live])

    def incidence(m):
        """Live facets and edges by vertex key, their cells by vertex tuple."""
        facets = {
            m.facet_keys[f]: (sorted(m.tets[c] for c in m.facet_cells[f]), m.facet_boundary[f])
            for f in range(m.n_facets) if m.facet_live[f]
        }
        edges = {
            m.edge_keys[x]: (
                sorted(m.tets[c] for c in m.edge_cells[x]),
                m.edge_boundary[x],
                m.classify_edge(x).k,
                m.edge_fan(x).closed,
                sorted(m.facet_keys[f] for f in m.edge_facets[x]),
            )
            for x in range(m.n_edges) if m.edge_live[x]
        }
        return facets, edges

    assert incidence(pm) == incidence(fresh)

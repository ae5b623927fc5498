import numpy as np
import pytest

from volmc import synth
from volmc.errors import NotSeamlessError
from volmc.sanitize import (
    CutStructure,
    _branch_nodes,
    add_noise,
    detect_cut_structure,
    reanchor,
    sanitize,
    verify_seamless,
)
from volmc.tetparam import ParamTetMesh, hex_to_param


def _singular_set(pm):
    out = set()
    for e in pm.singular_edges():
        a, b = pm.edge_keys[e]
        mid = (pm.positions[a] + pm.positions[b]) / 2
        out.add(tuple(np.round(mid, 9)))
    return out


def test_clean_input_already_seamless(meshes):
    pm = hex_to_param(meshes["pie3"])
    assert verify_seamless(pm) == []


def test_noise_breaks_seamlessness(meshes):
    pm = add_noise(hex_to_param(meshes["pie3"]), eps=1e-8, seed=0)
    assert verify_seamless(pm) != []


@pytest.mark.parametrize("name", ["box", "pie3", "pie5", "notch", "torus", "composite"])
def test_sanitize_restores_exact_seamlessness(meshes, name):
    pm = hex_to_param(meshes[name])
    noisy = add_noise(pm, eps=1e-8, seed=0)
    fixed = sanitize(noisy)
    assert verify_seamless(fixed) == []


@pytest.mark.parametrize("name", ["pie3", "pie5", "composite"])
def test_sanitize_preserves_singular_set(meshes, name):
    pm = hex_to_param(meshes[name])
    noisy = add_noise(pm, eps=1e-8, seed=1)
    fixed = sanitize(noisy)
    assert _singular_set(fixed) == _singular_set(pm), name


@pytest.mark.parametrize("name", ["pie3", "notch", "composite", "torus"])
def test_noise_limit(meshes, name):
    """Noise of 1e-7 is repaired; at 1e-6 the re-anchored chart transitions
    no longer fit an octahedral rotation within fit_rotation's 1e-6."""
    pm = hex_to_param(meshes[name])
    for seed in range(3):
        assert verify_seamless(sanitize(add_noise(pm, eps=1e-7, seed=seed))) == []
        with pytest.raises(NotSeamlessError, match="no octahedral rotation matches the charts across facet"):
            sanitize(add_noise(pm, eps=1e-6, seed=seed))


def test_chart_that_fits_no_rotation_is_reported():
    """Tet 0's chart turned by 0.3 rad about z fits no octahedral rotation
    across its three interior facets; its boundary facets stay aligned."""
    pm = hex_to_param(synth.box_mesh(1, 1, 1))
    c, s = np.cos(0.3), np.sin(0.3)
    turn = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    params = [p @ turn.T if t == 0 else p for t, p in enumerate(pm.params)]
    assert sorted(f for f in pm.cell_facets[0] if not pm.facet_boundary[f]) == [5, 6, 18]
    report = verify_seamless(ParamTetMesh(pm._positions, pm.tets, params))
    assert report == [("transition-fit", f, None) for f in (5, 6, 18)]


def test_sanitize_idempotent_on_clean_input(meshes):
    pm = hex_to_param(meshes["box"])
    fixed = sanitize(pm)
    assert verify_seamless(fixed) == []
    assert _singular_set(fixed) == _singular_set(pm)


def test_reanchor_removes_tree_transitions(meshes):
    pm = hex_to_param(meshes["pie3"])
    out = reanchor(pm)
    assert verify_seamless(out) == []


def test_cut_structure_shape_box(meshes):
    """A parametrization of a plain box: no interior cuts, six boundary
    alignment sheets, eight nodes."""
    cs = detect_cut_structure(reanchor(hex_to_param(meshes["box"])))
    cut_sheets = [s for s in cs.sheets if s.kind == "cut"]
    align_sheets = [s for s in cs.sheets if s.kind == "align"]
    assert len(cut_sheets) == 0
    assert len(align_sheets) == 6
    assert len(cs.nodes) == 8


def test_cut_structure_pie3(meshes):
    cs = detect_cut_structure(reanchor(hex_to_param(meshes["pie3"])))
    cut_sheets = [s for s in cs.sheets if s.kind == "cut"]
    assert len(cut_sheets) == 1  # one interior cut fan off the singular axis


def test_different_noise_seeds_converge(meshes):
    pm = hex_to_param(meshes["pie3"])
    fixed = [sanitize(add_noise(pm, eps=1e-8, seed=s)) for s in (0, 5)]
    for f in fixed:
        assert verify_seamless(f) == []
        assert _singular_set(f) == _singular_set(pm)


@pytest.mark.parametrize("nodes, added", [(set(), {0, 1}), ({0}, {1})])
def test_cut_edge_cycle_gets_nodes(nodes, added):
    """A closed cycle of cut edges: without a node it gets its two lowest
    vertices as nodes; from a node it gets its lowest other vertex."""
    hm = synth.box_mesh(1, 1, 1)  # the bottom face's boundary: vertices 0, 1, 3, 2
    cs = CutStructure(hm)
    cs.cut_edges = set(hm.facet_edges[hm.facet_id[(0, 1, 2, 3)]])
    cs.nodes = set(nodes)
    _branch_nodes(cs, hm.edge_incidence(cs.cut_edges))
    assert cs.nodes == set(nodes) | added

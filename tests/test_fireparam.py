import numpy as np
import pytest

from volmc import synth
from volmc.cellcomplex import (
    base_complex,
    extract_complex,
    motorcycle_complex,
    reduce_complex,
    split_tori,
)
from volmc.errors import MeshError, NotSeamlessError
from volmc.firehex import trace_hex
from volmc.fireparam import SplitForest, split_opp, trace_param, trace_param_base
from volmc.sanitize import add_noise, sanitize
from volmc.tetparam import ParamTetMesh, hex_to_param


def _counts(mesh):
    mc = motorcycle_complex(mesh, seed=0)
    return (
        len(mc.blocks),
        len(reduce_complex(mc, mode="regular").blocks),
        len(reduce_complex(mc, mode="full").blocks),
    )


@pytest.mark.parametrize("name", ["box", "pie3", "pie5", "torus"])
def test_param_matches_hex_pipeline(meshes, name):
    hm = meshes[name]
    assert _counts(hex_to_param(hm)) == _counts(hm)


def _layouts(mc):
    """The multiset of wall layout verdicts, dims in ascending order (the two
    kinds may lay a wall out transposed)."""
    return sorted((w.annulus, w.slit, w.dims and tuple(sorted(w.dims))) for w in mc.walls)


def _layout_levels(hm, pm):
    """The complexes of the hex mesh ``hm`` and of its parametrization
    ``pm``, each keyed by level: raw, regular, full and base."""
    out = []
    for mesh, raw in ((hm, extract_complex(hm, trace_hex(hm, seed=0))),
                      (pm, extract_complex(*trace_param(pm, seed=0)))):
        mc = split_tori(raw)
        out.append({"raw": raw, "regular": reduce_complex(mc, mode="regular"),
                    "full": reduce_complex(mc, mode="full"), "base": base_complex(mesh, seed=0)})
    return out


def test_wall_layouts_match_across_mesh_kinds(meshes):
    """The hex and tet layouts of the same walls agree: annulus, slit and
    dims, on the fixtures at every level and on the base complex of blobs
    (their raw complexes differ by tie order)."""
    seen = set()
    for name, hm in meshes.items():
        hex_levels, tet_levels = _layout_levels(hm, hex_to_param(hm))
        for level, mc in hex_levels.items():
            assert _layouts(mc) == _layouts(tet_levels[level]), (name, level)
            seen.update((w.annulus, w.slit) for w in tet_levels[level].walls)
    for seed in range(3):
        hm = synth.random_glued_cubes(seed, 40)
        assert _layouts(base_complex(hm, seed=0)) == _layouts(base_complex(hex_to_param(hm), seed=0))
    assert {(True, False), (False, True)} <= seen  # annulus and slit tet walls both occur


def test_param_blocks_partition_tets(meshes):
    hm = meshes["pie3"]
    mc = motorcycle_complex(hex_to_param(hm), seed=0)
    seen = []
    for b in mc.blocks:
        seen.extend(b.cells)
    assert sorted(seen) == list(range(mc.mesh.n_cells))


@pytest.mark.parametrize("name, blocks", [("pie3", 3), ("pie5", 5)])
def test_sanitized_pie_lights_sources_on_live_tets(meshes, name, blocks):
    """On a sanitized noisy pie, lighting one fire source splits the tet of
    a later one. That source is lit in the live descendants of its tet that
    hold its edge (one or both children), and the trace gives the hex
    pipeline's blocks."""
    hm = meshes[name]
    pm = sanitize(add_noise(hex_to_param(hm), seed=0))
    mc = motorcycle_complex(pm, seed=0)
    assert mc.mesh.n_cells > pm.n_cells  # the trace split tets
    assert len(mc.blocks) == _counts(hm)[0] == blocks
    assert sorted(c for b in mc.blocks for c in b.cells) == list(range(mc.mesh.n_cells))


def _sanitized_notch(n, noise_seed):
    return sanitize(add_noise(hex_to_param(synth.notched_box_mesh(n)), eps=1e-8, seed=noise_seed))


def test_split_of_a_tagged_facet_is_a_named_error():
    """On notch2 with noise seed 0 a split kills a facet that the fire
    tagged earlier. Tags are not carried over to its pieces, so the trace
    fails, with a MeshError that names the facet."""
    with pytest.raises(MeshError, match=r"^tagged facet \d+ was split after the fire reached it$"):
        trace_param(_sanitized_notch(2, 0), seed=0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_angle_sum_is_a_named_error():
    """On notch3 with noise seed 1 a split leaves a sliver tet whose
    dihedral angles are NaN; the edge's singularity test names the edge."""
    with pytest.raises(NotSeamlessError, match=r"^edge \d+ angle sum is NaN"):
        trace_param(_sanitized_notch(3, 1), seed=0)


def test_param_base_complex_matches_hex(meshes):
    for name in ("box", "pie3", "notch"):
        hm = meshes[name]
        bc_hex = base_complex(hm, seed=0)
        bc_par = base_complex(hex_to_param(hm), seed=0)
        assert len(bc_hex.blocks) == len(bc_par.blocks), name


def test_param_trace_deterministic(meshes):
    pm = hex_to_param(meshes["pie3"])
    w1, f1 = trace_param(pm, seed=3)
    w2, f2 = trace_param(pm, seed=3)
    assert f1.keys() == f2.keys()
    assert len(w1.tets) == len(w2.tets)


def test_base_trace_superset(meshes):
    pm = hex_to_param(meshes["pie3"])
    w1, std = trace_param(pm, seed=0)
    w2, base = trace_param_base(pm, seed=0)
    # base-complex walls keep running where the standard trace stops
    assert len(base) >= len(std)


def test_split_opp_follows_a_plane_through_an_axis_flip():
    # Two stacked hexes; the upper one's charts are turned half way about z
    # and shifted, so x = 0 in the lower chart is x = 0.4 in the upper one.
    base = hex_to_param(synth.box_mesh(1, 1, 2))
    pos = base.positions
    upper = [pos[list(t)].mean(axis=0)[2] > 1 for t in base.tets]
    turn, shift = np.diag([-1.0, -1.0, 1.0]), np.array([0.4, 0.0, 0.0])
    params = [p @ turn.T + shift if up else p for p, up in zip(base.params, upper)]
    pm = ParamTetMesh(pos, base.tets, params)

    def on_side(g):  # a boundary facet in the plane x = 0 of the positions
        return pm.facet_boundary[g] and all(pos[v][0] == 0 for v in pm.facet_keys[g])

    e = pm.edge_id[tuple(v for v in range(len(pos)) if pos[v][0] == 0 and pos[v][2] == 1)]
    f = next(g for g in pm.edge_facets[e] if on_side(g) and not upper[pm.anchor(g)])
    t = next(c for c in pm.edge_cells[e] if upper[c] and any(on_side(g) for g in pm.cell_facets[c]))
    assert pm.fan_transition(e, pm.anchor(f), t).apply_vector((1, 0, 0))[0] == -1
    n_cells = pm.n_cells
    g = split_opp(pm, e, t, f, SplitForest(pm))
    assert g is not None and g != f and on_side(g)
    assert pm.iso_plane(g, t) == (0, 0.4)
    assert pm.n_cells == n_cells  # the plane runs along the facet, so nothing was split

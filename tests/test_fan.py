"""Properties of edge fans and the walks over them, on hex meshes and their
tet parametrizations."""

import gc

import pytest

from volmc import synth
from volmc.hexmesh import HexMesh
from volmc.tetparam import hex_to_param

SHAPES = {
    "box222": lambda: synth.box_mesh(2, 2, 2),
    "pie3x2": lambda: synth.pie_mesh(3, 2),
    "pie5x1": lambda: synth.pie_mesh(5, 1),
    "notch3": lambda: synth.notched_box_mesh(3),
    "torus8": lambda: synth.torus_mesh(8),
}


def _meshes():
    for name, make in SHAPES.items():
        hm = make()
        yield name, hm
        yield name + "-param", hex_to_param(hm)


def _regular_edges(mesh):
    live = getattr(mesh, "edge_live", None)
    return [
        e for e in range(mesh.n_edges)
        if (live is None or live[e]) and not mesh.singular(e)
    ]


def test_opp_facet_is_an_involution():
    pairs = backward = 0
    for name, mesh in _meshes():
        for e in _regular_edges(mesh):
            facets, _, closed = mesh.edge_fan(e)
            for f in facets:
                g = mesh.opp_facet(e, f)
                if g is None:
                    continue
                assert mesh.opp_facet(e, g) == f, (name, e, f, g)
                pairs += 1
                # The last facet of an open fan has no cell ahead of it, so
                # its continuation can only come from the backward walk.
                backward += not closed and f == facets[-1]
    assert pairs > 0 and backward > 0


def test_fan_transition_round_trip_is_identity():
    for name, mesh in _meshes():
        if mesh.kind != "tet":
            continue
        for e in _regular_edges(mesh):
            _, cells, _ = mesh.edge_fan(e)
            for a in cells:
                for b in cells:
                    there = mesh.fan_transition(e, a, b)
                    back = mesh.fan_transition(e, b, a)
                    assert there.compose(back).is_identity(1e-9), (name, e, a, b)


@pytest.mark.parametrize("param", [False, True])
def test_fan_accessors_wrap_closed_and_stop_open(param):
    mesh = synth.box_mesh(2, 2, 2)
    if param:
        mesh = hex_to_param(mesh)
    fans = [mesh.edge_fan(e) for e in range(mesh.n_edges)]
    closed = next(fan for fan in fans if fan.closed)
    n = len(closed.cells)
    assert len(closed.facets) == n
    for i in range(n):
        assert closed.facet(i - n) == closed.facet(i) == closed.facet(i + n) == closed.facets[i]
        assert closed.cell(i - n) == closed.cell(i) == closed.cell(i + n) == closed.cells[i]
    opened = next(fan for fan in fans if not fan.closed)
    m = len(opened.cells)
    assert len(opened.facets) == m + 1
    assert opened.facet(-1) is None and opened.facet(m + 1) is None
    assert opened.cell(-1) is None and opened.cell(m) is None
    assert opened.facet(0) == opened.facets[0] and opened.facet(m) == opened.facets[m]
    assert opened.cell(m - 1) == opened.cells[m - 1]
    for f in (opened.facets[0], opened.facets[-1]):
        assert mesh.facet_boundary[f]


def test_hex_edge_incidence_is_the_fans_tuples(meshes):
    """On a hex mesh the fans hold the edge incidence: ``edge_facets[e]``
    and ``edge_cells[e]`` are the fan's own tuples, whose contents are the
    incidence recomputed from ``cell_facets`` and ``facet_edges``."""
    blobs = [synth.random_glued_cubes(seed, 60) for seed in range(5)]
    for mesh in list(meshes.values()) + blobs:
        facets_at = [set() for _ in range(mesh.n_edges)]
        cells_at = [set() for _ in range(mesh.n_edges)]
        for c in range(mesh.n_cells):
            for f in mesh.cell_facets[c]:
                for e in mesh.facet_edges[f]:
                    facets_at[e].add(f)
                    cells_at[e].add(c)
        for e in range(mesh.n_edges):
            fan = mesh.edge_fan(e)
            assert mesh.edge_facets[e] is fan.facets and mesh.edge_cells[e] is fan.cells
            assert sorted(fan.facets) == sorted(facets_at[e])
            assert sorted(fan.cells) == sorted(cells_at[e])


@pytest.mark.parametrize("param", [False, True])
def test_key_maps_are_built_on_first_read(param):
    mesh = synth.pie_mesh(3)
    if param:
        mesh = hex_to_param(mesh)
    assert mesh._facet_id is None and mesh._edge_id is None
    assert mesh.facet_id == {key: f for f, key in enumerate(mesh.facet_keys)}
    assert mesh.edge_id == {key: e for e, key in enumerate(mesh.edge_keys)}


@pytest.mark.parametrize("read_first", [False, True])
def test_tet_split_keeps_every_earlier_id(read_first):
    """A split numbers only its new keys, after all earlier ones, whether
    the key maps were read before it or not."""
    pm = hex_to_param(synth.box_mesh(2, 1, 1))
    facets, edges = list(pm.facet_keys), list(pm.edge_keys)
    if read_first:
        pm.facet_id, pm.edge_id
    pm.split_edge(pm.edge_id[edges[0]], 0.5)
    pm.split_edge(pm.n_edges - 1, 0.25)
    assert pm.facet_keys[:len(facets)] == facets and pm.edge_keys[:len(edges)] == edges
    assert len(pm.facet_keys) > len(facets) and len(pm.edge_keys) > len(edges)
    assert pm.facet_id == {key: f for f, key in enumerate(pm.facet_keys)}
    assert pm.edge_id == {key: e for e, key in enumerate(pm.edge_keys)}


def test_hex_mesh_leaves_few_tracked_containers():
    """Incidence tuples of ints are untracked by the cyclic collector once
    it has seen them, so a kept hex mesh adds few objects for later
    collections to walk: its fans and its ``cell_facets`` lists."""
    blob = synth.random_glued_cubes(3, 1000)
    positions, hexes = blob.positions, blob.hexes
    del blob
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    mesh = HexMesh(positions, hexes)
    gc.collect()
    gc.collect()
    assert (len(gc.get_objects()) - before) / mesh.n_cells <= 8

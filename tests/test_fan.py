"""Properties of edge fans and the walks over them, on hex meshes and their
tet parametrizations."""

import pytest

from volmc import synth
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

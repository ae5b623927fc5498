"""Local wall retraction against the retraction loop it replaced.

The reference below is the plain greedy loop: test every wall, remove the
farthest removable one (ties by lowest wall id), re-extract the whole
complex, repeat. ``reduce_complex`` must reach the same complex: the same
block count and the same wall facet sets, with no removable wall left.
It assembles its result from its own state, so that result must also equal
a fresh extraction of its field in every attribute and id.
"""

import pytest
from conftest import FIXTURE_BUILDERS
from hypothesis import given, settings
from hypothesis import strategies as st

from volmc import synth
from volmc.cellcomplex import (
    extract_complex,
    motorcycle_complex,
    reduce_complex,
    removable_walls,
    split_tori,
)
from volmc.fireparam import trace_param
from volmc.firehex import trace_hex
from volmc.tetparam import hex_to_param

MODES = ("regular", "full")


def reference_reduce(mc, mode):
    """(reduced complex, number of walls formed by merging two or more walls)."""
    merges = 0
    while True:
        cands = removable_walls(mc, mode)
        if not cands:
            return mc, merges
        w = mc.walls[min(cands, key=lambda wid: (-mc.walls[wid].distance, wid))]
        field = mc.field.copy()
        for f in w.facets:
            del field[f]
        nxt = extract_complex(mc.mesh, field)
        merges += sum(len({mc.wall_of[f] for f in w2.facets}) > 1 for w2 in nxt.walls)
        mc = nxt


def _walls(mc):
    return sorted(sorted(w.facets) for w in mc.walls)


def _attrs(mc):
    """Everything extraction numbers or derives, with its ids, and the edge
    table that reduction keeps current instead of re-deriving it."""
    return {
        "edge pairs": mc._edges.pair,
        "edge rings": mc._edges.ring,
        "walls": [(w.id, w.facets, w.boundary, w.distance, w.annulus, w.slit, w.dims,
                   mc.wall_sides[w.id], mc.wall_arcs[w.id]) for w in mc.walls],
        "arcs": [(a.id, a.edges, a.vertices, a.walls, a.singular, a.tarc, a.length)
                 for a in mc.arcs],
        "nodes": mc.nodes,
        "blocks": [(b.id, b.cells) for b in mc.blocks],
        "wall_of": mc.wall_of,
        "arc_of": mc.arc_of,
        "block_of": mc.block_of,
    }


def _assert_same_as_extraction(red):
    fresh = _attrs(extract_complex(red.mesh, red.field))
    got = _attrs(red)
    for key, want in fresh.items():
        assert got[key] == want, key


def _check(mc, mode):
    """Compare with the reference and with a fresh extraction of the result;
    returns the reference's merge count."""
    ref, merges = reference_reduce(mc, mode)
    red = reduce_complex(mc, mode=mode)
    assert len(red.blocks) == len(ref.blocks)
    assert _walls(red) == _walls(ref)
    assert removable_walls(red, mode) == []
    _assert_same_as_extraction(red)
    return merges


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.integers(10, 120))
def test_random_blobs_match_reference(seed, n):
    mc = motorcycle_complex(synth.random_glued_cubes(seed, n), seed=0)
    for mode in MODES:
        _check(mc, mode)


@pytest.mark.parametrize("name", ["box", "pie3", "notch"])
def test_param_fixtures_match_reference(meshes, name):
    pm = hex_to_param(meshes[name])
    mc = motorcycle_complex(pm, seed=0)
    assert mc.mesh.kind != "hex"
    for mode in MODES:
        _check(mc, mode)


@pytest.mark.parametrize("name", ["pie3", "pie5", "notch", "composite"])
def test_hex_fixtures_match_reference(complexes, name):
    for mode in MODES:
        _check(complexes[name], mode)


def _traced(name):
    """(mesh, wall field) at seed 0: a hex fixture, ``param-`` one through
    ``trace_param(hex_to_param(...))``, or ``blob-<seed>`` with 80 hexes."""
    if name.startswith("blob-"):
        hm = synth.random_glued_cubes(int(name[5:]), 80)
    else:
        hm = FIXTURE_BUILDERS[name.removeprefix("param-")]()
    if name.startswith("param-"):
        return trace_param(hex_to_param(hm), seed=0)
    return hm, trace_hex(hm, seed=0)


@pytest.mark.parametrize("name", [*FIXTURE_BUILDERS, *(f"blob-{k}" for k in range(6)),
                                  "param-box", "param-pie3", "param-notch"])
def test_read_order_does_not_change_wall_facts(name):
    """Wall facts are derived on first read, from the edge table each wall
    was built on; reduction goes on changing its own table after it built a
    wall. Read after both reductions, the raw complex's facts, and read
    first, the reduced complexes', equal those of a fresh extraction."""
    mesh, field = _traced(name)
    for late in (True, False):
        raw = split_tori(extract_complex(mesh, field))
        plus, full = (reduce_complex(raw, mode) for mode in MODES)
        for mc in (raw, plus, full) if late else (full, plus, raw):
            assert _attrs(mc) == _attrs(extract_complex(mc.mesh, mc.field))


def test_t_junction_merge_covered():
    """Removing the stem of a T-junction leaves the two walls of its bar
    straight across the edge, and they become one wall."""
    mc = motorcycle_complex(synth.random_glued_cubes(3, 120), seed=0)
    assert sum(_check(mc, mode) for mode in MODES) > 0


def test_wall_between_merged_blocks_stays():
    """Two cuts through the torus ring make two blocks that share both cut
    walls. Removing one cut merges the blocks, so the other cut then has the
    merged block on both sides and must stay, though it was removable before."""
    hm = synth.torus_mesh()
    field = trace_hex(hm, seed=0)
    for a, b in ((0, 1), (4, 5)):
        (f,) = set(hm.cell_facets[a]) & set(hm.cell_facets[b])
        field.setdefault(f, 0)
    mc = extract_complex(hm, field)
    for mode in MODES:
        assert len(mc.blocks) == 2 and len(removable_walls(mc, mode)) == 2
        _check(mc, mode)
        assert len(reduce_complex(mc, mode).blocks) == 1


def test_irreducible_complex_returned_as_is(complexes):
    assert reduce_complex(complexes["box"], mode="full") is complexes["box"]
    for mode in MODES:
        red = reduce_complex(complexes["composite"], mode=mode)
        assert red is not complexes["composite"]
        assert reduce_complex(red, mode=mode) is red

import gc
import logging
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from test_reduce import reference_reduce

from volmc import cellcomplex, synth
from volmc.cellcomplex import (
    _lay_out_walls,
    base_complex,
    check_grid_blocks,
    extract_complex,
    grid_block_coords,
    is_cuboid,
    motorcycle_complex,
    reduce_complex,
    removable_walls,
    split_tori,
)
from volmc.errors import IntegrityError
from volmc.firehex import trace_hex, trace_hex_base
from volmc.fireparam import trace_param, trace_param_base
from volmc.hexmesh import HexMesh
from volmc.tetparam import hex_to_param

EXPECTED_BLOCKS = {
    # raw (post torus split), regular, full
    "box": (1, 1, 1),
    "pie3": (3, 3, 2),
    "pie5": (5, 5, 3),
    "notch": (6, 6, 3),
    "torus": (1, 1, 1),
    "composite": (8, 7, 3),
}


def test_block_counts(complexes):
    for name, mc in complexes.items():
        counts = (
            len(mc.blocks),
            len(reduce_complex(mc, mode="regular").blocks),
            len(reduce_complex(mc, mode="full").blocks),
        )
        assert counts == EXPECTED_BLOCKS[name], name


def test_blocks_partition_cells(complexes):
    for name, mc in complexes.items():
        seen = []
        for b in mc.blocks:
            seen.extend(b.cells)
        assert sorted(seen) == list(range(mc.mesh.n_cells)), name


def test_ids_follow_lowest_elements(complexes):
    """Extraction numbers walls by lowest facet, blocks by lowest cell and
    nodes by vertex; reduction numbers its result the same way."""
    for name, mc in complexes.items():
        for c in (mc, reduce_complex(mc, mode="full")):
            for items, low in ((c.walls, lambda w: min(w.facets)),
                               (c.blocks, lambda b: min(b.cells))):
                keys = [low(x) for x in items]
                assert keys == sorted(keys), name
                assert [x.id for x in items] == list(range(len(items))), name
            assert c.nodes == sorted(c.nodes), name  # a node's id is its index


def test_grid_oracle_all_levels(complexes):
    for name, mc in complexes.items():
        for mode in ("regular", "full"):
            red = reduce_complex(mc, mode=mode)
            dims = check_grid_blocks(red)
            for (l, m, n), b in zip(dims, red.blocks):
                assert l * m * n == len(b.cells), name
        check_grid_blocks(mc)


def test_grid_oracle_rejects_non_grid():
    # L-shaped cell set: 3 cells of a 2x2x1 slab
    hm = synth.box_mesh(2, 2, 1)
    field = trace_hex(hm, seed=0)
    with pytest.raises(IntegrityError):
        grid_block_coords(hm, field, [0, 1, 2])


def _ring():
    """The unwalled ring of the torus: its seed hex is reached by two paths
    whose transitions differ."""
    hm = synth.torus_mesh()
    return hm, {}, range(hm.n_cells)


def _pie_cut_open():
    """Pie5 cut open between hexes 4 and 0: five quarter turns around its
    axis put hex 4 on hex 0's grid cell."""
    hm = synth.pie_mesh(5, 1)
    return hm, {f: 0 for f in range(hm.n_facets) if sorted(hm.facet_cells[f]) == [0, 4]}, range(5)


def _two_walled_off():
    hm = synth.box_mesh(2, 1, 1)
    return hm, {f: 0 for f in range(hm.n_facets) if len(hm.facet_cells[f]) == 2}, [0, 1]


def _l_of_three():
    return synth.mesh_from_cells([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), {}, range(3)


@pytest.mark.parametrize("build, message", [
    (_ring, r"block chart transport is inconsistent \(wrap\)"),
    (_pie_cut_open, "two hexes map to the same grid cell"),
    (_two_walled_off, "block flood fill did not reach all cells"),
    (_l_of_three, r"block cells do not fill a \(2, 2, 1\) grid"),
], ids=["wrap", "same-cell", "unreached", "unfilled"])
def test_grid_oracle_failures(build, message):
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        grid_block_coords(*build())


def test_torus_classification():
    hm = synth.torus_mesh()
    mc = extract_complex(hm, trace_hex(hm, seed=0))
    assert len(mc.blocks) == 1
    assert not is_cuboid(mc, 0)
    split = split_tori(mc)
    for b in split.blocks:
        assert is_cuboid(split, b.id)
    check_grid_blocks(split)


def _ring_mesh(m, turns, k=8):
    """Ring of k sections of m x m hexes, closed after ``turns`` quarter
    turns of the cross-section."""
    def vid(j, a, b):
        if j == k:
            j = 0
            for _ in range(turns):
                a, b = b, m - a
        return (j * (m + 1) + a) * (m + 1) + b

    positions = [((2 + a / m) * math.cos(2 * math.pi * j / k),
                  (2 + a / m) * math.sin(2 * math.pi * j / k), b / m)
                 for j in range(k) for a in range(m + 1) for b in range(m + 1)]
    hexes = []
    for j in range(k):
        for a in range(m):
            for b in range(m):
                quad = ((a, b), (a + 1, b), (a + 1, b + 1), (a, b + 1))
                hexes.append([vid(j + 1, *p) for p in quad] + [vid(j, *p) for p in quad])
    return HexMesh(positions, hexes)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("turns", [0, 1, 2])
def test_thick_and_twisted_rings_split_into_one_cuboid(m, turns):
    """Both pipelines find one toroidal block and cut it with one wall
    across the ring: m * m hex facets, or twice as many tet facets; the
    confined flood reaches past its seed facets for m > 1."""
    hm = _ring_mesh(m, turns)
    for mesh, field, per_quad in ((hm, trace_hex(hm, seed=0), 1),
                                  (*trace_param(hex_to_param(hm), seed=0), 2)):
        raw = extract_complex(mesh, field)
        assert [is_cuboid(raw, b.id) for b in raw.blocks] == [False]
        split = split_tori(raw)
        assert [is_cuboid(split, b.id) for b in split.blocks] == [True]
        cut = [w for w in split.walls if not w.facets <= raw.wall_facet_set()]
        assert [len(w.facets) for w in cut] == [per_quad * m * m]
        if mesh is hm:
            assert check_grid_blocks(split) == [(m, m, 8)]


def _pie_ring_mesh(k, n=8):
    """The bottom face of ``synth.pie_mesh(k, 1)`` (vertices 0 to 2k)
    swept around a ring of n sections: a singular loop inside, and k
    toroidal sectors bounded by interior spoke walls."""
    pie, m = synth.pie_mesh(k, 1), 2 * k + 1
    positions = [((3 + x / 2) * math.cos(2 * math.pi * j / n),
                  (3 + x / 2) * math.sin(2 * math.pi * j / n), y / 2)
                 for j in range(n) for x, y, _ in pie.positions[:m]]
    return HexMesh(positions, [[(j + 1) % n * m + v for v in h[:4]] + [j * m + v for v in h[:4]]
                               for j in range(n) for h in pie.hexes.tolist()])


@pytest.mark.parametrize("k", [3, 5])
def test_tori_around_one_singular_loop_split_into_cuboids(k):
    """Once one of the k tori is cut, the lowest arc of the next is that
    cut's T-arc, which has no seed facet at its lowest vertex; the cut is
    seeded at the next arc that has one. Both entry points give k cuboids
    on both mesh kinds, which reduce as the reference does."""
    hm = _pie_ring_mesh(k)
    for mesh in (hm, hex_to_param(hm)):
        for entry in (motorcycle_complex, base_complex):
            mc = entry(mesh, seed=0)
            assert len(mc.blocks) == k, (mesh.kind, entry.__name__)
            if mesh is hm:
                assert check_grid_blocks(mc) == [(1, 1, 8)] * k
            for mode in ("regular", "full"):
                ref, _ = reference_reduce(mc, mode)
                red = reduce_complex(mc, mode=mode)
                assert len(red.blocks) == len(ref.blocks), (mesh.kind, entry.__name__, mode)
                assert _wall_sets(red) == _wall_sets(ref), (mesh.kind, entry.__name__, mode)


def _disjoint_union(*parts):
    positions, hexes = [], []
    for hm in parts:
        hexes += (hm.hexes + len(positions)).tolist()
        positions += hm.positions.tolist()
    return HexMesh(positions, hexes)


def test_corners_count_for_their_own_block():
    """A torus ring beside pie columns, whose blocks share vertices: every
    block is told apart, whichever comes first."""
    for parts, torus_first in (((synth.torus_mesh(), synth.pie_mesh(3)), True),
                               ((synth.pie_mesh(3), synth.torus_mesh()), False)):
        hm = _disjoint_union(*parts)
        mc = extract_complex(hm, trace_hex(hm, seed=0))
        got = [is_cuboid(mc, b.id) for b in mc.blocks]
        assert got == ([False] + [True] * 3 if torus_first else [True] * 3 + [False])


def _sector_corners(mc):
    """Reference for ``block_corners``: corners per block, counted as the
    vertex sectors, per vertex, whose cells' octants sum to one."""
    mesh, corners = mc.mesh, [0] * len(mc.blocks)
    octants = (lambda c, v: 1.0) if mesh.kind == "hex" else mesh.cell_corner_octants
    for v in range(mesh.n_vertices):
        for sector in mesh.vertex_sectors(v, mc.field):
            if abs(sum(octants(c, v) for c in sector) - 1.0) < 1e-6:
                corners[mc.block_of[sector[0]]] += 1
    return corners


def test_block_corners_match_the_vertex_sector_count(meshes):
    """On the unsplit, raw, full and base complexes of the fixtures, of ten
    blobs and of three parametrizations, ``block_corners`` equals the
    per-vertex sector count; a ring's one block is a torus, with 0. A mesh
    of no hexes has no corners."""
    blobs = [synth.random_glued_cubes(s, 60) for s in range(10)]
    params = [hex_to_param(meshes[name]) for name in ("box", "pie3", "notch")]
    for mesh in [*meshes.values(), *blobs, *params]:
        raw = motorcycle_complex(mesh, seed=0)
        for mc in (extract_complex(*cellcomplex._trace(mesh, 0)), raw,
                   reduce_complex(raw, mode="full"), base_complex(mesh, seed=0)):
            assert mc.mesh.block_corners(mc.field, mc.block_of, len(mc.blocks)) == _sector_corners(mc)
    for turns in (0, 1, 2):
        hm = _ring_mesh(2, turns)
        for mesh in (hm, hex_to_param(hm)):
            mc = extract_complex(*cellcomplex._trace(mesh, 0))
            assert mc.mesh.block_corners(mc.field, mc.block_of, 1) == _sector_corners(mc) == [0]
    assert HexMesh(np.empty((0, 3)), np.empty((0, 8))).block_corners({}, {}, 0) == []


def test_block_with_a_reflex_edge_is_an_integrity_error():
    """An L-shaped block of three hexes has 10 corners, which ``is_cuboid``
    rejects. Extraction refuses its field first (a 270-degree cell gap), so
    the complex is assembled by hand."""
    hm = synth.box_mesh(2, 2, 1)
    walls = [f for f in range(hm.n_facets) if hm.facet_boundary[f]] + hm.cell_facets[3]
    mc = cellcomplex.MotorcycleComplex(hm, dict.fromkeys(walls, 0))
    cellcomplex._add_blocks(mc, lambda c: c == 3)
    assert [sorted(b.cells) for b in mc.blocks] == [[0, 1, 2], [3]]
    with pytest.raises(IntegrityError, match=r"^block 0 has 10 corners \(must be 0 or 8\)$"):
        is_cuboid(mc, 0)
    assert is_cuboid(mc, 1)


def test_reduction_monotone_and_irreducible(complexes):
    for name, mc in complexes.items():
        plus = reduce_complex(mc, mode="regular")
        full = reduce_complex(mc, mode="full")
        assert len(full.blocks) <= len(plus.blocks) <= len(mc.blocks), name
        assert removable_walls(full, mode="full") == [], name
        assert removable_walls(plus, mode="regular") == [], name


@pytest.mark.parametrize("entry", [reduce_complex, removable_walls])
def test_unknown_reduction_mode_raises(complexes, entry):
    with pytest.raises(ValueError, match=r"^unknown reduction mode 'partial'$"):
        entry(complexes["pie3"], mode="partial")


def test_reduction_keeps_wall_subset(complexes):
    for name, mc in complexes.items():
        for mode in ("regular", "full"):
            red = reduce_complex(mc, mode=mode)
            assert red.wall_facet_set() <= mc.wall_facet_set(), name


def test_regular_reduction_preserves_singular_walls(complexes):
    """Regular reduction never removes a wall touching a singular arc."""
    for name, mc in complexes.items():
        plus = reduce_complex(mc, mode="regular")
        mesh = mc.mesh
        dropped = mc.wall_facet_set() - plus.wall_facet_set()
        for f in dropped:
            quad = mesh.facet_corners[f]
            for i in range(4):
                a, b = quad[i], quad[(i + 1) % 4]
                e = mesh.edge_id[(a, b) if a < b else (b, a)]
                assert not (mesh.singular(e) and not mesh.edge_boundary[e]), name


def test_base_complex_counts(meshes):
    expected = {"box": 1, "pie3": 3, "pie5": 5, "notch": 7, "torus": 1, "composite": 9}
    for name, hm in meshes.items():
        bc = base_complex(hm, seed=0)
        assert len(bc.blocks) == expected[name], name
        check_grid_blocks(bc)


def _composed(mesh, base):
    """The complex built step by step: trace, extract, split_tori."""
    if mesh.kind == "hex":
        traced = mesh, (trace_hex_base if base else trace_hex)(mesh, seed=0)
    else:
        traced = (trace_param_base if base else trace_param)(mesh, seed=0)
    return split_tori(extract_complex(*traced))


def _wall_sets(mc):
    return sorted(sorted(w.facets) for w in mc.walls)


def test_entry_points_equal_their_composition(meshes):
    """``motorcycle_complex`` and ``base_complex`` give the blocks and walls
    of their steps, on the fixtures and 5 blobs, hex and ``hex_to_param``."""
    hms = list(meshes.values()) + [synth.random_glued_cubes(seed, 40) for seed in range(5)]
    for i, hm in enumerate(hms):
        for mesh in (hm, hex_to_param(hm)):
            for entry, base in ((motorcycle_complex, False), (base_complex, True)):
                mc, ref = entry(mesh, seed=0), _composed(mesh, base)
                assert len(mc.blocks) == len(ref.blocks), (i, mesh.kind, base)
                assert _wall_sets(mc) == _wall_sets(ref), (i, mesh.kind, base)


def test_base_complex_is_torus_split(meshes):
    """The torus's base complex has cuboid blocks only, though its field
    leaves a toroidal block, and ``split_tori`` returns every base complex
    itself."""
    torus = meshes["torus"]
    raw = extract_complex(torus, trace_hex_base(torus, seed=0))
    assert [is_cuboid(raw, b.id) for b in raw.blocks] == [False]
    bc = base_complex(torus, seed=0)
    assert [is_cuboid(bc, b.id) for b in bc.blocks] == [True] * len(bc.blocks)
    for hm in meshes.values():
        bc = base_complex(hm, seed=0)
        assert split_tori(bc) is bc


def test_mc_subcomplex_of_base(meshes):
    for name, hm in meshes.items():
        full = reduce_complex(motorcycle_complex(hm, seed=0), mode="full")
        bc = base_complex(hm, seed=0)
        assert full.wall_facet_set() <= bc.wall_facet_set(), name


def test_wall_sides_are_balanced(complexes):
    """Rectangle walls: both opposite side pairs span the same arc length."""
    for name, mc in complexes.items():
        for w in mc.walls:
            if w.slit or w.annulus or mc.wall_sides[w.id] is None:
                continue
            lens = [sum(mc.arcs[a].length for a in side) for side in mc.wall_sides[w.id]]
            assert abs(lens[0] - lens[2]) < 1e-9, name
            assert abs(lens[1] - lens[3]) < 1e-9, name


@pytest.mark.parametrize("seed", range(8))
def test_random_blobs_grid_and_ordering(seed):
    hm = synth.random_glued_cubes(seed, n_cells=40)
    mc = motorcycle_complex(hm, seed=0)
    check_grid_blocks(mc)
    plus = reduce_complex(mc, mode="regular")
    full = reduce_complex(mc, mode="full")
    check_grid_blocks(plus)
    check_grid_blocks(full)
    bc = base_complex(hm, seed=0)
    assert len(full.blocks) <= len(plus.blocks) <= len(mc.blocks)
    assert len(full.blocks) <= len(bc.blocks)


def _counted_link_arcs(monkeypatch):
    """Wrap ``cellcomplex._link_arcs`` in a call counter; returns the count."""
    calls, link = [0], cellcomplex._link_arcs

    def counted(links):
        calls[0] += 1
        return link(links)

    monkeypatch.setattr(cellcomplex, "_link_arcs", counted)
    return calls


def test_arcs_are_linked_on_first_read(monkeypatch, caplog):
    """The hex pipeline (trace, extract, split_tori, both reductions, grid
    oracle, base complex) reads no arc, so it links none; the first read of
    arcs, nodes or a wall's sides links that complex once."""
    caplog.set_level(logging.INFO, logger="volmc.cellcomplex")
    calls = _counted_link_arcs(monkeypatch)
    hm = synth.random_glued_cubes(3, n_cells=120)
    raw = motorcycle_complex(hm, seed=0)
    plus = reduce_complex(raw, mode="regular")
    full = reduce_complex(raw, mode="full")
    assert plus is not raw and full is not raw  # both reductions build a complex
    check_grid_blocks(full)
    base_complex(hm, seed=0)
    assert calls[0] == 0
    full.arcs, full.nodes, full.wall_sides[0]
    assert calls[0] == 1
    full.arc_of, full.wall_arcs[-1]
    assert calls[0] == 1
    caplog.set_level(logging.DEBUG, logger="volmc.cellcomplex")
    extract_complex(hm, trace_hex(hm, seed=0))  # its debug line counts the arcs
    assert calls[0] == 2


def _recorded_derivations(monkeypatch):
    """Wrap ``_WallGeometry._derive`` so that it records each geometry it
    derives; returns the record, which keeps them alive (their ids stay
    unique)."""
    derived, derive = [], cellcomplex._WallGeometry._derive

    def recorded(geom):
        derived.append(geom)
        derive(geom)

    monkeypatch.setattr(cellcomplex._WallGeometry, "_derive", recorded)
    return derived


def test_wall_facts_are_derived_on_first_read(monkeypatch):
    """The hex pipeline (trace, extract, split_tori, both reductions, grid
    oracle, base complex) derives the facts of the interior walls that
    reduction tests, and of no boundary or base-complex wall; the first read
    of arcs derives each remaining wall of that complex once."""
    derived = _recorded_derivations(monkeypatch)
    hm = synth.random_glued_cubes(3, n_cells=120)
    raw = motorcycle_complex(hm, seed=0)
    plus = reduce_complex(raw, mode="regular")
    full = reduce_complex(raw, mode="full")
    check_grid_blocks(full)
    bc = base_complex(hm, seed=0)
    ids = {id(g) for g in derived}
    assert len(ids) == len(derived)  # none twice
    assert all(id(w._geom) in ids for w in raw.walls if not w.boundary)
    assert not any(id(w._geom) in ids for mc in (raw, plus, full) for w in mc.walls
                   if w.boundary)
    assert not any(id(w._geom) in ids for w in bc.walls)
    pending = {id(w._geom) for w in full.walls} - ids
    assert pending
    full.arcs
    assert sorted(id(g) for g in derived[len(ids):]) == sorted(pending)
    full.arcs, full.wall_sides[0], [(w.slit, w.dims) for w in full.walls]
    assert len(derived) == len(ids) + len(pending)


@pytest.mark.parametrize("build", [
    lambda: synth.random_glued_cubes(3, n_cells=60),
    synth.pie_mesh,
    lambda: hex_to_param(synth.pie_mesh(3)),
], ids=["blob", "pie", "param"])
def test_complexes_form_no_reference_cycles(build):
    """Complexes, their walls and their mesh are freed by reference counting
    alone, linked or not."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        mesh = build()
        raw = motorcycle_complex(mesh, seed=0)
        full = reduce_complex(raw, mode="full")
        bc = base_complex(mesh, seed=0)
        full.arcs, full.wall_sides[0]
        bc.walls[0].slit, bc.walls[0].dims  # derives that wall's facts
        refs = [weakref.ref(x) for x in (raw, full, bc, mesh, raw.mesh)]
        del mesh, raw, full, bc
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


class _QuadWall:
    """Stub mesh of one wall: unit quads given as vertex ids in cyclic
    order, laid out by the hex mesh's own hook; ``edges`` is its edge table,
    pairing the two quads at every shared edge."""

    FACET_EDGES = HexMesh.FACET_EDGES
    _wall_layout = HexMesh._wall_layout

    def __init__(self, quads):
        self.facet_corners, self.facet_edges = quads, []
        edge_id, at = {}, {}
        for f, quad in enumerate(quads):
            fe = [edge_id.setdefault(tuple(sorted((quad[i], quad[j]))), len(edge_id))
                  for i, j in self.FACET_EDGES]
            self.facet_edges.append(fe)
            for e in fe:
                at.setdefault(e, []).append(f)
        self.edges = SimpleNamespace(mesh=self, pair={e: tuple(fs) for e, fs in at.items()
                                                      if len(fs) == 2})


def _layout(quads):
    """The layout of the one wall that the ``quads`` form."""
    [(facets, geom)] = _lay_out_walls(_QuadWall(quads).edges, range(len(quads)))
    assert facets == list(range(len(quads)))
    return geom


def _grid_quads(nx, cells):
    """The quads of grid cells (i, j) of a grid nx cells wide."""
    def v(i, j):
        return i + (nx + 1) * j

    return [(v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)) for i, j in cells]


def test_wall_layout_verdicts_on_stub_meshes():
    rect = _layout(_grid_quads(2, [(i, j) for j in range(3) for i in range(2)]))
    assert (rect.annulus, rect.slit, rect.bbox) == (False, False, (0, 2, 0, 3))
    assert rect.corner_vertices == {0, 2, 9, 11}
    assert sorted(rect.segment_sides) == [0, 0, 1, 1, 1, 2, 2, 3, 3, 3]
    ell = _layout(_grid_quads(2, [(0, 0), (1, 0), (0, 1)]))
    assert (ell.annulus, ell.slit, ell.bbox) == (False, True, None)
    n = 4  # a strip of n quads between vertices b[i] (bottom) and t[i] (top)
    b, t = range(n), range(n, 2 * n)
    ring = _layout([(b[i], b[(i + 1) % n], t[(i + 1) % n], t[i]) for i in range(n)])
    assert (ring.annulus, ring.slit, ring.corner_vertices) == (True, False, set())
    mobius = [(b[i], b[i + 1], t[i + 1], t[i]) for i in range(n - 1)]
    with pytest.raises(IntegrityError, match="twisted wall layout"):
        _layout(mobius + [(b[n - 1], t[0], b[0], t[n - 1])])
    cone = [(16, i, 8 + i, (i + 1) % 8) for i in range(8)]  # 720 degrees around vertex 16
    with pytest.raises(IntegrityError, match="wall overlaps itself"):
        _layout(cone)


def test_disjoint_walls_are_laid_out_in_lowest_facet_order():
    """Quads of two walls, interleaved and passed in one call, give each
    wall with its sorted facets and the verdicts it gets on its own."""
    ell = _grid_quads(2, [(0, 0), (1, 0), (0, 1)])
    n = 4
    b, t = range(100, 100 + n), range(200, 200 + n)  # apart from the ell's vertices
    ring = [(b[i], b[(i + 1) % n], t[(i + 1) % n], t[i]) for i in range(n)]
    quads = [ring[0], ell[0], ring[1], ring[2], ell[1], ell[2], ring[3]]
    walls = _lay_out_walls(_QuadWall(quads).edges, reversed(range(len(quads))))
    assert [facets for facets, _ in walls] == [[0, 2, 3, 6], [1, 4, 5]]
    assert [(geom.annulus, geom.slit) for _, geom in walls] == [(True, False), (False, True)]
    for (facets, geom), own in zip(walls, (ring, ell)):
        alone = _layout(own)
        assert [geom.corner_coords[f] for f in facets] == \
            [alone.corner_coords[i] for i in range(len(own))]
        assert (geom.bbox, geom.corner_vertices) == (alone.bbox, alone.corner_vertices)


def _recorded_floods(monkeypatch):
    """Wrap ``_unwrapped_geometry`` so that it records the bbox and area
    that each flood hands it, keyed by the id of the wall's layout; the
    record keeps the layouts alive (their ids stay unique)."""
    floods, unwrapped = {}, cellcomplex._unwrapped_geometry

    def recorded(edges, place, bbox, area):
        floods[id(place)] = place, bbox, area
        return unwrapped(edges, place, bbox, area)

    monkeypatch.setattr(cellcomplex, "_unwrapped_geometry", recorded)
    return floods


def test_flood_and_fan_turns_match_per_facet_and_per_cell_sums(meshes, monkeypatch):
    """On the raw, full and base complexes of the fixtures and of three
    parametrizations, each wall's bbox and area, taken during its flood,
    equal min/max over its corner coordinates and the sum of per-facet
    shoelace areas, and ``fan_turns`` at every live edge equals the sum of
    per-cell quarter turns along the fan: exactly, on tets too."""
    floods = _recorded_floods(monkeypatch)
    params = [hex_to_param(meshes[name]) for name in ("box", "pie3", "notch")]
    for mesh in [*meshes.values(), *params]:
        raw, base = motorcycle_complex(mesh, seed=0), base_complex(mesh, seed=0)
        for w in (w for mc in (raw, reduce_complex(raw, mode="full"), base) for w in mc.walls):
            if w.annulus:
                continue
            place = w._geom.corner_coords
            _, bbox, area = floods[id(place)]
            xs, ys = zip(*(p for co in place.values() for p in co))
            assert bbox == (min(xs), max(xs), min(ys), max(ys))
            shoelace = 0.0  # each facet fanned from its first corner
            for (ax, ay), *rest in place.values():
                shoelace += abs(sum((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                                    for (bx, by), (cx, cy) in zip(rest, rest[1:]))) / 2.0
            assert area == shoelace
        for m in {raw.mesh, base.mesh}:  # on tets, the refined meshes traced
            for e in (e for e in range(m.n_edges) if m.edge_live[e]):
                cells = m.edge_fan(e).cells
                quarters = [1.0 if m.kind == "hex" else m.dihedral_quarters(c, e)
                            for c in cells] * 2  # twice: wraps
                for i in range(len(cells)):
                    for j in range(i + 1, i + len(cells) + 1):
                        assert m.fan_turns(e, i, j) == sum(quarters[i:j])

import pytest

from volmc import synth
from volmc.cellcomplex import (
    base_complex,
    extract_complex,
    motorcycle_complex,
    split_tori,
    validate_field,
)
from volmc.errors import IntegrityError
from volmc.firehex import (
    alive,
    necessary,
    trace_hex,
    trace_hex_base,
    trace_hex_sparse,
)


def test_boundary_always_tagged(meshes):
    for hm in meshes.values():
        field = trace_hex(hm, seed=0)
        for f in range(hm.n_facets):
            if hm.facet_boundary[f]:
                assert f in field


def test_field_is_a_fixpoint(meshes):
    """No tagged facet still has a live continuation: the fire has finished."""
    for hm in meshes.values():
        field = trace_hex(hm, seed=0)
        validate_field(hm, field)


def test_box_interior_stays_untouched():
    hm = synth.box_mesh(2, 2, 2)
    field = trace_hex(hm, seed=0)
    interior = [f for f in range(hm.n_facets) if not hm.facet_boundary[f]]
    assert not any(f in field for f in interior)


def test_pie_walls_reach_from_axis():
    hm = synth.pie_mesh(3)
    field = trace_hex(hm, seed=0)
    interior_tagged = [f for f in field if not hm.facet_boundary[f]]
    assert interior_tagged
    sing = {e for e in hm.singular_edges() if not hm.edge_boundary[e]}
    touching = set()
    for f in interior_tagged:
        quad = hm.facet_corners[f]
        for i in range(4):
            a, b = quad[i], quad[(i + 1) % 4]
            key = (a, b) if a < b else (b, a)
            if hm.edge_id[key] in sing:
                touching.add(f)
    assert touching


def test_determinism_same_seed(meshes):
    for hm in meshes.values():
        f1 = trace_hex(hm, seed=7)
        f2 = trace_hex(hm, seed=7)
        assert f1 == f2  # the same facets at the same distances


def test_sparse_subset_of_standard(meshes):
    """Sparse ignition never tags more than the standard trace does blocks-wise."""
    for name, hm in meshes.items():
        raw = len(motorcycle_complex(hm, seed=0).blocks)
        sparse = len(
            split_tori(extract_complex(hm, trace_hex_sparse(hm, seed=0))).blocks
        )
        assert sparse <= raw, name


def test_base_walls_superset(meshes):
    for name, hm in meshes.items():
        std = trace_hex(hm, seed=0)
        base = trace_hex_base(hm, seed=0)
        assert std.keys() <= base.keys(), name


def test_base_complex_conforming(meshes):
    """Base complex arcs never terminate against wall interiors (no T-arcs)."""
    for name, hm in meshes.items():
        bc = base_complex(hm, seed=0)
        assert not any(a.tarc for a in bc.arcs), name


# -- validate_field's rules, one broken field per rule -----------------------
#
# Each rule must fail the same way through extract_complex and through the
# re-check that reduce_complex runs on the edges it changes (the edge table's
# ``untag``, started from the valid traced field).


def _rejections(hm, untag):
    """The IntegrityError messages of extracting the traced field with the
    facets ``untag`` untagged, and of untagging them from its edge table."""
    field = trace_hex(hm, seed=0)
    broken = field.copy()
    for f in untag:
        del broken[f]
    with pytest.raises(IntegrityError) as extracted:
        extract_complex(hm, broken)
    with pytest.raises(IntegrityError) as rechecked:
        validate_field(hm, field).untag(untag)
    assert str(rechecked.value) == str(extracted.value)
    return str(extracted.value)


def test_untagged_boundary_facet_rejected():
    hm = synth.pie_mesh(3)
    f = max(f for f in range(hm.n_facets) if hm.facet_boundary[f])
    assert _rejections(hm, [f]) == f"boundary facet {f} untagged"


def test_open_wall_rejected():
    """One interior wall facet untagged leaves a 360° gap at one of its edges."""
    hm = synth.composite_mesh()
    field = trace_hex(hm, seed=0)
    f = next(f for f in sorted(field) if not hm.facet_boundary[f])
    msg = _rejections(hm, [f])
    assert msg.startswith("cell gap of 360 degrees around edge ")
    assert int(msg.split()[7]) in hm.facet_edges[f]


def test_singular_edge_in_block_interior_rejected():
    """Only the boundary tagged: the pie's singular axis lies inside a block."""
    hm = synth.pie_mesh(3)
    boundary_only = {f: 0 for f in range(hm.n_facets) if hm.facet_boundary[f]}
    with pytest.raises(IntegrityError, match="singular edge") as exc:
        extract_complex(hm, boundary_only)
    e = int(str(exc.value).split()[2])
    assert hm.singular(e) and not hm.edge_boundary[e]
    field = trace_hex(hm, seed=0)
    interior = [f for f in field if not hm.facet_boundary[f]]
    assert _rejections(hm, interior) == str(exc.value)

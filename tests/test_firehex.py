import pytest

from volmc import synth
from volmc.cellcomplex import (
    _trace,
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
from volmc.tetparam import hex_to_param


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


def test_necessary_when_two_behind_and_one_ahead_burn():
    """The paper's third clause: a source at fan facet f is needed when f-2
    and f+1 are burnt but f-1 is not, and not when f+1 burns alone."""
    hm = synth.pie_mesh(5, 1)
    fan = hm.edge_fan(5)  # the singular axis edge, a closed fan of 5 facets
    assert fan.closed and hm.singular(5)
    f = fan.facets[0]
    assert necessary(hm, {fan.facet(-2): 0, fan.facet(1): 0}, 5, f)
    assert not necessary(hm, {fan.facet(1): 0}, 5, f)


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


def _rejections(mesh, untag):
    """The IntegrityError messages of extracting the traced field with the
    facets ``untag`` untagged, and of untagging them from its edge table.
    A parametrization is traced on a refined copy, the same on every trace."""
    traced, field = _trace(mesh, seed=0)
    broken = field.copy()
    for f in untag:
        del broken[f]
    with pytest.raises(IntegrityError) as extracted:
        extract_complex(traced, broken)
    with pytest.raises(IntegrityError) as rechecked:
        validate_field(traced, field).untag(untag)
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


def _end_of_three(mesh, field):
    """A regular interior edge with three tagged facets, gaps of 90, 90 and
    180 degrees between them, and an end facet of the three whose lowest
    edge it is (so that both paths re-check that edge first)."""
    table = validate_field(mesh, field)
    for e, ring in sorted(table.ring.items()):
        if mesh.edge_boundary[e] or mesh.singular(e) or sorted(ring[1::3]) != [1, 1, 2]:
            continue
        k = ring[1::3].index(2)  # the 180-degree gap runs from tag k to the next one
        for f in (ring[3 * k], ring[3 * ((k + 1) % 3)]):
            if min(mesh.facet_edges[f]) == e:
                return e, f


@pytest.mark.parametrize("build", [synth.composite_mesh,
                                   lambda: hex_to_param(synth.composite_mesh())],
                         ids=["hex", "param"])
def test_gap_checked_before_pair_test(build):
    """Untagging an end facet of three at a regular edge leaves two tags 90
    degrees apart: the 270-degree gap raises before the two are tested as
    a pair."""
    mesh = build()
    e, f = _end_of_three(*_trace(mesh, seed=0))
    assert _rejections(mesh, [f]) == \
        f"cell gap of 270 degrees around edge {e} (open or missing wall)"


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

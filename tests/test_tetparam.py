"""Tet meshes of a parametrization, and their chart tables against the
per-element code that the tables replaced.

The reference functions below compute one dihedral angle, corner solid
angle, iso-plane or facet transition at a time, as the library did before
it kept these in tables built in one array pass. Transitions and iso-planes
must agree bit for bit; angles, whose sums now run in another order, within
1e-12.
"""

import math

import numpy as np
import pytest
from conftest import FIXTURE_BUILDERS
from hypothesis import given, settings
from hypothesis import strategies as st

from volmc import synth
from volmc.errors import MeshError, NotSeamlessError
from volmc.octahedral import IDENTITY, ROTATIONS, Transition
from volmc.sanitize import add_noise, sanitize
from volmc.tetparam import ISO_TOL, TET_EDGES, ParamTetMesh, hex_to_param

ANGLE_TOL = 1e-12


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
            a, b = hm.edge_keys[e]
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
                m._edge_quarters(x),
                m.edge_fan(x).closed,
                sorted(m.facet_keys[f] for f in m.edge_facets[x]),
            )
            for x in range(m.n_edges) if m.edge_live[x]
        }
        return facets, edges

    assert incidence(pm) == incidence(fresh)


def test_split_edge_updates_chart_tables_like_a_fresh_mesh():
    """Tables built before a split read, after it, what a fresh mesh of the
    live tets reads at every live (tet, edge), (tet, facet) and interior
    facet, matched by vertex keys."""
    pm = hex_to_param(synth.pie_mesh(3))
    pm.singular_edges()  # builds the tables before any split
    for _ in range(3):
        e = next(e for e in range(pm.n_edges) if pm.edge_live[e] and not pm.edge_boundary[e])
        pm.split_edge(e, 0.375)
    live = pm.live_cells()
    fresh = ParamTetMesh(pm.positions, [pm.tets[t] for t in live], [pm.params[t] for t in live])
    for t2, t in enumerate(live):
        for a, b in TET_EDGES:
            key = tuple(sorted((pm.tets[t][a], pm.tets[t][b])))
            got = pm.dihedral_quarters(t, pm.edge_id[key])
            assert abs(got - fresh.dihedral_quarters(t2, fresh.edge_id[key])) <= ANGLE_TOL
        for v in pm.tets[t]:
            assert abs(pm.cell_corner_octants(t, v) - fresh.cell_corner_octants(t2, v)) <= ANGLE_TOL
        for f in pm.cell_facets[t]:
            f2 = fresh.facet_id[pm.facet_keys[f]]
            assert _plane_bytes(pm.iso_plane(f, t)) == _plane_bytes(fresh.iso_plane(f2, t2))
    for f in range(pm.n_facets):
        if len(pm.facet_cells[f]) == 2:
            f2 = fresh.facet_id[pm.facet_keys[f]]
            assert _transition_bytes(pm.facet_transition(f)) == _transition_bytes(
                fresh.facet_transition(f2)
            )


# -- chart tables against the per-element reference ------------------------


def ref_fit_rotation(vecs_from, vecs_to, rel_tol=1e-6):
    a = np.asarray(vecs_from, dtype=float)
    b = np.asarray(vecs_to, dtype=float)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    best, best_err = None, np.inf
    for i, m in enumerate(ROTATIONS):
        err = float(np.abs(a @ m.T.astype(float) - b).max(initial=0.0))
        if err < best_err:
            best, best_err = i, err
    if best_err > rel_tol * scale:
        return None, best_err
    return best, best_err


def ref_transition(pm, f):
    s, t = pm.facet_cells[f]
    key = pm.facet_keys[f]
    ps = np.array([pm.corner_param(s, v) for v in key])
    pt = np.array([pm.corner_param(t, v) for v in key])
    d1, d2 = ps[1] - ps[0], ps[2] - ps[0]
    g1, g2 = pt[1] - pt[0], pt[2] - pt[0]
    rot, _ = ref_fit_rotation((d1, d2, np.cross(d1, d2)), (g1, g2, np.cross(g1, g2)))
    if rot is None:
        raise NotSeamlessError(f"no octahedral rotation matches the charts across facet {f}")
    shift = pt[0] - ROTATIONS[rot] @ ps[0]
    tr = Transition(rot, tuple(shift))
    scale = max(1.0, float(np.abs(ps).max()), float(np.abs(pt).max()))
    for a, b in zip(ps, pt):
        if np.abs(np.asarray(tr.apply(a)) - b).max() > 1e-6 * scale:
            raise NotSeamlessError(f"chart transition across facet {f} is not rigid")
    return tr


def ref_dihedral(pm, t, e):
    va, vb = pm.edge_keys[e]
    others = [v for v in pm.tets[t] if v not in (va, vb)]
    pa = pm.corner_param(t, va)
    axis = pm.corner_param(t, vb) - pa
    axis = axis / np.linalg.norm(axis)
    w = []
    for v in others:
        d = pm.corner_param(t, v) - pa
        d = d - np.dot(d, axis) * axis
        w.append(d / np.linalg.norm(d))
    ang = math.atan2(np.linalg.norm(np.cross(w[0], w[1])), float(np.dot(w[0], w[1])))
    return ang / (math.pi / 2)


def ref_octants(pm, t, v):
    p0 = pm.corner_param(t, v)
    a, b, c = [pm.corner_param(t, u) - p0 for u in pm.tets[t] if u != v]
    la, lb, lc = np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(c)
    num = abs(float(np.dot(a, np.cross(b, c))))
    den = la * lb * lc + float(np.dot(a, b)) * lc + float(np.dot(a, c)) * lb + float(np.dot(b, c)) * la
    omega = 2.0 * math.atan2(num, den)
    if omega < 0:
        omega += 2.0 * math.pi
    return omega / (math.pi / 2)


def ref_plane(pm, f, t):
    pts = np.array([pm.corner_param(t, v) for v in pm.facet_keys[f]])
    for axis in range(3):
        col = pts[:, axis]
        if col.max() - col.min() <= ISO_TOL:
            return axis, float(col[0])
    return None


def ref_edge_class(pm, e):
    total = sum(ref_dihedral(pm, t, e) for t in pm.edge_cells[e])
    k = int(round(total))
    if abs(total - k) > 1e-6 * max(1.0, total):
        raise NotSeamlessError(f"edge {e} angle sum is not a multiple of 90")
    boundary = pm.edge_boundary[e]
    return k != (2 if boundary else 4), k, boundary


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except NotSeamlessError as exc:
        return "error", str(exc)


def _plane_bytes(plane):
    return None if plane is None else (plane[0], np.float64(plane[1]).tobytes())


def _transition_bytes(tr):
    return tr.rot, np.array(tr.t, dtype=float).tobytes()


def _check_tables(pm):
    for t in pm.live_cells():
        for f in pm.cell_facets[t]:
            assert _plane_bytes(pm.iso_plane(f, t)) == _plane_bytes(ref_plane(pm, f, t))
        for a, b in TET_EDGES:
            e = pm.edge_id[tuple(sorted((pm.tets[t][a], pm.tets[t][b])))]
            assert abs(pm.dihedral_quarters(t, e) - ref_dihedral(pm, t, e)) <= ANGLE_TOL
        for v in pm.tets[t]:
            assert abs(pm.cell_corner_octants(t, v) - ref_octants(pm, t, v)) <= ANGLE_TOL
    for f in range(pm.n_facets):
        if pm.facet_boundary[f]:
            continue
        want, got = _outcome(ref_transition, pm, f), _outcome(pm.facet_transition, f)
        if want[0] == "ok":
            assert got[0] == "ok" and _transition_bytes(got[1]) == _transition_bytes(want[1])
        else:
            assert got == want
    for e in range(pm.n_edges):
        want = _outcome(ref_edge_class, pm, e)
        got = _outcome(lambda e: (pm.singular(e), pm._edge_quarters(e), pm.edge_boundary[e]), e)
        assert got[0] == want[0]
        if want[0] == "ok":
            assert got[1] == want[1]


HEX_SOURCES = st.one_of(
    st.sampled_from(sorted(FIXTURE_BUILDERS)).map(lambda name: FIXTURE_BUILDERS[name]()),
    st.builds(synth.random_glued_cubes, st.integers(0, 10**6), st.integers(2, 40)),
)


@settings(max_examples=25, deadline=None)
@given(
    HEX_SOURCES,
    st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-8]),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_chart_tables_match_per_element_code(hm, eps, seed, sanitized):
    pm = hex_to_param(hm)
    if eps:
        pm = add_noise(pm, eps=eps, seed=seed)
    if sanitized:
        pm = sanitize(pm)
    _check_tables(pm)


def test_bad_facet_raises_only_when_queried():
    """One corner moved off its neighbours' charts: the mesh still builds,
    every query away from that tet reads as before, and each facet at that
    corner raises when its transition is asked for."""
    pm = hex_to_param(synth.box_mesh(2, 1, 1))
    t = next(t for t in range(pm.n_cells) if not any(pm.facet_boundary[f] for f in pm.cell_facets[t]))
    v = pm.tets[t][0]
    params = [p.copy() for p in pm.params]
    centroid = params[t].mean(axis=0)
    params[t][0] = centroid + 1.3 * (params[t][0] - centroid)  # still positive volume
    bad = ParamTetMesh(pm.positions, pm.tets, params)
    broken = [f for f in bad.cell_facets[t] if v in bad.facet_keys[f]]
    assert len(broken) == 3
    for f in range(bad.n_facets):
        if not bad.facet_boundary[f] and f not in broken:
            assert _transition_bytes(bad.facet_transition(f)) == _transition_bytes(pm.facet_transition(f))
    for t2 in range(bad.n_cells):
        if t2 != t:
            for f in bad.cell_facets[t2]:
                assert _plane_bytes(bad.iso_plane(f, t2)) == _plane_bytes(pm.iso_plane(f, t2))
    for e in range(bad.n_edges):
        if t not in bad.edge_cells[e]:
            assert bad._edge_quarters(e) == pm._edge_quarters(e)
    for f in broken:
        msg = f"no octahedral rotation matches the charts across facet {f}$"
        with pytest.raises(NotSeamlessError, match=msg):
            bad.facet_transition(f)
        a, b = bad.facet_cells[f]
        with pytest.raises(NotSeamlessError, match=msg):
            bad.cell_gluing(b, f, a)


def test_non_rigid_facet_raises_only_when_queried():
    """Two tets sharing facet (0, 1, 2). Stretching the shared edge in one
    chart by 8e-5 fits the identity rotation within its tolerance (relative
    to the facet's cross product), but moves corner 1 farther than the
    rigidity tolerance (relative to the parameter values)."""
    pos = [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    below = 50.0 * np.array([pos[0], pos[2], pos[1], pos[3]], float)
    above = 50.0 * np.array([pos[0], pos[1], pos[2], pos[4]], float)
    above[1, 0] += 8e-5
    pm = ParamTetMesh(pos, [(0, 2, 1, 3), (0, 1, 2, 4)], [below, above])
    f = pm.facet_id[(0, 1, 2)]
    for t in (0, 1):
        assert pm.iso_plane(f, t) == (2, 0.0)
    assert pm.iso_plane(pm.facet_id[(0, 1, 3)], 0) == (1, 0.0)
    assert abs(pm.dihedral_quarters(0, pm.edge_id[(0, 1)]) - 1.0) <= ANGLE_TOL
    with pytest.raises(NotSeamlessError, match=f"chart transition across facet {f} is not rigid$"):
        pm.facet_transition(f)

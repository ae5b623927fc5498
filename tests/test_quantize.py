import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from conftest import FIXTURE_BUILDERS
from hypothesis import given, settings
from hypothesis import strategies as st

from volmc import quantize, synth
from volmc.cellcomplex import check_grid_blocks, motorcycle_complex, reduce_complex
from volmc.errors import IntegrityError, MeshError, VolmcError
from volmc.quantize import (
    QuantizationProblem,
    build_ip,
    extract_hexmesh,
    reparametrize_block,
    solve_quantization,
)
from volmc.tetparam import hex_to_param

SRC = str(Path(__file__).resolve().parent.parent / "src")


def brute_force_optimum(qp, hi=None):
    """Independent oracle: enumerate all integer assignments in a box and
    keep the feasible one with least squared deviation from the targets.

    Recursion with completed-row rejection only; no relaxation, bounding or
    ordering heuristics shared with the solver under test.
    """
    arcs = list(qp.arcs)
    targets = qp.targets
    if hi is None:
        hi = max(2, int(math.ceil(2 * max(targets.values()))) + 1)
    rows = [dict(r) for r in qp.rows]
    best = [None, math.inf]

    def rec(i, partial, cost):
        if cost >= best[1]:
            return
        if i == len(arcs):
            best[0], best[1] = dict(partial), cost
            return
        a = arcs[i]
        for val in range(1, hi + 1):
            partial[a] = val
            ok = True
            for row in rows:
                if a in row and all(x in partial for x in row):
                    if sum(c * partial[x] for x, c in row.items()) != 0:
                        ok = False
                        break
            if ok:
                rec(i + 1, partial, cost + (val - targets[a]) ** 2)
            del partial[a]

    rec(0, {}, 0.0)
    return best[0], best[1]


def _quantizable(mc):
    for mode in ("full", "regular"):
        red = reduce_complex(mc, mode=mode)
        if not any(w.slit or w.annulus for w in red.walls):
            return red
    return None


def small_random_problems(count=12, max_arcs=12):
    """Fully reduced complexes of small random blobs with few arcs."""
    out = []
    seed = 0
    while len(out) < count and seed < 400:
        hm = synth.random_glued_cubes(seed, n_cells=2 + seed % 7)
        red = _quantizable(motorcycle_complex(hm, seed=0))
        seed += 1
        if red is not None and len(red.arcs) <= max_arcs:
            out.append(red)
    return out


def test_solver_matches_brute_force_on_fixtures(complexes):
    for name in ("box", "torus"):
        red = _quantizable(complexes[name])
        qp = build_ip(red, 1.0)
        sol = solve_quantization(qp)
        ref, ref_obj = brute_force_optimum(qp)
        obj = sum((sol[a] - qp.targets[a]) ** 2 for a in qp.arcs)
        assert ref is not None
        assert abs(obj - ref_obj) < 1e-9, name


def test_solver_matches_brute_force_on_random_blobs():
    problems = small_random_problems(count=10)
    assert len(problems) >= 5
    for red in problems:
        qp = build_ip(red, 1.0)
        sol = solve_quantization(qp)
        ref, ref_obj = brute_force_optimum(qp)
        obj = sum((sol[a] - qp.targets[a]) ** 2 for a in qp.arcs)
        assert abs(obj - ref_obj) < 1e-9


def classwise_optimum(qp):
    """Independent oracle for problems with many arcs but few classes: arcs
    tied by a two-term row {a: 1, b: -1} are equal, so arcs joined by such
    rows form a class with one integer. One integer per class is enumerated
    in the box of ``brute_force_optimum``, checking each remaining row once
    its last class is set and pruning partial costs that, with the least
    cost of the classes still unset, reach the best objective found.
    Returns (the optimal objective, the number of classes)."""
    parent = {a: a for a in qp.arcs}

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    rest = []
    for row in qp.rows:
        if sorted(row.values()) == [-1, 1]:
            a, b = sorted(root(x) for x in row)
            parent[b] = a
        else:
            rest.append(row)
    classes = {}
    for a in qp.arcs:
        classes.setdefault(root(a), []).append(qp.targets[a])
    targets = [classes[r] for r in sorted(classes)]
    index = {r: i for i, r in enumerate(sorted(classes))}
    hi = max(2, int(math.ceil(2 * max(qp.targets.values()))) + 1)
    cost = [[sum((v - t) ** 2 for t in ts) for v in range(1, hi + 1)] for ts in targets]
    checks = [[] for _ in targets]  # rows over class indices, at their last class
    for row in rest:
        crow = {}
        for a, c in row.items():
            crow[index[root(a)]] = crow.get(index[root(a)], 0) + c
        checks[max(crow)].append(crow)
    floor = [0.0] * (len(targets) + 1)  # least cost of the classes from i on
    for i in reversed(range(len(targets))):
        floor[i] = floor[i + 1] + min(cost[i])
    best, vals = [math.inf], []

    def rec(i, total):
        if total + floor[i] >= best[0]:
            return
        if i == len(targets):
            best[0] = total
            return
        for v in range(1, hi + 1):
            vals.append(v)
            if all(sum(c * vals[j] for j, c in row.items()) == 0 for row in checks[i]):
                rec(i + 1, total + cost[i][v - 1])
            vals.pop()

    rec(0, 0.0)
    for ts, c in zip(targets, cost):  # hi exceeds every target: no class does better above it
        assert sum((hi + 1 - t) ** 2 for t in ts) - min(c) + floor[0] >= best[0]
    return best[0], len(targets)


@pytest.mark.parametrize("seed, n", [(0, 10), (6, 14), (7, 8), (9, 8), (11, 8), (1, 10),
                                     (0, 12), (6, 16), (0, 8), (2, 8)])
def test_solver_matches_classwise_oracle_on_multi_block_blobs(seed, n):
    red = _quantizable(motorcycle_complex(synth.random_glued_cubes(seed, n), seed=0))
    assert len(red.blocks) > 1
    for s in (0.7, 1.3):
        qp = build_ip(red, s)
        ref_obj, classes = classwise_optimum(qp)
        assert classes <= 12
        assert abs(_objective(qp, solve_quantization(qp)) - ref_obj) < 1e-6, s


def _objective(qp, sol):
    return sum((sol[a] - qp.targets[a]) ** 2 for a in qp.arcs)


# Optimal objectives at s = 0.5, 0.7 and 1.3 of the fullest quantizable
# reduction of each fixture and of random_glued_cubes(k, 10 + 4k), as found
# by the exhaustive branch-and-bound search that the integer program
# replaced. Objectives, not lengths, are compared: tied optima may differ.
ORACLE_OBJECTIVES = {
    "box": (0.0, 1.92, 1.92),
    "pie3": (5.0, 2.76, 2.76),
    "pie5": (8.5, 4.5, 4.5),
    "notch": (5.25, 3.33, 3.33),
    "torus": (1.0, 1.0, 1.0),
    "composite": (7.75, 6.55, 6.55),
    "blob 0": (10.5, 3.46, 2.66),
    "blob 1": (22.5, 8.82, 7.62),
    "blob 2": (19.0, 7.32, 7.32),
    "blob 3": (21.5, 10.22, 9.02),
    "blob 4": (30.0, 12.72, 10.72),
    "blob 5": (22.25, 9.45, 9.25),
    "blob 6": (48.5, 19.06, 19.06),
    "blob 7": (38.75, 16.19, 13.79),
}


@pytest.mark.parametrize("name", sorted(ORACLE_OBJECTIVES))
def test_objective_matches_recorded_search(name, complexes):
    if name.startswith("blob"):
        k = int(name.split()[1])
        hm = synth.random_glued_cubes(k, 10 + 4 * k)
        mc = motorcycle_complex(hm, seed=0)
    else:
        mc = complexes[name]
    red = _quantizable(mc)
    for s, ref in zip((0.5, 0.7, 1.3), ORACLE_OBJECTIVES[name]):
        qp = build_ip(red, s)
        assert abs(_objective(qp, solve_quantization(qp)) - ref) < 1e-9, (name, s)


@functools.cache
def _small_blobs():
    return small_random_problems(count=10)


# HiGHS stops at an absolute gap of 1e-6, so a tie broken by less than that
# may be resolved either way.
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.floats(0.3, 2.7))
def test_objective_matches_brute_force_at_any_scale(index, s):
    qp = build_ip(_small_blobs()[index], s)
    sol = solve_quantization(qp)
    ref, ref_obj = brute_force_optimum(qp)
    assert ref is not None and abs(_objective(qp, sol) - ref_obj) <= 1e-6


@pytest.mark.parametrize("s", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_bad_scale_is_a_named_error(complexes, s):
    with pytest.raises(VolmcError, match=f"^scale {s} must be finite and not negative$"):
        build_ip(complexes["box"], s)


def test_forced_zero_length_is_infeasible():
    qp = QuantizationProblem([0, 1], {0: 1.0, 1: 2.0}, 1.3, [{0: 1}])
    with pytest.raises(IntegrityError):
        solve_quantization(qp)


def test_solution_outside_chord_ranges_doubles_them(monkeypatch):
    """Arc 0 balances five arcs of target 1, so the optimum sets it to 5,
    outside its first chord range [1, 3]: the ranges double and the
    program is solved once more."""
    calls, milp = [], scipy.optimize.milp

    def counted(*args, **kwargs):
        calls.append(args)
        return milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counted)
    qp = QuantizationProblem(list(range(6)), dict.fromkeys(range(6), 1.0), 1.0,
                             [{0: 1, 1: -1, 2: -1, 3: -1, 4: -1, 5: -1}])
    sol = solve_quantization(qp)
    ref, ref_obj = brute_force_optimum(qp, hi=8)
    assert sol == ref == {0: 5, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1} and ref_obj == 16
    assert len(calls) == 2


@pytest.mark.parametrize("n, mode, s", [(400, "regular", 2.0), (60, "full", 0.5),
                                        (120, "regular", 1.5)])
def test_blob_quantization_finishes(n, mode, s):
    """Blobs on which the recursive search overflowed the stack (400 hexes)
    or ran for minutes (60 and 120 hexes at scales that are not whole)."""
    hm = synth.random_glued_cubes(3, n)
    red = reduce_complex(motorcycle_complex(hm, seed=0), mode=mode)
    qp = build_ip(red, s)
    sol = solve_quantization(qp)
    for row in qp.rows:
        assert sum(c * sol[a] for a, c in row.items()) == 0
    assert len(extract_hexmesh(red, sol).hexes) > 0  # HexMesh validates manifoldness


def test_whole_scale_on_hex_complex_imports_no_solver():
    """At a whole-number scale the targets certify themselves, so the solver
    module is never imported."""
    code = """
import sys, volmc
from volmc import synth
hm = synth.pie_mesh(3)
mc = volmc.motorcycle_complex(hm, seed=0)
red = volmc.reduce_complex(mc, "full")
volmc.extract_hexmesh(red, volmc.solve_quantization(volmc.build_ip(red, 2.0)))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_row_residuals_exactly_zero(complexes):
    for name, mc in complexes.items():
        red = _quantizable(mc)
        qp = build_ip(red, 2.0)
        sol = solve_quantization(qp)
        for row in qp.rows:
            assert sum(c * sol[a] for a, c in row.items()) == 0, name


def test_all_lengths_positive_integers(complexes):
    red = _quantizable(complexes["pie5"])
    sol = solve_quantization(build_ip(red, 1.0))
    for v in sol.values():
        assert isinstance(v, int) and v >= 1


def test_extracted_mesh_is_conforming(complexes):
    for name, mc in complexes.items():
        red = _quantizable(mc)
        sol = solve_quantization(build_ip(red, 1.0))
        hx = extract_hexmesh(red, sol)  # HexMesh validates manifoldness
        assert len(hx.hexes) > 0, name


def test_extracted_mesh_passes_grid_oracle_recursively(complexes):
    for name in ("pie3", "torus", "composite"):
        red = _quantizable(complexes[name])
        sol = solve_quantization(build_ip(red, 1.0))
        hx = extract_hexmesh(red, sol)
        check_grid_blocks(motorcycle_complex(hx, seed=0))


def test_hex_count_scales_with_s(complexes):
    red = _quantizable(complexes["pie3"])
    counts = []
    for s in (1, 2, 4):
        sol = solve_quantization(build_ip(red, float(s)))
        counts.append(len(extract_hexmesh(red, sol).hexes))
    assert counts[0] < counts[1] < counts[2]
    assert counts[1] / counts[0] == pytest.approx(8.0)


def test_block_rescaling_map_orientation(complexes):
    red = _quantizable(complexes["pie3"])
    sol = solve_quantization(build_ip(red, 1.0))
    for b in red.blocks:
        bm = reparametrize_block(red, b.id, sol)
        assert bm.orientation_ok()
        # corners of the new box map into the original box
        L, M, N = bm.new_dims
        for c in itertools.product((0, L), (0, M), (0, N)):
            p = bm.to_original(c)
            assert np.all(p >= -1e-6)
            assert np.all(p <= np.array(bm.dims) + 1e-6)


def test_annulus_wall_rejected(complexes):
    mc = complexes["composite"]
    full = reduce_complex(mc, mode="full")
    if any(w.slit or w.annulus for w in full.walls):
        with pytest.raises(IntegrityError):
            build_ip(full, 1.0)
    else:
        pytest.skip("composite full reduction has no slit/annulus wall")


def brute_force_locator(bm):
    """Reference inverse of a block map, one point at a time: the global
    argmax of the barycentric slack over all meta-tets, ties to the lowest
    index, with each meta-tet's map built on its own. Also returns how many
    meta-tets hold the point."""
    c_orig, c_new = np.array(bm.dims, float) / 2.0, np.array(bm.new_dims, float) / 2.0
    tinv = np.array([np.linalg.inv((new - c_new).T) for new in bm.new])
    maps = [(orig - c_orig).T @ t for orig, t in zip(bm.orig, tinv)]

    def locate(p):
        lam = np.einsum("tij,tj->ti", tinv, p - np.tile(c_new, (len(tinv), 1)))
        slack = np.minimum(lam.min(axis=1), 1.0 - lam.sum(axis=1))
        i = int(np.argmax(slack))
        assert slack[i] >= -1e-9
        return c_orig + maps[i] @ (p - c_new), int((slack >= -1e-9).sum())

    return locate


def test_point_location_matches_brute_force(complexes):
    cases = [(_quantizable(complexes[name]), s) for name in FIXTURE_BUILDERS for s in (1, 2, 3, 4)]
    cases += [(red, 2) for red in small_random_problems(count=2)]
    shared = centers = 0
    for red, s in cases:
        sol = solve_quantization(build_ip(red, float(s)))
        for b in red.blocks:
            bm = reparametrize_block(red, b.id, sol)
            pts = np.indices(np.add(bm.new_dims, 1)).reshape(3, -1).T.astype(float)
            locate = brute_force_locator(bm)
            ref = [locate(p) for p in pts]
            assert np.array_equal(bm.to_original(pts), np.array([r for r, _ in ref]))
            assert np.array_equal(bm.to_original(pts[-1]), ref[-1][0])  # single-point form
            shared += sum(n > 1 for _, n in ref)
            centers += len(bm.orig) in [n for _, n in ref]
    assert shared > 0 and centers > 0


def test_tet_complex_rejected_up_front():
    mc = reduce_complex(motorcycle_complex(hex_to_param(synth.pie_mesh(3)), seed=0), mode="full")
    with pytest.raises(MeshError, match="hex mesh"):
        extract_hexmesh(mc, {a.id: 1 for a in mc.arcs})


@pytest.mark.parametrize("s", [1, 2, 3])
def test_torus_full_complex_extracts_a_closed_ring(complexes, s):
    """The torus's one fully reduced block holds one wall on two of its
    faces, the only fixture that does: its grid closes into a ring of 8 s^3
    hexes, with 8 s (s + 1)^2 vertices and 32 s^2 boundary quads."""
    red = reduce_complex(complexes["torus"], mode="full")
    hx = extract_hexmesh(red, solve_quantization(build_ip(red, float(s))))
    assert (len(hx.hexes), len(hx.positions)) == (8 * s**3, 8 * s * (s + 1) ** 2)
    assert sum(hx.facet_boundary) == 32 * s**2


@pytest.mark.parametrize("length", [None, 0, -1, 1.5])
def test_bad_arc_length_is_a_named_error(complexes, length):
    """Arc 1 of pie3's full complex left out of the lengths, or given one
    that is not an integer >= 1, is named before any grid is built."""
    red = reduce_complex(complexes["pie3"], mode="full")
    ell = solve_quantization(build_ip(red, 1.0))
    if length is None:
        del ell[1]
    else:
        ell[1] = length
    for realize in (extract_hexmesh, lambda mc, ell: reparametrize_block(mc, 0, ell)):
        with pytest.raises(VolmcError, match=rf"^arc 1: length {length!r} is not an integer >= 1$"):
            realize(red, ell)


def test_unbalanced_lengths_are_refused(complexes):
    """One more unit on arc 0 of pie3's full complex breaks the balance of
    wall 0's opposite sides."""
    red = reduce_complex(complexes["pie3"], mode="full")
    ell = solve_quantization(build_ip(red, 1.0))
    ell[0] += 1
    with pytest.raises(IntegrityError, match="^wall 0: opposite side sums differ under quantization$"):
        extract_hexmesh(red, ell)


@pytest.mark.parametrize("name", ["pie5", "notch"])
def test_block_map_builds_only_its_own_wall_grids(complexes, monkeypatch, name):
    """``reparametrize_block`` builds the grid of each wall that bounds its
    block, in wall id order, and no other; the map equals the one made from
    the grids of every wall."""
    red = reduce_complex(complexes[name], mode="regular")
    ell = solve_quantization(build_ip(red, 2.0))
    every = quantize._wall_grids(red, ell)
    built = []

    class CountedGrid(quantize._WallGrid):
        def __init__(self, mc, wid, ell):
            built.append(wid)
            super().__init__(mc, wid, ell)

    monkeypatch.setattr(quantize, "_WallGrid", CountedGrid)
    for b in red.blocks:
        built.clear()
        bm = reparametrize_block(red, b.id, ell)
        bounding = sorted({red.wall_of[f] for f in red.field
                           if not b.cells.isdisjoint(red.mesh.facet_cells[f])})
        assert built == bounding and len(built) < len(red.walls)
        ref = quantize._QuantizedBlock(red, every, b.id).map
        assert (bm.dims, bm.new_dims) == (ref.dims, ref.new_dims)
        assert np.array_equal(bm.orig, ref.orig) and np.array_equal(bm.new, ref.new)

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N ...: PASS`` (or FAIL) line; run with
``pytest -v -s tests/test_acceptance.py`` to see them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from volmc import synth
from volmc.cellcomplex import (
    base_complex,
    check_grid_blocks,
    extract_complex,
    is_cuboid,
    motorcycle_complex,
    reduce_complex,
    removable_walls,
    split_tori,
)
from volmc.cli import main as cli_main
from volmc.firehex import trace_hex, trace_hex_sparse
from volmc.meshio import write_hex_mesh, write_param
from volmc.quantize import build_ip, extract_hexmesh, solve_quantization
from volmc.sanitize import add_noise, sanitize, verify_seamless
from volmc.tetparam import hex_to_param

FIXTURES = ["box", "pie3", "pie5", "notch", "torus", "composite"]
CORE_FIVE = ["box", "pie3", "pie5", "torus", "composite"]


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} ({desc}): FAIL")
        raise
    print(f"criterion {n:2d} ({desc}): PASS")


def _reductions(mc):
    return {
        "raw": mc,
        "regular": reduce_complex(mc, mode="regular"),
        "full": reduce_complex(mc, mode="full"),
    }


def _quantizable(mc):
    for mode in ("full", "regular"):
        red = reduce_complex(mc, mode=mode)
        if not any(w.slit or w.annulus for w in red.walls):
            return red
    raise AssertionError("no reduction level without slit/annulus walls")


def test_criterion_01_grid_block_oracle(meshes, complexes):
    with criterion(1, "grid-block oracle on raw/MC+/MC, < 10 s"):
        start = time.perf_counter()
        for name in CORE_FIVE:
            for label, red in _reductions(complexes[name]).items():
                dims = check_grid_blocks(red)
                for (l, m, n), b in zip(dims, red.blocks):
                    assert l * m * n == len(b.cells), (name, label)
        assert time.perf_counter() - start < 10.0


def test_criterion_02_subcomplex_of_base(meshes, complexes):
    with criterion(2, "MC wall facets subset of base complex wall facets"):
        for name in FIXTURES:
            full = reduce_complex(complexes[name], mode="full")
            bc = base_complex(meshes[name], seed=0)
            assert full.wall_facet_set() <= bc.wall_facet_set(), name


def test_criterion_03_ordering_relations(meshes, complexes):
    with criterion(3, "MC <= MC+ <= raw and MC <= BC, fixtures + 100 random"):
        def check(hm, mc):
            red = _reductions(mc)
            n_raw = len(red["raw"].blocks)
            n_plus = len(red["regular"].blocks)
            n_full = len(red["full"].blocks)
            n_bc = len(base_complex(hm, seed=0).blocks)
            assert n_full <= n_plus <= n_raw
            assert n_full <= n_bc

        for name in FIXTURES:
            check(meshes[name], complexes[name])
        for i in range(100):
            hm = synth.random_glued_cubes(i, n_cells=10 + (i * 7) % 120)
            assert len(hm.hexes) <= 500
            check(hm, motorcycle_complex(hm, seed=0))


def test_criterion_04_cross_pipeline(meshes, complexes):
    with criterion(4, "hex and parametrization pipelines agree"):
        for name in FIXTURES:
            hm = meshes[name]
            pm = hex_to_param(hm)
            bc_hex = base_complex(hm, seed=0)
            bc_par = base_complex(pm, seed=0)
            assert len(bc_hex.blocks) == len(bc_par.blocks), name
            mc_par = motorcycle_complex(pm, seed=0)
            work = mc_par.mesh
            # both decompositions are valid partitions with subcomplex walls
            seen = []
            for b in mc_par.blocks:
                seen.extend(b.cells)
            assert sorted(seen) == list(range(work.n_cells)), name
            full_par = reduce_complex(mc_par, mode="full")
            assert full_par.wall_facet_set() <= mc_par.wall_facet_set(), name
            assert len(mc_par.blocks) == len(complexes[name].blocks), name


def test_criterion_05_sanitizer(meshes):
    with criterion(5, "sanitizer: exact seamlessness, singular set kept, < 5 s"):
        def singular_mids(pm):
            out = set()
            for e in pm.singular_edges():
                a, b = pm.edge_keys[e]
                out.add(tuple(np.round((pm.positions[a] + pm.positions[b]) / 2, 9)))
            return out

        for name in FIXTURES:
            pm = hex_to_param(meshes[name])
            noisy = add_noise(pm, eps=1e-8, seed=0)
            start = time.perf_counter()
            fixed = sanitize(noisy)
            assert time.perf_counter() - start < 5.0, name
            assert verify_seamless(fixed) == [], name
            assert singular_mids(fixed) == singular_mids(pm), name


def test_criterion_06_irreducibility(complexes):
    with criterion(6, "reduced complexes have zero removable walls"):
        for name in FIXTURES:
            full = reduce_complex(complexes[name], mode="full")
            plus = reduce_complex(complexes[name], mode="regular")
            assert removable_walls(full, mode="full") == [], name
            assert removable_walls(plus, mode="regular") == [], name


def test_criterion_07_torus(meshes):
    with criterion(7, "torus: one toroidal block pre-split, cuboids after"):
        hm = meshes["torus"]
        pre = extract_complex(hm, trace_hex(hm, seed=0))
        toroidal = [b for b in pre.blocks if not is_cuboid(pre, b.id)]
        assert len(pre.blocks) == 1 and len(toroidal) == 1
        post = split_tori(pre)
        for b in post.blocks:
            assert is_cuboid(post, b.id)
        check_grid_blocks(post)  # every block a full l x m x n box (8 corners)


def brute_force_optimum(qp, hi=None):
    """Independent exhaustive search: fixed variable order, values by
    distance to target, pruning only on completed rows and accumulated cost."""
    arcs = list(qp.arcs)
    targets = qp.targets
    if hi is None:
        hi = max(2, int(math.ceil(2 * max(targets.values()))) + 1)
    pos = {a: i for i, a in enumerate(arcs)}
    complete_at = {
        a: [r for r in qp.rows if a in r and all(pos[x] <= pos[a] for x in r)]
        for a in arcs
    }
    best = [None, math.inf]

    def rec(i, partial, cost):
        if cost >= best[1]:
            return
        if i == len(arcs):
            best[0], best[1] = dict(partial), cost
            return
        a = arcs[i]
        t = targets[a]
        for val in sorted(range(1, hi + 1), key=lambda v: (abs(v - t), v)):
            c2 = cost + (val - t) ** 2
            if c2 >= best[1]:
                continue
            partial[a] = val
            if all(
                sum(cf * partial[x] for x, cf in r.items()) == 0
                for r in complete_at[a]
            ):
                rec(i + 1, partial, c2)
            del partial[a]

    rec(0, {}, 0.0)
    return best


def test_criterion_08_quantization(meshes, complexes):
    with criterion(8, "quantization optimal, conforming, s-sweep law"):
        # exhaustive optimum on every fixture, several scales
        for name in FIXTURES:
            red = _quantizable(complexes[name])
            for s in (1.0, 0.7, 1.3):
                qp = build_ip(red, s)
                sol = solve_quantization(qp)
                obj = sum((sol[a] - qp.targets[a]) ** 2 for a in qp.arcs)
                ref, ref_obj = brute_force_optimum(qp)
                assert ref is not None and abs(obj - ref_obj) < 1e-9, (name, s)
                for row in qp.rows:  # balance residuals exactly zero
                    assert sum(c * sol[a] for a, c in row.items()) == 0, name
        # 50 random small complexes
        found = 0
        seed = 0
        rng = np.random.default_rng(0)
        while found < 50:
            assert seed < 2000, "could not generate 50 small complexes"
            hm = synth.random_glued_cubes(seed, n_cells=2 + seed % 8)
            seed += 1
            mc = motorcycle_complex(hm, seed=0)
            try:
                red = _quantizable(mc)
            except AssertionError:
                continue
            if len(red.arcs) > 12:
                continue
            found += 1
            s = float(rng.uniform(0.5, 2.5))
            qp = build_ip(red, s)
            sol = solve_quantization(qp)
            obj = sum((sol[a] - qp.targets[a]) ** 2 for a in qp.arcs)
            ref, ref_obj = brute_force_optimum(qp)
            assert abs(obj - ref_obj) < 1e-9, seed
        # conforming extraction, recursively grid-checkable
        for name in FIXTURES:
            red = _quantizable(complexes[name])
            hx = extract_hexmesh(red, solve_quantization(build_ip(red, 1.0)))
            mc2 = motorcycle_complex(hx, seed=0)
            check_grid_blocks(mc2)
        # s-sweep on the largest fixture
        largest = max(FIXTURES, key=lambda n: len(meshes[n].hexes))
        red = _quantizable(complexes[largest])
        counts = []
        for s in range(1, 9):
            sol = solve_quantization(build_ip(red, float(s)))
            counts.append(len(extract_hexmesh(red, sol).hexes))
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        for s in (1, 2, 3, 4):
            ratio = counts[2 * s - 1] / counts[s - 1]
            assert 6.0 <= ratio <= 10.0, (s, ratio)


def test_criterion_09_cli_determinism(tmp_path):
    with criterion(9, "every subcommand byte-identical over 3 seeded runs"):
        d = tmp_path
        write_hex_mesh(synth.pie_mesh(3), str(d / "pie3.mesh"))
        write_hex_mesh(synth.torus_mesh(), str(d / "torus.vtk"))
        write_param(hex_to_param(synth.box_mesh(2, 2, 2)), str(d / "box.param"))
        write_param(
            add_noise(hex_to_param(synth.pie_mesh(3)), eps=1e-8, seed=0),
            str(d / "noisy.param"),
        )
        corpus = d / "corpus"
        corpus.mkdir()
        write_hex_mesh(synth.box_mesh(2, 2, 2), str(corpus / "box.mesh"))

        cases = [
            (["mc-hex", f"{d}/pie3.mesh", "--seed", "1", "--output", "{o}/w.obj"], "w.obj"),
            (["mc-param", f"{d}/box.param", "--seed", "1", "--output", "{o}/w.obj"], "w.obj"),
            (["sanitize", f"{d}/noisy.param", "--output", "{o}/f.param"], "f.param"),
            (["quantize", f"{d}/pie3.mesh", "--seed", "1", "--output", "{o}/q.mesh",
              "--report", "{o}/q.txt"], "q.mesh"),
            (["base-complex", f"{d}/pie3.mesh", "--seed", "1", "--output", "{o}/b.obj"], "b.obj"),
            (["export", f"{d}/torus.vtk", "--seed", "1", "--output", "{o}/t.obj"], "t.obj"),
            (["stats", f"{d}/corpus", "--seed", "1", "--output", "{o}/s.csv"], "s.csv"),
        ]
        runner = CliRunner()
        for case_no, (template, fname) in enumerate(cases):
            outputs = []
            for run in range(3):
                o = d / f"case{case_no}.run{run}"
                o.mkdir()
                args = [a.format(o=str(o)) for a in template]
                res = runner.invoke(cli_main, args, catch_exceptions=False)
                assert res.exit_code == 0, res.output
                outputs.append(
                    (res.output.replace(str(o), "OUT"), (o / fname).read_bytes())
                )
            assert outputs[0] == outputs[1] == outputs[2], template[0]


def test_criterion_10_sparse_relation(meshes, complexes):
    with criterion(10, "sparse <= raw; MC <= sparse on the valence-5 pie"):
        for name in FIXTURES:
            hm = meshes[name]
            sparse = split_tori(extract_complex(hm, trace_hex_sparse(hm, seed=0)))
            assert len(sparse.blocks) <= len(complexes[name].blocks), name
            if name == "pie5":
                full = reduce_complex(complexes[name], mode="full")
                assert len(full.blocks) <= len(sparse.blocks)

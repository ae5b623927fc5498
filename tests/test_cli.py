import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from volmc import synth
from volmc.cli import main
from volmc.hexmesh import HexMesh
from volmc.meshio import read_hex_mesh, write_hex_mesh, write_param
from volmc.sanitize import add_noise
from volmc.tetparam import hex_to_param

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    write_hex_mesh(synth.pie_mesh(3), str(d / "pie3.mesh"))
    write_param(hex_to_param(synth.pie_mesh(3)), str(d / "pie3.param"))
    write_hex_mesh(synth.torus_mesh(), str(d / "torus.vtk"))
    write_param(hex_to_param(synth.box_mesh(2, 2, 2)), str(d / "box.param"))
    write_param(
        add_noise(hex_to_param(synth.pie_mesh(3)), eps=1e-8, seed=0),
        str(d / "noisy.param"),
    )
    corpus = d / "corpus"
    corpus.mkdir()
    write_hex_mesh(synth.box_mesh(2, 2, 2), str(corpus / "box.mesh"))
    write_hex_mesh(synth.notched_box_mesh(), str(corpus / "notch.mesh"))
    return d


def run_cli(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def test_mc_hex_summary(files):
    out = run_cli(["mc-hex", str(files / "pie3.mesh"), "--reduce", "full"])
    assert "blocks=2" in out and "raw=3" in out


def test_debug_log_goes_to_stderr_only(files):
    """--log-level debug adds the extraction, torus split and reduction lines on stderr;
    stdout stays byte-identical."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    runs = [
        subprocess.run([sys.executable, "-m", "volmc.cli", *level, "mc-hex",
                        str(files / "pie3.mesh"), "--reduce", "full"],
                       capture_output=True, text=True, env=env, check=True)
        for level in ([], ["--log-level", "debug"])
    ]
    assert runs[0].stdout == runs[1].stdout and runs[0].stderr == ""
    lines = runs[1].stderr.splitlines()
    assert "DEBUG volmc.cellcomplex: extract: 15 walls, 25 arcs, 3 blocks" in lines
    assert "DEBUG volmc.cellcomplex: split_tori: 0 tori cut" in lines
    assert any(line.startswith("DEBUG volmc.cellcomplex: reduce full: 1 walls removed")
               and line.endswith("3 wall geometries rebuilt, 8 reused") for line in lines)


def test_mc_hex_reduce_none(files):
    out = run_cli(["mc-hex", str(files / "pie3.mesh"), "--reduce", "none"])
    assert "blocks=3" in out


def test_mc_param_summary(files):
    out = run_cli(["mc-param", str(files / "box.param")])
    assert "blocks=1" in out


def test_sanitize_roundtrip(files, tmp_path):
    out_path = tmp_path / "fixed.param"
    out = run_cli(["sanitize", str(files / "noisy.param"), "--output", str(out_path)])
    assert out_path.exists()


def test_quantize_writes_mesh_and_report(files, tmp_path):
    mesh_path = tmp_path / "q.mesh"
    rep_path = tmp_path / "q.txt"
    out = run_cli([
        "quantize", str(files / "pie3.mesh"), "--scale", "1",
        "--output", str(mesh_path), "--report", str(rep_path),
    ])
    assert "hexes=" in out
    assert "objective" in rep_path.read_text()
    assert len(read_hex_mesh(str(mesh_path)).hexes) > 0


def test_quantize_is_byte_identical_across_processes(files, tmp_path):
    """Three fresh processes quantizing at a scale that is not whole (so the
    integer program runs) write identical reports, meshes and stdout."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    outputs = []
    for run in range(3):
        o = tmp_path / f"run{run}"
        o.mkdir()
        res = subprocess.run([sys.executable, "-m", "volmc.cli", "quantize",
                              str(files / "pie3.mesh"), "--scale", "1.3", "--output",
                              str(o / "q.mesh"), "--report", str(o / "q.txt")],
                             capture_output=True, text=True, env=env, check=True)
        outputs.append((res.stdout, (o / "q.txt").read_bytes(), (o / "q.mesh").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert "objective=2.76" in outputs[0][0]


@pytest.mark.parametrize("cmd", [["mc-hex"], ["quantize", "--output", "q.mesh"], ["base-complex"],
                                 ["export", "--output", "walls.obj"]],
                         ids=["mc-hex", "quantize", "base-complex", "export"])
def test_mirrored_hex_fails_with_a_message(mirrored_box, tmp_path, cmd):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-m", "volmc.cli", cmd[0], "mirrored.mesh", *cmd[1:]],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert "by a reflection: one of them is mirrored" in res.stderr
    assert "Traceback" not in res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["mirrored.mesh"]



@pytest.mark.parametrize("scale", ["-1", "nan", "inf"])
def test_quantize_names_a_bad_scale(files, tmp_path, scale):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-m", "volmc.cli", "quantize", str(files / "pie3.mesh"),
                          "--scale", scale, "--output", "q.mesh"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == f"error: scale {float(scale)} must be finite and not negative\n"
    assert not any(tmp_path.iterdir())


def test_quantize_at_scale_zero(files, tmp_path):
    out = run_cli(["quantize", str(files / "pie3.mesh"), "--scale", "0",
                   "--output", str(tmp_path / "q.mesh")])
    assert out == "arcs=20 hexes=3 objective=26\n"


def test_hex_mesh_without_hexes(tmp_path):
    """A mesh of no hexes has a complex of no blocks, and quantizing it
    writes a mesh of no hexes."""
    path = str(tmp_path / "empty.mesh")
    write_hex_mesh(HexMesh(np.empty((0, 3)), np.empty((0, 8), np.int64)), path)
    assert run_cli(["mc-hex", path]) == "blocks=0 raw=0 walls=0 arcs=0 nodes=0 t-arcs=0\n"
    assert run_cli(["base-complex", path]) == "blocks=0 walls=0 arcs=0\n"
    out = run_cli(["quantize", path, "--output", str(tmp_path / "q.mesh")])
    assert out == "arcs=0 hexes=0 objective=0\n"
    assert len(read_hex_mesh(str(tmp_path / "q.mesh")).hexes) == 0


def test_quantize_regular_complex_of_a_400_hex_blob(tmp_path):
    write_hex_mesh(synth.random_glued_cubes(3, 400), str(tmp_path / "blob.mesh"))
    out = run_cli(["quantize", str(tmp_path / "blob.mesh"), "--reduce", "regular",
                   "--scale", "2", "--output", str(tmp_path / "q.mesh")])
    assert "arcs=1485 hexes=3200 objective=0" in out
    assert len(read_hex_mesh(str(tmp_path / "q.mesh")).hexes) == 3200


def test_quantize_rejects_parametrization(files, tmp_path):
    res = CliRunner().invoke(main, ["quantize", str(files / "box.param"),
                                    "--output", str(tmp_path / "q.mesh")])
    assert res.exit_code == 1
    assert "quantize takes a hex mesh" in res.output
    assert not (tmp_path / "q.mesh").exists()


def test_base_complex_summary(files):
    out = run_cli(["base-complex", str(files / "pie3.mesh")])
    assert "blocks=3" in out


def test_base_complex_of_parametrization(files):
    """A .param input runs the parametrization pipeline to the same count."""
    counts = [run_cli(["base-complex", str(files / f"pie3.{ext}")]).split()[0]
              for ext in ("mesh", "param")]
    assert counts == ["blocks=3"] * 2


def test_stats_of_parametrization_matches_hex_mesh(files, tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    for ext in ("mesh", "param"):
        (corpus / f"pie3.{ext}").write_bytes((files / f"pie3.{ext}").read_bytes())
    csv_path = tmp_path / "s.csv"
    run_cli(["stats", str(corpus), "--output", str(csv_path)])
    header, *rows = [line.split(";") for line in csv_path.read_text().splitlines()]
    counts = [[row[header.index(c)] for c in ("BC", "BC-", "raw", "MC+", "MC")] for row in rows]
    assert len(counts) == 2 and counts[0] == counts[1]
    assert [row[header.index("error")] for row in rows] == ["", ""]


def test_export_obj(files, tmp_path):
    out_path = tmp_path / "w.obj"
    run_cli(["export", str(files / "torus.vtk"), "--output", str(out_path)])
    assert "g wall_" in out_path.read_text()


@pytest.mark.parametrize("explode", ["nan", "inf", "-inf"])
def test_export_names_a_non_finite_explode(files, tmp_path, explode):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-m", "volmc.cli", "export", str(files / "pie3.mesh"),
                          "--explode", explode, "--output", "w.obj"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == f"error: explode {float(explode)} must be finite\n"
    assert not any(tmp_path.iterdir())


def test_stats_csv(files, tmp_path):
    csv_path = tmp_path / "s.csv"
    out = run_cli(["stats", str(files / "corpus"), "--output", str(csv_path)])
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("model;")
    assert len(lines) == 3  # header + 2 models
    assert "box" in lines[1] and "notch" in lines[2]


def test_stats_cache_resumes(files, tmp_path):
    cache = tmp_path / "cache.json"
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    run_cli(["stats", str(files / "corpus"), "--output", str(csv1), "--cache", str(cache)])
    assert cache.exists()
    run_cli(["stats", str(files / "corpus"), "--output", str(csv2), "--cache", str(cache)])
    assert csv1.read_text() == csv2.read_text()


def test_stats_error_rows_do_not_abort(files, tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "broken.mesh").write_text("Vertices\n1\nnot a number\n")
    write_hex_mesh(synth.box_mesh(1, 1, 1), str(corpus / "ok.mesh"))
    csv_path = tmp_path / "s.csv"
    run_cli(["stats", str(corpus), "--output", str(csv_path)])
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    assert "ParseError" in lines[1]


@pytest.mark.parametrize("args_output", [
    (["mc-hex", "{d}/pie3.mesh", "--output", "{o}/w.obj"], "w.obj"),
    (["mc-param", "{d}/box.param", "--output", "{o}/w.obj"], "w.obj"),
    (["sanitize", "{d}/noisy.param", "--output", "{o}/f.param"], "f.param"),
    (["quantize", "{d}/pie3.mesh", "--output", "{o}/q.mesh", "--report", "{o}/q.txt"], "q.mesh"),
    (["base-complex", "{d}/pie3.mesh", "--output", "{o}/b.obj"], "b.obj"),
    (["export", "{d}/torus.vtk", "--output", "{o}/t.obj", "--explode", "0.2"], "t.obj"),
    (["stats", "{d}/corpus", "--output", "{o}/s.csv"], "s.csv"),
])
def test_subcommands_byte_identical_across_runs(files, tmp_path, args_output):
    template, fname = args_output
    outputs = []
    for run in range(3):
        o = tmp_path / f"run{run}"
        o.mkdir()
        args = [a.format(d=str(files), o=str(o)) for a in template]
        stdout = run_cli(args).replace(str(o), "OUT")
        outputs.append((stdout, (o / fname).read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]

"""Cross-commit identity: sha256 digests of pipeline outputs, pinned.

The determinism test of the CLI only compares runs of one checkout with each
other. These digests pin the outputs themselves, so that a refactor or an
optimization that should not change behaviour can be checked against the
code it replaces: block counts and sorted wall facet sets of every hex
complex variant on the fixtures and on random blobs, the parametrization
tracer's refined mesh and walls, quantized arc lengths and hex meshes, the
sanitizer's repaired parameters, and the bytes each CLI subcommand prints
and writes (plus its ``--help``).

After an intended change of outputs, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and replace ``GOLDEN``.
"""

import hashlib

import numpy as np
from click.testing import CliRunner
from conftest import FIXTURE_BUILDERS as FIXTURES

from volmc import synth
from volmc.cellcomplex import base_complex, extract_complex, reduce_complex, split_tori
from volmc.cli import main as cli_main
from volmc.firehex import trace_hex, trace_hex_base, trace_hex_sparse
from volmc.fireparam import trace_param, trace_param_base
from volmc.meshio import write_hex_mesh, write_param
from volmc.quantize import build_ip, extract_hexmesh, solve_quantization
from volmc.sanitize import add_noise, sanitize
from volmc.tetparam import hex_to_param

BLOBS = [(i, 8 + (i * 5) % 28) for i in range(20)]
QUANTIZE = ["pie3", "notch", "composite"]
QUANTIZE_BLOBS = 6
SANITIZE = ["pie3", "notch", "torus"]
# Sanitized noisy pies: the tracer splits tets on the fly (72 -> 168 tets for
# pie3, 120 -> 279 for pie5), which the aligned fixtures above never reach.
SPLIT_PIES = ["pie3", "pie5"]

CLI_CASES = [
    (["mc-hex", "{d}/pie3.mesh", "--seed", "1", "--output", "{o}/w.obj"], ["w.obj"]),
    (["mc-hex", "{d}/pie3.mesh", "--reduce", "none"], []),
    (["mc-param", "{d}/box.param", "--seed", "1", "--output", "{o}/w.obj"], ["w.obj"]),
    (["sanitize", "{d}/noisy.param", "--output", "{o}/f.param"], ["f.param"]),
    (["quantize", "{d}/pie3.mesh", "--seed", "1", "--output", "{o}/q.mesh",
      "--report", "{o}/q.txt"], ["q.mesh", "q.txt"]),
    (["base-complex", "{d}/pie3.mesh", "--seed", "1", "--output", "{o}/b.obj"], ["b.obj"]),
    (["export", "{d}/torus.vtk", "--seed", "1", "--output", "{o}/t.obj"], ["t.obj"]),
    (["stats", "{d}/corpus", "--seed", "1", "--output", "{o}/s.csv"], ["s.csv"]),
]
SUBCOMMANDS = ["mc-hex", "mc-param", "sanitize", "quantize", "base-complex", "stats", "export"]


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _field(field):
    return sorted(field.items())


def _complexes(*mcs):
    counts = "/".join(str(len(mc.blocks)) for mc in mcs)
    return f"{counts} {_sha(*(sorted(mc.wall_facet_set()) for mc in mcs))}"


def _hex_digests(hm):
    """raw/regular/full, sparse and base complexes plus the three fields."""
    fields = [trace_hex(hm, seed=0), trace_hex_sparse(hm, seed=0), trace_hex_base(hm, seed=0)]
    raw = split_tori(extract_complex(hm, fields[0]))
    sparse = split_tori(extract_complex(hm, fields[1]))
    bc = split_tori(base_complex(hm, seed=0))
    mcs = [raw, reduce_complex(raw, mode="regular"), reduce_complex(raw, mode="full"), sparse, bc]
    return f"{_complexes(*mcs)} {_sha(*map(_field, fields))}"


def _param_digest(pm):
    return _sha(np.asarray(pm.positions).tobytes(),
                *(np.asarray(par).tobytes() for par in pm.params if par is not None))


def _quantize_digest(hm):
    """Arc lengths and the extracted hex mesh at two scales of the fullest
    reduction without slit or annulus walls."""
    mc = split_tori(extract_complex(hm, trace_hex(hm)))
    for mode in ("full", "regular"):
        red = reduce_complex(mc, mode=mode)
        if not any(w.slit or w.annulus for w in red.walls):
            break
    else:
        return "not quantizable"
    parts = []
    for s in (1.0, 2.0):
        ell = solve_quantization(build_ip(red, s))
        hx = extract_hexmesh(red, ell)
        parts += [sorted(ell.items()), np.asarray(hx.positions).tobytes(),
                  np.asarray(hx.hexes).tobytes()]
    return f"{mode} {_sha(*parts)}"


def _cli_digests(tmp):
    d = tmp / "in"
    d.mkdir()
    write_hex_mesh(synth.pie_mesh(3), str(d / "pie3.mesh"))
    write_hex_mesh(synth.torus_mesh(), str(d / "torus.vtk"))
    write_param(hex_to_param(synth.box_mesh(2, 2, 2)), str(d / "box.param"))
    write_param(add_noise(hex_to_param(synth.pie_mesh(3)), eps=1e-8, seed=0),
                str(d / "noisy.param"))
    (d / "corpus").mkdir()
    write_hex_mesh(synth.box_mesh(2, 2, 2), str(d / "corpus" / "box.mesh"))
    runner = CliRunner()
    out = {}
    for no, (template, files) in enumerate(CLI_CASES):
        o = tmp / f"case{no}"
        o.mkdir()
        args = [a.format(d=str(d), o=str(o)) for a in template]
        res = runner.invoke(cli_main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output
        stdout = res.output.replace(str(o), "OUT").replace(str(d), "IN")
        out[f"cli {no} {template[0]}"] = _sha(stdout, *((o / f).read_bytes() for f in files))
    for sub in [None] + SUBCOMMANDS:
        res = runner.invoke(cli_main, [sub, "--help"] if sub else ["--help"])
        assert res.exit_code == 0, res.output
        out[f"help {sub or 'volmc'}"] = _sha(res.output)
    return out


def compute(tmp):
    out = {}
    for name, build in FIXTURES.items():
        out[f"hex {name}"] = _hex_digests(build())
    for seed, n in BLOBS:
        out[f"blob {seed}:{n}"] = _hex_digests(synth.random_glued_cubes(seed, n))
    for name in ("box", "pie3"):
        work, field = trace_param(hex_to_param(FIXTURES[name]()), seed=0)
        mc = split_tori(extract_complex(work, field))
        out[f"param {name}"] = f"{_complexes(mc)} {_sha(_field(field))} {_param_digest(work)}"
    for name in SPLIT_PIES:
        pm = sanitize(add_noise(hex_to_param(FIXTURES[name]()), eps=1e-8, seed=0))
        for trace in (trace_param, trace_param_base):
            work, field = trace(pm, seed=0)
            mesh = _sha(np.asarray(work.tets).tobytes(), _param_digest(work))
            out[f"split {trace.__name__} {name}"] = f"{work.n_cells} {mesh} {_sha(_field(field))}"
    for name in QUANTIZE:
        out[f"quantize {name}"] = _quantize_digest(FIXTURES[name]())
    for seed, n in BLOBS[:QUANTIZE_BLOBS]:
        out[f"quantize blob {seed}:{n}"] = _quantize_digest(synth.random_glued_cubes(seed, n))
    for name in SANITIZE:
        noisy = add_noise(hex_to_param(FIXTURES[name]()), eps=1e-8, seed=0)
        out[f"sanitize {name}"] = _param_digest(sanitize(noisy))
    out.update(_cli_digests(tmp))
    return out


GOLDEN = {
    'blob 0:8': '6/6/4/3/8 6f271ccc181f89a8 0caf3832614a3443',
    'blob 10:30': '21/21/11/14/27 3c5731a46e3f2de8 8c3247d3f67dd7b3',
    'blob 11:35': '12/12/7/7/16 2e8369009def8f3e 0bb665cbaaaa142d',
    'blob 12:12': '8/8/5/6/11 0fa1a8d4c8355f9a 1c09585c2414e0d4',
    'blob 13:17': '9/9/5/5/14 e1f2f18ef41f7226 30334d7c4c325e89',
    'blob 14:22': '12/12/6/7/15 76f63782a353902b 8e3b051d400a1291',
    'blob 15:27': '17/17/10/9/21 c68304962a4b1abc 10275d106ec9f911',
    'blob 16:32': '22/22/11/11/30 028ccf670444c6d2 b5b550241d1755d8',
    'blob 17:9': '6/6/3/4/6 718811810fa5e56a f85ad369d7977342',
    'blob 18:14': '10/10/5/7/11 447c3c355afc002a dce6a0822c957a4f',
    'blob 19:19': '9/9/6/5/14 3aac836f535ea43e de10233b17c197e9',
    'blob 1:13': '9/9/6/6/13 7233e4813f0bf565 361d4f9aaa287648',
    'blob 2:18': '9/9/4/4/13 a0d726e16f5532cb 9d52afe766f4d25c',
    'blob 3:23': '14/14/7/8/19 8e30f429a970f6d9 624591d199c5441e',
    'blob 4:28': '16/16/10/8/25 08b44873b25e75e2 94b7717680a87371',
    'blob 5:33': '15/15/7/9/25 483b9e7cbe13edba 0b0da14389cc7ddc',
    'blob 6:10': '7/7/4/5/8 d2f9e4e53868481f 5087a442ed7181c7',
    'blob 7:15': '9/9/5/5/14 8ae5ae84594ede18 7898ef92f27da508',
    'blob 8:20': '11/11/8/8/16 b5c344ffb3ff57b0 f8e0b7b758e7bf98',
    'blob 9:25': '13/13/7/8/17 1558e22954c783bc e86edeebccdb4cac',
    'cli 0 mc-hex': 'ea87acf254d2cd6a',
    'cli 1 mc-hex': '5445b9b672fe6b98',
    'cli 2 mc-param': 'a71f2ff9c7a26ee0',
    'cli 3 sanitize': '804768614ba0a012',
    'cli 4 quantize': 'f2f37f20b75e6be8',
    'cli 5 base-complex': '6d3991e937390b9f',
    'cli 6 export': 'f567aff5d4b0e0e4',
    'cli 7 stats': '91e91602aa7961a9',
    'help base-complex': 'cc6af8caf80df5c8',
    'help export': '6e778759ec10bc97',
    'help mc-hex': '6c7165d5959320f5',
    'help mc-param': 'c4530ced53e5fbf1',
    'help quantize': 'b925d8dae550dd31',
    'help sanitize': 'b6a85dbc1813679a',
    'help stats': 'e82b915a7824f931',
    'help volmc': '770efa180f471d0e',
    'hex box': '1/1/1/1/1 6f1fcf3bc3b08847 85ed81c416799e78',
    'hex composite': '8/7/3/3/9 ec6630b170d5a6cf 4fd0fd187aa3b45d',
    'hex notch': '6/6/3/3/7 25e3485aed2d1c5f 10c164f0598f0b38',
    'hex pie3': '3/3/2/2/3 2f9a70353f2876b4 aecfa2c55527155c',
    'hex pie5': '5/5/3/3/5 b843ae568929e548 c965bac654a0c99b',
    'hex torus': '1/1/1/1/1 40d861dedb1e2a72 8e30d5501286a9f4',
    'param box': '1 ec218fee8291fd9a a56ffb3e0e798df8 3eb11a263e2c4668',
    'param pie3': '3 a7fdc4527ca9ddfe 26ac4f49adc7a165 d706aec245e62960',
    'quantize blob 0:8': 'full f7aebfbcd660410b',
    'quantize blob 1:13': 'full 507c97a508dc33cb',
    'quantize blob 2:18': 'regular 33b62d6b47fbfebe',
    'quantize blob 3:23': 'full c9fd6eb08510e0ed',
    'quantize blob 4:28': 'full 032d510498f0a76f',
    'quantize blob 5:33': 'full d19bf52b10d551a5',
    'quantize composite': 'regular 643fbc3d0ff1ae65',
    'quantize notch': 'full a85be9584142538d',
    'quantize pie3': 'full 3e91c0aaf456b0ed',
    'sanitize notch': 'd79d65603697dbbf',
    'sanitize pie3': 'f325ac5811660d18',
    'sanitize torus': '184534510cee7c98',
    'split trace_param pie3': '168 e19ba65496a1a17c 681ba4ab1572462d',
    'split trace_param pie5': '279 3fa7220297e16bfd 1cc7f5115c1c899c',
    'split trace_param_base pie3': '168 e19ba65496a1a17c 681ba4ab1572462d',
    'split trace_param_base pie5': '279 3fa7220297e16bfd 1cc7f5115c1c899c',
}



def test_golden(tmp_path):
    assert compute(tmp_path) == GOLDEN


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = compute(pathlib.Path(tmp))
    print("GOLDEN = {")
    for k in sorted(table):
        print(f"    {k!r}: {table[k]!r},")
    print("}")

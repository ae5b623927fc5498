"""Time the tet and hex ladders at one or more git revisions.

Tet ladder: rungs n = 4, 6, 8 (756, 2,580 and 6,132 tets); the input of
each is ``hex_to_param(notched_box_mesh(n))``. Three stages are timed:

- sanitize: ``sanitize(add_noise(pm, eps=1e-8, seed=0))``;
- trace + extract: ``trace_param(pm, seed=0)`` and ``extract_complex`` of
  its result;
- hexmesh: ``build_ip``, ``solve_quantization`` and ``extract_hexmesh`` at
  s = 2 on the fully reduced complex of ``notched_box_mesh(n)`` itself (the
  hex pipeline; quantization takes hex complexes only), with the number of
  hexes it outputs. The complex's arcs are read before the timer starts,
  so trees that link arcs on first read and trees that link them eagerly
  time the same work.

Hex ladder: rungs n = 120, 400, 1000, the blob ``random_glued_cubes(3, n)``
traced with ``trace_hex(hm, seed=0)`` (untimed). Nine stages are timed:

- extract: ``extract_complex`` of the traced field;
- split tori: ``split_tori`` of the extracted complex (the raw complex),
  which counts the corners of every block;
- reduce full: ``reduce_complex(raw, mode="full")``;
- link: the first read of the fully reduced complex's ``arcs`` (about zero
  on trees that link arcs during extraction and reduction). On trees that
  derive a wall's boundary segments, corners and sides on first read, it
  also derives them for each wall that reduction did not read (the
  boundary walls);
- base complex: ``base_complex(hm, seed=0)``, its tracing included. From
  the revision that added ``motorcycle_complex``, ``base_complex`` returns
  its complex torus-split, so this stage (``base_complex_s``) includes
  ``split_tori``: about 0.01 s of 0.09 s on the 1000-hex blob (median of
  7 in-process runs). The stage rises across that revision without any
  slower code;
- grid oracle: ``check_grid_blocks`` of the fully reduced complex;
- quantize at s = 1.5 and at s = 2: ``build_ip`` and ``solve_quantization``
  on the regular complex (its arcs read and ``scipy.optimize`` imported
  before the timer starts, so the stage times the solve, not the import of
  about 0.5 s). A run that raises records the exception's type name in
  place of its time, and a run that takes over 30 s is stopped and records
  ``timeout``;
- extract hexmesh: ``extract_hexmesh`` of the regular complex under the
  s = 2 lengths of the stage before (a run that raises records the
  exception's type name);

with the raw, fully reduced and base block counts, the regular complex's
arc count, the quantization objective at each scale, and the number of
hexes that ``extract_hexmesh`` outputs with a sha256 of its positions and
hexes (``quantized_hexes``, ``quantized_sha256``; equal across trees when
the outputs are equal).

Each run of a rung is a fresh Python process, which runs ``gc.collect()``
before each timed stage. Otherwise a full (generation 2) collection of
earlier stages' garbage lands in whichever stage is running: with the same
solve code, the 1000-hex ``quantize_2_s`` median read 0.017 s on one tree
and 0.069 s on the next (``BENCH_14.json``), only because such a
collection moved into that stage. Every revision is exported
with ``git archive`` to a temporary directory, so all trees run the same
way. Each rung runs 3 times per tree; runs alternate between the trees
within each round, and every other round runs the trees in reverse order,
so that a slow spell of the machine falls on all of them and a drift
within rounds does not always favour the tree that runs first (with one
fixed order, the first ``BENCH_16.json`` run read stages that no tree had
changed 14-64 % slower on the second tree). The record holds every run,
the median of each stage with its min and max beside it (or a failure,
where a run failed), the scaling exponent fitted to the medians over each
ladder (least squares in log-log; null where a rung failed), the block
counts, the output hex count and a sha256 of the sanitized parameters per
tet rung (equal across trees when the outputs are equal), git shas, the
source size per tree (``src_lines``, the total of ``wc -l src/volmc/*.py``),
the Python and numpy versions and the CPU count.

Usage::

    python tools/ladder_tet.py --rev HEAD~1 --rev HEAD --out BENCH.json
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child process: argv = [src dir, n].
CHILD = r"""
import gc, hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from volmc import synth
from volmc.cellcomplex import extract_complex, reduce_complex, split_tori
from volmc.firehex import trace_hex
from volmc.fireparam import trace_param
from volmc.quantize import build_ip, extract_hexmesh, solve_quantization
from volmc.sanitize import add_noise, sanitize
from volmc.tetparam import hex_to_param



def start():
    gc.collect()  # no collection of earlier garbage lands in the stage
    return time.perf_counter()


hm = synth.notched_box_mesh(int(sys.argv[2]))
pm = hex_to_param(hm)
noisy = add_noise(pm, eps=1e-8, seed=0)
t0 = start()
fixed = sanitize(noisy)
sanitize_s = time.perf_counter() - t0
t0 = start()
work, field = trace_param(pm, seed=0)
mc = extract_complex(work, field)
trace_extract_s = time.perf_counter() - t0
red = reduce_complex(split_tori(extract_complex(hm, trace_hex(hm, seed=0))), mode="full")
red.arcs
t0 = start()
hexes = extract_hexmesh(red, solve_quantization(build_ip(red, 2.0))).hexes
hexmesh_s = time.perf_counter() - t0
digest = hashlib.sha256(b"".join(np.asarray(p).tobytes() for p in fixed.params)).hexdigest()
print(json.dumps({"tets": pm.n_cells, "sanitize_s": sanitize_s,
                  "trace_extract_s": trace_extract_s, "hexmesh_s": hexmesh_s,
                  "blocks": len(mc.blocks), "hexes": len(hexes), "sanitized_sha256": digest}))
"""

# Runs in the child process: argv = [src dir, n].
HEX_CHILD = r"""
import gc, hashlib, json, signal, sys, time
sys.path.insert(0, sys.argv[1])
import scipy.optimize  # imported before timing, so the quantize stage times the solve only
from volmc import synth
from volmc.cellcomplex import (base_complex, check_grid_blocks, extract_complex,
                               reduce_complex, split_tori)
from volmc.firehex import trace_hex
from volmc.quantize import build_ip, extract_hexmesh, solve_quantization



def start():
    gc.collect()  # no collection of earlier garbage lands in the stage
    return time.perf_counter()


hm = synth.random_glued_cubes(3, int(sys.argv[2]))
field = trace_hex(hm, seed=0)
out = {"hexes": hm.n_cells}
t0 = start()
mc = extract_complex(hm, field)
out["extract_s"] = time.perf_counter() - t0
t0 = start()
raw = split_tori(mc)
out["split_tori_s"] = time.perf_counter() - t0
t0 = start()
full = reduce_complex(raw, mode="full")
out["reduce_full_s"] = time.perf_counter() - t0
t0 = start()
full.arcs
out["link_s"] = time.perf_counter() - t0
t0 = start()
bc = base_complex(hm, seed=0)
out["base_complex_s"] = time.perf_counter() - t0
t0 = start()
check_grid_blocks(full)
out["grid_oracle_s"] = time.perf_counter() - t0
out.update(raw_blocks=len(raw.blocks), full_blocks=len(full.blocks),
           base_blocks=len(bc.blocks))
reg = reduce_complex(raw, mode="regular")
out["regular_arcs"] = len(reg.arcs)


def stop(signum, frame):
    raise TimeoutError


signal.signal(signal.SIGALRM, stop)
lengths = {}
for s in (1.5, 2):
    signal.alarm(30)
    t7 = start()
    try:
        qp = build_ip(reg, s)
        ell = lengths[s] = solve_quantization(qp)
        out[f"quantize_{s}_s"] = time.perf_counter() - t7
        out[f"objective_{s}"] = sum((ell[a] - qp.targets[a]) ** 2 for a in qp.arcs)
    except TimeoutError:
        out[f"quantize_{s}_s"] = "timeout"
    except Exception as exc:
        out[f"quantize_{s}_s"] = type(exc).__name__
    finally:
        signal.alarm(0)
t0 = start()
try:
    hx = extract_hexmesh(reg, lengths[2])
    out["extract_hexmesh_s"] = time.perf_counter() - t0
    out["quantized_hexes"] = len(hx.hexes)
    out["quantized_sha256"] = hashlib.sha256(hx.positions.tobytes() + hx.hexes.tobytes()).hexdigest()
except Exception as exc:
    out["extract_hexmesh_s"] = type(exc).__name__
print(json.dumps(out))
"""

# Per ladder: child script, rungs, timed stages, the size that the exponents
# are fitted over, and the per-rung facts that are the same in every run.
LADDERS = {
    "tet": (CHILD, (4, 6, 8), ("sanitize_s", "trace_extract_s", "hexmesh_s"), "tets",
            ("blocks", "hexes", "sanitized_sha256")),
    "hex": (HEX_CHILD, (120, 400, 1000),
            ("extract_s", "split_tori_s", "reduce_full_s", "link_s", "base_complex_s",
             "grid_oracle_s", "quantize_1.5_s", "quantize_2_s", "extract_hexmesh_s"), "hexes",
            ("raw_blocks", "full_blocks", "base_blocks", "regular_arcs", "objective_1.5",
             "objective_2", "quantized_hexes", "quantized_sha256")),
}
RUNS = 3


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev, into):
    """The ``src`` directory of revision ``rev`` and the record of where it
    came from, with its line count."""
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                         check=True).stdout
    dest = Path(into) / rev.replace("/", "_")
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        # The "data" filter, where this Python has it, refuses unsafe members.
        tf.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    lines = sum(p.read_bytes().count(b"\n") for p in (dest / "src" / "volmc").glob("*.py"))
    return dest / "src", {"rev": rev, "git_sha": git("rev-parse", rev), "src_lines": lines}


def measure(child, src, n):
    out = subprocess.run([sys.executable, "-c", child, str(src), str(n)], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def summary(values):
    """Median, min and max of the run times; each is the first failure
    ("timeout" or an exception's type name) when a run failed."""
    failed = [v for v in values if isinstance(v, str)]
    if failed:
        return failed[:1] * 3
    return statistics.median(values), min(values), max(values)


def exponent(tets, seconds):
    if any(isinstance(x, str) for x in seconds):
        return None
    return float(np.polyfit(np.log(tets), np.log(seconds), 1)[0])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--rev", action="append", required=True,
                    help="git revision to time; repeat for each tree")
    ap.add_argument("--out", help="write the JSON record here as well as to stdout")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = [export(rev, tmp) for rev in args.rev]
        runs = {}  # (ladder, tree, n) -> runs
        for r in range(RUNS):
            order = list(enumerate(trees))[::-1 if r % 2 else 1]
            for ladder, (child, sizes, *_) in LADDERS.items():
                for n in sizes:
                    for i, (src, _) in order:
                        runs.setdefault((ladder, i, n), []).append(measure(child, src, n))

    record = {
        "ladder": "hex_to_param(notched_box_mesh(n))",
        "stages": {
            "sanitize_s": "sanitize(add_noise(pm, eps=1e-8, seed=0))",
            "trace_extract_s": "trace_param(pm, seed=0) + extract_complex",
            "hexmesh_s": "build_ip + solve_quantization + extract_hexmesh at s = 2 on the "
                         "fully reduced hex complex of notched_box_mesh(n), its arcs read "
                         "before timing",
        },
        "hex_ladder": "random_glued_cubes(3, n), traced by trace_hex(hm, seed=0)",
        "hex_stages": {
            "extract_s": "extract_complex of the traced field",
            "split_tori_s": "split_tori of the extracted complex",
            "reduce_full_s": "reduce_complex(split_tori(raw), mode='full')",
            "link_s": "first read of the fully reduced complex's arcs, deriving the facts "
                      "of walls not read before",
            "base_complex_s": "base_complex(hm, seed=0), tracing included",
            "grid_oracle_s": "check_grid_blocks of the fully reduced complex",
            "quantize_1.5_s": "build_ip + solve_quantization at s = 1.5 on the regular "
                              "complex, its arcs read before timing; a failed run records "
                              "the exception's type name, one over 30 s 'timeout'",
            "quantize_2_s": "the same at s = 2",
            "extract_hexmesh_s": "extract_hexmesh of the regular complex under the s = 2 "
                                 "lengths; a failed run records the exception's type name",
        },
        "statistic": f"median, min and max of {RUNS} runs, one process per run; the trees "
                     "alternate within each round, in reverse order every other round",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "trees": [],
    }
    for i, (_, info) in enumerate(trees):
        for ladder, (_, sizes, stages, size, facts) in LADDERS.items():
            rungs = []
            for n in sizes:
                rs = runs[ladder, i, n]
                rung = {"n": n, size: rs[0][size], **{k: rs[0].get(k) for k in facts}}
                for stage in stages:
                    rung[stage] = [r[stage] for r in rs]
                    (rung[stage + "_median"], rung[stage + "_min"],
                     rung[stage + "_max"]) = summary(rung[stage])
                rungs.append(rung)
            prefix = "" if ladder == "tet" else ladder + "_"
            info[prefix + "ladder"] = rungs
            info[prefix + "exponents"] = {
                stage: exponent([r[size] for r in rungs], [r[stage + "_median"] for r in rungs])
                for stage in stages
            }
        record["trees"].append(info)
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()

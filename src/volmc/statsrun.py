"""Corpus statistics: one row per model with block counts of the base
complex (BC), the reduced base complex (BC-), the raw complex, both
reduction levels (MC+ and MC), T-arc percentage, torus splits, and
per-phase timings.

Results are cached per model by content hash, so interrupted sweeps resume
where they left off. Failures become error rows; the sweep never aborts.
"""

import csv
import hashlib
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from .cellcomplex import (_trace, base_complex, extract_complex, is_cuboid, reduce_complex,
                          split_tori)
from .errors import VolmcError
from .meshio import read_mesh

COLUMNS = [
    "model", "tets", "hexes", "BC", "BC-", "raw", "MC+", "MC",
    "MC+/BC%", "MC/BC%", "T%", "torus_splits",
    "t_trace", "t_build", "t_reduce", "error",
]

MESH_SUFFIXES = (".mesh", ".vtk", ".param")


def model_stats(path, seed=0) -> dict:
    """Pipeline statistics for one model file (hex mesh or tet param)."""
    row = {c: "" for c in COLUMNS}
    row["model"] = os.path.splitext(os.path.basename(path))[0]
    mesh = read_mesh(path)
    row["hexes" if mesh.kind == "hex" else "tets"] = mesh.n_cells
    t0 = time.perf_counter()
    mesh, field = _trace(mesh, seed)
    t1 = time.perf_counter()
    raw = extract_complex(mesh, field)
    n_tori = sum(not is_cuboid(raw, b.id) for b in raw.blocks)
    mc = split_tori(raw)
    n_arcs = len(mc.arcs)  # links its arcs inside t_build
    t2 = time.perf_counter()
    plus = reduce_complex(mc, mode="regular")
    full = reduce_complex(mc, mode="full")
    t3 = time.perf_counter()
    bc = base_complex(mesh, seed=seed)
    bcr = reduce_complex(bc, mode="full")
    row["BC"] = len(bc.blocks)
    row["BC-"] = len(bcr.blocks)
    row["raw"] = len(mc.blocks)
    row["MC+"] = len(plus.blocks)
    row["MC"] = len(full.blocks)
    row["MC+/BC%"] = f"{100.0 * len(plus.blocks) / len(bc.blocks):.1f}"
    row["MC/BC%"] = f"{100.0 * len(full.blocks) / len(bc.blocks):.1f}"
    row["T%"] = f"{100.0 * sum(a.tarc for a in mc.arcs) / n_arcs:.1f}" if n_arcs else "0.0"
    row["torus_splits"] = n_tori
    row["t_trace"] = f"{t1 - t0:.3f}"
    row["t_build"] = f"{t2 - t1:.3f}"
    row["t_reduce"] = f"{t3 - t2:.3f}"
    return row


def _one(args):
    """(row, cacheable): only rows of a success or a VolmcError are cached;
    any other error may be a fault of the program rather than of the file."""
    path, seed = args
    try:
        return model_stats(path, seed=seed), True
    except Exception as exc:  # error rows, never abort the sweep
        row = {c: "" for c in COLUMNS}
        row["model"] = os.path.splitext(os.path.basename(path))[0]
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row, isinstance(exc, VolmcError)


def _content_hash(path, seed):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    h.update(f"seed={seed}".encode())
    return h.hexdigest()


def _write_cache(cache_path, cache):
    """Replace the cache file atomically, so an interrupted sweep keeps every
    model finished before the interruption."""
    tmp = cache_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(cache, fh, indent=1, sort_keys=True)
    os.replace(tmp, cache_path)


def run_stats(corpus_dir, seed=0, jobs=1, cache_path=None):
    """Rows for every model file in ``corpus_dir`` (sorted by name)."""
    paths = sorted(
        os.path.join(corpus_dir, n)
        for n in os.listdir(corpus_dir)
        if n.endswith(MESH_SUFFIXES)
    )
    cache = {}
    if cache_path and os.path.exists(cache_path):
        with open(cache_path) as fh:
            cache = json.load(fh)
    rows = []
    todo = []
    for p in paths:
        key = _content_hash(p, seed)
        if key in cache:
            rows.append((p, cache[key]))
        else:
            todo.append((p, key))
    args = [(p, seed) for p, _ in todo]
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 and todo else nullcontext() as pool:
        done = pool.map(_one, args) if pool else map(_one, args)
        for (p, key), (row, cacheable) in zip(todo, done):
            rows.append((p, row))
            if cacheable and cache_path:
                cache[key] = row
                _write_cache(cache_path, cache)
    return [row for _, row in sorted(rows)]


def format_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=COLUMNS, delimiter=";", lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def format_table(rows) -> str:
    cells = [COLUMNS] + [[str(r[c]) for c in COLUMNS] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(COLUMNS))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
    )

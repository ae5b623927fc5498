"""The benchmark workloads and the pass that times and checks them.

Every workload is a closed loop with one client in one process: each
operation starts when the previous one has returned. The only parallelism is
`volmc stats --jobs 2`, matching a 2-CPU machine.

Two workloads, so that each part of volmc a later change may optimise runs
heavily in one and hardly at all in the other, where the prediction for that
change is "no change":

- hex-blobs: random blobs with many walls through the hex pipeline; wall
  reduction dominates. The meshes are built in setup, and the sanitizer,
  the quantizer, file IO and the CLI never run.
- param-quantize-cli: three parts in each pass. `param`: seamless tet
  parametrizations (sanitizer, parametrization tracer). `quantize`: reduced
  complexes built in setup, quantized over a scale ladder, written and read
  back. `cli`: `python -m volmc.cli` subprocesses on fixed shapes and a
  `stats` sweep cold and warm. The meshes have few walls, so reduction is a
  small share.

A run is short of time for more workloads: CPU speed on a shared 2-CPU
machine drifts by tens of percent over tens of seconds, and only runs of
half a minute or more average that out.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial

import numpy as np

from volmc import cellcomplex as cc
from volmc import fireparam, firehex, meshio, quantize, synth, tetparam

# The package re-exports the function sanitize under the module's name.
san = importlib.import_module("volmc.sanitize")

# Tie-breaking seed passed to volmc's tracers. The workload seed only shapes
# the generated inputs; the program itself always runs with its default.
TIE_SEED = 0

# Items per pass. "full" is the measured size; "smoke" only shows that every
# workload and metric runs.
SIZES = {
    "full": {
        "hex-blobs": {"blobs": [30, 40, 50, 60, 70], "per_size": 8},
        "param-quantize-cli": {
            "param": {"notch": [2, 3], "fixtures": ["box", "pie3", "pie5", "torus"], "blobs": [6]},
            "quantize": {"blobs": 2, "scales": [1, 2, 3], "notch": 4, "pie_layers": 3},
            "cli": {"notch": 8, "param_notch": 2, "corpus": [10, 15, 20, 25]},
        },
    },
    "smoke": {
        "hex-blobs": {"blobs": [6, 10], "per_size": 1},
        "param-quantize-cli": {
            "param": {"notch": [2], "fixtures": ["pie3"], "blobs": [4]},
            "quantize": {"blobs": 1, "scales": [1, 2], "notch": 2, "pie_layers": 1},
            "cli": {"notch": 2, "param_notch": 2, "corpus": [4]},
        },
    },
}


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _digest(*mcs):
    """Block counts and a sha256 of the sorted wall facet sets."""
    counts = "/".join(str(len(mc.blocks)) for mc in mcs)
    return f"{counts} {_sha(*(sorted(mc.wall_facet_set()) for mc in mcs))}"


def _partition(mc):
    cells = sorted(c for b in mc.blocks for c in b.cells)
    _check(cells == list(range(mc.mesh.n_cells)), "blocks do not partition the cells")


def _grid(mc, dims=None):
    dims = cc.check_grid_blocks(mc) if dims is None else dims
    _check(
        all(l * m * n == len(b.cells) for (l, m, n), b in zip(dims, mc.blocks)),
        "grid oracle: block is not a full l x m x n box",
    )


def _singular_mids(pm):
    out = set()
    for e in pm.singular_edges():
        a, b = pm.edge_keys[e]
        out.add(tuple(np.round((pm.positions[a] + pm.positions[b]) / 2, 9)))
    return out


def _quantizable(mc):
    """The fullest reduction without slit or annulus walls, or None."""
    for mode in ("full", "regular"):
        red = cc.reduce_complex(mc, mode=mode)
        if not any(w.slit or w.annulus for w in red.walls):
            return red
    return None


class Pass:
    """One pass over a workload's items. Operations record their latency;
    their output checks run in `verify`, after the timed part of the pass."""

    def __init__(self, index, tracer=None):
        self.index = index
        self.tracer = tracer
        self.wall = 0.0
        self.ops = []  # (item, op, seconds, timed)
        self.stages = defaultdict(float)
        self.counts = defaultdict(float)
        self.failures = []  # (item, op, "Type: message", known defect)
        self.digests = {}  # "item/op" -> output digest
        self._checks = []

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] += time.perf_counter() - t0

    def op(self, item, name, fn, check, timed=True, known=False):
        """Run ``fn`` as one operation. ``check(output)`` raises on a wrong
        output and returns its digest. ``known`` marks an operation whose
        raise is a known defect: it still counts as failed, but does not make
        the run incorrect."""
        if self.tracer:
            self.tracer.item = (self.index, item)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            self.ops.append((item, name, time.perf_counter() - t0, timed))
            self.failures.append((item, name, f"{type(exc).__name__}: {exc}", known))
            return
        self.ops.append((item, name, time.perf_counter() - t0, timed))
        self._checks.append((item, name, out, check))

    def verify(self):
        for item, name, out, check in self._checks:
            try:
                self.digests[f"{item}/{name}"] = check(out)
            except Exception as exc:
                self.failures.append((item, name, f"{type(exc).__name__}: {exc}", False))
        self._checks.clear()


class Workload:
    def __init__(self, seed, cfg, workdir):
        self.seed = seed
        self.cfg = cfg
        self.workdir = workdir
        self.sizes = {}  # item -> input or output size, for scaling exponents
        self.refs = {}  # item -> oracle values, computed once per run

    def setup(self, batch):
        """Build the inputs of pass number ``batch``."""
        raise NotImplementedError

    def run_pass(self, p):
        raise NotImplementedError

    def after_pass(self, p):
        """Operations attempted outside the timed region."""


class HexBlobs(Workload):
    """Seeded random glued-cube blobs, several per rung of a size ladder,
    each through the hex pipeline as one operation: trace -> extract ->
    split tori -> reduce regular and full -> grid oracle, then the base
    complex. Random shapes vary a lot in cost, so every pass draws fresh
    blobs from the seed, which keeps a run's mean steady from seed to seed."""

    def setup(self, batch):
        self.blobs = {}
        for i, n in enumerate(self.cfg["blobs"] * self.cfg["per_size"]):
            item = f"pass{batch}-blob{n}-{i}"
            self.blobs[item] = synth.random_glued_cubes(f"{self.seed}:{batch}:{i}", n)
            self.sizes[item] = n

    def run_pass(self, p):
        for item, hm in self.blobs.items():
            p.op(item, "pipeline", partial(self._pipeline, p, hm), self._check)

    def _pipeline(self, p, hm):
        with p.stage("complex"):
            raw = cc.split_tori(cc.extract_complex(hm, firehex.trace_hex(hm, seed=TIE_SEED)))
            plus = cc.reduce_complex(raw, mode="regular")
            full = cc.reduce_complex(raw, mode="full")
            dims = cc.check_grid_blocks(full)
        bc = cc.split_tori(cc.base_complex(hm, seed=TIE_SEED))
        return raw, plus, full, dims, bc

    @staticmethod
    def _check(out):
        raw, plus, full, dims, bc = out
        _grid(full, dims)
        _grid(plus)
        _grid(raw)
        _check(cc.removable_walls(full, mode="full") == [], "removable wall after full reduction")
        _check(cc.removable_walls(plus, mode="regular") == [], "removable wall after regular reduction")
        _check(len(full.blocks) <= len(plus.blocks) <= len(raw.blocks), "MC <= MC+ <= raw violated")
        _check(len(full.blocks) <= len(bc.blocks), "MC <= BC violated")
        _check(full.wall_facet_set() <= bc.wall_facet_set(), "MC walls not a subset of BC walls")
        for mc in (raw, plus, full, bc):
            _partition(mc)
        return _digest(raw, plus, full, bc)


class ParamPart(Workload):
    """Part `param`: exactly seamless parametrizations (hex_to_param) of a
    notched-box ladder, synth fixtures and a seeded blob: sanitize a noisy
    copy and verify it, trace the clean one to a fully reduced complex, build
    the base complex. After the first pass, tracing the sanitized copies is
    attempted as well (a known defect)."""

    FIXTURES = {
        "box": lambda: synth.box_mesh(2, 2, 2),
        "pie3": lambda: synth.pie_mesh(3),
        "pie5": lambda: synth.pie_mesh(5),
        "torus": lambda: synth.torus_mesh(),
    }

    def setup(self, batch):
        meshes = {f"notch{n}": synth.notched_box_mesh(n) for n in self.cfg["notch"]}
        for name in self.cfg["fixtures"]:
            meshes[name] = self.FIXTURES[name]()
        for i, n in enumerate(self.cfg["blobs"]):
            meshes[f"blob{n}"] = synth.random_glued_cubes(self.seed * 1000 + i, n)
        self.items = {}
        for i, (item, hm) in enumerate(meshes.items()):
            pm = tetparam.hex_to_param(hm)
            noisy = san.add_noise(pm, eps=1e-8, seed=self.seed * 1000 + i)
            self.items[item] = (hm, pm, noisy)
            self.sizes[item] = pm.n_cells

    def _ref(self, item):
        """Oracles from the hex pipeline on the same polycube: the raw block
        count (None for blobs, see below), the base complex block count, and
        the singular edge midpoints of the clean parametrization.

        The raw complex depends on the order in which equally distant fronts
        are processed, and the two pipelines order their ignition sources
        differently. On the symmetric notched boxes the raw counts agree; on
        random blobs they can differ by a block either way (the hex count
        alone changes with the tie-breaking seed), so there only the base
        complex, which does not depend on that order, is compared."""
        if item not in self.refs:
            hm, pm, _ = self.items[item]
            raw = None
            if not item.startswith("blob"):
                raw = cc.split_tori(cc.extract_complex(hm, firehex.trace_hex(hm, seed=TIE_SEED)))
            bc = cc.split_tori(cc.base_complex(hm, seed=TIE_SEED))
            self.refs[item] = (raw and len(raw.blocks), len(bc.blocks), _singular_mids(pm))
        return self.refs[item]

    def _check_raw_count(self, item, raw):
        want = self._ref(item)[0]
        _check(want is None or len(raw.blocks) == want,
               "raw block count differs from the hex pipeline")

    def run_pass(self, p):
        self.fixed = {}
        for item, (hm, pm, noisy) in self.items.items():
            p.op(item, "sanitize", partial(self._sanitize, p, item, noisy), self._digest_param)
            p.op(item, "verify", partial(self._verify, p, item), partial(self._check_verify, item))
            p.op(item, "complex", partial(self._complex, p, pm),
                 partial(self._check_complex, item))
            p.op(item, "base", partial(self._base, pm), partial(self._check_base, item))

    def after_pass(self, p):
        if p.index:
            return  # once per run: the attempt takes as long as a pass's sanitizing
        for item, fixed in self.fixed.items():
            p.op(item, "trace_sanitized", partial(self._raw, fixed),
                 partial(self._check_raw, item), timed=False, known=True)

    def _sanitize(self, p, item, noisy):
        with p.stage("sanitize"):
            self.fixed[item] = san.sanitize(noisy)
        return self.fixed[item]

    def _verify(self, p, item):
        with p.stage("sanitize"):
            return self.fixed[item], san.verify_seamless(self.fixed[item])

    def _complex(self, p, pm):
        with p.stage("complex"):
            work, field = fireparam.trace_param(pm, seed=TIE_SEED)
            raw = cc.split_tori(cc.extract_complex(work, field))
            full = cc.reduce_complex(raw, mode="full")
        p.counts["refined_tets"] += work.n_cells
        p.counts["input_tets"] += pm.n_cells
        return raw, full

    def _base(self, pm):
        return cc.split_tori(cc.base_complex(pm, seed=TIE_SEED))

    def _raw(self, pm):
        work, field = fireparam.trace_param(pm, seed=TIE_SEED)
        return cc.split_tori(cc.extract_complex(work, field))

    @staticmethod
    def _digest_param(pm):
        return _sha(np.asarray(pm.positions).tobytes(),
                    *(np.asarray(par).tobytes() for par in pm.params if par is not None))

    def _check_verify(self, item, out):
        fixed, bad = out
        _check(bad == [], f"{len(bad)} seamlessness violations after sanitize")
        _check(_singular_mids(fixed) == self._ref(item)[2], "sanitize moved the singular edges")
        return len(bad)

    def _check_complex(self, item, out):
        raw, full = out
        self._check_raw_count(item, raw)
        _check(cc.removable_walls(full, mode="full") == [], "removable wall after full reduction")
        _check(full.wall_facet_set() <= raw.wall_facet_set(), "MC walls not a subset of raw walls")
        _partition(raw)
        _partition(full)
        return _digest(raw, full)

    def _check_base(self, item, bc):
        _check(len(bc.blocks) == self._ref(item)[1], "BC block count differs from the hex pipeline")
        _partition(bc)
        return _digest(bc)

    def _check_raw(self, item, raw):
        self._check_raw_count(item, raw)
        _partition(raw)
        return _digest(raw)


class QuantizePart(Workload):
    """Part `quantize`: quantizable reduced complexes (built in setup) over a
    scale ladder: build_ip -> solve_quantization -> extract_hexmesh -> write
    and re-read the hex mesh."""

    def setup(self, batch):
        cfg = self.cfg
        meshes = {
            "composite": synth.composite_mesh(),
            f"notch{cfg['notch']}": synth.notched_box_mesh(cfg["notch"]),
            "pie5": synth.pie_mesh(5, cfg["pie_layers"]),
        }
        complexes = {}
        for name, hm in meshes.items():
            complexes[name] = _quantizable(self._raw(hm))
        sub = 0
        for k in range(cfg["blobs"]):
            red = None
            while red is None:  # like criterion 8: skip blobs with slit walls
                hm = synth.random_glued_cubes(self.seed * 1000 + sub, 10 + k)
                red = _quantizable(self._raw(hm))
                sub += 1
            complexes[f"blob{k}"] = red
        self.complexes = complexes
        os.makedirs(self.workdir, exist_ok=True)

    def _raw(self, hm):
        return cc.split_tori(cc.extract_complex(hm, firehex.trace_hex(hm, seed=TIE_SEED)))

    def run_pass(self, p):
        for name, red in self.complexes.items():
            for s in self.cfg["scales"]:
                item = f"{name}@s{s}"
                path = os.path.join(self.workdir, f"{item}.mesh")
                p.op(item, "quantize", partial(self._quantize, p, red, float(s), path),
                     partial(self._check, item, path))

    def _quantize(self, p, red, s, path):
        with p.stage("hexmesh"):
            qp = quantize.build_ip(red, s)
            ell = quantize.solve_quantization(qp)
            hx = quantize.extract_hexmesh(red, ell)
        meshio.write_hex_mesh(hx, path)
        return qp, ell, hx, meshio.read_hex_mesh(path)

    def _check(self, item, path, out):
        qp, ell, hx, back = out
        for row in qp.rows:
            _check(sum(c * ell[a] for a, c in row.items()) == 0, "balance row does not sum to zero")
        _check(np.array_equal(np.asarray(hx.hexes), np.asarray(back.hexes))
               and np.array_equal(np.asarray(hx.positions), np.asarray(back.positions)),
               ".mesh round trip changed the mesh")
        self.sizes[item] = len(hx.hexes)
        with open(path, "rb") as fh:
            return f"{len(hx.hexes)} {_sha(fh.read())}"


class CliPart(Workload):
    """Part `cli`: `python -m volmc.cli` on files written in setup: every
    subcommand once, then `stats --jobs 2 --cache` into an empty cache and
    again with the cache filled."""

    def setup(self, batch):
        cfg, seed, d = self.cfg, self.seed, self.workdir
        os.makedirs(os.path.join(d, "corpus"), exist_ok=True)
        os.makedirs(os.path.join(d, "out"), exist_ok=True)

        def path(name):
            return os.path.join(d, name)

        meshio.write_hex_mesh(synth.notched_box_mesh(cfg["notch"]), path("notch.mesh"))
        meshio.write_hex_mesh(synth.composite_mesh(), path("composite.vtk"))
        meshio.write_hex_mesh(synth.pie_mesh(5, 2), path("pie.mesh"))
        pm = tetparam.hex_to_param(synth.notched_box_mesh(cfg["param_notch"]))
        meshio.write_param(pm, path("notch.param"))
        meshio.write_param(san.add_noise(pm, eps=1e-8, seed=seed), path("noisy.param"))
        for i, n in enumerate(cfg["corpus"]):
            hm = synth.random_glued_cubes(seed * 1000 + i, n)
            meshio.write_hex_mesh(hm, path(f"corpus/b{i}.mesh"))
        meshio.write_param(pm, path("corpus/notch.param"))
        self.n_models = len(cfg["corpus"]) + 1
        # Single commands run on fixed shapes: one invocation's latency is
        # one sample, and a random blob's cost varies too much from seed to
        # seed. Seeded inputs are the noise of noisy.param and the corpus.
        self.commands = [
            ("notch", ["mc-hex", "notch.mesh", "--output", "out/mc-hex.obj"]),
            ("composite", ["mc-hex", "composite.vtk", "--output", "out/mc-hex-vtk.obj"]),
            ("notch", ["mc-param", "notch.param", "--output", "out/mc-param.obj"]),
            ("noisy", ["sanitize", "noisy.param", "--output", "out/fixed.param"]),
            ("pie", ["quantize", "pie.mesh", "--scale", "2",
                     "--output", "out/q.mesh", "--report", "out/q.txt"]),
            ("notch", ["base-complex", "notch.mesh", "--output", "out/bc.obj"]),
            ("composite", ["export", "composite.vtk", "--explode", "0.3",
                           "--output", "out/exploded.obj"]),
        ]
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cc.__file__)))

    def run_pass(self, p):
        for item, argv in self.commands:
            p.op(item, f"cli.{argv[0]}", partial(self._invoke, argv), self._check)
        # Setup starts from an empty directory, so the first sweep has no cache.
        for phase in ("cold", "warm"):
            argv = ["stats", "corpus", "--jobs", "2",
                    "--cache", "cache.json", "--output", f"out/{phase}.csv"]
            with p.stage(f"stats_{phase}"):
                p.op(f"corpus-{phase}", "cli.stats", partial(self._invoke, argv),
                     partial(self._check_stats, p, phase))

    def _invoke(self, argv):
        res = subprocess.run([sys.executable, "-m", "volmc.cli", *argv], cwd=self.workdir,
                             env=self.env, capture_output=True, timeout=120)
        return argv, res

    def _check(self, out):
        argv, res = out
        _check(res.returncode == 0,
               f"exit code {res.returncode}: {res.stderr.decode(errors='replace')[-300:]}")
        parts = [res.stdout]
        for flag in ("--output", "--report"):
            if flag in argv:
                with open(os.path.join(self.workdir, argv[argv.index(flag) + 1]), "rb") as fh:
                    parts.append(fh.read())
        return _sha(*parts)

    def _check_stats(self, p, phase, out):
        digest = self._check(out)
        if phase == "warm":
            csv = {}
            for name in ("cold", "warm"):
                with open(os.path.join(self.workdir, f"out/{name}.csv"), "rb") as fh:
                    csv[name] = fh.read()
            _check(csv["cold"] == csv["warm"], "cold and warm stats CSVs differ")
            with open(os.path.join(self.workdir, "cache.json")) as fh:
                misses = len(json.load(fh)) - self.n_models
            p.counts["stats_hits"] += self.n_models - misses
            p.counts["stats_lookups"] += self.n_models
        return digest


class ParamQuantizeCli(Workload):
    """The param, quantize and cli parts, one after the other in each pass."""

    PARTS = {"param": ParamPart, "quantize": QuantizePart, "cli": CliPart}

    def __init__(self, seed, cfg, workdir):
        super().__init__(seed, cfg, workdir)
        self.parts = []
        for name, cls in self.PARTS.items():
            part = cls(seed, cfg[name], os.path.join(workdir, name))
            part.sizes, part.refs = self.sizes, self.refs
            self.parts.append(part)

    def setup(self, batch):
        for part in self.parts:
            part.setup(batch)

    def run_pass(self, p):
        for part in self.parts:
            part.run_pass(p)

    def after_pass(self, p):
        for part in self.parts:
            part.after_pass(p)


WORKLOADS = {"hex-blobs": HexBlobs, "param-quantize-cli": ParamQuantizeCli}

"""In-memory span recorder that times volmc's public functions from outside.

`Tracer.install` rebinds every public (non-underscore) function of the volmc
modules, in every module that holds a reference to it, to a timing wrapper;
`Tracer.uninstall` puts the originals back. The mesh constructors
`HexMesh.__init__` and `ParamTetMesh.__init__` and the method
`ParamTetMesh.split_edge` are wrapped on their classes. Nothing under `src/`
changes.

A span is `(name, start, end, parent index, item)`; spans stay in memory
until `dump` writes them out.
"""

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = (
    "cellcomplex", "firehex", "fireparam", "hexmesh", "meshio", "octahedral",
    "quantize", "sanitize", "statsrun", "synth", "tetparam",
)


def _reduce_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "full")
    return f"cellcomplex.reduce_{mode}"


# Span names that depend on the call's arguments, and counters taken from a
# call's arguments or result.
NAMERS = {"cellcomplex.reduce_complex": _reduce_name}
COUNTERS = {
    "meshio.write_hex_mesh": lambda a, k, r: {"meshio.bytes": os.path.getsize(a[1])},
    "meshio.read_hex_mesh": lambda a, k, r: {"meshio.bytes": os.path.getsize(a[0])},
    "hexmesh.HexMesh": lambda a, k, r: {"hexmesh.HexMesh.cells": len(a[2])},
    "quantize.extract_hexmesh": lambda a, k, r: {"quantize.out_hexes": len(r.hexes)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)  # (counter, item) -> total
        self.item = None  # set by the workload before each operation
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        namer, counter = NAMERS.get(name), COUNTERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = namer(args, kwargs) if namer else name
                spans[idx] = (label, t0, t1, parent, self.item)
            if counter:
                for key, n in counter(args, kwargs, result).items():
                    counts[key, self.item] += n
            return result

        return timed

    def install(self):
        import volmc
        from volmc import hexmesh, tetparam

        mods = [importlib.import_module(f"volmc.{m}") for m in MODULES]
        originals = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = self.wrap(f"{short}.{name}", obj)
        for mod in mods + [volmc]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, originals[id(obj)])
        for cls, attr, label in (
            (hexmesh.HexMesh, "__init__", "hexmesh.HexMesh"),
            (tetparam.ParamTetMesh, "__init__", "tetparam.ParamTetMesh"),
            (tetparam.ParamTetMesh, "split_edge", "tetparam.split_edge"),
        ):
            orig = vars(cls)[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(label, orig))

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    def summary(self):
        """Per span name: calls, inclusive seconds of the outermost spans of
        that name, and self seconds (duration minus time covered by child
        spans), keyed further by the span's item."""
        child = [0.0] * len(self.spans)
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, item) in enumerate(self.spans):
            rec = out[name][item]
            rec[0] += 1
            rec[2] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                rec[1] += t1 - t0
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "item"],
                "names": names,
                "spans": [[index[n], t0, t1, p, item] for n, t0, t1, p, item in self.spans],
                "counts": [[k, item, n] for (k, item), n in self.counts.items()],
            }, fh)

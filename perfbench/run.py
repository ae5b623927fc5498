"""volmc benchmark: one seeded workload per run, outputs checked, metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hex-blobs --seed 0 --seconds 30 --trace 0

Workloads: hex-blobs and param-quantize-cli (see workloads.py for what each
one stresses and why).

Inputs are generated from --seed with volmc.synth in setup; the program
itself always runs with its default tie-breaking seed. Setup runs SETUP_RUNS
times and again before every pass, so no pass reuses what an earlier one
cached on its inputs; it is timed on its own (setup_s). The timed phase runs
whole passes over the workload's items, at least MIN_PASSES, while one more
pass fits in --seconds. Every operation's output is
checked after its pass, outside the timed region; a raise or a failed check
makes the operation failed. At the default seed, output digests are also
compared with digests.json (regenerate with --write-digests after an
intended output change).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the run record (git
sha, versions, CPU count, load, tail percentile and every failure with its
exception type and message).

--trace 0 reports the end-to-end metrics, measured without tracing:
  setup_s      median set-up time (inputs generated, files written)
  wall_s       mean wall time of one pass
  peak_rss_mb  largest resident set of this process or any child; a pass
               keeps its outputs until their checks run
  ok_ratio     (attempted - failed) / attempted
--trace 1 alternates untraced passes with passes that have volmc's public
functions wrapped (spans.py) and reports the per-layer metrics listed in
BENCHMARK.json: from the untraced passes the stage times and the latency of
one operation (one model through one pipeline step in-process, or one volmc
invocation; its mean over passes, then the median and TAIL_PERCENTILE over
operations), from the traced passes span times and counts per pass and the
scaling exponents, and the tracing overhead. Operation latencies are not
end-to-end metrics: single operations are short, and their percentiles move
with the machine's speed far more than a whole pass does. Metrics of
modules that a workload does not run read 0. The spans are written to
.volmc_bench/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".volmc_bench"

DEFAULT_SEED = 0
SETUP_RUNS = 3
# CPU speed on a shared machine drifts by tens of percent over tens of
# seconds; a mean over passes spread across half a minute or more is the
# steadiest figure, so a run times at least MIN_PASSES passes.
MIN_PASSES = 3
# Every full-size workload has at least 40 distinct operations per pass, so
# 10 or more lie beyond the 75th percentile.
TAIL_PERCENTILE = 75

CLI_COMMANDS = ("mc-hex", "mc-param", "sanitize", "quantize", "base-complex", "export", "stats")
STAGES = ("complex", "sanitize", "hexmesh", "stats_cold", "stats_warm")
SPAN_METRICS = (
    "cellcomplex.extract_complex.s", "cellcomplex.extract_complex.calls",
    "cellcomplex.split_tori.s", "cellcomplex.reduce_regular.s", "cellcomplex.reduce_full.s",
    "cellcomplex.removable.calls", "cellcomplex.check_grid_blocks.s",
    "cellcomplex.base_complex.s",
    "firehex.trace_hex.s", "firehex.trace_hex_base.s",
    "hexmesh.HexMesh.s",
    "tetparam.ParamTetMesh.s", "tetparam.split_edge.calls", "octahedral.fit_rotation.calls",
    "fireparam.trace_param.s", "fireparam.trace_param_base.s",
    "sanitize.reanchor.s", "sanitize.detect_cut_structure.s", "sanitize.build_core_system.s",
    "sanitize.solve_exact.s", "sanitize.propagate.s", "sanitize.verify_seamless.s",
    "quantize.build_ip.s", "quantize.solve_quantization.s", "quantize.extract_hexmesh.s",
    "meshio.write_hex_mesh.s", "meshio.read_hex_mesh.s",
)
COUNT_METRICS = ("hexmesh.HexMesh.cells", "quantize.out_hexes", "meshio.bytes")
# Scaling exponent metric -> span whose per-item time is fitted against size.
EXPONENTS = {
    "cellcomplex.reduce_full.exp": "cellcomplex.reduce_full",
    "sanitize.sanitize.exp": "sanitize.sanitize",
    "quantize.extract_hexmesh.exp": "quantize.extract_hexmesh",
}


def timed_setup(wl, setups, batch=0):
    """Fresh inputs, so that no pass reuses what an earlier one cached on them."""
    shutil.rmtree(wl.workdir, ignore_errors=True)
    t0 = time.perf_counter()
    wl.setup(batch)
    setups.append(time.perf_counter() - t0)


def one_pass(wl, index, setups, tracer=None):
    """Set up fresh inputs, time one pass (traced if ``tracer``), then run
    the untimed attempts and the output checks."""
    from workloads import Pass

    timed_setup(wl, setups, index)
    p = Pass(index, tracer)
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        wl.run_pass(p)
    finally:
        p.wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
    wl.after_pass(p)
    p.verify()
    return p


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def op_latencies(passes):
    """Mean latency of each distinct timed operation over the passes."""
    per_op = {}
    for p in passes:
        for item, op, sec, timed in p.ops:
            if timed:
                per_op.setdefault((item, op), []).append(sec)
    return [statistics.mean(v) for v in per_op.values()]


def end_to_end(passes, setups, attempted, failed):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.mean(p.wall for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def _slope(points):
    import numpy as np

    points = [(x, y) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    xs, ys = np.log([x for x, _ in points]), np.log([y for _, y in points])
    return float(np.polyfit(xs, ys, 1)[0])


def per_layer(wl, plain, traced, tracer, summary, attempted, failed):
    med = statistics.median
    m = {}
    for stage in STAGES:
        m[f"{stage}_s"] = (med(p.stages.get(stage, 0.0) for p in plain), "s")
    m["fail_ratio"] = (failed / attempted, "ratio")
    lat = op_latencies(plain)
    m["op_s_p50"] = (statistics.median(lat), "s")
    m["op_s_tail"] = (percentile(lat, TAIL_PERCENTILE), "s")
    w0, w1 = med(p.wall for p in plain), med(p.wall for p in traced)
    m["trace.overhead_s"] = (w1 - w0, "s")
    m["trace.overhead_ratio"] = ((w1 - w0) / w0, "ratio")

    def per_pass(name, field):
        totals = [0.0] * len(traced)
        for (pass_no, _), rec in summary.get(name, {}).items():
            totals[pass_no] += rec[field]
        return med(totals)

    for metric in SPAN_METRICS:
        name, kind = metric.rsplit(".", 1)
        m[metric] = (per_pass(name, 0 if kind == "calls" else 1), "count" if kind == "calls" else "s")
    counts = [Counter() for _ in traced]
    for (key, (pass_no, _)), n in tracer.counts.items():
        counts[pass_no][key] += n
    for key in COUNT_METRICS:
        m[key] = (med(c[key] for c in counts), "bytes" if key == "meshio.bytes" else "count")

    removed = [0] * len(traced)
    for name, _, _, parent, (pass_no, _) in tracer.spans:
        if (name == "cellcomplex.extract_complex" and parent >= 0
                and tracer.spans[parent][0].startswith("cellcomplex.reduce_")):
            removed[pass_no] += 1
    tests = m["cellcomplex.removable.calls"][0]
    m["cellcomplex.reduce.useful_ratio"] = (med(removed) / tests if tests else 0.0, "ratio")

    for metric, name in EXPONENTS.items():
        per_item = {}
        for (_, item), rec in summary.get(name, {}).items():
            per_item.setdefault(item, []).append(rec[1])
        points = [(wl.sizes.get(item, 0), med(ts)) for item, ts in per_item.items()]
        m[metric] = (_slope(points), "1")

    refined = sum(p.counts["refined_tets"] for p in plain)
    m["fireparam.refine_ratio"] = (refined / sum(p.counts["input_tets"] for p in plain)
                                   if refined else 0.0, "ratio")
    m["fireparam.trace_param_sanitized.s"] = (  # attempted in the first pass only
        sum(sec for p in plain for _, op, sec, _ in p.ops if op == "trace_sanitized"), "s")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = (med(sum(sec for _, op, sec, _ in p.ops if op == f"cli.{cmd}")
                                 for p in plain), "s")
    lookups = sum(p.counts["stats_lookups"] for p in plain)
    m["statsrun.cache_hit_ratio"] = (sum(p.counts["stats_hits"] for p in plain) / lookups
                                     if lookups else 0.0, "ratio")
    return m


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def compare_digests(passes, golden):
    """Failures for outputs that differ between passes or from ``golden``."""
    first = passes[0].digests
    out = []
    for p in passes:
        for key, digest in p.digests.items():
            want = golden.get(key, first.get(key)) if golden else first.get(key)
            if want is not None and digest != want:
                item, op = key.rsplit("/", 1)
                out.append((item, op, f"DigestMismatch: {digest} != {want}", False))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=["hex-blobs", "param-quantize-cli"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--write-digests", action="store_true",
                    help="store this run's output digests in digests.json (default seed only)")
    args = ap.parse_args(argv)
    if not (SRC / "volmc" / "__init__.py").is_file():
        print(f"error: volmc sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.write_digests and args.seed != DEFAULT_SEED:
        ap.error("--write-digests needs the default seed")
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads
    from spans import Tracer

    load = os.getloadavg()
    cfg = workloads.SIZES[args.size][args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, cfg, str(workdir))
    setups = []
    try:
        for _ in range(SETUP_RUNS):
            timed_setup(wl, setups)
        if args.trace:
            # Untraced and traced passes alternate, so that a slow spell of
            # the machine falls on both and cancels in the tracing overhead.
            tracer = Tracer()
            plain, traced = [], []
            while not traced or sum(p.wall for p in plain) < args.seconds / 2:
                plain.append(one_pass(wl, len(plain), setups))
                traced.append(one_pass(wl, len(traced), setups, tracer))
            passes = plain + traced
        else:
            # Whole passes, at least MIN_PASSES, while one more fits in --seconds.
            min_passes = MIN_PASSES if args.size == "full" else 1
            passes = []
            while len(passes) < min_passes or (
                    sum(p.wall for p in passes) * (1 + 1 / len(passes)) <= args.seconds):
                passes.append(one_pass(wl, len(passes), setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest_file = HERE / "digests.json"
    stored = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    golden = stored.get(args.size, {}).get(args.workload) if args.seed == DEFAULT_SEED else None
    if args.write_digests:
        merged = {}
        for p in passes:
            merged.update(p.digests)
        stored.setdefault(args.size, {})[args.workload] = dict(sorted(merged.items()))
        digest_file.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        golden = None
    failures = [f for p in passes for f in p.failures] + compare_digests(passes, golden)
    attempted = sum(len(p.ops) for p in passes)
    failed = len(failures)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        summary = tracer.summary()  # span name -> (pass, item) -> [calls, inclusive s, self s]
        metrics = per_layer(wl, plain, traced, tracer, summary, attempted, failed)
        self_s = {name: sum(rec[2] for rec in items.values()) / len(traced)
                  for name, items in summary.items()}
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:12]
    else:
        metrics = end_to_end(passes, setups, attempted, failed)

    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": load,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "tail_percentile": TAIL_PERCENTILE,
        "pass_walls": [p.wall for p in passes],
        "setup_runs": len(setups),
        "digests_checked": golden is not None,
        "self_s_per_pass_top": dict(top) if args.trace else None,
        "failures": [
            {"count": n, "item": item, "op": op, "error": err, "known_defect": known}
            for (item, op, err, known), n in Counter(failures).items()
        ],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": all(known for *_, known in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

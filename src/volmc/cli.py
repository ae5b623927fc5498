"""Command line interface.

Subcommands cover the whole pipeline: complex construction from hex meshes
(mc-hex) and parametrizations (mc-param), parametrization repair (sanitize),
quantized hex extraction (quantize), the conforming base complex
(base-complex), corpus statistics (stats), and wall export (export).

All subcommands are deterministic for a fixed --seed: repeated runs produce
byte-identical output files.
"""

import logging
import sys

import click

from . import statsrun
from .cellcomplex import base_complex, check_grid_blocks, motorcycle_complex, reduce_complex
from .errors import VolmcError
from .meshio import export_walls, read_hex_mesh, read_mesh, read_param, write_hex_mesh, write_param
from .quantize import build_ip, solve_quantization, extract_hexmesh
from .sanitize import sanitize as sanitize_param
from .sanitize import verify_seamless

log = logging.getLogger("volmc")


def _common(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Random seed for tie-breaking.")(fn)
    fn = click.option("--reduce", "reduce_mode",
                      type=click.Choice(["none", "regular", "full"]),
                      default="full", show_default=True,
                      help="Reduction level of the complex.")(fn)
    return fn


def _format(fn):
    """``--format``, passed on as None for auto."""
    return click.option("--format", "fmt", type=click.Choice(["auto", "mesh", "vtk"]),
                        default="auto", show_default=True, help="Input mesh format.",
                        callback=lambda ctx, param, fmt: None if fmt == "auto" else fmt)(fn)


def _build(mesh, seed, reduce_mode):
    mc = motorcycle_complex(mesh, seed)
    raw_blocks = len(mc.blocks)
    if reduce_mode != "none":
        mc = reduce_complex(mc, mode=reduce_mode)
    return mc, raw_blocks


def _summary(mc, raw_blocks):
    tarcs = sum(a.tarc for a in mc.arcs)
    click.echo(
        f"blocks={len(mc.blocks)} raw={raw_blocks} walls={len(mc.walls)} "
        f"arcs={len(mc.arcs)} nodes={len(mc.nodes)} t-arcs={tarcs}"
    )


@click.group()
@click.option("--log-level", default="warning", show_default=True,
              type=click.Choice(["debug", "info", "warning", "error"]))
def main(log_level):
    """Motorcycle complex toolkit for hex meshes and volume parametrizations."""
    logging.basicConfig(level=getattr(logging, log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")


@main.command("mc-hex")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@_common
@_format
@click.option("--output", type=click.Path(dir_okay=False),
              help="Write walls of the complex as OBJ.")
def mc_hex(input, seed, reduce_mode, fmt, output):
    """Motorcycle complex of a hexahedral mesh."""
    mc, raw_blocks = _build(read_hex_mesh(input, fmt), seed, reduce_mode)
    check_grid_blocks(mc)
    _summary(mc, raw_blocks)
    if output:
        export_walls(mc, output)


@main.command("mc-param")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@_common
@click.option("--output", type=click.Path(dir_okay=False),
              help="Write walls of the complex as OBJ.")
def mc_param(input, seed, reduce_mode, output):
    """Motorcycle complex of a seamless volume parametrization."""
    mc, raw_blocks = _build(read_param(input), seed, reduce_mode)
    _summary(mc, raw_blocks)
    if output:
        export_walls(mc, output)


@main.command("sanitize")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), required=True,
              help="Destination for the repaired parametrization.")
def sanitize_cmd(input, output):
    """Repair a nearly seamless parametrization to exact seamlessness."""
    pm = read_param(input)
    fixed = sanitize_param(pm)
    bad = verify_seamless(fixed)
    if bad:
        raise click.ClickException(f"{len(bad)} seamlessness violations remain")
    write_param(fixed, output)
    click.echo(f"sanitized parametrization written to {output}")


@main.command("quantize")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@_common
@_format
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Target edge density factor s.")
@click.option("--output", type=click.Path(dir_okay=False), required=True,
              help="Destination hex mesh (.mesh or .vtk).")
@click.option("--report", type=click.Path(dir_okay=False),
              help="Write per-arc quantized lengths and the objective value.")
def quantize_cmd(input, seed, reduce_mode, fmt, scale, output, report):
    """Quantize arc lengths and extract a conforming hex mesh."""
    if input.endswith(".param"):
        raise click.ClickException("quantize takes a hex mesh (.mesh/.vtk), not a parametrization")
    mc, _ = _build(read_hex_mesh(input, fmt), seed, reduce_mode)
    qp = build_ip(mc, scale)
    ell = solve_quantization(qp)
    out = extract_hexmesh(mc, ell)
    write_hex_mesh(out, output)
    obj = sum((ell[a] - qp.targets[a]) ** 2 for a in ell)
    click.echo(f"arcs={len(ell)} hexes={len(out.hexes)} objective={obj:.6g}")
    if report:
        with open(report, "w") as fh:
            fh.write(f"scale {scale}\nobjective {obj:.17g}\n")
            for a in sorted(ell):
                fh.write(f"arc {a} length {ell[a]}\n")


@main.command("base-complex")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
@_format
@click.option("--output", type=click.Path(dir_okay=False),
              help="Write walls of the base complex as OBJ.")
def base_complex_cmd(input, seed, fmt, output):
    """Conforming base complex of a hex mesh or parametrization."""
    bc = base_complex(read_mesh(input, fmt), seed=seed)
    click.echo(f"blocks={len(bc.blocks)} walls={len(bc.walls)} arcs={len(bc.arcs)}")
    if output:
        export_walls(bc, output)


@main.command("stats")
@click.argument("corpus", type=click.Path(exists=True, file_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False),
              help="Write the semicolon separated CSV here.")
@click.option("--cache", type=click.Path(dir_okay=False),
              help="Cache file for resumable sweeps (content-hash keyed).")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Parallel workers (one model per worker).")
@click.option("--timings/--no-timings", default=False, show_default=True,
              help="Include wall-clock columns (non-reproducible bytes).")
def stats_cmd(corpus, seed, output, cache, jobs, timings):
    """Block-count and timing statistics over a directory of models."""
    rows = statsrun.run_stats(corpus, seed=seed, jobs=jobs, cache_path=cache)
    if not timings:
        rows = [dict(r, t_trace="", t_build="", t_reduce="") for r in rows]
    if output:
        with open(output, "w") as fh:
            fh.write(statsrun.format_csv(rows))
    click.echo(statsrun.format_table(rows))


@main.command("export")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@_common
@_format
@click.option("--output", type=click.Path(dir_okay=False), required=True,
              help="Destination OBJ file.")
@click.option("--explode", type=float, default=0.0, show_default=True,
              help="Per-block translation factor for exploded views.")
def export_cmd(input, seed, reduce_mode, fmt, output, explode):
    """Export the walls of the complex as OBJ for visualization."""
    mc, _ = _build(read_mesh(input, fmt), seed, reduce_mode)
    export_walls(mc, output, explode=explode)
    click.echo(f"walls written to {output}")


def run():
    try:
        main(standalone_mode=True)
    except VolmcError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    run()

"""Command-line interface.

Subcommands chain the library into complete analyses:

  ingest     convert a TPS/CSV/JSON landmark file to the canonical JSON
  average    Procrustes (GPA) mean of each group
  twopoint   two-point registration of every configuration
  survey     outline panels for every possible baseline, tiled in one SVG
  rotations  segment-rotation table between two group means
  fit        trend-surface fit with a four-panel comparison figure
  demo       built-in datasets and illustrative figures

Every command is a pure function of its input files and flags: repeated
runs produce byte-identical outputs. Exit codes: 0 success, 2 input error,
3 numerical failure. Diagnostics go to standard error; files are written
only to paths named by -o/--outdir. Under glibc, `main` keeps freed memory for reuse.
A command builds only its own argument parser, and runs with the cyclic collector paused.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

import numpy as np

# Only what ingest, average and twopoint run is imported here; the commands that
# draw import gridlab, maps, render, tps, trend and synthetic when they run.
from .core import (DEFAULT_CELLS, DEFAULT_SAMPLES_PER_EDGE, MAX_GRID_SAMPLES, MAX_MARGIN,
                   PROTOTYPE_KINDS, UNIT_PROCRUSTES, LandmarkConfiguration, Sample,
                   enumerate_segments, frame)
from .errors import InputError, NumericalError
from .formats import Dataset, dataset_blocks, read_landmarks, write_blocks
from .registration import (Baseline, gpa_mean, procrustes_align, two_point_register,
                           two_point_register_sample)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# ---------------------------------------------------------------------------
# options

_REQUIRED = object()


def _number(kind, low, high=math.inf):
    """Check for a finite number in [low, high]; kind int also refuses fractions."""
    noun = "an integer" if kind is int else "a number"
    span = f"at least {low:g}" if high == math.inf else f"between {low:g} and {high:g}"

    def check(value, flag, argv):
        try:
            number = kind(value) if argv or type(value) in (int, kind) else None
        except (ValueError, OverflowError):
            number = None
        if number is None:
            raise InputError(f"{flag} expects {noun}, got {value!r}")
        if not low <= number <= high or abs(number) == math.inf:
            raise InputError(f"{flag} must be {span}, got {number!r}")
        return number
    return check


def _typed(kind, noun, choices=()):
    """Check for a value of one JSON type (str for command-line text, bool for a
    switch), and one of the choices if any are given."""
    def check(value, flag, argv):
        if not isinstance(value, kind) or choices and value not in choices:
            raise InputError(f"{flag} expects {noun}, got {value!r}")
        return value
    return check


_switch, _text = _typed(bool, "true or false"), _typed(str, "a string")


def _baseline(value, flag, argv) -> Baseline:
    try:
        i, j = (int(part) for part in _text(value, flag, argv).split(","))
    except ValueError:  # also a count of parts other than two
        i = j = 0
    if i < 1 or j < 1 or i == j:
        raise InputError(f"{flag} expects two distinct 1-based landmark ordinals I,J, "
                         f"got {value!r}")
    return Baseline(i - 1, j - 1)


def _extends(value, flag, argv) -> list[tuple[str, float]]:
    items = [value] if isinstance(value, str) else value
    if not (isinstance(items, list) and all(isinstance(item, str) for item in items)):
        raise InputError(f"{flag} expects SIDE:MULT or a list of them, got {value!r}")
    extends = []
    for item in items:
        side, _, amount = item.partition(":")
        side = side.strip().lower()
        try:
            mult = float(amount)
        except ValueError:
            mult = math.nan
        if side not in ("left", "right", "up", "down") or not 0.0 < mult < math.inf:
            raise InputError(f"{flag} expects SIDE:MULT with SIDE left, right, up or down "
                             f"and MULT a positive number, got {item!r}")
        extends.append((side, mult))
    return extends


# Every option of every subcommand, once: name -> (check, default, help). A check
# takes command-line text (argv=True) or a --config value, which must already
# have the option's JSON type, and returns the typed value or raises an
# InputError that names the flag.
OPTIONS = {
    "group": (_text, None, "average only this group"),
    "baseline": (_baseline, _REQUIRED, "two landmark ordinals I,J, 1-based"),
    "targets": (_text, None, "template and target group tags G1,G2"),
    "threshold": (_number(float, 0.0), 0.15, "keep segments with |rotation| >= this (radians)"),
    "nonaffine": (_switch, False, "remove the affine component before measuring"),
    "degree": (_number(int, 2, 3), _REQUIRED, "trend degree, 2 or 3"),
    "trim": (_typed(str, "template or target", ("template", "target")), "template",
             "trim the grid by the template polygon (preimage test) or the target "
             "polygon (image test)"),
    "hull": (_switch, False, "trim with the convex hull instead of the landmark cycle"),
    "extend": (_extends, (), "extend the grid by SIDE:MULT, e.g. left:2.0 (repeatable)"),
    # more cells than the sample budget can never fit
    "cells": (_number(int, 1, MAX_GRID_SAMPLES), DEFAULT_CELLS, "grid cells on the longer side"),
    "margin": (_number(float, 0.0, MAX_MARGIN), 0.25,
               "grid margin as a fraction of the bounding box"),
    "samples": (_number(int, 2), DEFAULT_SAMPLES_PER_EDGE, "samples per cell edge"),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"config {path!r} is not valid JSON: {exc.msg} (line {exc.lineno})")
        except UnicodeDecodeError as exc:
            raise InputError(f"config {path!r} is not UTF-8 text (byte {exc.start})")
        except (RecursionError, ValueError) as exc:  # too deep; an integer of too many digits
            raise InputError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"config {path!r} must hold a JSON object of flag values")
    for key in doc:
        if key not in OPTIONS:
            raise InputError(f"config {path!r}: unknown key {key!r}; a config file sets "
                             f"only {', '.join(OPTIONS)}")
    return doc


def _write_csv(path: str, header: str, rows, fields: str) -> None:
    """The header line, then each row (a tuple) as the %-format fields prints it."""
    write_blocks(path, ["\n".join([header] + [fields % row for row in rows]) + "\n"])


def _require_group(sample: Sample, tag: str) -> None:
    if tag not in sample.group_tags:
        known = ", ".join(sample.group_tags) or "none"
        raise InputError(f"unknown group {tag!r}; dataset groups: {known}")


def _parse_targets(value, sample: Sample) -> tuple[str, str]:
    tags = sample.group_tags
    if value:
        parts = [p.strip() for p in value.split(",")]
        if len(parts) != 2 or not all(parts) or parts[0] == parts[1]:
            raise InputError(f"--targets expects two distinct group tags, got {value!r}")
        for part in parts:
            _require_group(sample, part)
        return parts[0], parts[1]
    if len(tags) == 2:
        return tags[0], tags[1]
    raise InputError(f"--targets required: dataset has {len(tags)} group(s), "
                     "it must have exactly 2 for the default to apply")


def _group_mean(sample: Sample, tag: str, procrustes: bool) -> LandmarkConfiguration:
    """Procrustes (GPA) mean of a group, or its coordinate-wise mean in the data's frame."""
    group = sample.in_group(tag)
    if procrustes:
        return gpa_mean(group, name=f"{tag}_mean")
    scaled, e = frame(group.coords, 0)
    return LandmarkConfiguration(f"{tag}_mean", group.labels, np.ldexp(scaled.mean(axis=0), e[0]),
                                 group.unit)


def _bounds_viewport(chunks) -> tuple[float, float, float, float]:
    from .render import padded_bounds
    viewport = padded_bounds(chunks)
    if viewport is None:
        raise NumericalError("no finite points to frame a viewport around")
    return viewport


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> int:
    dataset = read_landmarks(args.input)
    write_blocks(args.output, dataset_blocks(dataset))
    sample = dataset.sample
    print(f"ingested {len(sample)} configuration(s) of "
          f"{sample.landmark_count} landmarks -> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_average(args) -> int:
    dataset = read_landmarks(args.input)
    sample = dataset.sample
    if args.group is not None:
        _require_group(sample, args.group)
    tags = [args.group] if args.group is not None else (sample.group_tags or [None])
    means = [gpa_mean(sample, name="mean") if tag is None
             else _group_mean(sample, tag, procrustes=True) for tag in tags]
    groups = {mean.name: tag for mean, tag in zip(means, tags) if tag is not None}
    out = Dataset(Sample([mean.name for mean in means], sample.labels,
                         [mean.coords for mean in means], UNIT_PROCRUSTES, groups),
                  provenance=dataset.provenance)
    write_blocks(args.output, dataset_blocks(out))
    print(f"wrote {len(means)} Procrustes mean(s) -> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_twopoint(args) -> int:
    dataset = read_landmarks(args.input)
    registered = two_point_register_sample(dataset.sample, args.baseline)
    write_blocks(args.output, dataset_blocks(Dataset(registered, provenance=dataset.provenance)))
    print(f"registered {len(registered)} configuration(s) to baseline "
          f"{args.baseline.start + 1},{args.baseline.end + 1} -> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_survey(args) -> int:
    from .render import outline_panel, tile_scenes, write_svg
    dataset = read_landmarks(args.input)
    sample = dataset.sample
    template_tag, target_tag = _parse_targets(args.targets, sample)
    template = _group_mean(sample, template_tag, procrustes=False)
    target = _group_mean(sample, target_tag, procrustes=False)
    panels = [outline_panel(two_point_register(template, Baseline(i, j)),
                            two_point_register(target, Baseline(i, j)), (i, j), f"{i + 1}-{j + 1}")
              for i, j in enumerate_segments(sample.landmark_count).tolist()]
    write_svg(tile_scenes(panels, panel_size=240.0), args.output)
    print(f"{len(panels)} baseline panels ({template_tag} vs {target_tag}) "
          f"-> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_rotations(args) -> int:
    from .gridlab import filter_rotations, segment_rotations
    from .render import network_scene, write_svg
    dataset = read_landmarks(args.input)
    sample = dataset.sample
    template_tag, target_tag = _parse_targets(args.targets, sample)
    template = _group_mean(sample, template_tag, procrustes=True)
    target = procrustes_align(_group_mean(sample, target_tag, procrustes=True), template)
    if args.nonaffine:
        from .trend import remove_affine
        target = remove_affine(template, target)
    report = segment_rotations(template, target)
    rows = filter_rotations(report, args.threshold)
    table = [(i + 1, j + 1, report.labels[i], report.labels[j], rot, math.degrees(rot), ratio)
             for (i, j), rot, ratio in zip(report.segments[rows].tolist(),
                                           report.rotations[rows].tolist(),
                                           report.ratios[rows].tolist())]

    print(f"{'i':>3} {'j':>3}  {'from':<10} {'to':<10} "
          f"{'rotation_rad':>13} {'rotation_deg':>13} {'length_ratio':>13}")
    for i, j, a, b, rot, deg, ratio in table:
        print(f"{i:>3} {j:>3}  {a:<10} {b:<10} {rot:>+13.6f} {deg:>+13.6f} {ratio:>13.6f}")
    mode = "nonaffine" if args.nonaffine else "raw"
    print(f"{len(rows)} of {len(report.segments)} segments with |rotation| >= "
          f"{args.threshold:g} rad ({mode}; {report.convention})", file=sys.stderr)

    if args.output:
        _write_csv(args.output, "i,j,from,to,rotation_rad,rotation_deg,length_ratio", table,
                   "%d,%d,%s,%s,%.12g,%.12g,%.12g")
        print(f"rotation table -> {args.output}", file=sys.stderr)
    if args.svg:
        write_svg(network_scene(template, target, report.segments[rows]), args.svg)
        print(f"segment network -> {args.svg}", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    from .gridlab import (DeformedGrid, convex_hull_polygon, extend_grid, finite_rows,
                          landmark_cycle_polygon, make_grid, trim_grid)
    from .render import grid_scene, tile_scenes, write_svg
    from .tps import tps_eval, tps_fit
    from .trend import trend_eval, trend_fit
    dataset = read_landmarks(args.input)
    sample = dataset.sample
    baseline = args.baseline
    template_tag, target_tag = _parse_targets(args.targets, sample)
    os.makedirs(args.outdir, exist_ok=True)

    template = two_point_register(_group_mean(sample, template_tag, procrustes=False), baseline)
    target = two_point_register(_group_mean(sample, target_tag, procrustes=False), baseline)
    trend = trend_fit(template, target, args.degree)
    fitted = template.with_coords(trend.fitted, name=f"{target_tag}_fitted")
    spline_observed, spline_fitted = tps_fit(template, target, fitted)

    spec = make_grid(template, margin=args.margin, cells=args.cells, samples_per_edge=args.samples)
    for side, mult in args.extend:
        spec = extend_grid(spec, side, mult)

    # both splines share the template, so each kernel block is computed once for the two grids;
    # every image and the template trim read the spec's axis tables, so no preimage is built
    images = (*tps_eval(spline_observed, spec, spline_fitted), trend_eval(trend, spec))
    grid_observed, grid_fitted, grid_trend = (DeformedGrid(spec, a, finite_rows(a)) for a in images)
    outline_config, space = (template, "template") if args.trim == "template" else (target, "image")
    polygon = (convex_hull_polygon(outline_config.coords) if args.hull
               else landmark_cycle_polygon(outline_config))
    grid_trimmed = trim_grid(grid_trend, polygon, space=space)

    # untrimmed grids keep exactly their finite rows, which is all the viewport reads
    viewport = _bounds_viewport([*images, target.coords, trend.fitted])
    ring = (baseline.start, baseline.end)
    # (grid, solid points, open points) of the upper left, upper right, lower left, lower right
    panels = ((grid_observed, target.coords, None), (grid_fitted, None, trend.fitted),
              (grid_trend, target.coords, trend.fitted),
              (grid_trimmed, target.coords, trend.fitted))
    figure = tile_scenes([grid_scene(grid, solid_points=solid, open_points=hollow, baseline=ring,
                                     viewport=viewport) for grid, solid, hollow in panels],
                         columns=2, panel_size=480.0)

    tag = f"{baseline.start + 1}-{baseline.end + 1}"
    svg_path = os.path.join(args.outdir, f"fit_{tag}.svg")
    write_svg(figure, svg_path)

    residuals_path = os.path.join(args.outdir, f"fit_{tag}_residuals.csv")
    _write_csv(residuals_path, "label,dx,dy,magnitude", [(label, *row) for label, row in zip(
        template.labels, np.column_stack([trend.residuals, trend.magnitudes]).tolist())],
        "%s,%.12g,%.12g,%.12g")
    coefficients_path = os.path.join(args.outdir, f"fit_{tag}_coefficients.csv")
    _write_csv(coefficients_path, "term,x_coefficient,y_coefficient", [(term, *row) for term, row
               in zip(trend.term_names, trend.coefficients.tolist())], "%s,%.17g,%.17g")

    print(f"fit: degree {args.degree} trend, baseline {baseline.start + 1},{baseline.end + 1}, "
          f"template {template_tag}, target {target_tag}, {sample.landmark_count} landmarks")
    print(f"rss: x {trend.rss[0]:.6g}, y {trend.rss[1]:.6g}; df {trend.df} per coordinate; "
          f"design condition {trend.condition:.6g}")
    if trend.saturated:
        print("saturated fit: as many coefficients as landmarks, residuals vanish")
    else:
        worst = int(np.argmax(trend.magnitudes))
        print(f"largest residual: {template.labels[worst]} ({trend.magnitudes[worst]:.6g})")
    for path in (svg_path, residuals_path, coefficients_path):
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _write_grid_panels(grids, points, path: str, extra_layers=None) -> None:
    """One 360-pixel panel per grid, with its landmarks, side by side on a shared viewport."""
    from .render import grid_scene, tile_scenes, write_svg
    viewport = _bounds_viewport([g.image[g.kept] for g in grids] + list(points))
    panels = [grid_scene(grid, solid_points=pts, viewport=viewport)
              for grid, pts in zip(grids, points)]
    if extra_layers is not None:
        panels = [dataclasses.replace(scene, layers=scene.layers + (layer,))
                  for scene, layer in zip(panels, extra_layers)]
    write_svg(tile_scenes(panels, columns=len(panels), panel_size=360.0), path)


def _demo_prototype(kind: str, outdir: str):
    """Write the prototype pair's dataset and grid panels; return the pair and its spline."""
    from .gridlab import deform_grid, make_grid
    from .maps import prototype_pair
    from .tps import tps_fit
    template, target = prototype_pair(kind)
    dataset = Dataset(Sample((template.name, target.name), template.labels,
                             [template.coords, target.coords],
                             groups={template.name: "template", target.name: "target"}),
                      provenance=(f"demo:{kind}",))
    json_path = os.path.join(outdir, f"demo_{kind}.json")
    write_blocks(json_path, dataset_blocks(dataset))

    spec = make_grid(template, margin=0.25, cells=8, samples_per_edge=10)
    spline = tps_fit(template, target)
    grids = [deform_grid(spec, lambda pts: pts), deform_grid(spec, lambda pts: spline(spec))]
    svg_path = os.path.join(outdir, f"demo_{kind}.svg")
    _write_grid_panels(grids, [template.coords, target.coords], svg_path)
    print(f"prototype {kind} -> {json_path}, {svg_path}", file=sys.stderr)
    return template, target, spline


def _demo_kite_maps(outdir: str, template, target, spline) -> None:
    """Three warps of the same square-to-kite pair, with the midline dashed.

    The spline bends the horizontal midline, the projective map keeps it
    straight, and the bilinear map bends it into a parabolic arc.
    """
    from .gridlab import deform_grid, finite_rows, landmark_cycle_polygon, make_grid, trim_grid
    from .maps import BilinearMap, Quad, homography_from_quads
    from .render import Polyline
    source = Quad(template.coords)
    destination = Quad(target.coords)
    mappers = (spline, homography_from_quads(source, destination), BilinearMap(source, destination))
    spec = make_grid(template, margin=0.0, cells=8, samples_per_edge=10)
    polygon = landmark_cycle_polygon(template)
    steps = np.linspace(0.0, 1.0, 101)[:, None]
    chord = (1.0 - steps) * template.coords[1] + steps * template.coords[3]

    # one spec and one polygon: the identity grid's trim is the template mask of all three
    inside = trim_grid(deform_grid(spec, lambda pts: pts), polygon, space="template").kept
    grids = [deform_grid(spec, m) for m in (lambda pts: spline(spec), *mappers[1:])]
    grids = [dataclasses.replace(grid, kept=grid.kept & inside) for grid in grids]
    midlines = [Polyline(mid[finite_rows(mid)], heavy=True, dashed=True)
                for mid in (m(chord) for m in mappers)]
    svg_path = os.path.join(outdir, "demo_kite_maps.svg")
    _write_grid_panels(grids, [target.coords] * len(grids), svg_path, midlines)
    print(f"kite midline comparison (spline, projective, bilinear) -> {svg_path}",
          file=sys.stderr)


def cmd_demo(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    if args.kind == "synthetic-vilmann":
        from .synthetic import synthetic_vilmann
        dataset = Dataset(synthetic_vilmann(), provenance=("demo:synthetic-vilmann",))
        path = os.path.join(args.outdir, "demo_synthetic_vilmann.json")
        write_blocks(path, dataset_blocks(dataset))
        print(f"synthetic two-age octagon dataset -> {path}", file=sys.stderr)
        return EXIT_OK
    prototype = _demo_prototype(args.kind, args.outdir)
    if args.kind == "kite":
        _demo_kite_maps(args.outdir, *prototype)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

_DATA, _OUT = ("input", "dataset file", None), (("-o", "--output"), True, "output dataset JSON")
_OUTDIR = (("--outdir",), True, "output directory")
# name -> (function, summary, (positional, help, choices), options, [(flags, required, help)])
COMMANDS = {
    "ingest": (cmd_ingest, "convert TPS/CSV/JSON landmarks to canonical JSON",
               ("input", "landmark file (.tps, .csv or .json)", None), (), [_OUT]),
    "average": (cmd_average, "Procrustes mean of each group", _DATA, ("group",), [_OUT]),
    "twopoint": (cmd_twopoint, "two-point registration of every configuration", _DATA,
                 ("baseline",), [_OUT]),
    "survey": (cmd_survey, "outline panels for every possible baseline", _DATA, ("targets",),
               [(("-o", "--output"), True, "output SVG")]),
    "rotations": (cmd_rotations, "segment rotations between two group means", _DATA,
                  ("targets", "threshold", "nonaffine"), [
                      (("-o", "--output"), False, "write the table as CSV"),
                      (("--svg",), False, "write the selected segment network as SVG")]),
    "fit": (cmd_fit, "polynomial trend fit with four-panel figure", _DATA, ("degree", "baseline",
            "targets", "trim", "hull", "extend", "cells", "margin", "samples"), [_OUTDIR]),
    "demo": (cmd_demo, "built-in datasets and illustrative figures",
             ("kind", None, PROTOTYPE_KINDS + ("synthetic-vilmann",)), (), [_OUTDIR]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the named command alone, or of all seven if it names none (as for -h)."""
    parser = argparse.ArgumentParser(prog="gridmorph", description=(
        "Landmark registration, trend surfaces, and deformation grids."))
    names = [command] if command in COMMANDS else list(COMMANDS)
    # the same help and error texts either way: with one parser, the usage line would list only
    # it, so the metavar names all seven; with seven, it would replace "command" in the errors
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{%s}" % ",".join(COMMANDS) if len(names) == 1 else None))
    for name in names:
        _, summary, (positional, text, choices), options, outputs = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.add_argument(positional, help=text, choices=choices)
        p.add_argument("--config", metavar="FILE",
                       help="JSON file of option values; explicit flags win")
        for option in options:
            check, default, text = OPTIONS[option]
            if default is _REQUIRED:
                text += " (required)"
            elif default not in (None, False, ()):
                text += f" (default {default})"
            action = {_switch: "store_true", _extends: "append"}.get(check, "store")
            p.add_argument(f"--{option}", action=action, default=None, help=text)
        for flags, required, text in outputs:
            p.add_argument(*flags, required=required, help=text)
    return parser


def _keep_freed_memory() -> None:
    """Reuse freed blocks instead of unmapping them and faulting them in again (glibc only)."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no mallopt (macOS); no CDLL(None) (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD; setting it stops both thresholds adapting,
    mallopt(-1, 64 << 20)  # so M_TRIM_THRESHOLD is set too (2x, as glibc's own rule keeps it)


def main(argv=None) -> int:
    _keep_freed_memory()
    # A command's large containers (a dataset's decoded objects, a block of CSV rows) hold no
    # cycles, so reference counting frees them; the collector would only walk them again and again.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        config = _load_config(args.config)
        # each option of the command, checked before its input is read: the command line's
        # value, else the config file's, else the default
        for name in COMMANDS[args.command][3]:
            check, default, text = OPTIONS[name]
            value, given = getattr(args, name), True
            if value is None:
                value, given = config.get(name), False
            if value is None and default is _REQUIRED:
                raise InputError(f"missing --{name}: {text}")
            setattr(args, name, default if value is None else check(value, f"--{name}", given))
        return COMMANDS[args.command][0](args)
    except (InputError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT
    except MemoryError as exc:  # an allocation past what the machine gives: exit 3, no traceback
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

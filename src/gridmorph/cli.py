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
only to paths named by -o/--outdir.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .core import LandmarkConfiguration, Sample, enumerate_segments
from .errors import InputError, NumericalError
from .formats import Dataset, read_landmarks, write_dataset
from .gridlab import (convex_hull_polygon, deform_grid, extend_grid, filter_rotations,
                      landmark_cycle_polygon, make_grid, segment_rotations, trim_grid)
from .maps import BilinearMap, Quad, homography_from_quads, prototype_pair
from .registration import (Baseline, gpa_mean, procrustes_align, remove_affine,
                           two_point_register, two_point_register_sample)
from .render import (Polyline, grid_scene, network_scene, outline_panel, tile_scenes,
                     write_svg)
from .synthetic import synthetic_vilmann
from .tps import tps_fit
from .trend import trend_fit, trend_residual_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_EXTEND_SIDES = ("left", "right", "up", "down")


# ---------------------------------------------------------------------------
# flag plumbing

def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path!r} is not valid JSON: {exc.msg} (line {exc.lineno})")
    except UnicodeDecodeError as exc:
        raise InputError(f"config {path!r} is not UTF-8 text (byte {exc.start})")
    if not isinstance(doc, dict):
        raise InputError(f"config {path!r} must hold a JSON object of flag values")
    return {str(key).replace("-", "_"): value for key, value in doc.items()}


def _merged(args, name: str, builtin):
    """Resolve a flag: explicit command line, then --config file, then built-in."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    config = getattr(args, "config_values", {})
    if name in config and config[name] is not None:
        return config[name]
    return builtin


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _load(args) -> Dataset:
    return read_landmarks(args.input)


def _parse_baseline(value) -> Baseline:
    if value is None:
        raise InputError("missing --baseline: give two landmark ordinals as i,j (1-based)")
    parts = str(value).split(",")
    if len(parts) != 2:
        raise InputError(f"--baseline expects i,j got {value!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"--baseline expects two integers, got {value!r}")
    if i < 1 or j < 1:
        raise InputError("--baseline ordinals are 1-based and must be positive")
    if i == j:
        raise InputError("--baseline needs two distinct landmarks")
    return Baseline(i - 1, j - 1)


def _parse_targets(value, sample: Sample) -> tuple[str, str]:
    tags = sample.group_tags
    if value:
        parts = [p.strip() for p in str(value).split(",")]
        if len(parts) != 2 or not all(parts) or parts[0] == parts[1]:
            raise InputError(f"--targets expects two distinct group tags, got {value!r}")
        for part in parts:
            if part not in tags:
                known = ", ".join(tags) if tags else "none"
                raise InputError(f"unknown group {part!r}; dataset groups: {known}")
        return parts[0], parts[1]
    if len(tags) == 2:
        return tags[0], tags[1]
    raise InputError(f"--targets required: dataset has {len(tags)} group(s), "
                     "it must have exactly 2 for the default to apply")


def _parse_extend(item: str) -> tuple[str, float]:
    side, sep, amount = str(item).partition(":")
    if not sep:
        raise InputError(f"--extend expects side:multiple (e.g. left:2.0), got {item!r}")
    side = side.strip().lower()
    if side not in _EXTEND_SIDES:
        raise InputError(f"--extend side must be one of {', '.join(_EXTEND_SIDES)}, got {side!r}")
    try:
        mult = float(amount)
    except ValueError:
        raise InputError(f"--extend multiple must be a number, got {amount!r}")
    if not math.isfinite(mult) or mult <= 0.0:
        raise InputError(f"--extend multiple must be positive, got {amount!r}")
    return side, mult


def _positive_int(value, flag: str, minimum: int = 1) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise InputError(f"{flag} expects an integer, got {value!r}")
    if number < minimum:
        raise InputError(f"{flag} must be at least {minimum}, got {number}")
    return number


def _group_mean(sample: Sample, tag: str, procrustes: bool) -> LandmarkConfiguration:
    """Procrustes (GPA) mean of a group, or its coordinate-wise mean in the data's frame."""
    configs = sample.configs_in_group(tag)
    if not configs:
        raise InputError(f"group {tag!r} has no configurations")
    if procrustes:
        return gpa_mean(Sample(tuple(configs)), name=f"{tag}_mean")
    return configs[0].with_coords(np.mean([c.coords for c in configs], axis=0),
                                  name=f"{tag}_mean")


def _bounds_viewport(points: np.ndarray) -> tuple[float, float, float, float]:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[np.isfinite(pts).all(axis=1)]
    if len(pts) == 0:
        raise NumericalError("no finite points to frame a viewport around")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.05 * max(float((hi - lo).max()), 1e-9)
    return (float(lo[0]) - pad, float(lo[1]) - pad, float(hi[0]) + pad, float(hi[1]) + pad)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> int:
    dataset = _load(args)
    _write_text(args.output, write_dataset(dataset))
    sample = dataset.sample
    print(f"ingested {len(sample.configurations)} configuration(s) of "
          f"{sample.landmark_count} landmarks -> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_average(args) -> int:
    dataset = _load(args)
    sample = dataset.sample
    group = _merged(args, "group", None)
    if group is not None and group not in sample.group_tags:
        known = ", ".join(sample.group_tags) if sample.group_tags else "none"
        raise InputError(f"unknown group {group!r}; dataset groups: {known}")
    tags = [group] if group is not None else (sample.group_tags or [None])
    means = []
    groups: dict[str, str] = {}
    for tag in tags:
        if tag is None:
            mean = gpa_mean(sample, name="mean")
        else:
            mean = _group_mean(sample, tag, procrustes=True)
            groups[mean.name] = tag
        means.append(mean)
    out = Dataset(Sample(tuple(means), groups), provenance=dataset.provenance)
    _write_text(args.output, write_dataset(out))
    print(f"wrote {len(means)} Procrustes mean(s) -> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_twopoint(args) -> int:
    dataset = _load(args)
    baseline = _parse_baseline(_merged(args, "baseline", None))
    registered = two_point_register_sample(dataset.sample, baseline)
    _write_text(args.output, write_dataset(Dataset(registered, provenance=dataset.provenance)))
    print(f"registered {len(registered)} configuration(s) to baseline "
          f"{baseline.start + 1},{baseline.end + 1} -> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_survey(args) -> int:
    dataset = _load(args)
    sample = dataset.sample
    template_tag, target_tag = _parse_targets(_merged(args, "targets", None), sample)
    template = _group_mean(sample, template_tag, procrustes=False)
    target = _group_mean(sample, target_tag, procrustes=False)
    panels = []
    for seg in enumerate_segments(sample.landmark_count):
        reg_t = two_point_register(template, Baseline(seg.i, seg.j))
        reg_g = two_point_register(target, Baseline(seg.i, seg.j))
        panels.append(outline_panel(reg_t, reg_g, (seg.i, seg.j),
                                    f"{seg.i + 1}-{seg.j + 1}"))
    scene = tile_scenes(panels, panel_size=240.0)
    write_svg(scene, args.output)
    print(f"{len(panels)} baseline panels ({template_tag} vs {target_tag}) "
          f"-> {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_rotations(args) -> int:
    dataset = _load(args)
    sample = dataset.sample
    template_tag, target_tag = _parse_targets(_merged(args, "targets", None), sample)
    threshold = float(_merged(args, "threshold", 0.15))
    nonaffine = bool(_merged(args, "nonaffine", False))
    template = _group_mean(sample, template_tag, procrustes=True)
    target = procrustes_align(_group_mean(sample, target_tag, procrustes=True), template)
    if nonaffine:
        target = remove_affine(template, target)
    report = segment_rotations(template, target)
    selected = filter_rotations(report, threshold)
    position = {seg: idx for idx, seg in enumerate(report.segments)}
    rows = [(seg, report.labels[seg.i], report.labels[seg.j],
             float(report.rotations[position[seg]]), float(report.ratios[position[seg]]))
            for seg in selected]

    print(f"{'i':>3} {'j':>3}  {'from':<10} {'to':<10} "
          f"{'rotation_rad':>13} {'rotation_deg':>13} {'length_ratio':>13}")
    for seg, a, b, rot, ratio in rows:
        print(f"{seg.i + 1:>3} {seg.j + 1:>3}  {a:<10} {b:<10} {rot:>+13.6f} "
              f"{math.degrees(rot):>+13.6f} {ratio:>13.6f}")
    mode = "nonaffine" if nonaffine else "raw"
    print(f"{len(selected)} of {len(report.segments)} segments with |rotation| >= "
          f"{threshold:g} rad ({mode}; {report.convention})", file=sys.stderr)

    if args.output:
        lines = ["i,j,from,to,rotation_rad,rotation_deg,length_ratio"]
        lines += [f"{seg.i + 1},{seg.j + 1},{a},{b},{rot:.12g},{math.degrees(rot):.12g},"
                  f"{ratio:.12g}" for seg, a, b, rot, ratio in rows]
        _write_text(args.output, "\n".join(lines) + "\n")
        print(f"rotation table -> {args.output}", file=sys.stderr)
    if args.svg:
        write_svg(network_scene(template, target, tuple(selected)), args.svg)
        print(f"segment network -> {args.svg}", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    dataset = _load(args)
    sample = dataset.sample
    degree = _positive_int(_merged(args, "degree", None) or 0, "--degree")
    if degree not in (2, 3):
        raise InputError(f"--degree must be 2 or 3, got {degree}")
    baseline = _parse_baseline(_merged(args, "baseline", None))
    template_tag, target_tag = _parse_targets(_merged(args, "targets", None), sample)
    trim_mode = str(_merged(args, "trim", "template"))
    if trim_mode not in ("template", "target"):
        raise InputError(f"--trim must be template or target, got {trim_mode!r}")
    hull = bool(_merged(args, "hull", False))
    cells = _positive_int(_merged(args, "cells", 24), "--cells")
    samples = _positive_int(_merged(args, "samples", 10), "--samples", minimum=2)
    margin = float(_merged(args, "margin", 0.25))
    if not math.isfinite(margin) or margin < 0.0:
        raise InputError(f"--margin must be a nonnegative number, got {margin!r}")
    extends = [_parse_extend(item) for item in (_merged(args, "extend", None) or [])]
    os.makedirs(args.outdir, exist_ok=True)

    template = two_point_register(_group_mean(sample, template_tag, procrustes=False), baseline)
    target = two_point_register(_group_mean(sample, target_tag, procrustes=False), baseline)
    trend = trend_fit(template, target, degree)
    fitted = template.with_coords(trend.fitted, name=f"{target_tag}_fitted")
    spline_observed = tps_fit(template, target)
    spline_fitted = tps_fit(template, fitted)

    spec = make_grid(template, margin=margin, cells=cells, samples_per_edge=samples)
    for side, mult in extends:
        spec = extend_grid(spec, side, mult)

    grid_observed = deform_grid(spec, spline_observed)
    grid_fitted = deform_grid(spec, spline_fitted)
    grid_trend = deform_grid(spec, trend)
    if trim_mode == "template":
        outline_config, space = template, "template"
    else:
        outline_config, space = target, "image"
    polygon = (convex_hull_polygon(outline_config.coords) if hull
               else landmark_cycle_polygon(outline_config))
    grid_trimmed = trim_grid(grid_trend, polygon, space=space)

    viewport = _bounds_viewport(np.vstack([
        grid_observed.image[grid_observed.kept], grid_fitted.image[grid_fitted.kept],
        grid_trend.image[grid_trend.kept], target.coords, trend.fitted,
    ]))
    k = sample.landmark_count
    ring = (baseline.start, baseline.end)
    upper_left = grid_scene(grid_observed, solid_points=target.coords,
                            baseline=ring, viewport=viewport, landmark_count=k)
    upper_right = grid_scene(grid_fitted, open_points=trend.fitted,
                             baseline=ring, viewport=viewport, landmark_count=k)
    lower_left = grid_scene(grid_trend, solid_points=target.coords,
                            open_points=trend.fitted, baseline=ring,
                            viewport=viewport, landmark_count=k)
    lower_right = grid_scene(grid_trimmed, solid_points=target.coords,
                             open_points=trend.fitted, baseline=ring,
                             viewport=viewport, landmark_count=k)
    figure = tile_scenes([upper_left, upper_right, lower_left, lower_right],
                         columns=2, panel_size=480.0)

    tag = f"{baseline.start + 1}-{baseline.end + 1}"
    svg_path = os.path.join(args.outdir, f"fit_{tag}.svg")
    write_svg(figure, svg_path)

    report = trend_residual_report(trend)
    rows = ["label,dx,dy,magnitude"]
    for label, residual, magnitude in report.rows():
        rows.append(f"{label},{residual[0]:.12g},{residual[1]:.12g},{magnitude:.12g}")
    residuals_path = os.path.join(args.outdir, f"fit_{tag}_residuals.csv")
    _write_text(residuals_path, "\n".join(rows) + "\n")

    rows = ["term,x_coefficient,y_coefficient"]
    for term, (cx, cy) in zip(trend.term_names, trend.coefficients):
        rows.append(f"{term},{cx:.17g},{cy:.17g}")
    coefficients_path = os.path.join(args.outdir, f"fit_{tag}_coefficients.csv")
    _write_text(coefficients_path, "\n".join(rows) + "\n")

    print(f"fit: degree {degree} trend, baseline {baseline.start + 1},{baseline.end + 1}, "
          f"template {template_tag}, target {target_tag}, {k} landmarks")
    print(f"rss: x {report.rss[0]:.6g}, y {report.rss[1]:.6g}; df {report.df} per coordinate; "
          f"design condition {trend.condition:.6g}")
    if report.saturated:
        print("saturated fit: as many coefficients as landmarks, residuals vanish")
    else:
        worst = int(np.argmax(report.magnitudes))
        print(f"largest residual: {report.labels[worst]} ({report.magnitudes[worst]:.6g})")
    for path in (svg_path, residuals_path, coefficients_path):
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _demo_prototype(kind: str, outdir: str) -> None:
    template, target = prototype_pair(kind)
    dataset = Dataset(Sample((template, target),
                             groups={template.name: "template", target.name: "target"}),
                      provenance=(f"demo:{kind}",))
    json_path = os.path.join(outdir, f"demo_{kind}.json")
    _write_text(json_path, write_dataset(dataset))

    model = tps_fit(template, target)
    spec = make_grid(template, margin=0.25, cells=8, samples_per_edge=10)
    grid_flat = deform_grid(spec, lambda pts: pts)
    grid_warp = deform_grid(spec, model)
    viewport = _bounds_viewport(np.vstack([
        grid_flat.image[grid_flat.kept], grid_warp.image[grid_warp.kept],
        template.coords, target.coords,
    ]))
    left = grid_scene(grid_flat, solid_points=template.coords, viewport=viewport,
                      size=(360.0, 360.0), landmark_count=len(template))
    right = grid_scene(grid_warp, solid_points=target.coords, viewport=viewport,
                       size=(360.0, 360.0), landmark_count=len(target))
    svg_path = os.path.join(outdir, f"demo_{kind}.svg")
    write_svg(tile_scenes([left, right], columns=2, panel_size=360.0), svg_path)
    print(f"prototype {kind} -> {json_path}, {svg_path}", file=sys.stderr)


def _demo_kite_maps(outdir: str) -> None:
    """Three warps of the same square-to-kite pair, with the midline dashed.

    The spline bends the horizontal midline, the projective map keeps it
    straight, and the bilinear map bends it into a parabolic arc.
    """
    template, target = prototype_pair("kite")
    source = Quad(template.coords)
    destination = Quad(target.coords)
    mappers = (
        tps_fit(template, target),
        homography_from_quads(source, destination),
        BilinearMap(source, destination),
    )
    spec = make_grid(template, margin=0.0, cells=8, samples_per_edge=10)
    polygon = landmark_cycle_polygon(template)
    steps = np.linspace(0.0, 1.0, 101)[:, None]
    chord = (1.0 - steps) * template.coords[1] + steps * template.coords[3]

    grids = [trim_grid(deform_grid(spec, m), polygon, space="template") for m in mappers]
    images = [m(chord) for m in mappers]
    viewport = _bounds_viewport(np.vstack(
        [g.image[g.kept] for g in grids] + [target.coords]))
    panels = []
    for grid, mid in zip(grids, images):
        scene = grid_scene(grid, solid_points=target.coords, viewport=viewport,
                           size=(360.0, 360.0), landmark_count=len(target))
        midline = Polyline(mid[np.isfinite(mid).all(axis=1)], heavy=True, dashed=True)
        panels.append(dataclasses.replace(scene, layers=scene.layers + (midline,)))
    svg_path = os.path.join(outdir, "demo_kite_maps.svg")
    write_svg(tile_scenes(panels, columns=3, panel_size=360.0), svg_path)
    print(f"kite midline comparison (spline, projective, bilinear) -> {svg_path}",
          file=sys.stderr)


def cmd_demo(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    if args.kind == "synthetic-vilmann":
        dataset = Dataset(synthetic_vilmann(), provenance=("demo:synthetic-vilmann",))
        path = os.path.join(args.outdir, "demo_synthetic_vilmann.json")
        _write_text(path, write_dataset(dataset))
        print(f"synthetic two-age octagon dataset -> {path}", file=sys.stderr)
        return EXIT_OK
    _demo_prototype(args.kind, args.outdir)
    if args.kind == "kite":
        _demo_kite_maps(args.outdir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmorph",
        description="Landmark registration, trend surfaces, and deformation grids.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON file of flag defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="convert TPS/CSV/JSON landmarks to canonical JSON")
    p.add_argument("input", help="landmark file (.tps, .csv or .json)")
    p.add_argument("-o", "--output", required=True, help="output dataset JSON")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("average", parents=[common],
                       help="Procrustes mean of each group")
    p.add_argument("input", help="dataset file")
    p.add_argument("--group", help="average only this group")
    p.add_argument("-o", "--output", required=True, help="output dataset JSON")
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("twopoint", parents=[common],
                       help="two-point registration of every configuration")
    p.add_argument("input", help="dataset file")
    p.add_argument("--baseline", metavar="I,J",
                   help="baseline landmark ordinals, 1-based")
    p.add_argument("-o", "--output", required=True, help="output dataset JSON")
    p.set_defaults(func=cmd_twopoint)

    p = sub.add_parser("survey", parents=[common],
                       help="outline panels for every possible baseline")
    p.add_argument("input", help="dataset file")
    p.add_argument("--targets", metavar="G1,G2",
                   help="template and target group tags")
    p.add_argument("-o", "--output", required=True, help="output SVG")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("rotations", parents=[common],
                       help="segment rotations between two group means")
    p.add_argument("input", help="dataset file")
    p.add_argument("--targets", metavar="G1,G2",
                   help="template and target group tags")
    p.add_argument("--threshold", type=float, metavar="RAD",
                   help="keep segments with |rotation| >= RAD (default 0.15)")
    p.add_argument("--nonaffine", action="store_true", default=None,
                   help="remove the affine component before measuring")
    p.add_argument("-o", "--output", help="write the table as CSV")
    p.add_argument("--svg", help="write the selected segment network as SVG")
    p.set_defaults(func=cmd_rotations)

    p = sub.add_parser("fit", parents=[common],
                       help="polynomial trend fit with four-panel figure")
    p.add_argument("input", help="dataset file")
    p.add_argument("--degree", type=int, choices=(2, 3), help="trend degree")
    p.add_argument("--baseline", metavar="I,J",
                   help="baseline landmark ordinals, 1-based")
    p.add_argument("--targets", metavar="G1,G2",
                   help="template and target group tags")
    p.add_argument("--trim", choices=("template", "target"),
                   help="trim the grid by the template polygon (preimage test) "
                        "or the target polygon (image test); default template")
    p.add_argument("--hull", action="store_true", default=None,
                   help="trim with the convex hull instead of the landmark cycle")
    p.add_argument("--extend", action="append", metavar="SIDE:MULT",
                   help="extend the grid, e.g. left:2.0 (repeatable)")
    p.add_argument("--cells", type=int, help="grid cells on the longer side (default 24)")
    p.add_argument("--margin", type=float,
                   help="grid margin as a fraction of the bounding box (default 0.25)")
    p.add_argument("--samples", type=int, help="samples per cell edge (default 10)")
    p.add_argument("--outdir", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("demo", parents=[common],
                       help="built-in datasets and illustrative figures")
    p.add_argument("kind", choices=("parallelogram", "rotated_parallelogram",
                                    "trapezoid", "kite", "synthetic-vilmann"))
    p.add_argument("--outdir", required=True, help="output directory")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = _load_config(getattr(args, "config", None))
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

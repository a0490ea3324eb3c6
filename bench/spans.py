"""Spans and counts for the traced benchmark run.

Nothing in gridmorph is changed on disk. ``Recorder.install`` rebinds the
attributes that callers look up (``gridmorph.cli.tps_fit``,
``gridmorph.gridlab.tps_eval``, ``gridmorph.maps.BilinearMap.map_points``,
...) to wrappers that record a span around the original call and return
its result unchanged; ``Recorder.uninstall`` puts the originals back.
Spans stay in memory until the run writes them out.

A span is (name, parent span index, op id, start ns, end ns). Its self time
is its duration minus the durations of its direct children; children of
one span never overlap, because the program runs on one thread.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path of the wrapped callable)
TARGETS = {
    "cli.main": ("gridmorph.cli", "main"),
    "formats.parse_tps_file": ("gridmorph.formats", "parse_tps_file"),
    "formats.parse_csv": ("gridmorph.formats", "parse_csv"),
    "formats.read_dataset": ("gridmorph.formats", "read_dataset"),
    "formats.write_dataset": ("gridmorph.formats", "write_dataset"),
    "core.LandmarkConfiguration": ("gridmorph.core", "LandmarkConfiguration.__post_init__"),
    "core.Sample": ("gridmorph.core", "Sample.__post_init__"),
    "registration.gpa_mean": ("gridmorph.registration", "gpa_mean"),
    "registration.procrustes_align": ("gridmorph.registration", "procrustes_align"),
    "registration.two_point_register": ("gridmorph.registration", "two_point_register"),
    "tps.tps_fit": ("gridmorph.tps", "tps_fit"),
    "tps.tps_eval": ("gridmorph.tps", "tps_eval"),
    "trend.trend_fit": ("gridmorph.trend", "trend_fit"),
    "trend.trend_eval": ("gridmorph.trend", "trend_eval"),
    "maps.invert_bilinear": ("gridmorph.maps", "invert_bilinear"),
    "maps.BilinearMap.map_points": ("gridmorph.maps", "BilinearMap.map_points"),
    "maps.Homography.map_points": ("gridmorph.maps", "Homography.map_points"),
    "maps.homography_from_quads": ("gridmorph.maps", "homography_from_quads"),
    "gridlab.deform_grid": ("gridmorph.gridlab", "deform_grid"),
    "gridlab.trim_grid": ("gridmorph.gridlab", "trim_grid"),
    "gridlab.points_in_polygon": ("gridmorph.gridlab", "points_in_polygon"),
    "gridlab.kept_runs": ("gridmorph.gridlab", "kept_runs"),
    "gridlab.segment_rotations": ("gridmorph.gridlab", "segment_rotations"),
    "gridlab.filter_rotations": ("gridmorph.gridlab", "filter_rotations"),
    "render.grid_scene": ("gridmorph.render", "grid_scene"),
    "render.render_scene": ("gridmorph.render", "render_scene"),
    "render.write_svg": ("gridmorph.render", "write_svg"),
}

# Per-layer metrics, in report order: (name, unit). A name ending in
# .self_s or .calls belongs to the span before it; every other name is a
# count kept by the hooks below, or by the runner (cli.bytes_written,
# trace.*).
LAYER_METRICS = [
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("formats.parse_tps_file.self_s", "s"),
    ("formats.parse_csv.self_s", "s"),
    ("formats.read_dataset.self_s", "s"),
    ("formats.write_dataset.self_s", "s"),
    ("formats.bytes_in", "B"),
    ("formats.bytes_out", "B"),
    ("core.LandmarkConfiguration.calls", "count"),
    ("core.LandmarkConfiguration.self_s", "s"),
    ("core.Sample.calls", "count"),
    ("core.Sample.self_s", "s"),
    ("registration.gpa_mean.self_s", "s"),
    ("registration.procrustes_align.calls", "count"),
    ("registration.procrustes_align.self_s", "s"),
    ("registration.gpa_iterations", "count"),
    ("registration.two_point_register.calls", "count"),
    ("registration.two_point_register.self_s", "s"),
    ("tps.tps_fit.calls", "count"),
    ("tps.tps_fit.self_s", "s"),
    ("tps.tps_eval.self_s", "s"),
    ("tps.kernel_evals", "count"),
    ("tps.eval_temp_bytes", "B"),
    ("trend.trend_fit.self_s", "s"),
    ("trend.trend_eval.self_s", "s"),
    ("trend.condition", "ratio"),
    ("maps.invert_bilinear.self_s", "s"),
    ("maps.BilinearMap.map_points.self_s", "s"),
    ("maps.Homography.map_points.self_s", "s"),
    ("maps.homography_from_quads.self_s", "s"),
    ("maps.ambiguous_roots", "count"),
    ("gridlab.deform_grid.self_s", "s"),
    ("gridlab.samples_deformed", "count"),
    ("gridlab.samples_undefined", "count"),
    ("gridlab.trim_grid.self_s", "s"),
    ("gridlab.points_in_polygon.calls", "count"),
    ("gridlab.points_in_polygon.self_s", "s"),
    ("gridlab.trim_edge_tests", "count"),
    ("gridlab.samples_trimmed", "count"),
    ("gridlab.kept_runs.calls", "count"),
    ("gridlab.kept_runs.self_s", "s"),
    ("gridlab.segment_rotations.self_s", "s"),
    ("gridlab.filter_rotations.self_s", "s"),
    ("gridlab.segments", "count"),
    ("render.grid_scene.self_s", "s"),
    ("render.render_scene.self_s", "s"),
    ("render.write_svg.self_s", "s"),
    ("render.svg_bytes", "B"),
    ("render.points_emitted", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
]


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else len(points)


def _scene_points(scene) -> int:
    """Coordinate pairs a scene puts into its SVG."""
    total = 0
    for layer in scene.layers:
        if hasattr(layer, "scene"):          # a panel holding a sub-scene
            total += _scene_points(layer.scene)
        elif hasattr(layer, "segments"):     # a segment network: two ends each
            total += 2 * len(layer.segments)
        elif hasattr(layer, "points"):       # a polyline
            total += _rows(layer.points)
        else:                                # a marker or a label
            total += 1
    return total


# Hooks run after the wrapped call has returned, outside its span. Each gets
# the recorder, the span's index, the bound arguments and the result.

def _count_edge_tests(rec, index, args, result):
    rec.counts["gridlab.trim_edge_tests"] += result.size * len(args["polygon"])


def _count_trimmed(rec, index, args, result):
    rec.counts["gridlab.samples_trimmed"] += args["grid"].kept_samples - result.kept_samples


def _count_deformed(rec, index, args, result):
    total = result.total_samples
    rec.counts["gridlab.samples_deformed"] += total
    rec.counts["gridlab.samples_undefined"] += total - result.kept_samples


def _count_segments(rec, index, args, result):
    rec.counts["gridlab.segments"] += len(result.segments)


def _count_kernel(rec, index, args, result):
    n = result.size // 2
    k = _rows(args["model"].template_points)
    rec.counts["tps.kernel_evals"] += n * k
    rec.counts["tps.eval_temp_bytes"] = max(rec.counts["tps.eval_temp_bytes"], n * k * 2 * 8)


def _note_condition(rec, index, args, result):
    rec.counts["trend.condition"] = max(rec.counts["trend.condition"], result.condition)


def _count_ambiguous(rec, index, args, result):
    rec.counts["maps.ambiguous_roots"] += int(result[1].sum())


def _count_bytes_in(rec, index, args, result):
    rec.counts["formats.bytes_in"] += len(args["text"])


def _count_bytes_out(rec, index, args, result):
    rec.counts["formats.bytes_out"] += len(result)


def _count_svg(rec, index, args, result):
    rec.counts["render.svg_bytes"] += len(result)
    rec.counts["render.points_emitted"] += _scene_points(args["scene"])


def _count_gpa_iterations(rec, index, args, result):
    aligned = sum(1 for span in rec.spans[index + 1:]
                  if span[1] == index and span[0] == "registration.procrustes_align")
    rec.counts["registration.gpa_iterations"] += aligned / len(args["sample"].configurations)


HOOKS = {
    "gridlab.points_in_polygon": _count_edge_tests,
    "gridlab.trim_grid": _count_trimmed,
    "gridlab.deform_grid": _count_deformed,
    "gridlab.segment_rotations": _count_segments,
    "tps.tps_eval": _count_kernel,
    "trend.trend_fit": _note_condition,
    "maps.invert_bilinear": _count_ambiguous,
    "formats.parse_tps_file": _count_bytes_in,
    "formats.parse_csv": _count_bytes_in,
    "formats.read_dataset": _count_bytes_in,
    "formats.write_dataset": _count_bytes_out,
    "render.render_scene": _count_svg,
    "registration.gpa_mean": _count_gpa_iterations,
}


class Recorder:
    """Keeps the spans and counts of the traced ops of one run."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent, op, start_ns, end_ns]
        self.stack: list[int] = []
        self.op = -1
        self.counts: defaultdict = defaultdict(int)
        self.op_counts: list[dict] = []
        self.missing: list[str] = []     # targets gridmorph no longer has
        self.broken: set[str] = set()    # hooks that could not read their values
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, clock(), 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(self, index, bound, result)
                except (AttributeError, KeyError, TypeError):
                    self.broken.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target, wherever a gridmorph module holds a reference to it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "gridmorph" or key.startswith("gridmorph.")]
        self.missing = []
        for name, (module_name, path) in TARGETS.items():
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if classes:
                holders = [(owner, attr)]
            else:
                holders = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- ops -----------------------------------------------------------------

    def begin_op(self) -> None:
        self.op = len(self.op_counts)
        self.counts = defaultdict(int)

    def end_op(self) -> None:
        self.op_counts.append(dict(self.counts))

    def _self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for name, parent, op, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[index]
                for index, (name, parent, op, start, end) in enumerate(self.spans)]

    def per_op(self) -> list[dict[str, list[int]]]:
        """Per traced op: span name -> [calls, self ns]."""
        stats = [defaultdict(lambda: [0, 0]) for _ in self.op_counts]
        for (name, parent, op, start, end), self_ns in zip(self.spans, self._self_ns()):
            entry = stats[op][name]
            entry[0] += 1
            entry[1] += self_ns
        return stats

    def exact_counts(self, stats: dict, counts: dict) -> dict:
        """The values of one op that must repeat exactly: calls and counts."""
        exact = {f"{name}.calls": stats[name][0] for name in TARGETS if name in stats}
        exact.update(counts)
        return exact

    def layer_metrics(self) -> dict[str, float]:
        """Per-op layer metrics: median self time, the calls and counts of the first op."""
        stats = self.per_op()
        out = {}
        for name, _ in LAYER_METRICS:
            if name.endswith(".self_s"):
                span = name[:-len(".self_s")]
                out[name] = statistics.median(op[span][1] for op in stats) / 1e9 if stats else 0.0
            elif name.endswith(".calls"):
                span = name[:-len(".calls")]
                out[name] = stats[0][span][0] if stats else 0
            elif not name.startswith("trace."):
                out[name] = self.op_counts[0].get(name, 0) if self.op_counts else 0
        return out

    def write(self, path) -> None:
        """Write every span, one JSON array per line, with its self time."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["op", "index", "parent", "name", "start_ns", "end_ns", "self_ns"]\n')
            for index, ((name, parent, op, start, end), self_ns) in enumerate(
                    zip(self.spans, self._self_ns())):
                handle.write(json.dumps([op, index, parent, name, start - origin,
                                         end - origin, self_ns]) + "\n")

"""Deterministic SVG rendering of scenes built from grids, outlines and markers.

The emitter is deliberately dumb: fixed attribute order, floats printed
with 6 significant digits, no timestamps, no generated ids. Rendering the
same scene twice yields byte-identical output, which makes figures
diffable and lets tests freeze golden files. write_svg streams the text
that render_scene returns into its file, one block at a time. Every number
of a polyline, a marker or a segment network is printed by formats.fmt_g at
6 digits, in one call per block of PRINT_BLOCK numbers.

Scene coordinates are mathematical (y up). The viewport maps a world
rectangle onto the pixel canvas with a single isotropic scale and a y
flip, so shapes are never distorted anisotropically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import Segment
from .errors import InputError
from .formats import fmt_g
from .gridlab import DeformedGrid, finite_rows, kept_runs


LIGHT_WIDTH, HEAVY_WIDTH = 0.75, 1.5  # stroke widths in pixels
MARKER_RADIUS, BASELINE_RING_RATIO = 2.5, 1.8
FONT_SIZE = 10.0


@dataclass(frozen=True, eq=False)
class Polyline:
    points: np.ndarray  # (n, 2) world coordinates
    heavy: bool = False
    dashed: bool = False
    closed: bool = False


@dataclass(frozen=True, eq=False)
class GridLines:  # light polylines through points[start:stop] for each (start, stop) in runs
    points: np.ndarray  # (n, 2) world coordinates
    runs: np.ndarray    # (m, 2) row bounds, as gridlab.kept_runs returns them
    heavy = dashed = closed = False  # drawn in Polyline's default style


@dataclass(frozen=True, eq=False)
class Markers:  # a circle at each point, in order, and a ring after those of the ordinals in rings
    points: np.ndarray  # (n, 2) world coordinates
    filled: bool = True
    rings: tuple[int, ...] = ()  # each ring is BASELINE_RING_RATIO x the marker radius


@dataclass(frozen=True, eq=False)
class Label:
    anchor: np.ndarray  # (2,)
    text: str


@dataclass(frozen=True, eq=False)
class SegmentNetwork:
    points: np.ndarray  # (k, 2)
    segments: tuple[Segment, ...]
    heavy: bool = False


@dataclass(frozen=True, eq=False)
class Panel:
    scene: "Scene"
    rect: tuple[float, float, float, float]  # x, y, w, h in pixels, drawn as a border


@dataclass(frozen=True, eq=False)
class Scene:
    """Layers plus the world->pixel mapping they are drawn through.

    viewport is (x0, y0, x1, y1) in world coordinates; None means "bounds of the content,
    padded 5 percent". A Panel's scene is drawn into the Panel's rect, its size unread.
    """

    size: tuple[float, float] = (480.0, 480.0)
    viewport: tuple[float, float, float, float] | None = None
    layers: tuple = ()


def _fmt(value: float) -> str:
    return "%.6g" % (float(value) + 0.0)  # + 0.0 turns -0.0 into 0.0


PRINT_BLOCK = 2 ** 14  # coordinates per fmt_g call: its arrays peak at ~100 B each


def _escape(text: str) -> str:
    """Text content escaped as xml.sax.saxutils.escape does, without importing xml."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def padded_bounds(chunks) -> tuple[float, float, float, float] | None:
    """Bounding box of the finite rows of some (n, 2) arrays, read one at a time (never
    stacked), padded by 5 percent of its longer side; None if no row is finite."""
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
    for chunk in chunks:
        pts = np.asarray(chunk, dtype=float).reshape(-1, 2)
        keep = finite_rows(pts)
        x, y = (pts[:, 0], pts[:, 1]) if keep.all() else (pts[keep, 0], pts[keep, 1])
        if len(x):  # column by column: a min over axis 0 of (n, 2) strides across each row
            lo, hi = np.minimum(lo, (x.min(), y.min())), np.maximum(hi, (x.max(), y.max()))
    if lo[0] == np.inf:
        return None
    # the side is at least 1e-9 of the largest |coordinate| (1 if all are 0): it scales with them
    pad = 0.05 * (max(float((hi - lo).max()), 1e-9 * float(np.abs([lo, hi]).max())) or 1.0)
    return (float(lo[0]) - pad, float(lo[1]) - pad, float(hi[0]) + pad, float(hi[1]) + pad)


def _transform(viewport, rect):
    """The world->pixel map of (n, 2) points, into out (a new array by default): one isotropic
    scale and a y flip, centred in rect, taken a column at a time."""
    x0, y0, x1, y1 = viewport
    if not (x1 > x0 and y1 > y0):
        raise InputError(f"degenerate viewport {viewport}")
    px, py, pw, ph = rect
    scale = min(pw / (x1 - x0), ph / (y1 - y0))
    ox, oy = px + (pw - (x1 - x0) * scale) / 2.0, py + (ph - (y1 - y0) * scale) / 2.0
    def apply(pts, out=None):  # (pts - (x0, y1)) * (scale, -scale) + (ox, oy)
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out = np.empty_like(pts) if out is None else out
        for j, origin, gain, offset in ((0, x0, scale, ox), (1, y1, -scale, oy)):
            col = np.subtract(pts[:, j], origin, out=out[:, j])
            np.add(np.multiply(col, gain, out=col), offset, out=col)
        return out
    return apply


def _layers(scene: Scene, rect):
    """(layer, where) of each layer of a scene in file order, a Panel's scene right after the
    Panel: where is a Panel's pixel rect, or the world->pixel map of the scene's own layers."""
    viewport = scene.viewport if scene.viewport is not None else padded_bounds([
        *(layer.points for layer in scene.layers
          if isinstance(layer, (Polyline, SegmentNetwork, Markers))),
        *(layer.points[start:stop] for layer in scene.layers if isinstance(layer, GridLines)
          for start, stop in layer.runs.tolist()),
        *(layer.anchor for layer in scene.layers if isinstance(layer, Label))])
    tf = _transform(viewport, rect) if viewport is not None else None
    if tf is None and not all(isinstance(layer, Panel) for layer in scene.layers):
        raise InputError("scene has drawable layers but no viewport could be derived")
    for layer in scene.layers:
        if isinstance(layer, Panel):
            x, y, w, h = layer.rect
            yield layer, (x + rect[0], y + rect[1], w, h)
            yield from _layers(layer.scene, (x + rect[0], y + rect[1], w, h))
        else:
            yield layer, tf


def _text(layer, where) -> str:
    """The SVG lines of a Panel or a Label, where as _layers gives it."""
    if isinstance(layer, Panel):
        return ('<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="black" '
                'stroke-width="%s"/>\n' % (*map(_fmt, where), _fmt(LIGHT_WIDTH)))
    if isinstance(layer, Label):
        (x, y), = where(layer.anchor)
        return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
                f'font-size="{_fmt(FONT_SIZE)}">{_escape(layer.text)}</text>\n')
    raise InputError(f"unknown scene layer type {type(layer).__name__}")


_STROKE = f'stroke="black" stroke-width="{_fmt(LIGHT_WIDTH)}"'
_CIRCLES = [f'<circle cx="%s" cy="%s" r="{_fmt(radius)}" {paint}/>\n' for radius, paint in (
    (MARKER_RADIUS, f'fill="white" {_STROKE}'), (MARKER_RADIUS, 'fill="black" stroke="none"'),
    (MARKER_RADIUS * BASELINE_RING_RATIO, f'fill="none" {_STROKE}'))]  # open, filled, ring
_LINES = [f'<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" stroke-width="{_fmt(width)}"/>\n'
          for width in (LIGHT_WIDTH, HEAVY_WIDTH)]  # light, heavy


def _svg(scene: Scene):
    """The SVG 1.1 text of a scene in file order, a piece per PRINT_BLOCK coordinates."""
    def printed() -> str:  # the points as _fmt prints them, "x,y x,y ...", in one fmt_g call
        xy = np.concatenate(pieces) if pieces else np.empty((0, 2))
        for (tf, begin), (_, end) in zip(maps, maps[1:] + [(None, len(xy))]):
            tf(xy[begin:end], xy[begin:end])
        seps = np.tile(np.frombuffer(b",\0\0\0 \0\0\0", "<u4"), len(xy))
        seps[np.array(ends, dtype=np.intp)] = ord("\n")
        texts = fmt_g(xy.ravel(), seps, 6).split("\n")
        return "".join([part for pair in zip(joins, texts) for part in pair])

    w, h = scene.size
    # pieces, the numbers that end a text, joins[r] before text r, (map, first point) of each map
    pieces, ends, maps, size = [], [], [], 0
    joins = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(w)}" '
             f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">\n']
    for layer, where in _layers(scene, (0.0, 0.0, float(w), float(h))):
        # a marker's or a segment's numbers are each a text of their own: cuts[i] is the text
        # before number i of pts' x, y, x, y, ..., and cuts[-1] the text after the last
        if isinstance(layer, SegmentNetwork):
            pts = np.asarray(layer.points, dtype=float).reshape(-1, 2)[
                np.array(layer.segments, dtype=np.intp).reshape(-1)]
            cuts = (_LINES[bool(layer.heavy)] * len(layer.segments)).split("%s")
        elif isinstance(layer, Markers):  # where a ring prints its centre again
            pts = np.asarray(layer.points, dtype=float).reshape(-1, 2)
            texts, repeats = [_CIRCLES[bool(layer.filled)]] * len(pts), np.ones(len(pts), np.intp)
            for ring in {ring for ring in layer.rings if ring in range(len(pts))}:
                texts[ring], repeats[ring] = texts[ring] + _CIRCLES[2], 2
            pts, cuts = np.repeat(pts, repeats, axis=0), "".join(texts).split("%s")
        elif isinstance(layer, (Polyline, GridLines)):
            pts, cuts = np.asarray(layer.points, dtype=float).reshape(-1, 2), None
            width = _fmt(HEAVY_WIDTH if layer.heavy else LIGHT_WIDTH)
            dash = ' stroke-dasharray="4 3"' if layer.dashed else ""
            head = (f'<{"polygon" if layer.closed else "polyline"} fill="none" stroke="black" '
                    f'stroke-width="{width}"{dash} points="')
        else:
            joins[-1] += _text(layer, where)
            continue
        for start, stop in (layer.runs.tolist() if isinstance(layer, GridLines)
                            else [(0, len(pts))] * (len(pts) >= 2 or cuts is not None)):
            joins[-1] += head if cuts is None else cuts[0]
            while start < stop:
                if not maps or maps[-1][0] is not where:
                    maps.append((where, size))
                take = min(stop - start, PRINT_BLOCK // 2 - size)
                pieces.append(pts[start:start + take])
                if cuts is not None:  # the text after a block's last number ends that block
                    ends.extend(range(2 * size, 2 * (size + take)))
                    joins += cuts[2 * start + 1:2 * (start + take) + 1]
                elif start + take == stop:
                    ends.append(2 * (size + take) - 1)
                    joins.append('"/>\n')
                size, start = size + take, start + take
                if size == PRINT_BLOCK // 2:
                    yield printed()
                    pieces, ends, joins, maps, size = [], [], [""], [], 0
    joins[-1] += "</svg>\n"
    yield printed()


def render_scene(scene: Scene) -> str:
    """Serialize a scene to SVG 1.1 text. Same scene in, same bytes out."""
    return "".join(_svg(scene))


def write_svg(scene: Scene, path) -> None:
    """Stream render_scene(scene)'s text into path; on any error, remove the partial file."""
    handle = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.writelines(_svg(scene))
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):  # never a device, pipe or link
            os.remove(path)
        raise


def grid_scene(grid: DeformedGrid, *, solid_points=None, open_points=None,
               baseline: tuple[int, int] | None = None, viewport=None) -> Scene:
    """Scene showing a deformed grid with optional landmark markers.

    solid_points are drawn as filled circles (observed data), open_points as
    open circles (predictions). baseline names two landmark ordinals whose
    markers get the enclosing ring, on whichever point sets are present.
    """
    layers = (*(GridLines(image.reshape(-1, 2), kept_runs(kept))
                for image, kept in grid.families()),
              *(Markers(np.asarray(pts, dtype=float).reshape(-1, 2), filled, tuple(baseline or ()))
                for pts, filled in ((solid_points, True), (open_points, False)) if pts is not None))
    return Scene(viewport=viewport, layers=layers)


def network_scene(template, target, segments: tuple[Segment, ...]) -> Scene:
    """Scene showing segment networks of two registered configurations.

    The template network is light with open markers, the target heavy with
    filled markers, so the eye can track each segment's rotation.
    """
    segments = tuple(segments)
    layers = [SegmentNetwork(template.coords, segments, heavy=False),
              SegmentNetwork(target.coords, segments, heavy=True),
              Markers(template.coords, filled=False), Markers(target.coords, filled=True)]
    return Scene(layers=tuple(layers))


def outline_panel(template, target, baseline: tuple[int, int], title: str) -> Scene:
    """One 240-pixel survey panel: template and target outlines with the baseline ringed,
    titled in the upper left of their bounding box."""
    layers = [Polyline(template.coords, heavy=False, closed=True),
              Polyline(target.coords, heavy=True, closed=True),
              Markers(template.coords, False, tuple(baseline)),
              Markers(target.coords, True, tuple(baseline))]
    pts = np.vstack([template.coords, target.coords])
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    layers.append(Label(np.array([x0 + 0.04 * (x1 - x0), y1 - 0.08 * (y1 - y0)]), title))
    return Scene(size=(240.0, 240.0), layers=tuple(layers))


def tile_scenes(panels: list[Scene], columns: int | None = None,
                panel_size: float = 240.0) -> Scene:
    """Tile any number of panel scenes into one figure, row-major."""
    if not panels:
        raise InputError("no panels to tile")
    n = len(panels)
    cols = columns if columns is not None else int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    p = float(panel_size)
    layers = tuple(Panel(scene, ((idx % cols) * p, (idx // cols) * p, p, p))
                   for idx, scene in enumerate(panels))
    return Scene(size=(cols * p, rows * p), layers=layers)

"""Deterministic SVG rendering of scenes built from grids, outlines and markers.

The emitter is deliberately dumb: fixed attribute order, floats printed
with 6 significant digits, no timestamps, no generated ids. Rendering the
same scene twice yields byte-identical output, which makes figures
diffable and lets tests freeze golden files.

Scene coordinates are mathematical (y up). The viewport maps a world
rectangle onto the pixel canvas with a single isotropic scale and a y
flip, so shapes are never distorted anisotropically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Segment
from .errors import InputError
from .gridlab import DeformedGrid, kept_runs


@dataclass(frozen=True)
class Style:
    light_width: float = 0.75
    heavy_width: float = 1.5
    marker_radius: float = 2.5
    baseline_ring_ratio: float = 1.8
    font_size: float = 10.0


@dataclass(frozen=True, eq=False)
class Polyline:
    points: np.ndarray  # (n, 2) world coordinates
    heavy: bool = False
    dashed: bool = False
    closed: bool = False


@dataclass(frozen=True, eq=False)
class Marker:
    center: np.ndarray  # (2,)
    filled: bool = True
    baseline: bool = False  # adds an enclosing ring 1.8x the marker radius


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
    rect: tuple[float, float, float, float]  # x, y, w, h in pixels
    border: bool = True


@dataclass(frozen=True, eq=False)
class Scene:
    """Layers plus the world->pixel mapping they are drawn through.

    viewport is (x0, y0, x1, y1) in world coordinates; None means "bounds of
    the content, padded 5 percent". landmark_count is optional bookkeeping
    used to check that composite figures agree on their landmark set.
    """

    size: tuple[float, float] = (480.0, 480.0)
    viewport: tuple[float, float, float, float] | None = None
    layers: tuple = ()
    style: Style = field(default_factory=Style)
    landmark_count: int | None = None


def _fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return "%.6g" % v


def _fmt_points(pts: np.ndarray) -> str:
    """Points as "x,y x,y ...", each coordinate as _fmt prints it, in one % operation."""
    return " ".join(["%.6g,%.6g"] * len(pts)) % tuple((pts + 0.0).ravel().tolist())


def _escape(text: str) -> str:
    """Text content escaped as xml.sax.saxutils.escape does, without importing xml."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _content_bounds(layers) -> np.ndarray | None:
    chunks = []
    for layer in layers:
        if isinstance(layer, (Polyline, SegmentNetwork)):
            chunks.append(np.asarray(layer.points, dtype=float).reshape(-1, 2))
        elif isinstance(layer, (Marker, Label)):
            point = layer.center if isinstance(layer, Marker) else layer.anchor
            chunks.append(np.asarray(point, dtype=float).reshape(1, 2))
    if not chunks:
        return None
    pts = np.vstack(chunks)
    pts = pts[np.isfinite(pts).all(axis=1)]
    if len(pts) == 0:
        return None
    return np.array([pts.min(axis=0), pts.max(axis=0)])


class _Transform:
    """Isotropic world->pixel mapping with a y flip, centered in its pixel rect."""

    def __init__(self, viewport, rect):
        x0, y0, x1, y1 = viewport
        if not (x1 > x0 and y1 > y0):
            raise InputError(f"degenerate viewport {viewport}")
        px, py, pw, ph = rect
        self.scale = min(pw / (x1 - x0), ph / (y1 - y0))
        self.ox = px + (pw - (x1 - x0) * self.scale) / 2.0
        self.oy = py + (ph - (y1 - y0) * self.scale) / 2.0
        self.x0 = x0
        self.y1 = y1

    def apply(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out = np.empty_like(pts)
        out[:, 0] = self.ox + (pts[:, 0] - self.x0) * self.scale
        out[:, 1] = self.oy + (self.y1 - pts[:, 1]) * self.scale
        return out


def _scene_viewport(scene: Scene):
    if scene.viewport is not None:
        return scene.viewport
    bounds = _content_bounds(scene.layers)
    if bounds is None:
        return None
    (x0, y0), (x1, y1) = bounds
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _emit_layers(scene: Scene, rect, out: list[str]):
    viewport = _scene_viewport(scene)
    tf = _Transform(viewport, rect) if viewport is not None else None
    style = scene.style
    for layer in scene.layers:
        if isinstance(layer, Panel):
            px, py, pw, ph = layer.rect
            px, py = px + rect[0], py + rect[1]
            if layer.border:
                out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
                           f'height="{_fmt(ph)}" fill="none" stroke="black" '
                           f'stroke-width="{_fmt(style.light_width)}"/>')
            _emit_layers(layer.scene, (px, py, pw, ph), out)
            continue
        if tf is None:
            raise InputError("scene has drawable layers but no viewport could be derived")
        if isinstance(layer, Polyline):
            pts = tf.apply(layer.points)
            if len(pts) < 2:
                continue
            tag = "polygon" if layer.closed else "polyline"
            width = style.heavy_width if layer.heavy else style.light_width
            dash = ' stroke-dasharray="4 3"' if layer.dashed else ""
            out.append(f'<{tag} fill="none" stroke="black" stroke-width="{_fmt(width)}"'
                       f'{dash} points="{_fmt_points(pts)}"/>')
        elif isinstance(layer, Marker):
            (cx, cy), = tf.apply(layer.center)
            r = style.marker_radius
            if layer.filled:
                out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                           f'fill="black" stroke="none"/>')
            else:
                out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                           f'fill="white" stroke="black" '
                           f'stroke-width="{_fmt(style.light_width)}"/>')
            if layer.baseline:
                ring = r * style.baseline_ring_ratio
                out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(ring)}" '
                           f'fill="none" stroke="black" '
                           f'stroke-width="{_fmt(style.light_width)}"/>')
        elif isinstance(layer, Label):
            (x, y), = tf.apply(layer.anchor)
            out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
                       f'font-size="{_fmt(style.font_size)}">{_escape(layer.text)}</text>')
        elif isinstance(layer, SegmentNetwork):
            pts = tf.apply(layer.points)
            width = style.heavy_width if layer.heavy else style.light_width
            for seg in layer.segments:
                a, b = pts[seg.i], pts[seg.j]
                out.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                           f'y2="{_fmt(b[1])}" stroke="black" '
                           f'stroke-width="{_fmt(width)}"/>')
        else:
            raise InputError(f"unknown scene layer type {type(layer).__name__}")


def render_scene(scene: Scene) -> str:
    """Serialize a scene to SVG 1.1 text. Same scene in, same bytes out."""
    w, h = scene.size
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">']
    _emit_layers(scene, (0.0, 0.0, float(w), float(h)), out)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_scene(scene))


def grid_scene(grid: DeformedGrid, *, solid_points=None, open_points=None,
               baseline: tuple[int, int] | None = None, heavy_grid: bool = False,
               viewport=None, size: tuple[float, float] = (480.0, 480.0),
               landmark_count: int | None = None) -> Scene:
    """Scene showing a deformed grid with optional landmark markers.

    solid_points are drawn as filled circles (observed data), open_points as
    open circles (predictions). baseline names two landmark ordinals whose
    markers get the enclosing ring, on whichever point sets are present.
    """
    layers: list = [Polyline(run, heavy=heavy_grid)
                    for image, kept in grid.families() for run in kept_runs(image, kept)]
    ring = set(baseline) if baseline is not None else set()
    for pts, filled in ((solid_points, True), (open_points, False)):
        if pts is None:
            continue
        arr = np.asarray(pts, dtype=float).reshape(-1, 2)
        for idx, row in enumerate(arr):
            layers.append(Marker(row, filled=filled, baseline=idx in ring))
    return Scene(size=size, viewport=viewport, layers=tuple(layers),
                 landmark_count=landmark_count)


def network_scene(template, target, segments: tuple[Segment, ...], *,
                  viewport=None, size: tuple[float, float] = (480.0, 480.0)) -> Scene:
    """Scene showing segment networks of two registered configurations.

    The template network is light with open markers, the target heavy with
    filled markers, so the eye can track each segment's rotation.
    """
    layers = [SegmentNetwork(template.coords, tuple(segments), heavy=False),
              SegmentNetwork(target.coords, tuple(segments), heavy=True),
              *(Marker(row, filled=False) for row in template.coords),
              *(Marker(row, filled=True) for row in target.coords)]
    return Scene(size=size, viewport=viewport, layers=tuple(layers),
                 landmark_count=len(template))


def outline_panel(template, target, baseline: tuple[int, int], title: str, *,
                  viewport=None, size: tuple[float, float] = (240.0, 240.0)) -> Scene:
    """One survey panel: template and target outlines with the baseline ringed."""
    layers = [Polyline(template.coords, heavy=False, closed=True),
              Polyline(target.coords, heavy=True, closed=True)]
    for config, filled in ((template, False), (target, True)):
        layers += [Marker(row, filled=filled, baseline=idx in baseline)
                   for idx, row in enumerate(config.coords)]
    layers.append(Label(_title_anchor(viewport, template, target), title))
    return Scene(size=size, viewport=viewport, layers=tuple(layers),
                 landmark_count=len(template))


def _title_anchor(viewport, template, target) -> np.ndarray:
    if viewport is not None:
        x0, y0, x1, y1 = viewport
    else:
        pts = np.vstack([template.coords, target.coords])
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
    return np.array([x0 + 0.04 * (x1 - x0), y1 - 0.08 * (y1 - y0)])


def tile_scenes(panels: list[Scene], columns: int | None = None,
                panel_size: float = 240.0) -> Scene:
    """Tile any number of panel scenes into one figure, row-major.

    The panels must agree on their landmark set when they declare one.
    """
    if not panels:
        raise InputError("no panels to tile")
    counts = {s.landmark_count for s in panels if s.landmark_count is not None}
    if len(counts) > 1:
        raise InputError(f"panels disagree on landmark count: {sorted(counts)}")
    n = len(panels)
    cols = columns if columns is not None else int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    p = float(panel_size)
    layers = tuple(
        Panel(scene, ((idx % cols) * p, (idx // cols) * p, p, p))
        for idx, scene in enumerate(panels)
    )
    return Scene(size=(cols * p, rows * p), layers=layers,
                 landmark_count=next(iter(counts)) if counts else None)

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

from dataclasses import dataclass

import numpy as np

from .core import Segment
from .errors import InputError
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
class Marker:
    center: np.ndarray  # (2,)
    filled: bool = True
    baseline: bool = False  # adds an enclosing ring BASELINE_RING_RATIO x the marker radius


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

    viewport is (x0, y0, x1, y1) in world coordinates; None means "bounds of
    the content, padded 5 percent". landmark_count is optional bookkeeping
    used to check that composite figures agree on their landmark set.
    """

    size: tuple[float, float] = (480.0, 480.0)
    viewport: tuple[float, float, float, float] | None = None
    layers: tuple = ()
    landmark_count: int | None = None


def _fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return "%.6g" % v


PRINT_BLOCK = 2 ** 14  # polyline coordinates per _fmt_coords call: its arrays take ~130 B each
_POW10 = 10.0 ** np.arange(11)  # exact in binary
# 0-999 as ASCII in the low bytes of little-endian words, 1000 words a form: all three
# digits (from 0); no leading zeros from byte 1 on, byte 0 left for a sign, 0 as nothing
# (_LEAD); no leading zeros (_INT); no trailing zeros, 0 as nothing (_TRAIL)
_LEAD, _INT, _TRAIL = 1000, 2000, 3000
_DIGITS = np.frombuffer(b"".join(text.encode().ljust(4, b"\0") for text in [
    *("%03d" % n for n in range(1000)), "", *("\0%d" % n for n in range(1, 1000)),
    *("%d" % n for n in range(1000)), *(("%03d" % n).rstrip("0") for n in range(1000))]), "<u4")


def _fmt_coords(values: np.ndarray, seps: np.ndarray) -> str:
    """Each value as _fmt prints it, then its separator byte (0 for none), in whole-array passes.

    Where %.6g prints fixed notation, its six digits are the value scaled by
    the exact 10^(5-e) and rounded. The product is within 1.2e-10 of the
    exact one, so its rounding is exact unless the fraction is within 1e-6
    of a half. Those near-ties, zero, non-finite values and exponential
    notation go to _fmt: exact digits or an exact fallback (Steele & White,
    PLDI 1990). Each value owns 20 bytes of a canvas, zero bytes being
    padding: sign, integer part and fraction in 3-digit groups, separator.
    """
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e6)  # false for nan and inf
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)).astype(np.int32), -4, 5)
    s = a * _POW10[5 - e]
    e += (s >= 1e6).view(np.int8) - (s < 1e5).view(np.int8)  # log10 can be one off
    p = _POW10[5 - e]
    s = a * p
    m = np.rint(s)  # 10^6 where the rounding carries into the next power of ten
    fast &= (np.abs(s - np.floor(s) - 0.5) >= 1e-6) & ((e < 5) | (m < 1e6))
    i = np.floor(m / p)
    f = ((m - i * p) * (1e9 / p)).astype(np.int32)  # the fraction's digits times 10^9
    i = np.minimum(i.astype(np.int32), 999999)  # 10^6 only where fast is false
    ihi, f1 = i // 1000, f // 1000000  # int32 division by a constant is far faster than %
    ilo, f23 = i - ihi * 1000, f - f1 * 1000000
    f2 = f23 // 1000
    f3 = f23 - f2 * 1000
    canvas = np.empty((len(x), 5), dtype="<u4")
    canvas[:, 0] = _DIGITS[ihi + _LEAD]
    canvas[:, 1] = _DIGITS[ilo + (ihi == 0) * _INT]
    canvas[:, 2] = _DIGITS[f1 + (f23 == 0) * _TRAIL]
    canvas[:, 3] = _DIGITS[f2 + (f3 == 0) * _TRAIL]
    canvas[:, 4] = _DIGITS[f3 + _TRAIL]
    text = canvas.view(np.uint8)  # free bytes 0, 7 and 19 take sign, point and separator
    text[:, 0], text[:, 7], text[:, 19] = (x < 0) * ord("-"), (f > 0) * ord("."), seps
    slow = np.flatnonzero(~fast)
    if len(slow):
        exact = b"".join(_fmt(v).encode().ljust(19, b"\0") for v in x[slow].tolist())
        text[slow, :19] = np.frombuffer(exact, dtype=np.uint8).reshape(-1, 19)
    return canvas.tobytes().translate(None, b"\0").decode("ascii")


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
    pad = 0.05 * max(float((hi - lo).max()), 1e-9)
    return (float(lo[0]) - pad, float(lo[1]) - pad, float(hi[0]) + pad, float(hi[1]) + pad)


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
        self.x0, self.y1 = x0, y1

    def apply(self, pts: np.ndarray, out=None) -> np.ndarray:
        """Pixel coordinates of (n, 2) world points, into out if given (it may be pts)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out = np.empty_like(pts) if out is None else out
        out[:, 0] = self.ox + (pts[:, 0] - self.x0) * self.scale
        out[:, 1] = self.oy + (self.y1 - pts[:, 1]) * self.scale
        return out


def _emit_layers(scene: Scene, rect, out: list[str], polylines: list):
    """Append the scene's SVG lines to out. A polyline's line is left open, and its
    (slot in out, transform, points) goes to polylines for _print_polylines."""
    viewport = scene.viewport if scene.viewport is not None else padded_bounds(
        getattr(layer, name) for layer in scene.layers  # a Panel has none of them
        for name in ("points", "center", "anchor") if hasattr(layer, name))
    tf = _Transform(viewport, rect) if viewport is not None else None
    for layer in scene.layers:
        if isinstance(layer, Panel):
            px, py, pw, ph = layer.rect
            px, py = px + rect[0], py + rect[1]
            out.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
                       f'height="{_fmt(ph)}" fill="none" stroke="black" '
                       f'stroke-width="{_fmt(LIGHT_WIDTH)}"/>')
            _emit_layers(layer.scene, (px, py, pw, ph), out, polylines)
            continue
        if tf is None:
            raise InputError("scene has drawable layers but no viewport could be derived")
        if isinstance(layer, Polyline):
            pts = np.asarray(layer.points, dtype=float).reshape(-1, 2)
            if len(pts) < 2:
                continue
            tag = "polygon" if layer.closed else "polyline"
            width = HEAVY_WIDTH if layer.heavy else LIGHT_WIDTH
            dash = ' stroke-dasharray="4 3"' if layer.dashed else ""
            polylines.append((len(out), tf, pts))
            out.append(f'<{tag} fill="none" stroke="black" stroke-width="{_fmt(width)}"'
                       f'{dash} points="')
        elif isinstance(layer, Marker):
            (cx, cy), = tf.apply(layer.center)
            stroke = f'stroke="black" stroke-width="{_fmt(LIGHT_WIDTH)}"'
            circles = [(MARKER_RADIUS, 'fill="black" stroke="none"' if layer.filled
                        else f'fill="white" {stroke}')]
            if layer.baseline:
                circles.append((MARKER_RADIUS * BASELINE_RING_RATIO, f'fill="none" {stroke}'))
            out += [f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" {paint}/>'
                    for r, paint in circles]
        elif isinstance(layer, Label):
            (x, y), = tf.apply(layer.anchor)
            out.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
                       f'font-size="{_fmt(FONT_SIZE)}">{_escape(layer.text)}</text>')
        elif isinstance(layer, SegmentNetwork):
            pts = tf.apply(layer.points)
            width = HEAVY_WIDTH if layer.heavy else LIGHT_WIDTH
            for seg in layer.segments:
                a, b = pts[seg.i], pts[seg.j]
                out.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                           f'y2="{_fmt(b[1])}" stroke="black" '
                           f'stroke-width="{_fmt(width)}"/>')
        else:
            raise InputError(f"unknown scene layer type {type(layer).__name__}")


def _print_polylines(polylines: list, out: list[str]) -> None:
    """Close each polyline's line in out with its points as _fmt prints them, "x,y x,y ...",
    transformed and printed in order PRINT_BLOCK coordinates at a time (a polyline may span
    blocks), so that no array holds the whole figure. Each run of a block's pieces that
    share a transform goes through it in one call."""
    pieces, runs, closed, size, head = [], [], [], 0, ""
    for index, (slot, tf, pts) in enumerate(polylines):
        start = 0
        while start < len(pts):
            piece = pts[start:start + PRINT_BLOCK // 2 - size]
            pieces.append(piece)
            if not runs or runs[-1][0] is not tf:
                runs.append((tf, size))
            size, start = size + len(piece), start + len(piece)
            if start == len(pts):
                closed.append((slot, size))
            if size < PRINT_BLOCK // 2 and index < len(polylines) - 1:
                continue
            block = np.concatenate(pieces)
            for (run_tf, begin), (_, end) in zip(runs, runs[1:] + [(None, size)]):
                run_tf.apply(block[begin:end], out=block[begin:end])
            seps = np.tile(np.frombuffer(b", ", dtype=np.uint8), size)
            seps[[2 * end - 1 for _, end in closed]] = ord("\n")
            *texts, rest = _fmt_coords(block.ravel(), seps).split("\n")
            for (done, _), text in zip(closed, texts):
                out[done] = "".join((out[done], head, text, '"/>'))
                head = ""
            head += rest
            pieces, runs, closed, size = [], [], [], 0


def render_scene(scene: Scene) -> str:
    """Serialize a scene to SVG 1.1 text. Same scene in, same bytes out."""
    w, h = scene.size
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">']
    polylines = []
    _emit_layers(scene, (0.0, 0.0, float(w), float(h)), out, polylines)
    _print_polylines(polylines, out)
    out.append("</svg>\n")  # joined once: the SVG is never copied to add its last newline
    return "\n".join(out)


def write_svg(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_scene(scene))


def grid_scene(grid: DeformedGrid, *, solid_points=None, open_points=None,
               baseline: tuple[int, int] | None = None, viewport=None,
               size: tuple[float, float] = (480.0, 480.0),
               landmark_count: int | None = None) -> Scene:
    """Scene showing a deformed grid with optional landmark markers.

    solid_points are drawn as filled circles (observed data), open_points as
    open circles (predictions). baseline names two landmark ordinals whose
    markers get the enclosing ring, on whichever point sets are present.
    """
    layers: list = [Polyline(run)
                    for image, kept in grid.families() for run in kept_runs(image, kept)]
    ring = set(baseline) if baseline is not None else set()
    layers += [Marker(row, filled=filled, baseline=idx in ring)
               for pts, filled in ((solid_points, True), (open_points, False)) if pts is not None
               for idx, row in enumerate(np.asarray(pts, dtype=float).reshape(-1, 2))]
    return Scene(size=size, viewport=viewport, layers=tuple(layers),
                 landmark_count=landmark_count)


def network_scene(template, target, segments: tuple[Segment, ...]) -> Scene:
    """Scene showing segment networks of two registered configurations.

    The template network is light with open markers, the target heavy with
    filled markers, so the eye can track each segment's rotation.
    """
    layers = [SegmentNetwork(template.coords, tuple(segments), heavy=False),
              SegmentNetwork(target.coords, tuple(segments), heavy=True),
              *(Marker(row, filled=False) for row in template.coords),
              *(Marker(row, filled=True) for row in target.coords)]
    return Scene(layers=tuple(layers), landmark_count=len(template))


def outline_panel(template, target, baseline: tuple[int, int], title: str) -> Scene:
    """One 240-pixel survey panel: template and target outlines with the baseline ringed,
    titled in the upper left of their bounding box."""
    layers = [Polyline(template.coords, heavy=False, closed=True),
              Polyline(target.coords, heavy=True, closed=True)]
    for config, filled in ((template, False), (target, True)):
        layers += [Marker(row, filled=filled, baseline=idx in baseline)
                   for idx, row in enumerate(config.coords)]
    pts = np.vstack([template.coords, target.coords])
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    layers.append(Label(np.array([x0 + 0.04 * (x1 - x0), y1 - 0.08 * (y1 - y0)]), title))
    return Scene(size=(240.0, 240.0), layers=tuple(layers), landmark_count=len(template))


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

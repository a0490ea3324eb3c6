"""Transformation grids and segment-rotation surveys.

A grid is specified in template coordinates, pushed through any point map
(spline, trend, affine, bilinear pair, homography), and then optionally
trimmed to a polygon or extended beyond the data. Trimming tests the
template preimage of each sample by default, so the same region of the
template is shown no matter how wild the map is; trimming on the image
side is available where the target region is what matters. Image
coordinates are never altered by trimming, only kept flags.

Angles are signed with the counterclockwise direction positive; reports
carry that convention explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (LandmarkConfiguration, Segment, as_coords, enumerate_segments,
                   require_homologous)
from .errors import (
    DegenerateConfigurationError,
    DegeneratePolygonError,
    InputError,
    ZeroLengthSegmentError,
)

DEFAULT_CELLS = 24
DEFAULT_SAMPLES_PER_EDGE = 10
BOUNDARY_TOL = 1e-12
# Most samples one grid may hold (its preimage and image alone take 32 B a sample):
# an oversized --cells/--samples request is an InputError, not an out-of-memory kill.
MAX_GRID_SAMPLES = 2 ** 22
ROTATION_CONVENTION = "counterclockwise-positive"


@dataclass(frozen=True)
class GridSpec:
    """A rectangular window of square cells in template coordinates.

    base_extent records the construction-time extents; extend_grid measures
    its multiples against them, which makes repeated extensions additive.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE
    base_extent: tuple[float, float] | None = None

    def __post_init__(self):
        (x0, x1), (y0, y1) = self.x_range, self.y_range
        if not (x1 > x0 and y1 > y0):
            raise InputError(f"grid ranges must be non-empty, got x={self.x_range} y={self.y_range}")
        if self.nx < 1 or self.ny < 1:
            raise InputError("grid needs at least one cell per axis")
        if self.samples_per_edge < 2:
            raise InputError("need at least 2 samples per cell edge")
        samples = sum(lines * per_line for lines, per_line in self.line_shapes)
        if samples > MAX_GRID_SAMPLES:
            raise InputError(f"grid of {samples} samples exceeds the budget of "
                             f"{MAX_GRID_SAMPLES} samples; use fewer cells or samples per edge")
        if self.base_extent is None:
            object.__setattr__(self, "base_extent", (x1 - x0, y1 - y0))

    @property
    def cell_size(self) -> tuple[float, float]:
        return ((self.x_range[1] - self.x_range[0]) / self.nx,
                (self.y_range[1] - self.y_range[0]) / self.ny)

    @property
    def line_shapes(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(lines, samples per line) of the vertical, then the horizontal family."""
        step = self.samples_per_edge - 1
        return ((self.nx + 1, self.ny * step + 1), (self.ny + 1, self.nx * step + 1))


def make_grid(template, margin: float = 0.0, cells: int = DEFAULT_CELLS,
              samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE) -> GridSpec:
    """Grid window over the template's bounding box, expanded by margin per side.

    The longer axis is divided into exactly `cells` cells; the cell size is
    carried to the other axis (cells stay square) and that axis's range is
    widened symmetrically to hold a whole number of cells.
    """
    coords = as_coords(template)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    w = hi - lo
    if w[0] <= 0.0 or w[1] <= 0.0:
        raise DegenerateConfigurationError("bounding box has zero area; cannot build a grid")
    if cells < 1:
        raise InputError("cells must be at least 1")
    lo = lo - margin * w
    hi = hi + margin * w
    w = hi - lo
    h = float(w.max()) / cells
    n = [cells, cells]
    for ax in range(2):
        if w[ax] < w.max():
            n[ax] = max(1, math.ceil(w[ax] / h - 1e-9))
            pad = (n[ax] * h - w[ax]) / 2.0
            lo[ax] -= pad
            hi[ax] += pad
    return GridSpec((float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])),
                    n[0], n[1], samples_per_edge)


_DIRECTIONS = {"left": (0, -1), "right": (0, +1), "down": (1, -1), "up": (1, +1)}


def extend_grid(spec: GridSpec, direction: str, multiples: float) -> GridSpec:
    """Push one edge of the window outward by multiples of the construction extent.

    The cell size is preserved, so the extension snaps to a whole number of
    cells; every documented use is exact. Extending the same side twice by
    m1 and m2 equals one extension by m1 + m2 whenever the snaps are exact.
    """
    if direction not in _DIRECTIONS:
        raise InputError(f"direction must be one of {sorted(_DIRECTIONS)}, got {direction!r}")
    if not multiples > 0.0:
        raise InputError(f"multiples must be positive, got {multiples}")
    axis, sign = _DIRECTIONS[direction]
    amount = multiples * spec.base_extent[axis]
    h = spec.cell_size[axis]
    cells_added = int(math.floor(amount / h + 0.5))
    if abs(cells_added * h - amount) > 1e-9 * max(h, amount):
        amount = cells_added * h  # snap to the lattice
    if cells_added == 0:
        return spec
    rng = list(spec.x_range if axis == 0 else spec.y_range)
    rng[0 if sign < 0 else 1] += sign * amount
    new_ranges = {
        "x_range": tuple(rng) if axis == 0 else spec.x_range,
        "y_range": tuple(rng) if axis == 1 else spec.y_range,
    }
    return replace(spec, **new_ranges,
                   nx=spec.nx + (cells_added if axis == 0 else 0),
                   ny=spec.ny + (cells_added if axis == 1 else 0))


@dataclass(frozen=True, eq=False)
class DeformedGrid:
    """Every grid sample as flat arrays: template preimage, image, kept flag.

    Rows hold the vertical lines (constant x, left to right), then the
    horizontal lines (constant y, bottom to top), each sampled in order of
    increasing coordinate; spec.line_shapes gives the line and sample counts.
    """

    spec: GridSpec
    preimage: np.ndarray  # (n, 2)
    image: np.ndarray     # (n, 2)
    kept: np.ndarray      # (n,) bool

    def __post_init__(self):
        for attr in ("preimage", "image", "kept"):
            arr = np.asarray(getattr(self, attr))
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    def families(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(lines, samples, 2) image and (lines, samples) kept views, vertical then horizontal."""
        views, start = [], 0
        for lines, samples in self.spec.line_shapes:
            stop = start + lines * samples
            views.append((self.image[start:stop].reshape(lines, samples, 2),
                          self.kept[start:stop].reshape(lines, samples)))
            start = stop
        return views

    @property
    def total_samples(self) -> int:
        return self.kept.size

    @property
    def kept_samples(self) -> int:
        return int(self.kept.sum())


def deform_grid(spec: GridSpec, mapping) -> DeformedGrid:
    """Sample every grid line and push the samples through the map.

    mapping is any callable on (n, 2) arrays returning (n, 2), with NaN rows
    where it has no value; every fitted map in gridmorph qualifies. Samples
    whose image is undefined are marked not kept; their preimages stay, so
    trimming and rendering can still see the lattice.
    """
    (x0, x1), (y0, y1) = spec.x_range, spec.y_range
    (nv, per_v), (nh, per_h) = spec.line_shapes
    vx, vy = np.meshgrid(np.linspace(x0, x1, nv), np.linspace(y0, y1, per_v), indexing="ij")
    hy, hx = np.meshgrid(np.linspace(y0, y1, nh), np.linspace(x0, x1, per_h), indexing="ij")
    preimage = np.column_stack([np.concatenate([vx.ravel(), hx.ravel()]),
                                np.concatenate([vy.ravel(), hy.ravel()])])
    image = np.asarray(mapping(preimage), dtype=float)
    if image.shape != preimage.shape:
        raise InputError("point map returned a wrong-shaped array")
    return DeformedGrid(spec, preimage, image, np.isfinite(image).all(axis=1))


def _polygon_array(polygon) -> np.ndarray:
    poly = as_coords(polygon)
    if poly.shape[0] < 3:
        raise DegeneratePolygonError(f"polygon needs at least 3 vertices, got {poly.shape[0]}")
    if not np.all(np.isfinite(poly)):
        raise DegeneratePolygonError("polygon vertices must be finite")
    sv = np.linalg.svd(poly - poly.mean(axis=0), compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1e-300):
        raise DegeneratePolygonError("polygon is degenerate (all vertices collinear)")
    return poly


def points_in_polygon(points, polygon) -> np.ndarray:
    """Even-odd test for many points; boundary points (within 1e-12) count inside.

    Only finite points can be inside. They are sorted by y once; each edge
    tests only those within its y span.
    """
    poly = _polygon_array(polygon)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.argsort(pts[:, 1])
    order = order[np.isfinite(pts).all(axis=1)[order]]
    xs, ys = pts[order, 0], pts[order, 1]
    inside = np.zeros(len(order), dtype=bool)
    boundary = np.zeros(len(order), dtype=bool)
    ends = np.roll(poly, -1, axis=0)
    # twice the tolerance plus a few ulps of the polygon covers the rounding of
    # the closest-point expression below, so the slices never cut a true hit
    pad = 2.0 * BOUNDARY_TOL + 8.0 * np.finfo(float).eps * np.abs(poly).max()
    lo = np.searchsorted(ys, np.minimum(poly[:, 1], ends[:, 1]) - pad, side="left")
    hi = np.searchsorted(ys, np.maximum(poly[:, 1], ends[:, 1]) + pad, side="right")
    for (ax, ay), (bx, by), i0, i1 in zip(poly, ends, lo, hi):
        x, y = xs[i0:i1], ys[i0:i1]
        # crossing test, half-open in y so shared vertices count once
        cond = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_hit = ax + (y - ay) * (bx - ax) / (by - ay)
        inside[i0:i1] ^= cond & (x < x_hit)
        # boundary proximity
        ex, ey = bx - ax, by - ay
        len2 = ex * ex + ey * ey
        if len2 > 0.0:
            t = np.clip(((x - ax) * ex + (y - ay) * ey) / len2, 0.0, 1.0)
        else:
            t = np.zeros_like(x)
        dx = x - (ax + t * ex)
        dy = y - (ay + t * ey)
        boundary[i0:i1] |= dx * dx + dy * dy <= BOUNDARY_TOL ** 2
    result = np.zeros(len(pts), dtype=bool)
    result[order] = inside | boundary
    return result


def point_in_polygon(point, polygon) -> bool:
    """Even-odd test for one point; boundary points (within 1e-12) count inside."""
    return bool(points_in_polygon(np.asarray(point, dtype=float).reshape(1, 2), polygon)[0])


def trim_grid(grid: DeformedGrid, polygon, space: str = "template") -> DeformedGrid:
    """Clear kept flags for samples outside the polygon.

    space="template" tests each sample's preimage (the default), so the
    polygon is drawn in template coordinates; space="image" tests the
    deformed positions instead. Coordinates are never altered.
    """
    if space not in ("template", "image"):
        raise InputError(f"space must be 'template' or 'image', got {space!r}")
    where = grid.preimage if space == "template" else grid.image
    return replace(grid, kept=grid.kept & points_in_polygon(where, polygon))


def kept_runs(image, kept) -> list[np.ndarray]:
    """Maximal kept runs of at least two image points, for drawing.

    image is one line (samples, 2) or a family of lines (lines, samples, 2)
    with the matching kept mask; runs come line by line, in sample order.
    """
    image = np.asarray(image)
    lines = image.reshape(-1, image.shape[-2], 2)
    mask = np.asarray(kept, dtype=bool).reshape(len(lines), -1)
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, starts = np.nonzero(edges == 1)
    stops = np.nonzero(edges == -1)[1]
    return [lines[row, start:stop] for row, start, stop in zip(rows, starts, stops)
            if stop - start >= 2]


def landmark_cycle_polygon(config) -> np.ndarray:
    """The closed polygon visiting the landmarks in their stored order."""
    return as_coords(config)


def convex_hull_polygon(config) -> np.ndarray:
    """Convex hull of the landmarks (monotone chain), counterclockwise."""
    pts = sorted(map(tuple, as_coords(config)))

    def half(points):
        chain: list[tuple[float, float]] = []
        for p in points:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegeneratePolygonError("landmarks are collinear; hull is degenerate")
    return np.asarray(hull, dtype=float)


@dataclass(frozen=True, eq=False)
class SegmentRotationReport:
    """Signed rotation and length ratio of every interlandmark segment.

    rotations are in radians, wrapped to (-pi, pi], with counterclockwise
    positive (see convention). template_directions hold each segment's
    direction angle in the template, for orientation-dependent summaries.
    """

    segments: tuple[Segment, ...]
    labels: tuple[str, ...]
    rotations: np.ndarray            # (m,)
    ratios: np.ndarray               # (m,)
    template_directions: np.ndarray  # (m,)
    convention: str = ROTATION_CONVENTION

    def __post_init__(self):
        for attr in ("rotations", "ratios", "template_directions"):
            arr = np.asarray(getattr(self, attr), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    def rows(self):
        """Yield (segment, label pair, rotation, ratio, template direction)."""
        for idx, seg in enumerate(self.segments):
            yield (seg, (self.labels[seg.i], self.labels[seg.j]),
                   float(self.rotations[idx]), float(self.ratios[idx]),
                   float(self.template_directions[idx]))


def segment_rotations(template: LandmarkConfiguration,
                      target: LandmarkConfiguration) -> SegmentRotationReport:
    """Rotation and length ratio of every segment, template -> target.

    Both configurations must be homologous and share a registration; the
    unit tags are checked because comparing segments across mismatched
    registrations is meaningless.
    """
    require_homologous(template, target)
    if template.unit != target.unit:
        raise InputError(
            f"configurations must share a registration: unit tags are "
            f"{template.unit!r} vs {target.unit!r}")
    segs = enumerate_segments(len(template))
    ii = np.array([s.i for s in segs])
    jj = np.array([s.j for s in segs])
    u = template.coords[jj] - template.coords[ii]
    v = target.coords[jj] - target.coords[ii]
    nu = np.hypot(u[:, 0], u[:, 1])
    nv = np.hypot(v[:, 0], v[:, 1])
    for norms, config in ((nu, template), (nv, target)):
        if np.any(norms == 0.0):
            idx = int(np.argmin(norms))
            raise ZeroLengthSegmentError(
                f"segment ({template.labels[segs[idx].i]}, {template.labels[segs[idx].j]}) "
                f"has zero length in {config.name!r}")
    rot = np.arctan2(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0],
                     u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1])
    rot = np.where(rot <= -np.pi, np.pi, rot)  # wrap to (-pi, pi]
    return SegmentRotationReport(
        segments=tuple(segs),
        labels=template.labels,
        rotations=rot,
        ratios=nv / nu,
        template_directions=np.arctan2(u[:, 1], u[:, 0]),
    )


def filter_rotations(report: SegmentRotationReport, threshold: float) -> list[Segment]:
    """Segments whose |rotation| meets the threshold, largest magnitude first."""
    if threshold < 0.0:
        raise InputError(f"threshold must be non-negative, got {threshold}")
    picked = [(abs(float(report.rotations[idx])), seg)
              for idx, seg in enumerate(report.segments)
              if abs(float(report.rotations[idx])) >= threshold]
    picked.sort(key=lambda item: (-item[0], item[1]))
    return [seg for _, seg in picked]

"""Transformation grids and segment-rotation surveys.

A grid is specified in template coordinates, pushed through any point map (spline,
trend, affine, bilinear pair, homography), and then optionally trimmed to a polygon or
extended beyond the data. Trimming tests the template preimage of each sample by default,
so the same region of the template is shown no matter how wild the map is, and tests a
spec's own lattice line by line; trimming on the image side is available where the target
region is what matters. Image coordinates are never altered by trimming, only kept flags.

Angles are signed with the counterclockwise direction positive; reports
carry that convention explicitly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (DEFAULT_CELLS, DEFAULT_SAMPLES_PER_EDGE, MAX_GRID_SAMPLES, MAX_MARGIN,
                   LandmarkConfiguration, Segment, as_coords, collinear, freeze_arrays,
                   require_homologous)
from .errors import InputError, NumericalError

BOUNDARY_TOL = 1e-12  # boundary proximity, relative to the polygon's extent (longer box side)
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
        if not all(map(math.isfinite, (x0, x1, y0, y1, *self.cell_size))):
            raise InputError(f"grid window and cells must be finite, got x={self.x_range} "
                             f"y={self.y_range}")
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

    @cached_property
    def preimage(self) -> np.ndarray:
        """Every sample, (n, 2), in DeformedGrid's row order: built once, read-only, shared."""
        (x0, x1), (y0, y1) = self.x_range, self.y_range
        (nv, per_v), (nh, per_h) = self.line_shapes
        lattice = np.empty((nv * per_v + nh * per_h, 2))  # filled in place through two views
        v, h = lattice[:nv * per_v].reshape(nv, -1, 2), lattice[nv * per_v:].reshape(nh, -1, 2)
        v[..., 0], v[..., 1] = np.linspace(x0, x1, nv)[:, None], np.linspace(y0, y1, per_v)
        h[..., 0], h[..., 1] = np.linspace(x0, x1, per_h), np.linspace(y0, y1, nh)[:, None]
        lattice.flags.writeable = False
        return lattice


def make_grid(template, margin: float = 0.0, cells: int = DEFAULT_CELLS,
              samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE) -> GridSpec:
    """Grid window over the template's bounding box, expanded by margin per side.

    The longer axis is divided into exactly `cells` cells; the cell size is
    carried to the other axis (cells stay square) and that axis's range is
    widened symmetrically to hold a whole number of cells.
    """
    coords = as_coords(template)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    w = hi - lo
    if w[0] <= 0.0 or w[1] <= 0.0:
        raise NumericalError("bounding box has zero area; cannot build a grid")
    if cells < 1:
        raise InputError("cells must be at least 1")
    if not (math.isfinite(margin) and margin <= MAX_MARGIN):
        raise InputError(f"margin must be finite and at most {MAX_MARGIN:g}, got {margin!r}")
    with np.errstate(over="ignore"):  # GridSpec refuses a window that overflowed
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
    if not math.isfinite(amount / h):
        raise InputError(f"extending the grid {direction} by {multiples} overflows its window")
    cells_added = int(math.floor(amount / h + 0.5))
    if abs(cells_added * h - amount) > 1e-9 * max(h, amount):
        amount = cells_added * h  # snap to the lattice
    if cells_added == 0:
        return spec
    window, count = ("x_range", "nx") if axis == 0 else ("y_range", "ny")
    rng = list(getattr(spec, window))
    rng[0 if sign < 0 else 1] += sign * amount
    return replace(spec, **{window: tuple(rng), count: getattr(spec, count) + cells_added})


@dataclass(frozen=True, eq=False)
class DeformedGrid:
    """Every grid sample as flat arrays: template preimage (its spec's), image, kept flag.

    Rows hold the vertical lines (constant x, left to right), then the
    horizontal lines (constant y, bottom to top), each sampled in order of
    increasing coordinate; spec.line_shapes gives the line and sample counts.
    """

    spec: GridSpec
    image: np.ndarray     # (n, 2)
    kept: np.ndarray      # (n,) bool

    def __post_init__(self):
        freeze_arrays(self, "image", "kept", dtype=None)

    @property
    def preimage(self) -> np.ndarray:
        """(n, 2) template position of every sample: the spec's shared lattice."""
        return self.spec.preimage

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


def finite_rows(points: np.ndarray) -> np.ndarray:
    """Mask of the (n, 2) rows with both coordinates finite, taken column by column: far
    faster than np.isfinite(points).all(axis=1), whose reduce strides across each row."""
    return np.isfinite(points[:, 0]) & np.isfinite(points[:, 1])


def deform_grid(spec: GridSpec, mapping) -> DeformedGrid:
    """Push the spec's sample lattice, spec.preimage, through the map.

    mapping is any callable on (n, 2) arrays returning (n, 2), with NaN rows
    where it has no value; every fitted map in gridmorph qualifies, and one
    that writes into its input raises ValueError. Samples whose image is
    undefined are marked not kept; their preimages stay, so trimming and
    rendering can still see the lattice.
    """
    image = np.asarray(mapping(spec.preimage), dtype=float)
    if image.shape != spec.preimage.shape:
        raise InputError("point map returned a wrong-shaped array")
    return DeformedGrid(spec, image, finite_rows(image))


def _polygon_array(polygon) -> np.ndarray:
    poly = as_coords(polygon)
    if poly.shape[0] < 3:
        raise NumericalError(f"polygon needs at least 3 vertices, got {poly.shape[0]}")
    if not np.all(np.isfinite(poly)):
        raise NumericalError("polygon vertices must be finite")
    if collinear(poly):
        raise NumericalError("polygon is degenerate (all vertices collinear)")
    return poly


def _slice_pad(poly: np.ndarray) -> tuple[float, float]:
    """The boundary tolerance, and the padding that covers its test's rounding."""
    tol = BOUNDARY_TOL * float((poly.max(axis=0) - poly.min(axis=0)).max())
    return tol, 2.0 * tol + 8.0 * np.finfo(float).eps * np.abs(poly).max()


def points_in_polygon(points, polygon) -> np.ndarray:
    """Even-odd test for many points; points within BOUNDARY_TOL times the polygon's
    extent of its boundary count inside, at every scale.

    Only finite points can be inside. They are sorted by y once; each edge
    tests only those within its y span.
    """
    poly = _polygon_array(polygon)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.argsort(pts[:, 1])
    order = order[finite_rows(pts)[order]]
    xs, ys = pts[order, 0], pts[order, 1]
    inside = np.zeros(len(order), dtype=bool)
    boundary = np.zeros(len(order), dtype=bool)
    ends = np.roll(poly, -1, axis=0)
    # twice the tolerance plus a few ulps of the polygon covers the rounding of
    # the closest-point expression below, so the slices never cut a true hit
    tol, pad = _slice_pad(poly)
    lo = np.searchsorted(ys, np.minimum(poly[:, 1], ends[:, 1]) - pad, side="left")
    hi = np.searchsorted(ys, np.maximum(poly[:, 1], ends[:, 1]) + pad, side="right")
    for e in np.flatnonzero(hi > lo):  # only the edges whose y span holds a point
        (ax, ay), (bx, by), i0, i1 = poly[e], ends[e], lo[e], hi[e]
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
        boundary[i0:i1] |= dx * dx + dy * dy <= tol * tol
    result = np.zeros(len(pts), dtype=bool)
    result[order] = inside | boundary
    return result


def _lattice_in_polygon(spec: GridSpec, polygon) -> np.ndarray:
    """points_in_polygon(spec.preimage, polygon), line by line (de Berg et al., Computational
    Geometry, ch. 2): an edge crosses a line at most once, so a sample's parity counts the
    crossings beyond it on its line. A horizontal line's crossings are points_in_polygon's
    own expression, so its bits; a vertical line swaps x and y, which can differ only within
    rounding of an edge. The samples within four slice pads of an edge (the band) go through
    points_in_polygon, which also applies the boundary tolerance."""
    poly = _polygon_array(polygon)
    ends, band_pad = np.roll(poly, -1, axis=0), 4.0 * _slice_pad(poly)[1]
    inside, band = np.empty(len(spec.preimage), dtype=bool), np.zeros(len(spec.preimage), bool)
    start = 0
    for (lines, per_line), along in zip(spec.line_shapes, (1, 0)):
        rows, start = slice(start, start + lines * per_line), start + lines * per_line
        family = spec.preimage[rows].reshape(lines, per_line, 2)
        # np.linspace's samples never decrease, so searchsorted can count along each line
        s, c = family[0, :, along], family[:, :1, 1 - along]  # (samples,), (lines, 1)
        (au, av), (bu, bv) = poly[:, [along, 1 - along]].T, ends[:, [along, 1 - along]].T
        with np.errstate(all="ignore"):  # a line far from an edge can overflow its crossing
            hit = au + (c - av) * (bu - au) / (bv - av)  # (lines, edges)
            t = (c + np.array([-band_pad, band_pad])[:, None, None] - av) / (bv - av)
        crossed = ((av > c) != (bv > c)) & ~np.isnan(hit)

        def upto(values, where, side="left", dtype=None):  # per line and sample, how many
            line, edge = np.nonzero(where)  # values are at most it (below it, if side="right")
            index = line * (per_line + 1) + np.searchsorted(s, values[line, edge], side)
            counts = np.bincount(index, minlength=lines * (per_line + 1))
            return counts.reshape(lines, -1)[:, :per_line].cumsum(axis=1, dtype=dtype)
        # the parity of the crossings beyond a sample: all of the line's, less those up to it
        inside[rows] = ((crossed.sum(axis=1, dtype=np.uint8)[:, None]
                         + upto(hit, crossed, dtype=np.uint8)) & 1).ravel()
        level = bv == av  # edges parallel to the lines
        near = np.where(level, np.abs(av - c) <= band_pad, (t.min(0) <= 1.0) & (t.max(0) >= 0.0))
        if near.any():  # each near edge's part within band_pad of the line, widened by band_pad
            u = au + np.where(level, [[[0.0]], [[1.0]]], np.clip(t, 0.0, 1.0)) * (bu - au)
            band[rows] = (upto(u.min(0) - band_pad, near)
                          > upto(u.max(0) + band_pad, near, "right")).ravel()
    if band.any():
        inside[band] = points_in_polygon(spec.preimage[band], poly)
    return inside


def trim_grid(grid: DeformedGrid, polygon, space: str = "template") -> DeformedGrid:
    """Clear kept flags for samples outside the polygon.

    space="template" tests each sample's preimage (the default), so the polygon is drawn in
    template coordinates; space="image" tests the deformed positions instead. Coordinates are
    never altered. The template lattice is tested line by line, with points_in_polygon's result.
    """
    if space not in ("template", "image"):
        raise InputError(f"space must be 'template' or 'image', got {space!r}")
    if space == "template":
        inside = _lattice_in_polygon(grid.spec, polygon)
    else:
        inside = points_in_polygon(grid.image, polygon)
    return replace(grid, kept=grid.kept & inside)


def kept_runs(kept) -> np.ndarray:
    """(start, stop) row bounds of the maximal kept runs of at least two samples, for drawing.

    kept is one line's mask (samples,) or a family's (lines, samples); a run is rows start to
    stop of the matching image.reshape(-1, 2). Runs come line by line, in sample order.
    """
    n = np.shape(kept)[-1]
    padded = np.zeros((np.size(kept) // n, n + 2), dtype=bool)  # each line between two False
    padded[:, 1:-1] = np.reshape(kept, (-1, n))
    flips = np.flatnonzero(padded[:, 1:] != padded[:, :-1])  # run starts and stops, in pairs
    bounds = (flips - flips // (n + 1)).reshape(-1, 2)  # line l's flip at l * (n + 1) + sample
    return bounds[bounds[:, 1] - bounds[:, 0] >= 2]


def landmark_cycle_polygon(config) -> np.ndarray:
    """The closed polygon visiting the landmarks in their stored order."""
    return as_coords(config)


def convex_hull_polygon(config) -> np.ndarray:
    """Convex hull of the landmarks (monotone chain), counterclockwise."""
    pts = sorted(map(tuple, as_coords(config)))

    def half(points):
        chain: list[tuple[float, float]] = []
        for p in points:  # drop the last point while it does not turn left on the way to p
            while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                       - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise NumericalError("landmarks are collinear; hull is degenerate")
    return np.asarray(hull, dtype=float)


@dataclass(frozen=True, eq=False)
class _SegmentRows(Sequence):
    """The rows of an (m, 2) pair array as Segments, each made as it is read."""

    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, row: int) -> Segment:
        return Segment(*map(int, self.pairs[row]))  # int() refuses the rows of a slice


@dataclass(frozen=True, eq=False)
class SegmentRotationReport:
    """Signed rotation and length ratio of every interlandmark segment.

    pairs holds the landmark ordinals (i, j) of one segment a row, in enumerate_segments
    order; segments reads those rows as Segments, each made as it is read. rotations are in
    radians, wrapped to (-pi, pi], with counterclockwise positive (see convention).
    """

    pairs: np.ndarray      # (m, 2)
    labels: tuple[str, ...]
    rotations: np.ndarray  # (m,)
    ratios: np.ndarray     # (m,)
    convention = ROTATION_CONVENTION  # not a field: every report has it

    def __post_init__(self):
        freeze_arrays(self, "pairs", dtype=np.intp)
        freeze_arrays(self, "rotations", "ratios")

    @property
    def segments(self) -> Sequence[Segment]:
        return _SegmentRows(self.pairs)

    def positions(self, segments) -> np.ndarray:
        """The row of each (i, j) pair: (k-1) + ... + (k-i) rows precede the first of i."""
        i, j = np.asarray(segments, dtype=np.intp).reshape(-1, 2).T
        return i * (2 * len(self.labels) - i - 1) // 2 + j - i - 1


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
    ii, jj = np.triu_indices(len(template), 1)  # the order of enumerate_segments
    u = template.coords[jj] - template.coords[ii]
    v = target.coords[jj] - target.coords[ii]
    nu = np.hypot(u[:, 0], u[:, 1])
    nv = np.hypot(v[:, 0], v[:, 1])
    for norms, config in ((nu, template), (nv, target)):
        if np.any(norms == 0.0):
            idx = int(np.argmin(norms))
            raise NumericalError(
                f"segment ({template.labels[ii[idx]]}, {template.labels[jj[idx]]}) "
                f"has zero length in {config.name!r}")
    rot = np.arctan2(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0],
                     u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1])
    rot = np.where(rot <= -np.pi, np.pi, rot)  # wrap to (-pi, pi]
    return SegmentRotationReport(np.column_stack([ii, jj]), template.labels, rot, nv / nu)


def filter_rotations(report: SegmentRotationReport, threshold: float) -> list[Segment]:
    """Segments whose |rotation| meets the threshold, in (-|rotation|, i, j) order; only the
    rows that pass are ranked and made Segments."""
    if threshold < 0.0:
        raise InputError(f"threshold must be non-negative, got {threshold}")
    size = np.abs(report.rotations)
    rows = np.flatnonzero(size >= threshold)
    rows = rows[np.argsort(-size[rows], kind="stable")]  # ties keep the lexicographic order
    return list(map(Segment._make, report.pairs[rows].tolist()))

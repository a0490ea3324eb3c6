import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (MAX_GRID_SAMPLES, Baseline, BilinearMap, GridSpec,
                       InputError, LandmarkConfiguration, NumericalError, Quad,
                       SegmentRotationReport, convex_hull_polygon, deform_grid,
                       default_labels, design_matrix, enumerate_segments, extend_grid,
                       filter_rotations, homography_from_quads, kept_runs,
                       landmark_cycle_polygon, make_grid, points_in_polygon, prototype_pair, segment_rotations,
                       tps_eval, tps_fit, trend_eval, trend_fit, trim_grid,
                       two_point_register, vilmann_template)


def config(coords, name="cfg", unit="raw"):
    coords = np.asarray(coords, dtype=float)
    return LandmarkConfiguration(name, default_labels(len(coords)), coords, unit=unit)


unit_square = config([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


# ---------------------------------------------------------------------------
# grid construction

def test_make_grid_unit_square():
    spec = make_grid(unit_square, margin=0.0, cells=2)
    assert spec.x_range == (0.0, 1.0)
    assert spec.y_range == (0.0, 1.0)
    assert spec.nx == 2 and spec.ny == 2


def test_make_grid_margin_one():
    spec = make_grid(unit_square, margin=1.0, cells=3)
    assert spec.x_range == (-1.0, 2.0)
    assert spec.y_range == (-1.0, 2.0)


def test_make_grid_cells_square_snapped():
    rect = config([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)])
    spec = make_grid(rect, margin=0.0, cells=4)
    # longer axis gets 4 cells; the short axis snaps to square cells
    wx, wy = spec.cell_size
    assert wx == pytest.approx(0.5) and wy == pytest.approx(0.5)
    assert spec.nx == 4 and spec.ny == 2
    assert spec.x_range[1] - spec.x_range[0] == pytest.approx(spec.nx * wx)
    assert spec.y_range[1] - spec.y_range[0] == pytest.approx(spec.ny * wy)


def test_make_grid_degenerate_box():
    flatline = config([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(NumericalError):
        make_grid(flatline, margin=0.0, cells=2)


def test_extend_left_by_one():
    spec = make_grid(unit_square, margin=0.0, cells=2)
    out = extend_grid(spec, "left", 1.0)
    assert out.x_range == (-1.0, 1.0)
    assert out.y_range == (0.0, 1.0)
    assert out.cell_size == spec.cell_size


def test_extend_additivity():
    spec = make_grid(unit_square, margin=0.0, cells=4)
    twice = extend_grid(extend_grid(spec, "left", 0.5), "left", 0.5)
    once = extend_grid(spec, "left", 1.0)
    assert twice.x_range == once.x_range
    assert twice.nx == once.nx


def test_extend_all_sides():
    spec = make_grid(unit_square, margin=0.0, cells=2)
    assert extend_grid(spec, "right", 1.0).x_range == (0.0, 2.0)
    assert extend_grid(spec, "up", 0.5).y_range == (0.0, 1.5)
    assert extend_grid(spec, "down", 0.5).y_range == (-0.5, 1.0)


def test_grid_sample_budget():
    # GridSpec holds no arrays, so an oversized request is refused before
    # anything is allocated
    with pytest.raises(InputError, match=f"grid of 50020002 samples exceeds the budget "
                                         f"of {MAX_GRID_SAMPLES}"):
        GridSpec((0.0, 1.0), (0.0, 1.0), 5000, 5000, samples_per_edge=2)
    spec = make_grid(unit_square, margin=0.0, cells=1000, samples_per_edge=2)
    assert sum(lines * per for lines, per in spec.line_shapes) == 2 * 1001 * 1001
    with pytest.raises(InputError, match="exceeds the budget"):
        extend_grid(spec, "right", 2.0)


@pytest.mark.parametrize("x_range, y_range", [
    ((-np.inf, np.inf), (0.0, 1.0)),            # was accepted
    ((0.0, 1.0), (0.0, np.inf)),
    ((-1.7e308, 1.7e308), (0.0, 1.0)),          # finite ends, the width overflows
])
def test_grid_spec_rejects_non_finite_window(x_range, y_range):
    with pytest.raises(InputError, match="must be finite"):
        GridSpec(x_range, y_range, 2, 2)


def test_oversized_window_is_input_error():
    # the margin overflows the window; no RuntimeWarning escapes on the way
    with pytest.raises(InputError, match="must be finite"):
        make_grid(unit_square, margin=1e308, cells=2)
    with pytest.raises(InputError, match="grid window and cells must be finite"):
        make_grid(config(unit_square.coords * 1e306), margin=100.0, cells=2)
    with pytest.raises(InputError, match="overflows its window"):
        extend_grid(make_grid(unit_square, margin=0.0, cells=2), "left", 1e308)


@pytest.mark.parametrize("margin", [np.inf, -np.inf, np.nan, 100.5, 1e160])
def test_make_grid_refuses_huge_margin(margin):
    # 1e160 used to pass here and overflow the spline in deform_grid
    with pytest.raises(InputError, match="margin must be finite and at most 100"):
        make_grid(unit_square, margin=margin, cells=2)


def test_largest_margin_deforms_without_overflow():
    template, target = prototype_pair("kite")
    grid = deform_grid(make_grid(template, margin=100.0, cells=4), tps_fit(template, target))
    assert grid.kept.all()


def test_extend_preserves_cell_size_with_snapping():
    rect = config([(0.0, 0.0), (1.3, 0.0), (1.3, 0.9), (0.0, 0.9)])
    spec = make_grid(rect, margin=0.25, cells=7)
    out = extend_grid(spec, "left", 2.0)
    assert out.cell_size == pytest.approx(spec.cell_size, rel=1e-12)
    width = out.x_range[1] - out.x_range[0]
    assert width / out.cell_size[0] == pytest.approx(out.nx, abs=1e-9)


# ---------------------------------------------------------------------------
# deformation

def test_deform_identity():
    spec = make_grid(unit_square, margin=0.0, cells=2, samples_per_edge=5)
    grid = deform_grid(spec, lambda pts: pts)
    assert grid.total_samples > 0
    assert grid.kept.all()
    assert np.array_equal(grid.spec.preimage, grid.image)
    # vertical lines: nx+1 of them, each with ny*(samples-1)+1 points
    (vertical, _), (horizontal, _) = grid.families()
    assert vertical.shape == (3, 2 * 4 + 1, 2)
    assert horizontal.shape == (3, 2 * 4 + 1, 2)
    assert np.all(vertical[:, :, 0] == vertical[:, :1, 0])  # constant x per line
    assert np.all(horizontal[:, :, 1] == horizontal[:, :1, 1])  # constant y per line


def test_deform_affine_lines_straight():
    spec = make_grid(unit_square, margin=0.5, cells=6)
    linear, shift = np.array([(1.5, 0.4), (-0.2, 0.9)]), np.array([2.0, -1.0])
    grid = deform_grid(spec, lambda p: p @ linear.T + shift)
    for img in (line for image, _ in grid.families() for line in image):
        chord = img[-1] - img[0]
        n = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
        assert np.abs((img - img[0]) @ n).max() < 1e-10


def test_deform_quadratic_trend_matches_direct_evaluation():
    rng = np.random.default_rng(81)
    ang = np.sort(rng.uniform(0, 2 * np.pi, size=8))
    radii = rng.uniform(0.8, 1.2, size=8)
    template = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    coef = rng.normal(scale=0.2, size=(6, 2))
    target = design_matrix(template, 2) @ coef
    trend = trend_fit(config(template), config(target), 2)
    spec = make_grid(config(template), margin=0.25, cells=10)
    grid = deform_grid(spec, trend)
    direct = design_matrix(grid.spec.preimage, 2) @ trend.coefficients
    assert np.abs(grid.image - direct).max() < 1e-12


def test_deform_marks_nan_not_kept():
    spec = make_grid(unit_square, margin=0.0, cells=2, samples_per_edge=3)

    def half_plane(pts):
        out = np.array(pts, dtype=float)
        out[out[:, 0] > 0.5] = np.nan
        return out

    grid = deform_grid(spec, half_plane)
    assert grid.kept.any() and not grid.kept.all()
    assert np.isfinite(grid.image[grid.kept]).all()
    assert np.array_equal(grid.kept, grid.spec.preimage[:, 0] <= 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_deform_keeps_exactly_the_rows_with_both_coordinates_finite(bad):
    spec = make_grid(unit_square, margin=0.0, cells=3, samples_per_edge=4)
    rng = np.random.default_rng(85)

    def half_broken(pts):
        out = np.array(pts, dtype=float)
        for column in (0, 1):  # only x, only y, then both (rows drawn twice)
            out[rng.random(len(out)) < 0.3, column] = bad
        return out

    grid = deform_grid(spec, half_broken)
    one_bad = np.isfinite(grid.image[:, 0]) != np.isfinite(grid.image[:, 1])
    assert one_bad.any() and grid.kept.any() and not np.isfinite(grid.image).all(axis=1).all()
    assert np.array_equal(grid.kept, np.isfinite(grid.image).all(axis=1))


def test_every_map_is_a_point_map():
    template, target = prototype_pair("kite")
    source, destination = Quad(template.coords), Quad(target.coords)
    spline = tps_fit(template, target)
    trend = trend_fit(template, target, 1)
    projective = homography_from_quads(source, destination)
    bilinear = BilinearMap(source, destination)
    pts = np.random.default_rng(84).uniform(-0.5, 0.5, size=(17, 2))
    for mapping, direct in ((spline, tps_eval(spline, pts)), (trend, trend_eval(trend, pts)),
                            (projective, projective.map_points(pts)),
                            (bilinear, bilinear.map_points(pts))):
        out = mapping(pts)
        assert out.shape == pts.shape
        assert np.array_equal(out, direct)
    # undefined images come back as NaN rows, not errors
    assert np.isnan(bilinear(np.array([(5.0, 5.0)]))).all()


def test_grids_of_one_spec_share_one_read_only_preimage():
    template, target = prototype_pair("kite")
    spec = make_grid(template, margin=0.25, cells=6, samples_per_edge=4)
    grids = [deform_grid(spec, m) for m in (tps_fit(template, target), lambda pts: pts,
                                            trend_fit(template, target, 1))]
    assert all(grid.spec.preimage is spec.preimage for grid in grids)
    assert trim_grid(grids[2], template).spec.preimage is spec.preimage
    assert not spec.preimage.flags.writeable
    with pytest.raises(ValueError):
        spec.preimage[0, 0] = 1.0
    # a new spec of the same window builds its own lattice, equal to the shared one
    again = GridSpec(spec.x_range, spec.y_range, spec.nx, spec.ny, spec.samples_per_edge)
    assert again.preimage is not spec.preimage
    assert np.array_equal(again.preimage, spec.preimage)


@pytest.mark.parametrize("spec", [
    GridSpec((-1.5, 2.0), (0.25, 1.0), 7, 3, 4),
    extend_grid(GridSpec((0.0, 1e-3), (-7.0, -6.999), 5, 5, 2), "up", 1.5),
    GridSpec((0.0, 1.0), (0.0, 1.0), 1, 1, 2),
], ids=["wide", "extended", "one-cell"])
def test_fill_copies_any_rows_of_the_lattice_from_its_axes(spec):
    # the vertical lines left to right, then the horizontal bottom to top, each from np.linspace
    (x0, x1), (y0, y1) = spec.x_range, spec.y_range
    (nv, per_v), (nh, per_h) = spec.line_shapes
    want = np.array([(x, y) for x in np.linspace(x0, x1, nv) for y in np.linspace(y0, y1, per_v)]
                    + [(x, y) for y in np.linspace(y0, y1, nh) for x in np.linspace(x0, x1, per_h)])
    rng = np.random.default_rng(nv * nh)
    ranges = [(0, spec.size), (0, 1), (spec.size - 1, spec.size), (per_v - 1, nv * per_v + 1),
              *(sorted(rng.integers(0, spec.size + 1, 2)) for _ in range(50))]
    for start, stop in ranges:
        got = spec.fill(start, np.full((stop - start, 2), np.nan))
        assert np.array_equal(got.view(np.uint64), want[start:stop].view(np.uint64))
    assert "preimage" not in vars(spec) and not any(t.flags.writeable for t in sum(spec.axes, ()))
    assert np.array_equal(spec.preimage.view(np.uint64), want.view(np.uint64))


def test_map_that_writes_into_its_input_raises():
    spec = make_grid(unit_square, margin=0.5, cells=3)
    lattice = spec.preimage.copy()

    def shift_in_place(pts):
        pts += 1.0
        return pts

    with pytest.raises(ValueError):
        deform_grid(spec, shift_in_place)
    assert np.array_equal(spec.preimage, lattice)  # the other grids of the spec are intact


def test_deform_grid_leaves_the_maps_array_writeable():
    spec = make_grid(unit_square, margin=0.5, cells=3)
    mine = spec.preimage * 2.0
    grid = trim_grid(deform_grid(spec, lambda pts: mine), square_poly)
    assert mine.flags.writeable and not grid.image.flags.writeable
    assert np.shares_memory(grid.image, mine)  # a read-only view, not a copy


def test_deform_spline_equals_tps_eval_on_preimage():
    template, target = prototype_pair("kite")
    spline = tps_fit(template, target)
    grid = deform_grid(make_grid(template, margin=0.25, cells=6, samples_per_edge=4), spline)
    assert np.array_equal(grid.image, tps_eval(spline, grid.spec.preimage))
    assert grid.kept.all()


def reference_kept_runs(image, kept):
    """The per-sample loop that kept_runs vectorizes, one line at a time."""
    runs = []
    for line, flags in zip(image, kept):
        start = None
        for idx, flag in enumerate(flags):
            if flag and start is None:
                start = idx
            elif not flag and start is not None:
                if idx - start >= 2:
                    runs.append(line[start:idx])
                start = None
        if start is not None and len(flags) - start >= 2:
            runs.append(line[start:])
    return runs


def assert_same_runs(kept):
    kept = np.asarray(kept, dtype=bool)
    image = np.arange(kept.size * 2, dtype=float).reshape(kept.shape + (2,))
    rows = image.reshape(-1, 2)
    got = [rows[start:stop] for start, stop in kept_runs(kept).tolist()]
    want = reference_kept_runs(image, kept)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kept", [
    [[1, 1, 1, 1, 1]],                 # all kept: one run per line
    [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],  # none kept
    [[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]],  # isolated single samples draw nothing
    [[0, 0, 0, 1, 1], [1, 1, 0, 1, 1]],  # runs ending on the last sample
    [[1, 1, 1], [1, 1, 1]],            # runs never join across lines
])
def test_kept_runs_edge_cases(kept):
    assert_same_runs(kept)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(arrays(np.bool_, st.tuples(st.integers(1, 6), st.integers(1, 30))))
def test_kept_runs_matches_per_sample_loop(kept):
    assert_same_runs(kept)


def test_kept_runs_split():
    spec = make_grid(unit_square, margin=0.0, cells=1, samples_per_edge=7)
    grid = deform_grid(spec, lambda pts: pts)
    _, (image, kept) = grid.families()
    kept = kept[0].copy()
    kept[2] = False
    runs = [image[0][start:stop] for start, stop in kept_runs(kept).tolist()]
    assert len(runs) == 2
    assert len(runs[0]) == 2 and len(runs[1]) == 4  # runs of >= 2 points only
    assert np.array_equal(runs[1], image[0, 3:])


# ---------------------------------------------------------------------------
# point in polygon

square_poly = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_point_in_polygon_basics():
    # inside, outside, on an edge and on a vertex: the boundary counts as inside
    pts = np.array([(0.5, 0.5), (2.0, 2.0), (0.5, 0.0), (1.0, 1.0)])
    assert points_in_polygon(pts, square_poly).tolist() == [True, False, True, True]


def test_point_in_polygon_concave():
    # a C-shape: inside the notch is outside the polygon
    cshape = np.array([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)],
                      dtype=float)
    assert points_in_polygon(np.array([(0.5, 1.5), (2.0, 1.5)]), cshape).tolist() == [True, False]


def test_points_in_polygon_batch_matches_single_rows():
    rng = np.random.default_rng(82)
    poly = np.array([(0, 0), (2, 0.3), (2.5, 2), (1, 2.7), (-0.5, 1.5)], dtype=float)
    pts = rng.uniform(-1, 3, size=(300, 2))
    flags = points_in_polygon(pts, poly)
    for p, flag in zip(pts, flags):
        assert flag == points_in_polygon(p[None], poly)[0]


def reference_points_in_polygon(points, polygon):
    """points_in_polygon before the y-sorted slices: every edge tests every point."""
    poly = np.asarray(polygon, dtype=float)
    tol = 1e-12 * (poly.max(axis=0) - poly.min(axis=0)).max()
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    boundary = np.zeros(len(pts), dtype=bool)
    m = len(poly)
    for a in range(m):
        ax, ay = poly[a]
        bx, by = poly[(a + 1) % m]
        cond = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_hit = ax + (y - ay) * (bx - ax) / (by - ay)
        inside ^= cond & (x < x_hit)
        ex, ey = bx - ax, by - ay
        len2 = ex * ex + ey * ey
        if len2 > 0.0:
            t = np.clip(((x - ax) * ex + (y - ay) * ey) / len2, 0.0, 1.0)
        else:
            t = np.zeros_like(x)
        dx = x - (ax + t * ex)
        dy = y - (ay + t * ey)
        boundary |= dx * dx + dy * dy <= tol * tol
    return (inside | boundary) & np.isfinite(pts).all(axis=1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 40), scale=st.floats(-3.0, 6.0),
       offset=st.floats(-1e4, 1e4), snapped=st.booleans())
def test_points_in_polygon_equals_per_edge_loop(seed, m, scale, offset, snapped):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    radii = rng.uniform(0.2, 1.0, m)
    star = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    if snapped:  # a coarse lattice: horizontal edges, repeated vertices, shared y values
        star = np.round(star * 4.0) / 4.0
    poly = star * 10.0 ** scale + offset
    ends = np.roll(poly, -1, axis=0)
    edge = ends - poly
    normal = np.column_stack([-edge[:, 1], edge[:, 0]])
    length = np.hypot(normal[:, 0], normal[:, 1])[:, None]
    normal = np.divide(normal, length, out=np.zeros_like(normal), where=length > 0)
    t = rng.uniform(0.0, 1.0, (m, 1))
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    extent = (hi - lo).max()
    pts = np.vstack([
        rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (300, 2)),
        poly,                                      # vertices
        (poly + ends) / 2.0,                       # edge midpoints
        *(poly + t * edge + d * normal for d in (0.0, 1e-13, -1e-13, 2e-12, -2e-12)),
        *(poly + t * edge + d * extent * normal for d in (1e-13, -1e-13, 2e-12, -2e-12)),
        np.column_stack([rng.uniform(lo[0], hi[0], m), poly[:, 1]]),  # on vertex heights
        [(np.nan, np.nan), (np.nan, poly[0, 1]), (poly[0, 0], np.nan),
         (np.inf, poly[0, 1]), (poly[0, 0], -np.inf)],
    ])
    try:
        got = points_in_polygon(pts, poly)
    except NumericalError:
        assume(False)  # the lattice collapsed the star onto a line
    with np.errstate(invalid="ignore"):  # the reference computes inf * 0 in the infinite rows
        assert np.array_equal(got, reference_points_in_polygon(pts, poly))


def test_points_in_polygon_of_a_narrow_band_and_of_no_points():
    # most edges of a 200-edge polygon span no point of a narrow y band, and none spans a point
    # of an empty set: the edges left out change no flag
    rng = np.random.default_rng(87)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 200))
    radii = rng.uniform(0.2, 1.0, 200)
    poly = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    for y0 in (-0.5, 0.0, 0.31):
        pts = np.column_stack([rng.uniform(-1.2, 1.2, 2000), rng.uniform(y0, y0 + 0.01, 2000)])
        pts[::7, 1] = poly[rng.integers(0, 200, len(pts[::7])), 1]  # on vertex heights too
        assert np.array_equal(points_in_polygon(pts, poly), reference_points_in_polygon(pts, poly))
    empty = points_in_polygon(np.zeros((0, 2)), poly)
    assert empty.shape == (0,) and empty.dtype == bool


def test_points_in_polygon_nonfinite_points_do_not_warn():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    pts = np.array([(np.inf, 0.5), (0.5, 0.5), (-np.inf, 0.5), (np.nan, 0.5), (0.5, np.inf),
                     (1.0, 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = points_in_polygon(pts, square)
    assert got.tolist() == [False, True, False, False, False, True]


def test_points_in_polygon_drops_rows_with_one_non_finite_coordinate():
    rng = np.random.default_rng(86)
    poly = np.array([(0.0, 0.0), (2.0, 0.3), (2.5, 2.0), (1.0, 2.7), (-0.5, 1.5)])
    pts = rng.uniform(-1.0, 3.0, size=(400, 2))
    for column, bad in ((0, np.nan), (1, np.nan), (0, np.inf), (1, -np.inf)):
        pts[rng.random(len(pts)) < 0.1, column] = bad
    finite = np.isfinite(pts).all(axis=1)
    got = points_in_polygon(pts, poly)
    assert not got[~finite].any()
    assert np.array_equal(got[finite], points_in_polygon(pts[finite], poly))


# A unit square and probes in units of its side: on a vertex and an edge, a
# relative 1e-13 off an edge (inside the tolerance), then 0.1% and half a side
# away, outside and inside.
SWEEP_PROBES = np.array([(0.5, 0.5), (0.0, 0.0), (0.5, 0.0), (1.0, 0.3), (0.5, -1e-13),
                         (1.0 + 1e-13, 0.5), (0.5, -1e-3), (-1e-3, 0.5), (1.001, 1.0),
                         (0.5, -0.5), (1.5, 0.5), (0.999, 0.5), (0.5, 1e-3)])
SWEEP_INSIDE = [True, True, True, True, True, True, False, False, False, False, False, True,
                True]


@pytest.mark.parametrize("exponent", range(-14, 11))
@pytest.mark.parametrize("offset", [0.0, 3.0])
def test_points_in_polygon_boundary_tolerance_is_scale_free(exponent, offset):
    scale = 10.0 ** exponent
    square = (np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]) + offset) * scale
    got = points_in_polygon((SWEEP_PROBES + offset) * scale, square)
    assert got.tolist() == SWEEP_INSIDE


def test_degenerate_polygon_rejected():
    with pytest.raises(NumericalError):
        points_in_polygon(np.zeros((1, 2)), np.array([(0, 0), (1, 1), (2, 2)], dtype=float))


# ---------------------------------------------------------------------------
# trimming

def test_trim_noop_with_bounding_box():
    spec = make_grid(unit_square, margin=0.0, cells=3)
    grid = deform_grid(spec, lambda pts: pts)
    box = np.array([(-0.1, -0.1), (1.1, -0.1), (1.1, 1.1), (-0.1, 1.1)])
    trimmed = trim_grid(grid, box)
    assert np.array_equal(grid.kept, trimmed.kept)


def test_trim_everything_with_distant_polygon():
    spec = make_grid(unit_square, margin=0.0, cells=3)
    grid = deform_grid(spec, lambda pts: pts)
    far = square_poly + 50.0
    trimmed = trim_grid(grid, far)
    assert not trimmed.kept.any()


def test_trim_never_alters_images():
    spec = make_grid(unit_square, margin=0.5, cells=4)
    linear = np.array([(1.2, 0.1), (0.0, 0.8)])
    grid = deform_grid(spec, lambda p: p @ linear.T)
    trimmed = trim_grid(grid, square_poly)
    assert trimmed.kept_samples < grid.kept_samples
    assert np.array_equal(grid.image, trimmed.image)
    assert np.array_equal(grid.spec.preimage, trimmed.spec.preimage)


def shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def test_trim_kept_fraction_matches_area():
    # line samples are uniform over the window, so the kept fraction
    # approaches polygon area / window area on a fine grid
    template = vilmann_template()
    spec = make_grid(template, margin=0.25, cells=60, samples_per_edge=10)
    grid = deform_grid(spec, lambda pts: pts)
    polygon = landmark_cycle_polygon(template)
    trimmed = trim_grid(grid, polygon)
    kept = trimmed.kept_samples
    total = trimmed.total_samples
    window = ((spec.x_range[1] - spec.x_range[0])
              * (spec.y_range[1] - spec.y_range[0]))
    want = shoelace(polygon) / window
    assert kept / total == pytest.approx(want, abs=0.02 * 1.0)
    # cross-check the shoelace oracle with Monte Carlo
    rng = np.random.default_rng(83)
    pts = np.column_stack([
        rng.uniform(spec.x_range[0], spec.x_range[1], size=200_000),
        rng.uniform(spec.y_range[0], spec.y_range[1], size=200_000)])
    mc = points_in_polygon(pts, polygon).mean()
    assert mc == pytest.approx(want, abs=0.01)


def test_trim_by_image_space():
    spec = make_grid(unit_square, margin=0.0, cells=4)
    grid = deform_grid(spec, lambda p: p + np.array([10.0, 0.0]))
    # a polygon around the image keeps everything only when testing images
    around_image = square_poly * 1.2 + np.array([9.9, -0.1])
    by_template = trim_grid(grid, around_image, space="template")
    by_image = trim_grid(grid, around_image, space="image")
    assert not by_template.kept.any()
    assert by_image.kept.all()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 30),
       cells=st.tuples(st.integers(1, 12), st.integers(1, 12)), samples=st.integers(2, 9),
       scale=st.integers(-30, 30), offset=st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e8]),
       snapped=st.floats(0.0, 1.0), angular=st.booleans())
def test_lattice_trim_equals_points_in_polygon(seed, k, cells, samples, scale, offset, snapped,
                                               angular):
    # trim_grid decides a spec's own lattice line by line: the kept flags must be
    # points_in_polygon's, for the landmark cycle and its hull, with vertices on the lattice,
    # edges along its lines, and windows up to 1e8 of their sizes from the origin
    rng = np.random.default_rng(seed)
    size = np.array([1.0, rng.uniform(0.5, 2.0)]) * 2.0 ** scale
    corner = offset * size * rng.choice([-1.0, 1.0], 2) * rng.uniform(1.0, 2.0, 2)
    spec = GridSpec((corner[0], corner[0] + size[0]), (corner[1], corner[1] + size[1]),
                    *cells, samples)
    free = corner + rng.uniform(-0.25, 1.25, (k, 2)) * size
    on_lattice = spec.preimage[rng.integers(0, len(spec.preimage), k)]
    poly = np.where(rng.random((k, 1)) < snapped, on_lattice, free)
    if angular:  # star-shaped and non-convex; otherwise in random order, with crossing edges
        d = poly - poly.mean(axis=0)
        poly = poly[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]
    grid = deform_grid(spec, lambda pts: pts)
    for j in np.flatnonzero(rng.random(k) < snapped / 3):  # an edge along a lattice line
        image, _ = grid.families()[rng.integers(2)]
        line = image[rng.integers(len(image))]
        poly[[j, (j + 1) % k]] = line[rng.integers(0, len(line), 2)]
    polygons = [landmark_cycle_polygon(poly)]
    try:
        polygons.append(convex_hull_polygon(poly))
    except NumericalError:
        pass  # collinear vertices; the cycle below is refused by both tests alike
    for polygon in polygons:
        try:
            want = points_in_polygon(spec.preimage, polygon)
        except NumericalError as exc:
            with pytest.raises(NumericalError, match=re.escape(str(exc))):
                trim_grid(grid, polygon)
            continue
        assert np.array_equal(trim_grid(grid, polygon).kept, want)


def test_lattice_trim_tests_only_the_band_with_points_in_polygon(monkeypatch):
    import gridmorph.gridlab as gridlab
    seen = []
    original = gridlab.points_in_polygon
    monkeypatch.setattr(gridlab, "points_in_polygon",
                        lambda pts, poly: seen.append(len(pts)) or original(pts, poly))
    template = vilmann_template()
    spec = make_grid(template, margin=0.25, cells=60)
    polygon = landmark_cycle_polygon(template)
    assert np.array_equal(trim_grid(deform_grid(spec, lambda pts: pts), polygon).kept,
                          original(spec.preimage, polygon))
    assert sum(seen) < len(spec.preimage) / 100
    # samples on the square's edges are in the band, and inside by the boundary tolerance
    seen.clear()
    spec = make_grid(unit_square, margin=0.5, cells=4)
    kept = trim_grid(deform_grid(spec, lambda pts: pts), square_poly).kept
    assert np.array_equal(kept, original(spec.preimage, square_poly))
    on_edges = (np.abs(spec.preimage - 0.5).max(axis=1) == 0.5)
    assert 0 < on_edges.sum() <= sum(seen) < len(spec.preimage) and kept[on_edges].all()
    # an edge one subnormal high overflows its crossing with distant lines, with no warning
    sliver = np.array([(0.0, 0.0), (1.0, 5e-324), (0.5, 1.0)])
    spec = make_grid(sliver, margin=0.5, cells=8)
    assert np.array_equal(trim_grid(deform_grid(spec, lambda pts: pts), sliver).kept,
                          original(spec.preimage, sliver))


def test_landmark_cycle_and_hull_polygons():
    template = vilmann_template()
    cycle = landmark_cycle_polygon(template)
    assert np.array_equal(cycle, template.coords)
    hull = convex_hull_polygon(template.coords)
    assert len(hull) <= len(template)
    assert shoelace(hull) >= shoelace(cycle) - 1e-12


# ---------------------------------------------------------------------------
# segment rotations

def rot(coords, angle, about=None):
    c, s = np.cos(angle), np.sin(angle)
    about = coords.mean(axis=0) if about is None else about
    return (coords - about) @ np.array([(c, -s), (s, c)]).T + about


def test_rotations_identity():
    rng = np.random.default_rng(91)
    coords = rng.normal(size=(8, 2))
    report = segment_rotations(config(coords, "a"), config(coords, "b"))
    assert len(report.segments) == 28
    # the sign convention is every report's, not a value a report can be given
    assert report.convention == "counterclockwise-positive"
    assert "convention" not in {field.name for field in dataclasses.fields(report)}
    assert np.abs(report.rotations).max() == 0.0
    assert np.allclose(report.ratios, 1.0)


def test_rotations_rigid():
    rng = np.random.default_rng(92)
    coords = rng.normal(size=(8, 2))
    target = rot(coords, 0.2)
    report = segment_rotations(config(coords, "a"), config(target, "b"))
    assert np.abs(report.rotations - 0.2).max() < 1e-12
    assert np.allclose(report.ratios, 1.0, atol=1e-12)


def test_rotations_pure_scale():
    rng = np.random.default_rng(93)
    coords = rng.normal(size=(6, 2))
    report = segment_rotations(config(coords, "a"), config(coords * 2.0, "b"))
    assert np.abs(report.rotations).max() < 1e-15
    assert np.allclose(report.ratios, 2.0, atol=1e-12)


def two_block_pair():
    """5 landmarks turning -0.2 about their centroid, 3 turning +0.2, far apart."""
    rng = np.random.default_rng(94)
    left = rng.normal(size=(5, 2))
    right = rng.normal(size=(3, 2)) + np.array([40.0, 0.0])
    template = np.vstack([left, right])
    target = np.vstack([rot(left, -0.2), rot(right, +0.2)])
    return template, target


def test_rotations_two_block_matches_direct_arithmetic():
    template, target = two_block_pair()
    report = segment_rotations(config(template, "a"), config(target, "b"))
    for (i, j), rotation, ratio in zip(report.segments.tolist(), report.rotations, report.ratios):
        u = template[j] - template[i]
        v = target[j] - target[i]
        want = np.arctan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])
        assert rotation == pytest.approx(want, abs=1e-12)
        assert ratio == pytest.approx(np.linalg.norm(v) / np.linalg.norm(u), rel=1e-12)


def filter_reference(report, threshold):
    """filter_rotations as a sort of the report's rows by (-|rotation|, i, j)."""
    pairs, size = report.segments.tolist(), np.abs(report.rotations).tolist()
    return sorted((row for row in range(len(pairs)) if size[row] >= threshold),
                  key=lambda row: (-size[row], pairs[row]))


def filtered(report, threshold) -> list[int]:
    rows = filter_rotations(report, threshold)
    assert rows.dtype == np.intp and rows.ndim == 1
    return rows.tolist()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2 ** 32 - 1))
def test_rotation_report_rows_equal_per_segment_reference(k, seed):
    rng = np.random.default_rng(seed)
    segments = enumerate_segments(k)
    # few distinct magnitudes with both signs: ties everywhere, thresholds on them
    tied = SegmentRotationReport(segments, default_labels(k),
                                 rng.choice([-0.3, -0.2, 0.0, 0.2, 0.3, np.pi], len(segments)),
                                 np.ones(len(segments)))
    reports = [(tied, [0.0, 0.2, 0.25, 0.3, np.pi, 4.0])]
    if k >= 3:  # a configuration has at least 3 landmarks
        a, b = rng.normal(size=(2, k, 2)) * 10 ** rng.uniform(-3, 3)
        report = segment_rotations(config(a, "a"), config(b, "b"))
        assert report.segments.dtype == np.intp and not report.segments.flags.writeable
        assert report.segments.tolist() == segments.tolist()
        for (i, j), rotation, ratio in zip(segments.tolist(), report.rotations.tolist(),
                                           report.ratios.tolist()):
            u, v = a[j] - a[i], b[j] - b[i]
            want = math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])
            assert rotation == pytest.approx(want if want > -math.pi else math.pi, abs=1e-12)
            assert ratio == pytest.approx(math.hypot(*v) / math.hypot(*u), rel=1e-12)
        sizes = np.abs(report.rotations)
        reports.append((report, [0.0, *rng.choice(sizes, 3).tolist(), sizes.max() + 1.0]))
    for report, thresholds in reports:
        for threshold in thresholds:
            assert filtered(report, threshold) == filter_reference(report, threshold)


def test_rotations_two_block_filter_selects_within_block():
    template, target = two_block_pair()
    report = segment_rotations(config(template, "a"), config(target, "b"))
    selected = set(map(tuple, report.segments[filter_rotations(report, 0.15)].tolist()))
    within = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    within |= {(i, j) for i in range(5, 8) for j in range(i + 1, 8)}
    assert selected == within  # cross-block segments barely rotate


def test_rotations_antisymmetric():
    rng = np.random.default_rng(95)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(6, 2))
    fwd = segment_rotations(config(a, "a"), config(b, "b"))
    rev = segment_rotations(config(b, "b"), config(a, "a"))
    assert np.abs(fwd.rotations + rev.rotations).max() < 1e-12
    assert np.abs(fwd.ratios * rev.ratios - 1.0).max() < 1e-12


def test_rotations_common_rotation_equivariance():
    rng = np.random.default_rng(96)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(6, 2))
    base = segment_rotations(config(a, "a"), config(b, "b"))
    both = segment_rotations(config(rot(a, 0.7), "a"), config(rot(b, 0.7), "b"))
    assert np.abs(base.rotations - both.rotations).max() < 1e-12
    assert np.abs(base.ratios - both.ratios).max() < 1e-12


def test_rotations_zero_length_segment():
    coords = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)])
    other = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    with pytest.raises(NumericalError) as err:
        segment_rotations(config(coords, "tpl"), config(other, "tgt"))
    assert "L1" in str(err.value) and "L2" in str(err.value)


def test_rotations_requires_common_registration():
    rng = np.random.default_rng(97)
    a = config(rng.normal(size=(5, 2)), "a", unit="two-point")
    b = config(rng.normal(size=(5, 2)), "b", unit="procrustes")
    with pytest.raises(InputError):
        segment_rotations(a, b)


def test_rotations_wrap_range():
    # a near-half-turn must wrap into (-pi, pi]
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    target = rot(coords, np.pi - 0.01)
    report = segment_rotations(config(coords, "a"), config(target, "b"))
    assert np.all(report.rotations <= np.pi)
    assert np.all(report.rotations > -np.pi)
    assert np.abs(report.rotations - (np.pi - 0.01)).max() < 1e-9


def test_filter_threshold_zero_and_pi():
    rng = np.random.default_rng(98)
    a = rng.normal(size=(8, 2))
    b = rng.normal(size=(8, 2))
    report = segment_rotations(config(a, "a"), config(b, "b"))
    assert len(filter_rotations(report, 0.0)) == 28
    assert filtered(report, np.pi + 1e-9) == []
    with pytest.raises(InputError):
        filter_rotations(report, -0.1)


@pytest.mark.parametrize("seed", range(4))
def test_filter_rotations_equals_sorted_reference_with_ties(seed):
    rng = np.random.default_rng(seed)
    segments = enumerate_segments(12)
    # few distinct magnitudes, each with both signs: most segments tie with others
    rotations = rng.choice([-np.pi, -0.3, -0.2, 0.0, 0.2, 0.3, np.pi], size=len(segments))
    report = SegmentRotationReport(segments, default_labels(12), rotations,
                                   np.ones(len(segments)))
    for threshold in (0.0, 0.2, 0.25, np.pi, 4.0):
        assert filtered(report, threshold) == filter_reference(report, threshold)


def test_filter_sorted_by_magnitude():
    template, target = two_block_pair()
    report = segment_rotations(config(template, "a"), config(target, "b"))
    mags = np.abs(report.rotations[filter_rotations(report, 0.0)]).tolist()
    assert mags == sorted(mags, reverse=True)

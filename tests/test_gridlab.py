import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (MAX_GRID_SAMPLES, AffineMap2, Baseline, BilinearMap, GridSpec,
                       InputError, LandmarkConfiguration, NumericalError, Quad, Segment,
                       affine_fit, convex_hull_polygon, deform_grid,
                       default_labels, design_matrix, extend_grid,
                       filter_rotations, homography_from_quads, kept_runs,
                       landmark_cycle_polygon, make_grid, point_in_polygon,
                       points_in_polygon, prototype_pair, segment_rotations,
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
    assert np.array_equal(grid.preimage, grid.image)
    # vertical lines: nx+1 of them, each with ny*(samples-1)+1 points
    (vertical, _), (horizontal, _) = grid.families()
    assert vertical.shape == (3, 2 * 4 + 1, 2)
    assert horizontal.shape == (3, 2 * 4 + 1, 2)
    assert np.all(vertical[:, :, 0] == vertical[:, :1, 0])  # constant x per line
    assert np.all(horizontal[:, :, 1] == horizontal[:, :1, 1])  # constant y per line


def test_deform_affine_lines_straight():
    spec = make_grid(unit_square, margin=0.5, cells=6)
    amap = AffineMap2(np.array([(1.5, 0.4), (-0.2, 0.9)]), np.array([2.0, -1.0]))
    grid = deform_grid(spec, amap)
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
    direct = design_matrix(grid.preimage, 2) @ trend.coefficients
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
    assert np.array_equal(grid.kept, grid.preimage[:, 0] <= 0.5)


def test_every_map_is_a_point_map():
    template, target = prototype_pair("kite")
    source, destination = Quad(template.coords), Quad(target.coords)
    spline = tps_fit(template, target)
    trend = trend_fit(template, target, 1)
    affine = affine_fit(template, target)
    projective = homography_from_quads(source, destination)
    bilinear = BilinearMap(source, destination)
    pts = np.random.default_rng(84).uniform(-0.5, 0.5, size=(17, 2))
    for mapping, direct in ((spline, tps_eval(spline, pts)), (trend, trend_eval(trend, pts)),
                            (affine, pts @ affine.linear.T + affine.translation),
                            (projective, projective.map_points(pts)),
                            (bilinear, bilinear.map_points(pts))):
        out = mapping(pts)
        assert out.shape == pts.shape
        assert np.array_equal(out, direct)
    # undefined images come back as NaN rows, not errors
    assert np.isnan(bilinear(np.array([(5.0, 5.0)]))).all()


def test_deform_spline_equals_tps_eval_on_preimage():
    template, target = prototype_pair("kite")
    spline = tps_fit(template, target)
    grid = deform_grid(make_grid(template, margin=0.25, cells=6, samples_per_edge=4), spline)
    assert np.array_equal(grid.image, tps_eval(spline, grid.preimage))
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
    got = kept_runs(image, kept)
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
    runs = kept_runs(image[0], kept)
    assert len(runs) == 2
    assert len(runs[0]) == 2 and len(runs[1]) == 4  # runs of >= 2 points only
    assert np.array_equal(runs[1], image[0, 3:])


# ---------------------------------------------------------------------------
# point in polygon

square_poly = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_point_in_polygon_basics():
    assert point_in_polygon((0.5, 0.5), square_poly)
    assert not point_in_polygon((2.0, 2.0), square_poly)
    assert point_in_polygon((0.5, 0.0), square_poly)  # boundary counts as inside
    assert point_in_polygon((1.0, 1.0), square_poly)  # vertex too


def test_point_in_polygon_concave():
    # a C-shape: inside the notch is outside the polygon
    cshape = np.array([(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)],
                      dtype=float)
    assert point_in_polygon((0.5, 1.5), cshape)
    assert not point_in_polygon((2.0, 1.5), cshape)


def test_points_in_polygon_vectorized_matches_scalar():
    rng = np.random.default_rng(82)
    poly = np.array([(0, 0), (2, 0.3), (2.5, 2), (1, 2.7), (-0.5, 1.5)], dtype=float)
    pts = rng.uniform(-1, 3, size=(300, 2))
    flags = points_in_polygon(pts, poly)
    for p, flag in zip(pts, flags):
        assert flag == point_in_polygon(p, poly)


def reference_points_in_polygon(points, polygon):
    """points_in_polygon before the y-sorted slices: every edge tests every point."""
    poly = np.asarray(polygon, dtype=float)
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
        boundary |= dx * dx + dy * dy <= 1e-12 ** 2
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
    pts = np.vstack([
        rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (300, 2)),
        poly,                                      # vertices
        (poly + ends) / 2.0,                       # edge midpoints
        *(poly + t * edge + d * normal for d in (0.0, 1e-13, -1e-13, 2e-12, -2e-12)),
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


def test_points_in_polygon_nonfinite_points_do_not_warn():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    pts = np.array([(np.inf, 0.5), (0.5, 0.5), (-np.inf, 0.5), (np.nan, 0.5), (0.5, np.inf),
                     (1.0, 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = points_in_polygon(pts, square)
    assert got.tolist() == [False, True, False, False, False, True]


def test_degenerate_polygon_rejected():
    with pytest.raises(NumericalError):
        point_in_polygon((0.0, 0.0), np.array([(0, 0), (1, 1), (2, 2)], dtype=float))


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
    amap = AffineMap2(np.array([(1.2, 0.1), (0.0, 0.8)]), np.zeros(2))
    grid = deform_grid(spec, amap)
    trimmed = trim_grid(grid, square_poly)
    assert trimmed.kept_samples < grid.kept_samples
    assert np.array_equal(grid.image, trimmed.image)
    assert np.array_equal(grid.preimage, trimmed.preimage)


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
    shift = AffineMap2(np.eye(2), np.array([10.0, 0.0]))
    grid = deform_grid(spec, shift)
    # a polygon around the image keeps everything only when testing images
    around_image = square_poly * 1.2 + np.array([9.9, -0.1])
    by_template = trim_grid(grid, around_image, space="template")
    by_image = trim_grid(grid, around_image, space="image")
    assert not by_template.kept.any()
    assert by_image.kept.all()


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
    for seg, _, rotation, ratio, _ in report.rows():
        u = template[seg.j] - template[seg.i]
        v = target[seg.j] - target[seg.i]
        want = np.arctan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])
        assert rotation == pytest.approx(want, abs=1e-12)
        assert ratio == pytest.approx(np.linalg.norm(v) / np.linalg.norm(u), rel=1e-12)


def test_rotations_two_block_filter_selects_within_block():
    template, target = two_block_pair()
    report = segment_rotations(config(template, "a"), config(target, "b"))
    selected = set(filter_rotations(report, 0.15))
    within = {Segment(i, j) for i in range(5) for j in range(i + 1, 5)}
    within |= {Segment(i, j) for i in range(5, 8) for j in range(i + 1, 8)}
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
    assert filter_rotations(report, np.pi + 1e-9) == []
    with pytest.raises(InputError):
        filter_rotations(report, -0.1)


def test_filter_sorted_by_magnitude():
    template, target = two_block_pair()
    report = segment_rotations(config(template, "a"), config(target, "b"))
    selected = filter_rotations(report, 0.0)
    index = {seg: i for i, seg in enumerate(report.segments)}
    mags = [abs(report.rotations[index[s]]) for s in selected]
    assert mags == sorted(mags, reverse=True)

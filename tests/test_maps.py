import warnings

import numpy as np
import pytest

from gridmorph import (BilinearMap, Homography, InputError, NumericalError, PROTOTYPE_KINDS,
                       Quad, homography_from_quads, invert_bilinear, prototype_pair)

axis_square = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])


def bilinear_forward(dst, u, v):
    """Oracle: direct bilinear combination of destination corners."""
    a, b, c, d = dst
    return ((1 - u) * (1 - v)) * a + (u * (1 - v)) * b + (u * v) * c + ((1 - u) * v) * d


def test_quad_validation():
    Quad(axis_square)
    with pytest.raises(NumericalError):
        Quad(np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
    bowtie = np.array([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(NumericalError):
        Quad(bowtie)


# at 2e300 a squared corner difference overflows; the diameter is the corners' largest hypot
@pytest.mark.parametrize("side, offset", [(1.0, 1e12), (1e-13, 1.0), (1e-50, 0.0), (1e50, 0.0),
                                          (2e300, 0.0)])
def test_quad_corners_coincide_only_against_the_quads_diameter(side, offset):
    square = axis_square * 0.5 * side + offset
    quad = Quad(square)
    assert quad.is_convex
    assert quad.diameter == pytest.approx(np.sqrt(2) * side, rel=1e-3)
    square[1] = square[0] + (1e-13 * side, 0.0)
    with pytest.raises(NumericalError, match="quad corners 0 and 1 coincide"):
        Quad(square)


def test_quad_convexity():
    assert Quad(axis_square).is_convex
    dart = np.array([(0.0, 0.0), (2.0, 0.0), (0.5, 0.4), (0.0, 2.0)])
    assert Quad(dart).is_convex is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1.0, 1e100, 1e300])
def test_quad_verdicts_are_those_at_unit_scale(scale):
    # crossing and convexity take the corners scaled exactly by a power of two, and compare
    # the signs of the cross products instead of multiplying them: no over- or underflow
    dart = np.array([(0.0, 0.0), (2.0, 0.0), (0.5, 0.4), (0.0, 2.0)])
    assert Quad(axis_square * scale).is_convex
    assert Quad(dart * scale).is_convex is False
    for bowtie in ([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)],
                   [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]):
        with pytest.raises(NumericalError, match="quad edges cross"):
            Quad(np.array(bowtie) * scale)


def test_bilinear_corners_and_center():
    rng = np.random.default_rng(61)
    dst = axis_square @ np.array([(1.4, 0.2), (-0.3, 0.9)]).T + rng.normal(size=2)
    m = BilinearMap(Quad(axis_square), Quad(dst))
    got = m.map_points(axis_square)
    assert np.allclose(got, dst, atol=1e-12)
    center = m.map_points(np.zeros((1, 2)))[0]
    assert np.allclose(center, dst.mean(axis=0), atol=1e-12)


def test_bilinear_matches_kite_formula():
    # (x,y) -> (x,y) + a(1+xy)(1,1) on the (+-1,+-1) square is exactly bilinear
    a = 0.2
    kite = axis_square + a * np.column_stack([
        1 + axis_square[:, 0] * axis_square[:, 1],
        1 + axis_square[:, 0] * axis_square[:, 1]])
    m = BilinearMap(Quad(axis_square), Quad(kite))
    rng = np.random.default_rng(62)
    pts = rng.uniform(-0.999, 0.999, size=(100, 2))
    want = pts + a * np.column_stack([1 + pts[:, 0] * pts[:, 1],
                                      1 + pts[:, 0] * pts[:, 1]])
    got = m.map_points(pts)
    assert np.abs(got - want).max() < 1e-12


def test_bilinear_edges_interpolate_affinely():
    rng = np.random.default_rng(63)
    dst = np.array([(0.0, 0.0), (4.0, 0.5), (5.0, 3.0), (-0.5, 2.5)])
    m = BilinearMap(Quad(axis_square), Quad(dst))
    for e in range(4):
        p0, p1 = axis_square[e], axis_square[(e + 1) % 4]
        q0, q1 = dst[e], dst[(e + 1) % 4]
        for t in rng.uniform(0, 1, size=10):
            got = m.map_points(((1 - t) * p0 + t * p1)[None])[0]
            assert np.allclose(got, (1 - t) * q0 + t * q1, atol=1e-12)


def test_bilinear_lattice_lines_stay_straight():
    # images of lines parallel to the square's sides are straight lines
    dst = np.array([(0.0, 0.0), (3.0, 0.2), (3.5, 2.8), (-0.3, 2.2)])
    m = BilinearMap(Quad(axis_square), Quad(dst))
    for const in (-0.7, 0.0, 0.4):
        pts = np.column_stack([np.linspace(-1, 1, 30), np.full(30, const)])
        img = m.map_points(pts)
        chord = img[-1] - img[0]
        n = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
        assert np.abs((img - img[0]) @ n).max() < 1e-10
        pts = np.column_stack([np.full(30, const), np.linspace(-1, 1, 30)])
        img = m.map_points(pts)
        chord = img[-1] - img[0]
        n = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
        assert np.abs((img - img[0]) @ n).max() < 1e-10


def test_bilinear_outside_is_nan():
    dst = axis_square * 2.0
    m = BilinearMap(Quad(axis_square), Quad(dst))
    out = m.map_points(np.array([(5.0, 0.0), (0.0, 0.0)]))
    assert np.isnan(out[0]).all()
    assert np.isfinite(out[1]).all()


def test_bilinear_call_is_nan_outside():
    m = BilinearMap(Quad(axis_square), Quad(axis_square * 2.0))
    assert np.isnan(m(np.array([9.0, 9.0]))).all()
    assert np.allclose(m(np.array([0.5, -0.5])), (1.0, -1.0), atol=1e-12)


def test_invert_bilinear_round_trip():
    rng = np.random.default_rng(64)
    for _ in range(20):
        # random convex source quad
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=4))
        src = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(1.0, 3.0)
        quad = Quad(src)
        if not quad.is_convex:
            continue
        u = rng.uniform(0.05, 0.95, size=25)
        v = rng.uniform(0.05, 0.95, size=25)
        pts = bilinear_forward(src, u[:, None], v[:, None])
        uv, ambiguous = invert_bilinear(quad, pts)
        assert not ambiguous.any()
        assert np.abs(uv - np.column_stack([u, v])).max() < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_bilinear_map_takes_lengths_in_units_of_the_diameter(scale):
    # no square overflows at 1e300 (a warning) or underflows at 1e-300 (rows of NaN): the quad
    # maps onto itself
    quad = Quad(axis_square * scale)
    m = BilinearMap(quad, quad)
    assert np.array_equal(m(quad.corners), quad.corners)
    inner = quad.corners * np.array([[0.5, 0.25]])
    assert np.allclose(m(inner), inner, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("far", [1e160, 1e300])
def test_bilinear_map_of_a_far_point_is_nan_without_overflow(far):
    # the kite is no parallelogram, so its inverse solves a quadratic whose squares would
    # overflow for these points; they are outside, and NaN with no warning
    _, kite = diamond_and_kite(0.25)
    m = BilinearMap(Quad(kite), Quad(kite))
    far_points = np.array([(far, 0.0), (0.0, -far), (-far, far), (far, far)])
    assert np.isnan(m(far_points)).all()
    inner = kite.mean(axis=0, keepdims=True)
    assert np.allclose(m(np.vstack([far_points, inner]))[-1:], inner, rtol=1e-12, atol=1e-15)


def test_nonconvex_source_rejected():
    dart = np.array([(0.0, 0.0), (2.0, 0.0), (0.5, 0.4), (0.0, 2.0)])
    with pytest.raises(NumericalError, match="bilinear source quad must be convex"):
        BilinearMap(Quad(dart), Quad(axis_square))


# ---------------------------------------------------------------------------
# diamond-frame kite: the midline bends into a parabola

def diamond_and_kite(slide=0.25):
    r = np.sqrt(2.0)
    diamond = np.array([(0.0, r), (-r, 0.0), (0.0, -r), (r, 0.0)])
    kite = diamond.copy()
    kite[0, 1] += slide
    kite[2, 1] += slide
    return diamond, kite


def test_kite_midline_is_parabola_not_line():
    diamond, kite = diamond_and_kite(0.25)
    m = BilinearMap(Quad(diamond), Quad(kite))
    t = np.linspace(0.0, 1.0, 101)[:, None]
    chord = (1 - t) * diamond[1] + t * diamond[3]
    img = m.map_points(chord)
    assert np.isfinite(img).all()
    # quadratic fit y ~ 1, x, x^2 has tiny residual; linear fit does not
    x, y = img[:, 0], img[:, 1]
    quad_res = np.linalg.lstsq(np.column_stack([np.ones_like(x), x, x * x]),
                               y, rcond=None)[1]
    lin_res = np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), y, rcond=None)[1]
    assert np.sqrt(quad_res[0] / len(x)) < 1e-10
    assert np.sqrt(lin_res[0] / len(x)) > 1e-3
    # closed form of the arc: y = s (1 - x^2/2) / 2 for slide s
    assert np.abs(y - 0.25 * (1 - x * x / 2) / 2).max() < 1e-12


def test_kite_diagonals():
    # the vertical diagonal slides up by s; the horizontal one is unchanged
    diamond, kite = diamond_and_kite(0.25)
    assert np.allclose(kite[[1, 3]], diamond[[1, 3]])
    assert np.allclose(kite[[0, 2], 1] - diamond[[0, 2], 1], 0.25)


# ---------------------------------------------------------------------------
# homography

def reference_homography(src, dst):
    """Oracle: 8x8 direct linear system assembled independently."""
    rows, rhs = [], []
    for (x, y), (X, Y) in zip(src, dst):
        rows.append([x, y, 1, 0, 0, 0, -X * x, -X * y])
        rhs.append(X)
        rows.append([0, 0, 0, x, y, 1, -Y * x, -Y * y])
        rhs.append(Y)
    sol = np.linalg.solve(np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float))
    return np.append(sol, 1.0).reshape(3, 3)


def test_homography_matches_reference():
    rng = np.random.default_rng(71)
    for _ in range(20):
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=4))
        src = np.column_stack([np.cos(ang), np.sin(ang)]) * 2.0
        dst = src + rng.normal(scale=0.2, size=(4, 2))
        try:
            h = homography_from_quads(Quad(src), Quad(dst))
        except NumericalError:
            continue
        ref = reference_homography(src, dst)
        assert np.allclose(h.matrix, ref, atol=1e-9 * np.abs(ref).max())
        assert np.allclose(h.map_points(src), dst, atol=1e-9)


def test_homography_preserves_collinearity():
    rng = np.random.default_rng(72)
    src = np.array([(0.0, 0.0), (2.0, 0.1), (2.2, 1.9), (-0.1, 2.0)])
    dst = np.array([(0.0, 0.0), (1.8, -0.3), (2.5, 2.2), (0.3, 1.7)])
    h = homography_from_quads(Quad(src), Quad(dst))
    for _ in range(200):
        a = rng.uniform(-1, 3, size=2)
        b = rng.uniform(-1, 3, size=2)
        t = rng.uniform(0, 1)
        triple = np.array([a, b, (1 - t) * a + t * b])
        img = h.map_points(triple)
        if not np.isfinite(img).all():
            continue
        u, w = img[1] - img[0], img[2] - img[0]
        area = np.abs(u[0] * w[1] - u[1] * w[0])
        scale = max(np.linalg.norm(u), 1.0)
        assert area < 1e-9 * scale * scale


def test_homography_straight_midline_on_kite():
    diamond, kite = diamond_and_kite(0.25)
    h = homography_from_quads(Quad(diamond), Quad(kite))
    t = np.linspace(0.0, 1.0, 51)[:, None]
    chord = (1 - t) * diamond[1] + t * diamond[3]
    img = h.map_points(chord)
    x, y = img[:, 0], img[:, 1]
    lin_res = np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), y, rcond=None)[1]
    assert np.sqrt(lin_res[0] / len(x)) < 1e-12


def test_homography_composition():
    rng = np.random.default_rng(73)
    sq = Quad(axis_square)
    q1 = Quad(axis_square * 1.5 + rng.normal(scale=0.1, size=(4, 2)))
    q2 = Quad(axis_square * 0.8 + rng.normal(scale=0.1, size=(4, 2)))
    h1 = homography_from_quads(sq, q1)
    h2 = homography_from_quads(q1, q2)
    both = Homography(h2.matrix @ h1.matrix)  # h2 after h1
    direct = homography_from_quads(sq, q2)
    # equal up to scale: compare after normalizing by the bottom-right entry
    a = both.matrix / both.matrix[2, 2]
    b = direct.matrix / direct.matrix[2, 2]
    assert np.abs(a - b).max() < 1e-8
    pts = rng.uniform(-1, 1, size=(50, 2))
    assert np.allclose(both.map_points(pts), h2.map_points(h1.map_points(pts)), atol=1e-8)


def test_homography_identity_and_affine_special_case():
    sq = Quad(axis_square)
    ident = homography_from_quads(sq, sq)
    assert np.allclose(ident.matrix / ident.matrix[2, 2], np.eye(3), atol=1e-10)
    linear = np.array([(1.2, 0.3), (-0.1, 0.9)])
    shift = np.array([0.4, -0.7])
    dst = Quad(axis_square @ linear.T + shift)
    h = homography_from_quads(sq, dst)
    m = h.matrix / h.matrix[2, 2]
    assert np.abs(m[2, :2]).max() < 1e-9  # projective row vanishes
    assert np.allclose(m[:2, :2], linear, atol=1e-9)
    assert np.allclose(m[:2, 2], shift, atol=1e-9)
    pts = np.random.default_rng(74).normal(size=(10, 2))
    assert np.allclose(Homography(np.eye(3)).map_points(pts), pts, atol=1e-15)


def test_homography_vanishing_line():
    # projective map with a finite vanishing line: w = 0 along x = 1
    h = Homography(np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 1.0)]))
    out = h.map_points(np.array([(1.0, 0.5)]))
    assert np.isnan(out).all()
    assert np.isnan(h(np.array([1.0, 0.5]))).all()


def test_homography_vanishing_line_test_scales_with_the_data():
    # (x, y) -> (y / x, 1 / x): w = x, so (s, s) goes to (1, 1/s) at every scale s,
    # and the vanishing line is x = 0 however small the other coordinate
    h = Homography(np.array([(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]))
    for s in 10.0 ** np.arange(-14, 11):
        out = h(np.array([(s, s), (-s, s)]))
        np.testing.assert_allclose(out, [(1.0, 1.0 / s), (-1.0, -1.0 / s)], rtol=1e-12, atol=0)
        assert np.isnan(h(np.array([(0.0, s), (0.0, -s)]))).all()
    assert np.isnan(h(np.zeros((1, 2)))).all()
    # a matrix too small to be normalized maps as its multiples do
    m = np.array([(1.0, 0.2, 0.1), (0.1, 1.0, 0.3), (0.05, 0.02, 1.0)])
    pts = np.array([(0.5, 0.5), (1.0, 2.0)])
    np.testing.assert_allclose(Homography(m * 1e-13)(pts), Homography(m)(pts), rtol=1e-12)


def test_homography_collinear_quad_rejected():
    flat = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
    with pytest.raises(NumericalError):
        homography_from_quads(Quad(flat), Quad(axis_square))


# ---------------------------------------------------------------------------
# prototypes

def test_prototype_kinds_complete():
    assert set(PROTOTYPE_KINDS) == {"parallelogram", "rotated_parallelogram",
                                    "trapezoid", "kite"}
    for kind in PROTOTYPE_KINDS:
        template, target = prototype_pair(kind)
        assert len(template) == 4 and len(target) == 4
        assert template.labels == target.labels
    with pytest.raises(InputError):
        prototype_pair("pentagon")


def edge_lengths(coords):
    return np.array([np.linalg.norm(coords[(i + 1) % 4] - coords[i]) for i in range(4)])


def test_parallelogram_prototype_is_sheared_square():
    template, target = prototype_pair("parallelogram")
    d = target.coords - template.coords
    # displacement proportional to y: a pure horizontal shear
    assert np.allclose(d[:, 1], 0.0, atol=1e-12)
    assert np.allclose(d[:, 0], 0.25 * template.coords[:, 1], atol=1e-12)
    # opposite sides remain parallel and equal
    e = target.coords
    assert np.allclose(e[1] - e[0], e[2] - e[3], atol=1e-12)


def test_trapezoid_prototype_keeps_flank_lengths():
    template, target = prototype_pair("trapezoid")
    lt = edge_lengths(template.coords)
    lg = edge_lengths(target.coords)
    # one parallel pair changes lengths, the other pair is exactly unchanged
    assert lg[1] == pytest.approx(lt[1], abs=1e-12)
    assert lg[3] == pytest.approx(lt[3], abs=1e-12)
    assert abs(lg[0] - lt[0]) > 0.1 and abs(lg[2] - lt[2]) > 0.1
    # and the changed pair stays horizontal (parallel to each other)
    assert np.allclose(target.coords[[0, 1], 1], target.coords[0, 1])
    assert np.allclose(target.coords[[2, 3], 1], target.coords[2, 1])


def test_kite_prototype_diagonal_slide():
    template, target = prototype_pair("kite")
    moved = target.coords - template.coords
    assert np.allclose(moved[[1, 3]], 0.0, atol=1e-15)
    assert np.allclose(moved[[0, 2], 0], 0.0, atol=1e-15)
    assert np.allclose(moved[[0, 2], 1], 0.25, atol=1e-15)


def test_rotated_parallelogram_prototype():
    template, target = prototype_pair("rotated_parallelogram")
    # same shear as the plain parallelogram, applied in the diamond frame
    plain_t, plain_g = prototype_pair("parallelogram")
    shear = np.array([(1.0, 0.25), (0.0, 1.0)])
    assert np.allclose(target.coords, template.coords @ shear.T, atol=1e-12)
    assert not np.allclose(template.coords, plain_t.coords)


def test_ambiguity_warning_for_nearly_degenerate_points():
    # a convex but strongly non-parallelogram source can give two valid roots
    # only outside the closed cell; interior points never warn
    dst = np.array([(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)])
    src = np.array([(0.0, 0.0), (2.0, 0.0), (3.0, 2.5), (-0.5, 1.5)])
    m = BilinearMap(Quad(src), Quad(dst))
    rng = np.random.default_rng(75)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        uv = rng.uniform(0.02, 0.98, size=(200, 2))
        pts = bilinear_forward(src, uv[:, :1], uv[:, 1:])
        m.map_points(pts)


def test_homography_singularity_test_is_scale_free():
    kite = np.array([(0.0, 0.0), (1.2, 0.0), (1.0, 1.3), (0.0, 1.0)])
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    for size in (1e-7, 1.0, 1e7):  # |det| is about 1/size^2 here
        h = homography_from_quads(Quad(square * size), Quad(kite))
        assert np.allclose(h(square * size), kite, atol=1e-9)


def test_homography_leaves_callers_matrix_writeable():
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    before = m.copy()
    h = Homography(m)
    assert m.flags.writeable
    assert np.array_equal(m, before)
    assert not h.matrix.flags.writeable
    m[0, 0] = 5.0  # the map keeps its own copy
    assert h.matrix[0, 0] == 0.0


def test_homography_rejects_rank_deficient_matrix():
    for m in ([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]],
              [[1e7, 0.0, 1e7], [0.0, 1e7, 0.0], [1.0, 0.0, 1.0]],
              np.zeros((3, 3))):
        with pytest.raises(NumericalError, match=r"homography matrix is singular \(\|det\| <= "
                                                 r"1e-12 x Hadamard bound\)"):
            Homography(np.array(m))

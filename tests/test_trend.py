import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (Baseline, GridSpec, InputError, LandmarkConfiguration, NumericalError,
                       basis_size, default_labels, design_matrix, extend_grid, make_grid,
                       trend_eval, trend_fit, two_point_register)
from gridmorph.tps import EVAL_BLOCK
from gridmorph.trend import BASIS_POWERS


def config(coords, name="cfg"):
    coords = np.asarray(coords, dtype=float)
    return LandmarkConfiguration(name, default_labels(len(coords)), coords)


def octagon(rng=None, k=8):
    rng = rng or np.random.default_rng(0)
    ang = np.sort(rng.uniform(0, 2 * np.pi, size=k))
    radii = rng.uniform(0.8, 1.2, size=k)  # off a common circle, else the
    # quadratic basis is rank deficient (conic identity)
    return np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])


def test_basis_sizes():
    assert basis_size(1) == 3
    assert basis_size(2) == 6
    assert basis_size(3) == 10


def test_design_matrix_degree2_terms():
    pts = np.array([(2.0, 3.0)])
    row = design_matrix(pts, 2)[0]
    assert np.allclose(row, [1.0, 2.0, 3.0, 4.0, 9.0, 6.0])
    row3 = design_matrix(pts, 3)[0]
    assert np.allclose(row3, [1.0, 2.0, 3.0, 4.0, 9.0, 6.0, 8.0, 27.0, 12.0, 18.0])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                    -1e-310, 1e154, -1e103, 1.5, -3.0])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pts=st.integers(0, 40).flatmap(lambda n: arrays(np.float64, (n, 2))),
       degree=st.sampled_from([1, 2, 3]))
@example(pts=np.array(np.meshgrid(SPECIAL, SPECIAL)).reshape(2, -1).T, degree=1)
@example(pts=np.array(np.meshgrid(SPECIAL, SPECIAL)).reshape(2, -1).T, degree=2)
@example(pts=np.array(np.meshgrid(SPECIAL, SPECIAL)).reshape(2, -1).T, degree=3)
def test_design_matrix_equals_column_stack_of_powers(pts, degree):
    x, y = pts[:, 0], pts[:, 1]
    with np.errstate(all="ignore"):  # inf, nan and overflow are part of the comparison
        want = np.column_stack([x ** px * y ** py for px, py in BASIS_POWERS[degree]])
        got = design_matrix(pts, degree)
        into = design_matrix(np.asfortranarray(pts), degree, out=np.empty_like(want))
    assert np.array_equal(bits(got), bits(want))  # bit for bit: NaN payloads and -0.0 too
    assert np.array_equal(bits(into), bits(want))


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1, None])
def test_trend_eval_equals_whole_design_at_block_boundaries(degree, extra):
    rng = np.random.default_rng(degree)
    template = octagon(rng, k=12)
    fit = trend_fit(config(template), config(template + rng.normal(scale=0.2, size=(12, 2))),
                    degree)
    rows = EVAL_BLOCK // basis_size(degree)
    n = 3 * rows + 7 if extra is None else rows + extra
    pts = rng.uniform(-3.0, 3.0, size=(n, 2))
    want = design_matrix(pts, degree) @ fit.coefficients
    # the blocks' products equal the whole product row for row: BLAS gives a row of a
    # product of two or more rows the same sum, in C or Fortran order, and trend_eval
    # never multiplies a lone last row (block + 1) on its own
    assert np.array_equal(trend_eval(fit, pts), want)
    assert np.array_equal(trend_eval(fit, np.asfortranarray(pts)), want)
    assert np.array_equal(trend_eval(fit, pts.reshape(-1, 1, 2)), want.reshape(-1, 1, 2))


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 60), cells=st.tuples(
           st.integers(1, 30), st.integers(1, 30)), samples=st.integers(2, 12),
       corner=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), scale=st.floats(-3.0, 3.0),
       extends=st.lists(st.tuples(st.sampled_from(["left", "right", "down", "up"]),
                                  st.floats(0.1, 2.0)), max_size=2))
def test_eval_on_a_lattice_equals_eval_at_its_preimage(seed, k, cells, samples, corner, scale,
                                                       extends):
    # a lattice's blocks are copied from its axis tables: the bits of its preimage's rows
    rng = np.random.default_rng(seed)
    degree = 1 + seed % 3
    k = max(k, basis_size(degree))
    size = 10.0 ** scale
    (x0, y0), (w, h) = np.array(corner) * size, rng.uniform(0.5, 2.0, 2) * size
    spec = GridSpec((x0, x0 + w), (y0, y0 + h), *cells, samples)
    for side, multiples in extends:
        spec = extend_grid(spec, side, multiples)
    template = np.array([x0, y0]) + rng.uniform(0.0, 1.0, size=(k, 2)) * (w, h)
    fit = trend_fit(config(template), config(template + rng.normal(scale=0.2, size=(k, 2))
                                             * size), degree)
    got = trend_eval(fit, spec)
    assert "preimage" not in vars(spec)
    assert np.array_equal(bits(got), bits(trend_eval(fit, spec.preimage)))


def test_trend_eval_peak_memory_is_output_plus_one_block():
    rng = np.random.default_rng(4)
    template = octagon(rng)
    fit = trend_fit(config(template), config(template * 1.1 + 0.05 * template ** 2), 2)
    pts = make_grid(config(template), margin=0.25, cells=96).preimage  # about 157k samples
    tracemalloc.start()
    try:
        out = trend_eval(fit, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = EVAL_BLOCK // 6
    block = rows * 6 * 8 + rows * 2 * 8  # one block's design and its product
    assert len(pts) > 150_000
    assert peak <= out.nbytes + block + 16_384, f"trend_eval peak {peak} B"


def test_df_counts():
    rng = np.random.default_rng(2)
    template = config(octagon(rng))
    target = config(octagon(rng))
    fit = trend_fit(template, target, 2)
    assert fit.df == 2  # k=8 minus 6 coefficients
    fit1 = trend_fit(template, target, 1)
    assert fit1.df == 5


def test_exact_quadratic_recovery():
    rng = np.random.default_rng(3)
    for _ in range(20):
        template = octagon(rng)
        coef = rng.normal(scale=0.5, size=(6, 2))
        target = design_matrix(template, 2) @ coef
        fit = trend_fit(config(template), config(target), 2)
        assert np.abs(fit.coefficients - coef).max() < 1e-8
        assert np.abs(fit.residuals).max() < 1e-9
        assert fit.df == 2


def test_matches_normal_equations():
    rng = np.random.default_rng(4)
    for degree in (1, 2, 3):
        for _ in range(10):
            k = int(rng.integers(basis_size(degree) + 1, basis_size(degree) + 6))
            template = rng.normal(size=(k, 2))
            target = rng.normal(size=(k, 2))
            fit = trend_fit(config(template), config(target), degree)
            X = design_matrix(template, degree)
            beta = np.linalg.solve(X.T @ X, X.T @ target)
            assert np.allclose(fit.coefficients, beta, atol=1e-8)


def test_planted_displacement_residuals_match_hat_matrix():
    # a single landmark displacement delta produces residuals (I - H) e_j delta,
    # where H is the hat matrix of the monomial design
    rng = np.random.default_rng(5)
    template = octagon(rng)
    coef = rng.normal(scale=0.3, size=(6, 2))
    target = design_matrix(template, 2) @ coef
    delta = np.array([3e-4, -2e-4])
    j = 4
    target[j] += delta
    fit = trend_fit(config(template), config(target), 2)
    X = design_matrix(template, 2)
    H = X @ np.linalg.pinv(X)
    expected = np.outer((np.eye(len(template)) - H)[:, j], delta)
    assert np.allclose(fit.residuals, expected, atol=1e-10)
    # residuals of an OLS fit with intercept sum to zero per coordinate
    assert np.abs(fit.residuals.sum(axis=0)).max() < 1e-12


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(6)
    template = rng.normal(size=(12, 2))
    target = rng.normal(size=(12, 2))
    fit = trend_fit(config(template), config(target), 2)
    X = design_matrix(template, 2)
    scale = np.abs(X).max() * np.abs(target).max()
    assert np.abs(X.T @ fit.residuals).max() < 1e-8 * scale


def test_rss_nesting():
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(11, 20))
        template = rng.normal(size=(k, 2))
        target = rng.normal(size=(k, 2))
        rss = {}
        for degree in (1, 2, 3):
            fit = trend_fit(config(template), config(target), degree)
            rss[degree] = sum(fit.rss)
        assert rss[3] <= rss[2] + 1e-12
        assert rss[2] <= rss[1] + 1e-12


def test_saturated_fit():
    rng = np.random.default_rng(8)
    template = rng.normal(size=(6, 2))
    target = rng.normal(size=(6, 2))
    fit = trend_fit(config(template), config(target), 2)
    assert fit.saturated and fit.df == 0
    assert np.abs(fit.residuals).max() < 1e-8


def test_insufficient_landmarks_messages():
    rng = np.random.default_rng(9)
    five = config(rng.normal(size=(5, 2)))
    with pytest.raises(InputError, match="a degree-2 trend requires at least 6 landmarks, got 5"):
        trend_fit(five, five, 2)
    nine = config(rng.normal(size=(9, 2)))
    with pytest.raises(InputError, match="a degree-3 trend requires at least 10 landmarks, got 9"):
        trend_fit(nine, nine, 3)


def test_rank_deficient_design_rejected():
    # eight points on one circle: x^2 + y^2 is linearly dependent on 1, x, y
    ang = np.linspace(0, 2 * np.pi, 9)[:-1]
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    with pytest.raises(NumericalError):
        trend_fit(config(circle), config(circle * 1.1), 2)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("scale", [1e-17, 1e-14, 1e14, 1e17])
@pytest.mark.parametrize("offset", [0.0, 7.0])
def test_trend_fit_of_a_planted_polynomial_at_any_unit(degree, scale, offset):
    # in floats the raw design of these templates is rank-deficient: the framed template decides
    # the rank, its fit gives the fitted values, and the raw coefficients expand from it
    rng = np.random.default_rng(14)
    unit = octagon(rng, k=12) + offset
    target = design_matrix(unit, degree) @ rng.normal(size=(basis_size(degree), 2))
    fit = trend_fit(config(unit * scale), config(target), degree)
    tol = 1e-13 * np.abs(target).max()
    assert np.abs(fit.fitted - target).max() <= tol
    assert np.abs(trend_eval(fit, unit * scale) - target).max() <= tol
    ang = np.linspace(0, 2 * np.pi, 13)[:-1]
    circle = (np.column_stack([np.cos(ang), np.sin(ang)]) + offset) * scale
    with pytest.raises(NumericalError, match={2: "rank 5 < 6", 3: "rank 7 < 10"}[degree]):
        trend_fit(config(circle), config(target), degree)


@pytest.mark.parametrize("degree, scale", [(3, 1e120), (2, 1e160)])
def test_trend_fit_of_a_design_past_the_float_range(capfd, degree, scale):
    # x^3 at 1e120 and x^2 at 1e160 pass the largest float: the raw design is never solved
    # (LAPACK would raise LinAlgError and print to stderr), the framed one is
    rng = np.random.default_rng(14)
    unit = octagon(rng, k=12)
    target = design_matrix(unit, degree) @ rng.normal(size=(basis_size(degree), 2))
    fit = trend_fit(config(unit * scale), config(target), degree)
    assert np.abs(fit.fitted - target).max() <= 1e-13 * np.abs(target).max()
    assert np.isfinite(fit.coefficients).all()
    assert capfd.readouterr().err == ""


def test_trend_fit_of_a_design_with_inf_times_zero():
    # at 2^600 a landmark on y = 0 makes x^2 y inf * 0 in the raw design, which is not finite,
    # so the framed design is solved, without an invalid-value warning
    rng = np.random.default_rng(15)
    unit = octagon(rng, k=12)
    unit[3, 1] = 0.0
    target = unit + 0.05 * rng.normal(size=unit.shape)
    scale = 2.0 ** 600
    want = trend_fit(config(unit), config(target), 3).fitted
    fit = trend_fit(config(unit * scale), config(target * scale), 3)
    assert np.abs(fit.fitted / scale - want).max() <= 1e-13


def test_trend_eval_entire_plane():
    rng = np.random.default_rng(10)
    template = octagon(rng)
    coef = rng.normal(size=(6, 2))
    target = design_matrix(template, 2) @ coef
    fit = trend_fit(config(template), config(target), 2)
    pts = rng.uniform(-40.0, 40.0, size=(50, 2))  # far outside the octagon
    want = design_matrix(pts, 2) @ coef
    assert np.allclose(trend_eval(fit, pts), want, atol=1e-6 * np.abs(want).max())


def test_residual_report():
    rng = np.random.default_rng(12)
    template = octagon(rng)
    target = design_matrix(template, 2) @ rng.normal(size=(6, 2))
    target[2] += np.array([1e-3, 1e-3])
    fit = trend_fit(config(template), config(target), 2)
    assert fit.df == 2 and not fit.saturated
    assert fit.residuals.shape == (8, 2) and fit.magnitudes.shape == (8,)
    # the displacement spreads into residuals as (I - H) e_j; check magnitudes
    X = design_matrix(template, 2)
    factors = np.abs((np.eye(8) - X @ np.linalg.pinv(X))[:, 2])
    assert np.allclose(fit.magnitudes, factors * np.hypot(1e-3, 1e-3), atol=1e-9)
    # the residual CSV prints these bits: a sum of squares, not np.hypot
    assert np.array_equal(fit.magnitudes, np.sqrt((fit.residuals ** 2).sum(axis=1)))
    assert fit.rss[0] == pytest.approx((fit.residuals[:, 0] ** 2).sum(), rel=1e-12)


# ---------------------------------------------------------------------------
# similarity equivariance

EPS = np.finfo(float).eps
# Where the raw monomial design falls short of full rank for the unit or the offset, the rank
# and the fit are taken on the centred template in its frame, so every degree is drawn over
# the (decades of scale, shift in template sizes) of tps's test_fit_is_similarity_equivariant.
REACH = (6.0, 1e3)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degree=st.sampled_from([1, 2, 3]),
       angle=st.floats(-np.pi, np.pi), exponent=st.floats(-1.0, 1.0),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_fitted_values_are_similarity_equivariant(seed, degree, angle, exponent, shift):
    rng = np.random.default_rng(seed)
    template = octagon(rng, k=int(rng.integers(basis_size(degree) + 1, 16)))
    target = template + rng.normal(scale=0.3, size=template.shape)
    decades, sizes = REACH
    scale = 10.0 ** (decades * exponent)
    c, s = scale * np.cos(angle), scale * np.sin(angle)
    shift = sizes * np.array(shift)  # in units of the template's size
    offset = scale * shift

    def move(p):
        return p @ np.array([(c, -s), (s, c)]).T + offset

    fit = trend_fit(config(template), config(target), degree)
    moved = trend_fit(config(move(template)), config(move(target)), degree)
    # The basis is closed under affine maps of the plane, so the fitted values
    # (the projection of the target) move with the data. A least-squares
    # solve loses about eps times its condition of the largest value.
    reach = scale * (np.abs(np.vstack([template, target])).max() + np.abs(shift).max())
    bound = 64 * EPS * reach * (fit.condition + moved.condition)
    assert np.abs(moved.fitted - move(fit.fitted)).max() <= bound


def as_complex(pts):
    return pts[:, 0] + 1j * pts[:, 1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degree=st.sampled_from([1, 2, 3]), data=st.data())
def test_change_of_baseline_moves_the_fit_by_the_targets_similarity(seed, degree, data):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(basis_size(degree) + 1, 16))
    # landmarks spread around a circle and off it, so that the basis has full rank and no
    # baseline is much shorter than the shape, unless one is drawn that short on purpose
    angles = 2 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
    template = rng.uniform(0.8, 1.2, (k, 1)) * np.column_stack([np.cos(angles), np.sin(angles)])
    target = template + rng.normal(scale=0.3, size=template.shape)  # residuals of order 1
    pair = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
    b1, b2 = Baseline(*data.draw(pair)), Baseline(*data.draw(pair))
    gap = data.draw(st.one_of(st.none(), st.floats(-8.0, -3.0)))
    if gap is not None:  # b1's landmarks 10^gap of the shape's size (2) apart in both
        b1 = Baseline(*data.draw(st.permutations([0, 1])))
        step = 2.0 * 10.0 ** gap * np.exp(1j * rng.uniform(-np.pi, np.pi))
        template[1] = template[0] + (step.real, step.imag)
        near_identity = np.eye(2) + rng.normal(scale=0.2, size=(2, 2))
        target[1] = target[0] + (template[1] - template[0]) @ near_identity
    turn, scale = rng.uniform(-np.pi, np.pi), 10.0 ** rng.uniform(-2.0, 2.0)
    target = scale * as_complex(target) * np.exp(1j * turn) + 10.0 * complex(*rng.normal(size=2))
    target = np.column_stack([target.real, target.imag])  # in a frame of its own

    def fit(baseline):
        return trend_fit(two_point_register(config(template), baseline),
                         two_point_register(config(target), baseline), degree)

    first, second = fit(b1), fit(b2)
    # The plane as complex numbers: z -> (z - a) / (b - a) takes the target's b1 frame to its
    # b2 frame. The template's frames differ by a similarity too, and the basis is closed under
    # affine maps of input and output, so the b2 fit is the b1 fit moved by the target's map.
    registered = as_complex(two_point_register(config(target), b1).coords)
    a, b = registered[b2.start], registered[b2.end]
    # Registration rounds at eps of the data's reach over its baseline (as in
    # test_two_point_registration_composes), and each least-squares solve loses its condition.
    reach = max((np.abs(pts).max() + np.abs(pts - pts[i]).max()) / np.hypot(*(pts[j] - pts[i]))
                for pts in (template, target) for i, j in (b1, b2))
    bound = 64 * EPS * reach * (first.condition + second.condition)
    assert np.abs((as_complex(first.fitted) - a) / (b - a) - as_complex(second.fitted)).max() \
        <= bound
    assert np.abs(as_complex(first.residuals) / (b - a) - as_complex(second.residuals)).max() \
        <= bound

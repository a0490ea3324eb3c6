import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmorph import (InsufficientLandmarksError, LandmarkConfiguration,
                       NumericalError, basis_size, default_labels,
                       design_matrix, trend_eval, trend_fit)


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
    with pytest.raises(InsufficientLandmarksError) as err:
        trend_fit(five, five, 2)
    assert "6" in str(err.value) and "5" in str(err.value)
    nine = config(rng.normal(size=(9, 2)))
    with pytest.raises(InsufficientLandmarksError) as err:
        trend_fit(nine, nine, 3)
    assert "10" in str(err.value) and "9" in str(err.value)


def test_rank_deficient_design_rejected():
    # eight points on one circle: x^2 + y^2 is linearly dependent on 1, x, y
    ang = np.linspace(0, 2 * np.pi, 9)[:-1]
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    with pytest.raises(NumericalError):
        trend_fit(config(circle), config(circle * 1.1), 2)


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
# The rank test compares the singular values of the raw monomial design, so it
# refuses well-posed fits of degree 2 and 3 far from unit size or from the
# origin (degree 3 from 1e5 or 1e-5 on). Each degree is drawn within the
# (decades of scale, shift in template sizes) that it handles.
REACH = {1: (6.0, 1e3), 2: (5.0, 1.0), 3: (3.0, 1.0)}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degree=st.sampled_from([1, 2, 3]),
       angle=st.floats(-np.pi, np.pi), exponent=st.floats(-1.0, 1.0),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_fitted_values_are_similarity_equivariant(seed, degree, angle, exponent, shift):
    rng = np.random.default_rng(seed)
    template = octagon(rng, k=int(rng.integers(basis_size(degree) + 1, 16)))
    target = template + rng.normal(scale=0.3, size=template.shape)
    decades, sizes = REACH[degree]
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

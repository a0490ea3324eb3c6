"""Polynomial trend surfaces: low-order regression of target on template coordinates.

Each target coordinate is regressed by ordinary least squares on a fixed
monomial basis of the template coordinates. The basis order is part of the
contract (coefficients are comparable across fits):

    degree 1: 1, x, y
    degree 2: 1, x, y, x^2, y^2, xy
    degree 3: 1, x, y, x^2, y^2, xy, x^3, y^3, x^2 y, x y^2

Predictors are the template coordinates exactly as registered (typically
two-point baseline coordinates); they are not centered or rescaled, and
all landmarks enter with equal weight. Degrees of freedom per coordinate
are k - m where m is the basis size, so the degree caps out where data of
ordinary size stop supporting it (degree 3 already needs ten landmarks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LandmarkConfiguration, freeze_arrays, require_homologous
from .errors import InputError, InsufficientLandmarksError, RankDeficiencyError

# each degree's basis extends the one below it
_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 0), (0, 3), (2, 1), (1, 2))
_TERMS = ("1", "x", "y", "x^2", "y^2", "xy", "x^3", "y^3", "x^2y", "xy^2")
BASIS_POWERS = {degree: _POWERS[:size] for degree, size in ((1, 3), (2, 6), (3, 10))}
TERM_NAMES = {degree: _TERMS[:len(powers)] for degree, powers in BASIS_POWERS.items()}


def basis_size(degree: int) -> int:
    if degree not in BASIS_POWERS:
        raise InputError(f"degree must be 1, 2 or 3, got {degree}")
    return len(BASIS_POWERS[degree])


def design_matrix(coords, degree: int) -> np.ndarray:
    """Monomial design matrix over (..., 2) coordinates, in the fixed basis order."""
    pts = np.asarray(coords, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([x ** px * y ** py for px, py in BASIS_POWERS[degree]])


@dataclass(frozen=True, eq=False)
class PolynomialTrend:
    """Fitted trend surface: coefficients, fitted values, residuals, df.

    coefficients is (m, 2), one column per target coordinate, rows in the
    fixed basis order. df is the per-coordinate error degrees of freedom
    k - m; a fit with df == 0 is saturated (pure interpolation).
    """

    degree: int
    template: LandmarkConfiguration
    coefficients: np.ndarray  # (m, 2)
    fitted: np.ndarray        # (k, 2)
    residuals: np.ndarray     # (k, 2)
    df: int
    condition: float

    def __post_init__(self):
        freeze_arrays(self, "coefficients", "fitted", "residuals")

    @property
    def saturated(self) -> bool:
        return self.df == 0

    @property
    def rss(self) -> np.ndarray:
        """Residual sum of squares per target coordinate, shape (2,)."""
        return (self.residuals ** 2).sum(axis=0)

    @property
    def term_names(self) -> tuple[str, ...]:
        return TERM_NAMES[self.degree]

    def __call__(self, points) -> np.ndarray:
        return trend_eval(self, points)


def trend_fit(template: LandmarkConfiguration, target: LandmarkConfiguration,
              degree: int) -> PolynomialTrend:
    """Least-squares polynomial trend of the given degree, template -> target.

    Solved per coordinate by orthogonal decomposition, never by forming
    normal equations. Requires at least as many landmarks as basis terms
    and a design of full column rank.
    """
    m = basis_size(degree)
    require_homologous(template, target)
    k = len(template)
    if k < m:
        raise InsufficientLandmarksError(
            f"a degree-{degree} trend requires at least {m} landmarks, got {k}")
    design = design_matrix(template.coords, degree)
    coef, _, rank, singular_values = np.linalg.lstsq(design, target.coords, rcond=None)
    if rank < m:
        raise RankDeficiencyError(
            f"trend design matrix is rank-deficient (rank {rank} < {m}); "
            f"template landmarks lie on a degree-{degree} algebraic curve")
    condition = float(singular_values[0] / singular_values[-1])
    fitted = design @ coef
    residuals = target.coords - fitted
    return PolynomialTrend(degree, template, coef, fitted, residuals, k - m, condition)


def trend_eval(trend: PolynomialTrend, points) -> np.ndarray:
    """Evaluate the fitted polynomials at one point (2,) or many (..., 2).

    The trend is an entire polynomial map, defined everywhere in the plane,
    including far outside the hull of the landmarks; extrapolation is up to
    the caller's judgement.
    """
    pts = np.asarray(points, dtype=float)
    return (design_matrix(pts, trend.degree) @ trend.coefficients).reshape(pts.shape)


@dataclass(frozen=True, eq=False)
class TrendResidualReport:
    """Per-landmark residuals of a trend fit, plus per-coordinate totals."""

    labels: tuple[str, ...]
    residuals: np.ndarray   # (k, 2)
    magnitudes: np.ndarray  # (k,)
    rss: tuple[float, float]
    df: int
    saturated: bool

    def rows(self):
        """Yield (label, residual_vector, magnitude) per landmark, in landmark order."""
        for i, label in enumerate(self.labels):
            yield label, self.residuals[i], float(self.magnitudes[i])


def trend_residual_report(trend: PolynomialTrend) -> TrendResidualReport:
    magnitudes = np.sqrt((trend.residuals ** 2).sum(axis=1))
    rss = trend.rss
    return TrendResidualReport(
        labels=trend.template.labels,
        residuals=trend.residuals,
        magnitudes=magnitudes,
        rss=(float(rss[0]), float(rss[1])),
        df=trend.df,
        saturated=trend.saturated,
    )

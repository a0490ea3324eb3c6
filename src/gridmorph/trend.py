"""Polynomial trend surfaces: low-order regression of target on template coordinates.

Each target coordinate is regressed by ordinary least squares on a fixed
monomial basis of the template coordinates. The basis order is part of the
contract (coefficients are comparable across fits):

    degree 1: 1, x, y
    degree 2: 1, x, y, x^2, y^2, xy
    degree 3: 1, x, y, x^2, y^2, xy, x^3, y^3, x^2 y, x y^2

Predictors are the template coordinates exactly as registered (typically
two-point baseline coordinates), and all landmarks enter with equal weight.
A design short of full rank, or not finite, is taken again on the centred
template scaled by a power of two (core.frame), whose rank is the landmarks' own
at any unit or offset, then solved there and expanded back. Degrees of freedom
per coordinate are k - m where m is the basis size, so the degree caps out where
data of ordinary size stop supporting it (degree 3 needs ten landmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

from .core import LandmarkConfiguration, frame, freeze_arrays, require_homologous
from .errors import InputError, NumericalError
from .tps import _eval_blocks

# each degree's basis extends the one below it
_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 0), (0, 3), (2, 1), (1, 2))
_TERMS = ("1", "x", "y", "x^2", "y^2", "xy", "x^3", "y^3", "x^2y", "xy^2")
BASIS_POWERS = {degree: _POWERS[:size] for degree, size in ((1, 3), (2, 6), (3, 10))}
TERM_NAMES = {degree: _TERMS[:len(powers)] for degree, powers in BASIS_POWERS.items()}


def basis_size(degree: int) -> int:
    if degree not in BASIS_POWERS:
        raise InputError(f"degree must be 1, 2 or 3, got {degree}")
    return len(BASIS_POWERS[degree])


def design_matrix(coords, degree: int, out=None) -> np.ndarray:
    """Monomial design matrix over (..., 2) coordinates, in the fixed basis order, filled a
    column at a time into out (a new (n, m) array by default) with the bits of x ** px * y ** py."""
    pts = np.asarray(coords, dtype=float).reshape(-1, 2)
    powers = BASIS_POWERS[degree]
    out = np.empty((len(pts), len(powers))) if out is None else out
    out[:, 0], out[:, 1:3] = 1.0, pts  # x ** 0 is 1 and x ** 1 is x, for every x
    for col, (px, py) in zip(out.T[3:], powers[3:]):
        if px and py:  # the product of its pure powers' columns, which come before it
            np.multiply(out[:, powers.index((px, 0))], out[:, powers.index((0, py))], out=col)
        else:  # numpy's x ** 2 is a square, x ** 3 a pow
            v, p = pts[:, 0 if px else 1], px or py
            np.square(v, out=col) if p == 2 else np.power(v, p, out=col)
    return out


@dataclass(frozen=True, eq=False)
class PolynomialTrend:
    """Fitted trend surface: coefficients, fitted values, residuals, df.

    coefficients is (m, 2), one column per target coordinate, rows in the
    fixed basis order. df is the per-coordinate error degrees of freedom
    k - m; a fit with df == 0 is saturated (pure interpolation). condition
    is that of the design solved: the raw one at full rank, else the framed.
    """

    degree: int
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
    def magnitudes(self) -> np.ndarray:
        """Length of each landmark's residual vector, shape (k,)."""
        return np.sqrt((self.residuals ** 2).sum(axis=1))

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
    and a design of full column rank, on the framed template if not the raw.
    """
    m = basis_size(degree)
    require_homologous(template, target)
    k = len(template)
    if k < m:
        raise InputError(f"a degree-{degree} trend requires at least {m} landmarks, got {k}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or inf * 0: straight to the frame
        design, rank = design_matrix(template.coords, degree), 0
    if np.isfinite(design).all():
        coef, _, rank, singular_values = np.linalg.lstsq(design, target.coords, rcond=None)
        fitted = design @ coef
    if rank < m:
        # template = 2^e (mean + 2^g dev) and target = 2^f t, so with w = template 2^-(e+g) and
        # h = mean 2^-g, the fit in dev = w - h expands binomially into powers of w
        q, e = frame(template.coords, None)
        mean = q.mean(axis=0)
        dev, g = frame(q - mean, None)
        t, f = frame(target.coords, 0)
        design = design_matrix(dev, degree)
        framed, _, rank, singular_values = np.linalg.lstsq(design, t, rcond=None)
        if rank < m:
            curve = "are collinear" if degree == 1 else f"lie on a degree-{degree} algebraic curve"
            raise NumericalError(f"trend design matrix is rank-deficient (rank {rank} < {m}); "
                                 f"template landmarks {curve}")
        powers = BASIS_POWERS[degree]
        h, coef = -np.ldexp(mean, -g[0]), np.zeros_like(framed)
        for (a, b), row in zip(powers, framed):
            for i, j in product(range(a + 1), range(b + 1)):
                term = comb(a, i) * comb(b, j) * h[0] ** (a - i) * h[1] ** (b - j)
                coef[powers.index((i, j))] += term * row
        with np.errstate(over="ignore"):  # row (i, j) of the raw basis scales by 2^(f-(i+j)(e+g))
            coef = np.ldexp(coef, f - np.sum(powers, axis=1)[:, None] * (e + g))
            fitted = np.ldexp(design @ framed, f)
        if not (np.isfinite(coef).all() and np.isfinite(fitted).all()):
            raise NumericalError(f"degree-{degree} trend from {template.name!r} to "
                                 f"{target.name!r} is past the largest float")
    condition = float(singular_values[0] / singular_values[-1])
    residuals = target.coords - fitted
    return PolynomialTrend(degree, coef, fitted, residuals, k - m, condition)


def remove_affine(template: LandmarkConfiguration,
                  target: LandmarkConfiguration) -> LandmarkConfiguration:
    """The target with each landmark replaced by template_i + (target_i - A(template_i)), A the
    degree-1 trend (the least-squares affine map): refitting it from the template to the result
    gives the identity, so only the nonaffine part survives. Register both alike first."""
    coef = trend_fit(template, target, 1).coefficients
    affine = template.coords @ coef[1:3] + coef[0]
    return target.with_coords(template.coords + (target.coords - affine))


def trend_eval(trend: PolynomialTrend, points) -> np.ndarray:
    """Evaluate the fitted polynomials at one point (2,), many (..., 2) or a GridSpec's lattice.

    The trend is an entire polynomial map, defined everywhere in the plane,
    including far outside the hull of the landmarks; extrapolation is up to
    the caller's judgement. Evaluated in blocks of points, as tps_eval is.
    """
    degree, coef = trend.degree, trend.coefficients

    def evaluate(start, block, values, design):  # the product takes the whole buffer, as BLAS
        design_matrix(block, degree, design[:len(block)])  # sums a 1-row product in another
        values[0] = (design @ coef)[:len(block)]  # order than the rows of a larger one
    return _eval_blocks(points, len(coef), 1, evaluate)[0]

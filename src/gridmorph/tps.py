"""Thin-plate spline interpolation of landmark displacements.

The interpolant uses the biharmonic kernel U(r) = r^2 log r (U(0) = 0).
Fitting solves the dense (k+3) x (k+3) bordered system

    [ K   P ] [ w ]   [ q ]
    [ P^T 0 ] [ a ] = [ 0 ]

for each output coordinate, where K_ij = U(|p_i - p_j|) and the rows of P are (1, x_i, y_i);
one LU factorization fits all the splines of a template. The side conditions sum w = sum w x =
sum w y = 0 make the warp term decay far from the landmarks, so the map relaxes to its own
affine part at great distances. The bending energy of each coordinate is the quadratic form
w^T K w. Evaluation goes by blocks of points; splines of one template share each block's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LandmarkConfiguration, centered, freeze_arrays, require_homologous
from .errors import InputError, NumericalError

SIDE_CONDITION_TOL = 1e-9  # largest side-condition moment, relative to its terms' magnitude
MIN_SEPARATION = 1e-10  # nearest landmark pair, relative to the template's diameter
EVAL_BLOCK = 2 ** 16  # entries per block: tps_eval's kernel (2 buffers, 1 MB), trend_eval's design


def _kernel(points: np.ndarray, centres: np.ndarray, u=None, t=None) -> np.ndarray:
    """U = 0.5 r2 log r2 = r^2 log r for every point and centre, (n, k), built in place in u.

    u and t are optional (n, k) float buffers. The log is taken of r2 raised to the least
    subnormal, which leaves r2 > 0 as it is and gives U(0) = -0.0, made +0.0 by the last + 0.0.
    """
    u, t = (np.empty((len(points), len(centres))) if b is None else b for b in (u, t))
    u[:], t[:] = points[:, :1], points[:, 1:]  # broadcast copies, then contiguous subtracts
    u -= centres[:, 0]
    t -= centres[:, 1]
    np.square(u, out=u)
    u += np.square(t, out=t)  # r2 = dx * dx + dy * dy
    np.log(np.maximum(u, np.nextafter(0.0, 1.0), out=t), out=t)
    u *= 0.5
    u *= t
    u += 0.0
    return u


@dataclass(frozen=True, eq=False)
class TpsModel:
    """Fitted thin-plate spline from a template to a target.

    affine has rows (constant, x, y) per output coordinate; weights is
    (k, 2); energy holds the per-coordinate bending energies w^T K w.
    """

    template_points: np.ndarray  # (k, 2)
    weights: np.ndarray          # (k, 2)
    affine: np.ndarray           # (3, 2)
    energy: tuple[float, float]

    def __post_init__(self):
        freeze_arrays(self, "template_points", "weights", "affine")

    def __call__(self, points) -> np.ndarray:
        return tps_eval(self, points)


def tps_fit(template: LandmarkConfiguration, target: LandmarkConfiguration, *more):
    """Interpolating spline sending every template landmark to its target position; targets in
    more share the template's checks, kernel and LU factorization (one solve of all columns),
    and their models come as a tuple, each bit for bit its own tps_fit's (contiguous weights)."""
    targets = (target, *more)
    require_homologous(template, *targets)
    p, k = template.coords, len(template)

    d2 = np.square(p[:, :1] - p[:, 0]) + np.square(p[:, 1:] - p[:, 1])
    nearest = d2 + np.diag(np.full(k, np.inf))
    if nearest.min() <= MIN_SEPARATION ** 2 * d2.max():
        a, b = divmod(int(np.argmin(nearest)), k)
        raise NumericalError(
            f"template landmarks {template.labels[a]!r} and {template.labels[b]!r} "
            f"are closer than {MIN_SEPARATION} times the template's diameter")
    sv = np.linalg.svd(centered(p)[0], compute_uv=False)
    if sv[1] <= 1e-12 * sv[0]:
        raise NumericalError(
            f"template {template.name!r} landmarks are collinear; spline system is singular")

    kernel = _kernel(p, p)
    pmat = np.column_stack([np.ones(k), p])
    lmat = np.block([[kernel, pmat], [pmat.T, np.zeros((3, 3))]])
    rhs = np.vstack([np.hstack([t.coords for t in targets]), np.zeros((3, 2 * len(targets)))])
    try:
        solution = np.linalg.solve(lmat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"spline system is singular: {exc}") from exc

    models = []
    for t, columns in zip(targets, np.hsplit(solution, len(targets))):
        weights, affine = np.ascontiguousarray(columns[:k]), np.ascontiguousarray(columns[k:])
        # Each test is relative to the magnitude of the terms it sums. Rounding leaves weights
        # of about eps |target| / diameter^2 even where the exact ones vanish (an affine target),
        # so every |w| is counted at least at |target| / diameter^2, which scales as w does.
        size = np.abs(weights) + np.abs(t.coords).max() / d2.max()
        moments = pmat.T @ weights  # side conditions, one column per coordinate
        if (np.abs(moments) > SIDE_CONDITION_TOL * (np.abs(pmat).T @ size)).any():
            raise NumericalError(
                "spline side conditions violated; system is too ill-conditioned "
                f"(max moment {np.abs(moments).max():.3e})")
        energy = tuple(float(weights[:, c] @ kernel @ weights[:, c]) for c in range(2))
        if (np.array(energy) < -1e-12 * (size * (np.abs(kernel) @ size)).sum(axis=0)).any():
            raise NumericalError(f"bending energy came out negative ({min(energy):.3e}); "
                                 "system is ill-conditioned")
        models.append(TpsModel(p, weights, affine, energy))
    return tuple(models) if more else models[0]


def _eval_blocks(points, width: int, buffers: int, evaluate, outputs: int = 1) -> np.ndarray:
    """Values at (..., 2) points, stacked (outputs, ..., 2): evaluate(block, values, *scratch)
    fills values[i] for each output i, by blocks of EVAL_BLOCK // width rows; every block is
    handed the same (rows, width) float buffers; a short last block uses their first rows."""
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    rows = max(1, EVAL_BLOCK // width)
    out = np.empty((outputs, len(flat), 2))
    scratch = [np.empty((min(rows, len(flat)), width)) for _ in range(buffers)]
    for start in range(0, len(flat), rows):
        evaluate(flat[start:start + rows], out[:, start:start + rows], *scratch)
    return out.reshape(outputs, *pts.shape)


def tps_eval(model: TpsModel, points, *more: TpsModel) -> np.ndarray:
    """Evaluate the spline at one point (2,) or many (..., 2).

    Splines in more, of the same template points, share each kernel block; their values come
    stacked (1 + len(more), ..., 2), each bit for bit its own tps_eval's, as each spline has
    its own product with its weights (BLAS may round a product of stacked weights otherwise)
    and the block partition, which also fixes the bits, depends on the template's size only.
    """
    models, c = (model, *more), model.template_points
    if not all(np.array_equal(m.template_points, c) for m in more):
        raise InputError("splines evaluated together must share their template points")

    def evaluate(xy, values, u, t):
        kernel = _kernel(xy, c, u[:len(xy)], t[:len(xy)])
        for m, v in zip(models, values):
            v[:] = m.affine[0] + xy @ m.affine[1:] + kernel @ m.weights
    values = _eval_blocks(points, len(c), 2, evaluate, len(models))
    return values if more else values[0]


def bending_energy(model: TpsModel) -> float:
    """Total bending energy: the sum of the two per-coordinate quadratic forms."""
    return float(model.energy[0] + model.energy[1])

"""Thin-plate spline interpolation of landmark displacements.

The interpolant uses the biharmonic kernel U(r) = r^2 log r (U(0) = 0).
Fitting solves the dense (k+3) x (k+3) bordered system

    [ K   P ] [ w ]   [ q ]
    [ P^T 0 ] [ a ] = [ 0 ]

once per output coordinate, where K_ij = U(|p_i - p_j|) and the rows of P
are (1, x_i, y_i). The side conditions sum w = sum w x = sum w y = 0 make
the warp term decay far from the landmarks, so the map relaxes to its own
affine part at great distances. The bending energy of each coordinate is
the quadratic form w^T K w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LandmarkConfiguration, freeze_arrays, require_homologous
from .errors import (
    CoincidentLandmarksError,
    CollinearTemplateError,
    SingularSystemError,
)

SIDE_CONDITION_TOL = 1e-9
MIN_SEPARATION = 1e-10
EVAL_BLOCK = 2 ** 16  # kernel entries (points x centres) per tps_eval block: bounds its temporaries


def _kernel_terms(points: np.ndarray, centres: np.ndarray):
    """Per-axis differences dx, dy, squared distances r2 and log r2, each (n, k).

    log r2 is 0 where r2 = 0, so U = 0.5 r2 log r2 = r^2 log r needs no mask.
    """
    dx = points[:, :1] - centres[:, 0]
    dy = points[:, 1:] - centres[:, 1]
    r2 = dx * dx + dy * dy
    return dx, dy, r2, np.log(r2, out=np.zeros_like(r2), where=r2 > 0.0)


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


def tps_fit(template: LandmarkConfiguration, target: LandmarkConfiguration) -> TpsModel:
    """Interpolating spline sending every template landmark to its target position."""
    require_homologous(template, target)
    p = template.coords
    k = len(template)

    _, _, d2, log_d2 = _kernel_terms(p, p)
    d2_off = d2.copy()
    np.fill_diagonal(d2_off, np.inf)
    if d2_off.min() < MIN_SEPARATION ** 2:
        a, b = divmod(int(np.argmin(d2_off)), k)
        raise CoincidentLandmarksError(
            f"template landmarks {template.labels[a]!r} and {template.labels[b]!r} "
            f"are closer than {MIN_SEPARATION}")
    sv = np.linalg.svd(p - p.mean(axis=0), compute_uv=False)
    if sv[1] <= 1e-12 * sv[0]:
        raise CollinearTemplateError(
            f"template {template.name!r} landmarks are collinear; spline system is singular")

    kernel = 0.5 * d2 * log_d2
    pmat = np.column_stack([np.ones(k), p])
    lmat = np.zeros((k + 3, k + 3))
    lmat[:k, :k] = kernel
    lmat[:k, k:] = pmat
    lmat[k:, :k] = pmat.T
    rhs = np.zeros((k + 3, 2))
    rhs[:k] = target.coords
    try:
        solution = np.linalg.solve(lmat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"spline system is singular: {exc}") from exc

    weights = solution[:k]
    affine = solution[k:]
    moments = pmat.T @ weights  # side conditions, one column per coordinate
    scale = max(1.0, float(np.abs(target.coords).max()))
    if np.abs(moments).max() > SIDE_CONDITION_TOL * scale:
        raise SingularSystemError(
            "spline side conditions violated; system is too ill-conditioned "
            f"(max moment {np.abs(moments).max():.3e})")
    energy = tuple(float(weights[:, c] @ kernel @ weights[:, c]) for c in range(2))
    if min(energy) < -1e-12:
        raise SingularSystemError(
            f"bending energy came out negative ({min(energy):.3e}); system is ill-conditioned")
    return TpsModel(p, weights, affine, energy)


def tps_eval(model: TpsModel, points) -> np.ndarray:
    """Evaluate the spline at one point (2,) or many (..., 2)."""
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    rows = max(1, EVAL_BLOCK // len(model.template_points))
    out = np.empty_like(flat)
    for start in range(0, len(flat), rows):
        block = flat[start:start + rows]
        _, _, r2, log_r2 = _kernel_terms(block, model.template_points)
        out[start:start + rows] = (model.affine[0] + block @ model.affine[1:]
                                   + (0.5 * r2 * log_r2) @ model.weights)
    return out.reshape(pts.shape)


def tps_jacobian(model: TpsModel, point) -> np.ndarray:
    """Analytic 2x2 Jacobian at a point; entry [r, c] is d f_r / d p_c.

    Uses dU/dx = x (2 log r + 1) with the limit 0 at r = 0.
    """
    p = np.asarray(point, dtype=float).reshape(1, 2)
    dx, dy, r2, log_r2 = _kernel_terms(p, model.template_points)
    factor = log_r2[0] + (r2[0] > 0.0)  # 2 log r + 1, or 0 at r = 0
    grad_u = np.column_stack([dx[0], dy[0]]) * factor[:, None]  # (k, 2): d U / d p
    return model.affine[1:].T + model.weights.T @ grad_u


def bending_energy(model: TpsModel) -> float:
    """Total bending energy: the sum of the two per-coordinate quadratic forms."""
    return float(model.energy[0] + model.energy[1])

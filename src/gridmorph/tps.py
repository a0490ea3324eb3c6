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
On a GridSpec's lattice, each r^2 = dx^2 + dy^2 adds two per-axis tables made once: same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LandmarkConfiguration, collinear, freeze_arrays, require_homologous
from .errors import InputError, NumericalError
from .gridlab import GridSpec

SIDE_CONDITION_TOL = 1e-9  # largest side-condition moment, relative to its terms' magnitude
MIN_SEPARATION = 1e-10  # nearest landmark pair, relative to the template's diameter
MAX_SQUARED_DIAMETER = 5e305  # from about 5.1e305 on, the kernel r2 log r2 / 2 overflows
EVAL_BLOCK = 2 ** 16  # entries per block: tps_eval's kernel (2 buffers, 1 MB), trend_eval's design


def _kernel(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """U = 0.5 r2 log r2 = r^2 log r in place of the squared distances r2 in u, (n, k), with t a
    buffer of u's shape. The log is taken of r2 raised to the least subnormal, which leaves
    r2 > 0 as it is and gives U(0) = -0.0, made +0.0 by the last + 0.0."""
    np.log(np.maximum(u, np.nextafter(0.0, 1.0), out=t), out=t)
    u *= 0.5
    u *= t
    u += 0.0
    return u


def _lattice_r2(spec: GridSpec, centres: np.ndarray):
    """Tables of each family's lines (lines, k) and samples (samples, k) whose spec.fill gives the
    r2 of spec.preimage's rows; None if they would pass 8 MB."""
    if sum(map(sum, spec.line_shapes)) * len(centres) <= 16 * EVAL_BLOCK:
        return [(np.square(lines[:, None] - centres[:, axis]),
                 np.square(samples[:, None] - centres[:, 1 - axis]))
                for axis, (lines, samples) in enumerate(spec.axes)]


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

    with np.errstate(over="ignore"):  # a span past the float range is refused just below
        d2 = np.square(p[:, :1] - p[:, 0]) + np.square(p[:, 1:] - p[:, 1])
    if not d2.max() < MAX_SQUARED_DIAMETER:
        raise NumericalError(f"template {template.name!r} is too wide for a spline: its squared "
                             f"diameter {d2.max():.3e} is past {MAX_SQUARED_DIAMETER:.0e}")
    nearest = d2 + np.diag(np.full(k, np.inf))
    if nearest.min() <= MIN_SEPARATION ** 2 * d2.max():
        a, b = divmod(int(np.argmin(nearest)), k)
        raise NumericalError(
            f"template landmarks {template.labels[a]!r} and {template.labels[b]!r} "
            f"are closer than {MIN_SEPARATION} times the template's diameter")
    if collinear(p):
        raise NumericalError(
            f"template {template.name!r} landmarks are collinear; spline system is singular")

    kernel = _kernel(d2.copy(), np.empty_like(d2))
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
    """Values at (..., 2) points or a GridSpec's lattice (n, 2), stacked (outputs, ..., 2):
    evaluate(start, block, values, *scratch) fills values[i] for each output i at the EVAL_BLOCK
    // width rows from start on; every block gets the same (rows, width) float buffers, a short
    last block their first rows. A lattice's rows are copied in whole blocks, 512 KB at most."""
    lattice = isinstance(points, GridSpec)
    pts = None if lattice else np.asarray(points, dtype=float)
    n, rows = points.size if lattice else pts.size // 2, max(1, EVAL_BLOCK // width)
    out = np.empty((outputs, n, 2))
    scratch = [np.empty((min(rows, n), width)) for _ in range(buffers)]
    span = rows * max(1, EVAL_BLOCK // 2 // rows) if lattice else n
    xy = np.empty((min(span, n), 2)) if lattice else pts.reshape(-1, 2)
    for start in range(0, n, rows):
        if lattice and start % span == 0:
            xy = points.fill(start, xy[:n - start])  # the last copy holds only the rows left
        evaluate(start, xy[start % span:][:rows], out[:, start:start + rows], *scratch)
    return out if lattice else out.reshape(outputs, *pts.shape)


def tps_eval(model: TpsModel, points, *more: TpsModel) -> np.ndarray:
    """Evaluate the spline at one point (2,), many (..., 2), or a GridSpec's lattice (n, 2).

    Splines in more, of the same template points, share each kernel block; their values come
    stacked (1 + len(more), ..., 2), each bit for bit its own tps_eval's, as each spline has
    its own product with its weights (BLAS may round a product of stacked weights otherwise)
    and the block partition, which also fixes the bits, depends on the template's size only.
    """
    models, c = (model, *more), model.template_points
    if not all(np.array_equal(m.template_points, c) for m in more):
        raise InputError("splines evaluated together must share their template points")
    tables = _lattice_r2(points, c) if isinstance(points, GridSpec) else None
    def evaluate(start, xy, values, u, t):
        u, t = u[:len(xy)], t[:len(xy)]
        if tables:
            points.fill(start, u, tables)
        else:
            u[:], t[:] = xy[:, :1], xy[:, 1:]  # broadcast copies, then contiguous subtracts
            u -= c[:, 0]
            t -= c[:, 1]
            np.square(u, out=u)
            u += np.square(t, out=t)  # r2 = dx * dx + dy * dy
        kernel = _kernel(u, t)
        for m, v in zip(models, values):
            v[:] = m.affine[0] + xy @ m.affine[1:] + kernel @ m.weights
    values = _eval_blocks(points, len(c), 2, evaluate, len(models))
    return values if more else values[0]


"""Quadrilateral-based maps: bilinear (isoparametric) interpolation,
plane projections (homographies), and the canonical square prototypes.

A bilinear map is defined by two quads. A point is located in the source
quad by inverting

    p = (1-u)(1-v) A + u (1-v) B + u v C + (1-u) v D,   (u, v) in [0, 1]^2,

which is quadratic in one unknown, and the same (u, v) is evaluated on the
destination corners. Straightness is preserved only along the two families
of parameter lines, so generic straight lines bend (a diagonal of a square
maps to a parabola under the kite map). A homography, by contrast, takes
every straight line to a straight line but does not preserve the parameter
lattice; both are useful foils for spline and trend grids.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import PROTOTYPE_KINDS, LandmarkConfiguration, default_labels, frame
from .errors import InputError, NumericalError

PROTOTYPE_PARAMETER = 0.25

_UV_TOL = 1e-9


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True, eq=False)
class Quad:
    """Four corners in cyclic order forming a simple quadrilateral."""

    corners: np.ndarray  # (4, 2)
    diameter: float = field(init=False)  # the largest distance between two corners

    def __post_init__(self):
        corners = np.array(self.corners, dtype=float)  # a copy: the caller's stays writeable
        if corners.shape != (4, 2):
            raise InputError(f"quad needs (4, 2) corners, got shape {corners.shape}")
        if not np.all(np.isfinite(corners)):
            raise InputError("quad corners must be finite")
        dist = np.hypot(*np.moveaxis(corners[:, None] - corners, -1, 0))
        diameter = float(dist.max())  # hypot: no square over- or underflows
        for i, j in zip(*np.triu_indices(4, 1)):
            if dist[i, j] <= 1e-12 * diameter:  # of the diameter, whatever the offset
                raise NumericalError(f"quad corners {i} and {j} coincide")
        unit = frame(corners, None)[0]  # exactly scaled: no cross product over- or underflows
        if _segments_cross(*unit) or _segments_cross(*np.roll(unit, -1, axis=0)):
            raise NumericalError("quad edges cross; corners are not in cyclic order")
        corners.flags.writeable = False
        object.__setattr__(self, "corners", corners)
        object.__setattr__(self, "diameter", diameter)

    @property
    def is_convex(self) -> bool:
        e = frame(np.roll(self.corners, -1, axis=0) - self.corners, None)[0]  # exactly scaled
        turns = _cross(e, np.roll(e, -1, axis=0))
        return bool(np.all(turns > 0) or np.all(turns < 0))


def _segments_cross(a, b, c, d) -> bool:
    """True when open segments ab and cd properly intersect (signs compared, never multiplied)."""
    o1, o2 = _cross(b - a, c - a), _cross(b - a, d - a)
    o3, o4 = _cross(d - c, a - c), _cross(d - c, b - c)
    return np.sign(o1) * np.sign(o2) < 0 and np.sign(o3) * np.sign(o4) < 0


def invert_bilinear(src: Quad, points) -> tuple[np.ndarray, np.ndarray]:
    """Isoparametric coordinates of points in the source quad.

    Returns (uv, ambiguous): uv is (..., 2) with NaN rows where the point
    admits no (u, v) in [0, 1]^2; ambiguous flags points where both roots
    of the quadratic were admissible (the smaller u is kept).
    """
    if not src.is_convex:
        raise NumericalError("bilinear source quad must be convex")
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    # lengths in units of a power of two >= the diameter: exact, so u and v keep their bits, and
    # no square over- or underflows
    unit = np.ldexp(1.0, -np.frexp(src.diameter)[1])
    a_c, b_c, c_c, d_c = src.corners
    e = (b_c - a_c) * unit
    f = (d_c - a_c) * unit
    g = ((a_c - b_c) + (c_c - d_c)) * unit
    h = (flat - a_c) * unit

    qa = float(_cross(e, g))
    qb = float(_cross(e, f)) - _cross(h, g)
    qc = -_cross(h, f)

    scale2 = (src.diameter * unit) ** 2
    n = flat.shape[0]
    cand = np.full((n, 2), np.nan)  # up to two u roots per point
    if abs(qa) <= 1e-14 * scale2:
        # parallelogram source: the equation is linear in u
        with np.errstate(divide="ignore", invalid="ignore"):
            cand[:, 0] = np.where(np.abs(qb) > 1e-14 * scale2, -qc / qb, np.nan)
    else:
        disc = qb * qb - 4.0 * qa * qc
        ok = disc >= 0.0
        root = np.sqrt(np.where(ok, disc, np.nan))
        # numerically stable quadratic roots
        q = -0.5 * (qb + np.where(qb >= 0.0, root, -root))
        with np.errstate(divide="ignore", invalid="ignore"):
            cand[ok, 0] = (q / qa)[ok]
            cand[ok, 1] = np.where(np.abs(q) > 0, qc / q, -qb / (2.0 * qa))[ok]

    def locate(u):
        w = f[None, :] + u[:, None] * g[None, :]
        denom = (w * w).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = ((h - u[:, None] * e[None, :]) * w).sum(axis=1) / denom
        valid = (
            np.isfinite(u) & np.isfinite(v)
            & (u >= -_UV_TOL) & (u <= 1.0 + _UV_TOL)
            & (v >= -_UV_TOL) & (v <= 1.0 + _UV_TOL)
            & (denom > 1e-14 * scale2)
        )
        return v, valid

    u1, u2 = cand[:, 0], cand[:, 1]
    v1, ok1 = locate(u1)
    v2, ok2 = locate(u2)
    ambiguous = ok1 & ok2 & (np.abs(u1 - u2) > 1e-9)
    use2 = (ok2 & ~ok1) | (ok1 & ok2 & (u2 < u1))
    u = np.where(use2, u2, u1)
    v = np.where(use2, v2, v1)
    any_ok = ok1 | ok2
    uv = np.full((n, 2), np.nan)
    uv[any_ok, 0] = np.clip(u[any_ok], 0.0, 1.0)
    uv[any_ok, 1] = np.clip(v[any_ok], 0.0, 1.0)
    return uv.reshape(pts.shape), ambiguous.reshape(pts.shape[:-1])


def _bilinear_combine(dst: Quad, uv: np.ndarray) -> np.ndarray:
    u = uv[..., 0][..., None]
    v = uv[..., 1][..., None]
    a_c, b_c, c_c, d_c = dst.corners
    return (1 - u) * (1 - v) * a_c + u * (1 - v) * b_c + u * v * c_c + (1 - u) * v * d_c


@dataclass(frozen=True, eq=False)
class BilinearMap:
    """Bilinear map between two quads, usable as a point map over many points."""

    src: Quad
    dst: Quad

    def __post_init__(self):
        if not self.src.is_convex:
            raise NumericalError("bilinear source quad must be convex")

    def __call__(self, points) -> np.ndarray:
        return self.map_points(points)

    def map_points(self, points) -> np.ndarray:
        """Vectorized evaluation; rows outside the source quad come back NaN."""
        uv, ambiguous = invert_bilinear(self.src, points)
        if np.any(ambiguous):
            warnings.warn("bilinear inversion found two admissible roots; keeping smaller u",
                          RuntimeWarning, stacklevel=2)
        return _bilinear_combine(self.dst, uv)


@dataclass(frozen=True, eq=False)
class Homography:
    """Projective map of the plane, stored as a 3x3 matrix.

    The matrix is normalized so the bottom-right entry is 1 whenever it is
    not vanishingly small.
    """

    matrix: np.ndarray  # (3, 3)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)  # a copy: the caller's array stays writeable
        if m.shape != (3, 3):
            raise InputError(f"homography needs a (3, 3) matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("homography entries must be finite")
        # relative to the product of the column norms (Hadamard's bound), so units do not matter
        if abs(np.linalg.det(m)) <= 1e-12 * np.prod(np.linalg.norm(m, axis=0)):
            raise NumericalError("homography matrix is singular (|det| <= 1e-12 x Hadamard bound)")
        if abs(m[2, 2]) > 1e-12:
            m = m / m[2, 2]
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __call__(self, points) -> np.ndarray:
        return self.map_points(points)

    def map_points(self, points) -> np.ndarray:
        """Vectorized evaluation; rows on the vanishing line come back NaN."""
        shape = np.shape(points)
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        m = self.matrix
        w = pts @ m[2, :2] + m[2, 2]
        num = pts @ m[:2, :2].T + m[:2, 2]
        out = np.full_like(num, np.nan)
        # |w| against the size of its terms, so the test holds in any unit of the data
        ok = np.abs(w) > 1e-12 * (np.abs(pts) @ np.abs(m[2, :2]) + abs(m[2, 2]))
        out[ok] = num[ok] / w[ok, None]
        return out.reshape(shape)


def homography_from_quads(src: Quad, dst: Quad) -> Homography:
    """The unique projective map sending source corners to destination corners.

    Assembled as the standard 8x8 linear system on homogeneous coordinates
    with the bottom-right matrix entry pinned to 1.
    """
    for name, quad in (("source", src), ("destination", dst)):
        c = quad.corners
        scale2 = quad.diameter ** 2
        for drop in range(4):
            tri = np.delete(c, drop, axis=0)
            area2 = _cross(tri[1] - tri[0], tri[2] - tri[0])
            if abs(area2) <= 1e-12 * scale2:
                raise NumericalError(
                    f"{name} quad has three collinear corners (omit corner {drop})")
    a = np.zeros((8, 8))
    for i, ((x, y), (xp, yp)) in enumerate(zip(src.corners, dst.corners)):
        a[2 * i] = [x, y, 1, 0, 0, 0, -xp * x, -xp * y]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -yp * x, -yp * y]
    try:
        h = np.linalg.solve(a, dst.corners.ravel())  # right-hand side x'0, y'0, x'1, ...
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"homography system is singular: {exc}") from exc
    return Homography(np.append(h, 1.0).reshape(3, 3))


_SQUARE_AXIS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
_R2 = float(np.sqrt(2.0))
_SQUARE_DIAMOND = np.array([[0.0, _R2], [-_R2, 0.0], [0.0, -_R2], [_R2, 0.0]])


def prototype_pair(kind: str) -> tuple[LandmarkConfiguration, LandmarkConfiguration]:
    """Canonical square and its transformed partner for the four grid prototypes.

    The square is axis-aligned for the parallelogram and trapezoid kinds and
    rotated 45 degrees for the other two; the shear/taper/slide parameter is
    fixed at 0.25 so the figures are reproducible.
    """
    s = PROTOTYPE_PARAMETER
    if kind in ("parallelogram", "rotated_parallelogram"):
        square = _SQUARE_AXIS if kind == "parallelogram" else _SQUARE_DIAMOND
        moved = np.column_stack([square[:, 0] + s * square[:, 1], square[:, 1]])
    elif kind == "trapezoid":
        square = _SQUARE_AXIS
        c = float(np.sqrt(1.0 - s * s))
        moved = np.array([[1.0 + s, c], [-1.0 - s, c], [-1.0 + s, -c], [1.0 - s, -c]])
    elif kind == "kite":
        square = _SQUARE_DIAMOND
        moved = square + np.array([[0.0, s], [0.0, 0.0], [0.0, s], [0.0, 0.0]])
    else:
        raise InputError(f"unknown prototype kind {kind!r}; expected one of {PROTOTYPE_KINDS}")
    template = LandmarkConfiguration("square", default_labels(4), square)
    target = LandmarkConfiguration(kind, default_labels(4), moved)
    return template, target

"""Registrations: two-point (baseline) coordinates, Procrustes superimposition,
and removal of the affine part of a shape comparison.

All registrations here are orientation preserving. No operation ever
applies a reflection; the Procrustes rotation is the closed-form 2D
optimum with determinant +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (UNIT_PROCRUSTES, UNIT_TWO_POINT, LandmarkConfiguration, Sample, centered,
                   collinear, frame, require_homologous)
from .errors import InputError, NumericalError

GPA_TOL = 1e-10
GPA_MAX_ITER = 100


class Baseline(NamedTuple):
    """Ordered pair of landmark ordinals anchoring a two-point registration.

    start is sent to (0, 0), end to (1, 0).
    """

    start: int
    end: int


@dataclass(frozen=True)
class AffineMap2:
    """Affine map of the plane: p -> linear @ p + translation."""

    linear: np.ndarray       # (2, 2)
    translation: np.ndarray  # (2,)

    def __post_init__(self):
        for attr, shape in (("linear", (2, 2)), ("translation", (2,))):
            arr = np.asarray(getattr(self, attr), dtype=float).reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise InputError("affine map entries must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.translation


def _check_baseline(k: int, baseline: Baseline) -> Baseline:
    start, end = int(baseline[0]), int(baseline[1])
    if not (0 <= start < k and 0 <= end < k):
        raise InputError(f"baseline ({start + 1}, {end + 1}) out of range for {k} landmarks "
                         "(counted from 1)")
    if start == end:
        raise InputError("baseline endpoints must be two distinct landmarks")
    return Baseline(start, end)


def two_point_register_sample(sample: Sample, baseline: Baseline) -> Sample:
    """Register every configuration to baseline coordinates in one array operation.

    Each gets the orientation-preserving similarity sending its baseline to
    (0,0)-(1,0): no reflection, and the endpoints land exactly on their
    anchors. Group tags carry over. An error names the first configuration
    whose landmarks, or baseline landmarks, (nearly) coincide.
    """
    baseline = _check_baseline(sample.landmark_count, baseline)
    p = frame(sample.coords, (1, 2))[0]
    a = p[:, baseline.start]
    d = p[:, baseline.end] - a
    size = centered(p)[1]
    bad = (size <= 0.0) | (np.hypot(d[:, 0], d[:, 1]) <= 1e-12 * size)
    if bad.any():
        first = int(np.argmax(bad))
        name = sample.names[first]
        if size[first] <= 0.0:
            raise NumericalError(f"configuration {name!r}: all landmarks coincide")
        start, end = (sample.labels[i] for i in baseline)
        raise NumericalError(f"configuration {name!r}: baseline landmarks {start!r} and {end!r} "
                             "nearly coincide")
    rel = frame(p - a[:, None], (1, 2))[0]
    dx, dy = rel[:, baseline.end, 0, None], rel[:, baseline.end, 1, None]
    nsq = dx * dx + dy * dy
    # Similarity as division by the baseline vector in complex form.
    out = np.stack([(rel[..., 0] * dx + rel[..., 1] * dy) / nsq,
                    (rel[..., 1] * dx - rel[..., 0] * dy) / nsq], axis=-1)
    # the arithmetic already lands the anchors on (0,0) and (1,0), but can
    # leave a -0.0 behind; pin them so the contract holds bit for bit
    out[:, baseline.start] = (0.0, 0.0)
    out[:, baseline.end] = (1.0, 0.0)
    return Sample(sample.names, sample.labels, out, UNIT_TWO_POINT, sample.groups)


def two_point_register(config: LandmarkConfiguration, baseline: Baseline) -> LandmarkConfiguration:
    """Register one configuration to baseline coordinates (see two_point_register_sample)."""
    sample = Sample((config.name,), config.labels, config.coords[None], config.unit)
    return two_point_register_sample(sample, baseline).configurations[0]


def _normalized(coords: np.ndarray) -> np.ndarray:
    """Center each (k, 2) configuration of (..., k, 2), scaled to unit centroid size."""
    dev, size, _ = centered(coords)
    if np.any(size <= 0.0):
        raise NumericalError("all landmarks coincide; centroid size is zero")
    return dev / size[..., None, None]


def _rotation_angles(shapes: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Closed-form angle rotating each (k, 2) shape of (n, k, 2) onto the (k, 2) reference.

    All inputs must already be centered. The optimum of
    sum ||R(theta) p_i - q_i||^2 is atan2(sum(x_i y'_i - y_i x'_i),
    sum(x_i x'_i + y_i y'_i)) with primes on the reference.
    """
    x, y = shapes[..., 0], shapes[..., 1]
    a = (x * reference[:, 0] + y * reference[:, 1]).sum(axis=-1)
    b = (x * reference[:, 1] - y * reference[:, 0]).sum(axis=-1)
    return np.arctan2(b, a)


def _rotated_onto(shapes: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate every centered shape of an (n, k, 2) stack onto the centered reference
    by its optimal pure rotation (determinant +1, never a reflection)."""
    theta = _rotation_angles(shapes, reference)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    return shapes @ rot.transpose(0, 2, 1)


def _centered_reference(coords: np.ndarray, name: str) -> np.ndarray:
    q, size, _ = centered(coords)
    if size <= 0.0:
        raise NumericalError(f"reference {name!r} is degenerate (all landmarks coincide)")
    return q


def procrustes_align(config: LandmarkConfiguration,
                     reference: LandmarkConfiguration) -> LandmarkConfiguration:
    """Center, scale to unit centroid size, and rotate onto the reference.

    The applied rotation is a pure rotation (determinant +1); reflections
    are never used. The reference is consulted only for the angle.
    """
    require_homologous(config, reference)
    q = _centered_reference(reference.coords, reference.name)
    aligned = _rotated_onto(_normalized(config.coords[None]), q)[0]
    return config.with_coords(aligned, unit=UNIT_PROCRUSTES)


def gpa_mean(sample: Sample, name: str = "mean") -> LandmarkConfiguration:
    """Generalized Procrustes mean of all configurations in the sample.

    The reference starts as the first configuration centered and scaled to
    unit centroid size. Each pass rotates every configuration (centered and
    scaled once, up front) onto the re-centered reference by its
    closed-form optimal pure rotation, never a reflection; averages
    coordinates; and re-centers/re-scales the average. Iteration stops when
    the mean moves less than 1e-10 RMS. A pass is a few operations on one
    (n, k, 2) array.
    """
    shapes = _normalized(sample.coords)
    ref = shapes[0]
    for iteration in range(1, GPA_MAX_ITER + 1):
        avg = _normalized(_rotated_onto(shapes, _centered_reference(ref, name)).mean(axis=0))
        rms = float(np.sqrt(((avg - ref) ** 2).mean()))
        ref = avg
        if rms < GPA_TOL:
            return LandmarkConfiguration(name, sample.labels, ref, UNIT_PROCRUSTES)
    raise NumericalError(
        f"generalized Procrustes averaging did not converge in {GPA_MAX_ITER} iterations "
        f"(last RMS movement {rms:.3e})")


def affine_fit(template: LandmarkConfiguration,
               target: LandmarkConfiguration) -> AffineMap2:
    """Least-squares affine map taking template landmarks onto target landmarks.

    Each target coordinate is regressed on (1, x, y) of the template, solved
    by orthogonal decomposition. Where that raw design's rank falls short of
    3, a collinear template (core.collinear) is rejected; any other shortfall
    comes from the template's unit or offset, so the regression is taken on
    its centred deviations, each side scaled exactly by a power of two, and
    mapped back.
    """
    require_homologous(template, target)
    p = template.coords
    design = np.column_stack([np.ones(len(template)), p])
    coef, _, rank, _ = np.linalg.lstsq(design, target.coords, rcond=None)
    if rank < 3:
        if collinear(p):
            raise NumericalError(
                f"template {template.name!r} landmarks are collinear; affine fit is rank-deficient")
        q, e = frame(p, None)
        mean = q.mean(axis=0)
        dev, g = frame(q - mean, None)
        t, f = frame(target.coords, 0)
        coef = np.linalg.lstsq(np.column_stack([np.ones(len(p)), dev]), t, rcond=None)[0]
        # t = c + (p 2^-e - mean) 2^-g B: the raw map is 2^(f-e-g) B, offset 2^f (c - mean 2^-g B)
        with np.errstate(over="ignore"):
            coef[0] = np.ldexp(coef[0] - np.ldexp(mean @ coef[1:3], -g[0]), f[0])
            coef[1:3] = np.ldexp(coef[1:3], f - e - g)
        if not np.isfinite(coef).all():
            raise NumericalError(f"affine map from {template.name!r} to {target.name!r} "
                                 "is past the largest float")
    return AffineMap2(coef[1:3].T, coef[0])


def remove_affine(template: LandmarkConfiguration,
                  target: LandmarkConfiguration) -> LandmarkConfiguration:
    """Strip the affine part of the template->target comparison.

    Returns the target with each landmark replaced by
    template_i + (target_i - A(template_i)) where A is the least-squares
    affine fit. Refitting an affine map from the template to the result
    gives the identity, so only the nonaffine part of the comparison
    survives. Both inputs should already share a registration.
    """
    amap = affine_fit(template, target)
    adjusted = template.coords + (target.coords - amap(template.coords))
    return target.with_coords(adjusted)

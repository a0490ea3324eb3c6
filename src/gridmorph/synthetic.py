"""Synthetic datasets with planted, exactly known structure.

The flagship sample mimics an eight-landmark midsagittal cranial outline at
two ages. The young template is an irregular octagon expressed directly in
the baseline frame of landmarks 3 and 8 (1-based), so two-point registration
of either configuration is the bitwise identity. The old configuration is a
planted quadratic gradient of the template (coefficients chosen as exact
binary fractions, intercept zero, baseline endpoints fixed) plus one tiny
displacement at a single landmark. A degree-2 trend fit must therefore
recover the planted coefficients and flag the perturbed landmark as the
largest residual.
"""

from __future__ import annotations

import numpy as np

from .core import LandmarkConfiguration, Sample
from .registration import Baseline, two_point_register
from .trend import design_matrix

VILMANN_LABELS = ("Bas", "Opi", "IPS", "Lam", "Brg", "SES", "ISS", "SOS")

#: Baseline used throughout: IPS to SOS (0-based indices into VILMANN_LABELS).
VILMANN_BASELINE = Baseline(2, 7)

#: Degree-2 coefficients of the planted map in the basis 1, x, y, x^2, y^2, xy.
#: All entries are exact binary fractions so that the map fixes (0,0) and
#: (1,0) without rounding: the x^2 and x entries cancel exactly at x=1.
PLANTED_COEFFICIENTS = np.array([
    [0.0,      0.0],
    [0.875,   -0.078125],
    [0.09375,  1.1875],
    [0.125,    0.078125],
    [-0.0625,  0.109375],
    [0.15625, -0.046875],
])
PLANTED_COEFFICIENTS.setflags(write=False)

#: The landmark that receives an extra displacement (0-based: Opi), and the
#: displacement itself. Must not be a baseline landmark, or registration
#: would no longer be the identity.
PERTURBED_LANDMARK = 1
PERTURBATION = np.array([8e-8, -6e-8])
PERTURBATION.setflags(write=False)

_OCTAGON_ANGLES_DEG = (200.0, 245.0, 290.0, 335.0, 20.0, 65.0, 110.0, 155.0)
_OCTAGON_RADII = (1.0, 0.95, 1.05, 1.0, 1.1, 0.9, 1.0, 0.95)


def vilmann_template() -> LandmarkConfiguration:
    """The young-age octagon, already in its own two-point frame.

    Radii are deliberately unequal: eight points on a common circle satisfy
    a conic relation that makes the quadratic monomial basis rank deficient.
    """
    ang = np.deg2rad(np.asarray(_OCTAGON_ANGLES_DEG))
    radii = np.asarray(_OCTAGON_RADII)
    raw = LandmarkConfiguration("octagon_raw", VILMANN_LABELS,
                                np.column_stack([radii * np.cos(ang), radii * np.sin(ang)]))
    registered = two_point_register(raw, VILMANN_BASELINE)
    return LandmarkConfiguration("age7_mean", VILMANN_LABELS, registered.coords)


def vilmann_target() -> LandmarkConfiguration:
    """The old-age configuration: planted gradient plus one perturbation."""
    template = vilmann_template()
    coords = design_matrix(template.coords, 2) @ PLANTED_COEFFICIENTS
    coords[PERTURBED_LANDMARK] += PERTURBATION
    return LandmarkConfiguration("age150_mean", VILMANN_LABELS, coords)


def synthetic_vilmann() -> Sample:
    """Two-configuration sample (groups age7 and age150) with known answer."""
    template = vilmann_template()
    target = vilmann_target()
    return Sample((template.name, target.name), VILMANN_LABELS, [template.coords, target.coords],
                  groups={template.name: "age7", target.name: "age150"})

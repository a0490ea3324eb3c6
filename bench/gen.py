"""Seeded input files for the gridmorph benchmark.

Everything here is a pure function of the seed: the same seed writes the
same bytes. gridmorph never runs in this module; it only sees the files
written here.

Outlines put their landmarks in angular order around a centre, so the
landmark cycle is a simple (star-shaped) polygon by construction. They are
expressed in the two-point frame of landmarks 1 and k/2+1, and their y
extent is a fixed share of their x extent, so the grid built over them has
the same number of cells for every seed. A fit target is a planted
quadratic of its template plus one small perturbation at one landmark, as
in ``gridmorph.synthetic``: the degree-2 trend must give back the planted
coefficients to within the perturbation's reach.
"""

from __future__ import annotations

import json

import numpy as np

#: y extent of every outline as a share of its x extent.
ASPECT = 1.0
#: Size of the single landmark perturbation added to a fit target.
PERTURBATION = 1e-4


def labels(k: int) -> list[str]:
    return [f"L{i}" for i in range(1, k + 1)]


def outline(rng: np.random.Generator, k: int) -> np.ndarray:
    """k landmarks in angular order, in the frame of the baseline 1, k/2+1."""
    angles = 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    z = rng.uniform(0.8, 1.2, k) * np.exp(1j * angles)
    w = (z - z[0]) / (z[k // 2] - z[0])
    x, y = w.real, w.imag
    pts = np.column_stack([x, y * (ASPECT * np.ptp(x) / np.ptp(y))])
    pts[0] = (0.0, 0.0)
    pts[k // 2] = (1.0, 0.0)
    return pts


def design(pts: np.ndarray) -> np.ndarray:
    """Degree-2 monomials in gridmorph's basis order: 1, x, y, x^2, y^2, xy."""
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.ones_like(x), x, y, x * x, y * y, x * y])


def planted_coefficients(rng: np.random.Generator) -> np.ndarray:
    """A (6, 2) quadratic near the identity that fixes (0,0) and (1,0).

    Entries are multiples of 1/1024, so 1 - c and c + (1 - c) are exact and
    the baseline endpoints map onto themselves without rounding.
    """
    x2, y, y2, xy = rng.integers(-96, 97, size=(4, 2)) / 1024.0
    return np.array([
        [0.0, 0.0],
        [1.0 - x2[0], -x2[1]],
        [y[0], 1.0 + y[1]],
        [x2[0], x2[1]],
        [y2[0], y2[1]],
        [xy[0], xy[1]],
    ])


def fit_pair(rng: np.random.Generator, k: int) -> dict:
    """Template outline, planted target and the tolerance of coefficient recovery."""
    template = outline(rng, k)
    coefficients = planted_coefficients(rng)
    target = design(template) @ coefficients
    landmark = int(rng.integers(1, k // 2))
    delta = PERTURBATION * rng.uniform(0.5, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
    target[landmark] += delta
    # |coefficient error| <= |delta| / sigma_min(design); the extra 1e-9
    # covers rounding in the least-squares solve.
    sigma_min = np.linalg.svd(design(template), compute_uv=False)[-1]
    tolerance = 1.01 * float(np.abs(delta).max()) / float(sigma_min) + 1e-9
    return {"template": template, "target": target, "coefficients": coefficients,
            "tolerance": tolerance}


def dataset_json(k: int, configs: list[tuple[str, str, np.ndarray]]) -> str:
    """Canonical dataset JSON (schema 1) holding the given (id, group, coords)."""
    doc = {
        "schema": 1,
        "landmarks": labels(k),
        "configurations": [{"id": name, "group": group, "coords": coords.tolist()}
                           for name, group, coords in configs],
        "provenance": {"sources": []},
    }
    return json.dumps(doc, indent=1) + "\n"


def two_group_outline(seed: int, k: int, per_group: int, noise: float) -> tuple[str, dict]:
    """Dataset with a template group and a planted target group.

    With per_group == 1 the group means are the planted pair exactly; with
    more, each specimen adds independent noise of the given size.
    """
    rng = np.random.default_rng(seed)
    pair = fit_pair(rng, k)
    configs = []
    for group, base in (("template", pair["template"]), ("target", pair["target"])):
        for index in range(per_group):
            coords = base if per_group == 1 else base + rng.normal(0.0, noise, base.shape)
            configs.append((f"{group}_{index + 1:02d}", group, coords))
    return dataset_json(k, configs), pair


def large_sample(seed: int, n: int, k: int) -> tuple[str, str]:
    """n specimens of k landmarks in two groups, as TPS text and wide CSV text.

    Each specimen is its group's shape plus noise, under a random similarity
    into pixel-like coordinates. Both files carry the same ids and the same
    coordinate strings.
    """
    rng = np.random.default_rng(seed)
    young = outline(rng, k)
    old = design(young) @ planted_coefficients(rng)
    tps_lines: list[str] = []
    csv_lines = ["id,group," + ",".join(f"x{i},y{i}" for i in range(1, k + 1))]
    for index in range(n):
        group, base = ("young", young) if index % 2 == 0 else ("old", old)
        shape = base + rng.normal(0.0, 0.02, base.shape)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        scale = rng.uniform(200.0, 400.0)
        rot = scale * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        coords = shape @ rot.T + rng.uniform(500.0, 1500.0, 2)
        cells = [f"{x:.4f}" for x in coords.ravel()]
        name = f"spec_{index + 1:05d}"
        tps_lines.append(f"LM={k}")
        tps_lines.extend(f"{cells[2 * i]} {cells[2 * i + 1]}" for i in range(k))
        tps_lines.append(f"IMAGE={name}.jpg")
        tps_lines.append(f"ID={name}")
        csv_lines.append(f"{name},{group}," + ",".join(cells))
    return "\n".join(tps_lines) + "\n", "\n".join(csv_lines) + "\n"

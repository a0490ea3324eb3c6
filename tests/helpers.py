"""Shared test helpers: a Sample stacked from LandmarkConfiguration objects, the sample of the
large-sample benchmark's size, the tracemalloc peak of one call and the wide CSV texts that
tests/smoke.py shares with the tests."""

import tracemalloc

import numpy as np

from gridmorph.core import Sample, _require_unique_names, default_labels, require_homologous
from gridmorph.errors import InputError


def sample_of(configs, groups=None) -> Sample:
    """The sample of these configurations, with their names and their one shared unit tag.

    Errors come in the order the parsers report them: duplicate names, then
    the first configuration that is not homologous to the first, then the
    stack's own checks (an empty list raises there).
    """
    configs = tuple(configs)
    _require_unique_names(tuple(c.name for c in configs))
    require_homologous(*configs)
    units = {c.unit for c in configs} or {"raw"}
    if len(units) > 1:
        raise InputError(f"configurations of one sample share one unit tag, got {sorted(units)}")
    return Sample([c.name for c in configs], configs[0].labels if configs else (),
                  [c.coords for c in configs], units.pop(), groups)


def large_sample() -> Sample:
    """3000 configurations of 20 landmarks at pixel-like coordinates with 4 decimals, in two
    groups, the size of the large-sample benchmark."""
    rng = np.random.default_rng(30)
    names = [f"spec_{i + 1:05d}" for i in range(3000)]
    return Sample(names, default_labels(20), np.round(rng.uniform(500, 1500, (3000, 20, 2)), 4),
                  groups={name: ("young", "old")[i % 2] for i, name in enumerate(names)})


def traced_peak(function, *args) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ring_csv(k: int) -> str:
    """Two k-landmark circles in groups young and old, the second 1.1 times as wide, as wide CSV
    text with six decimals: at k = 20000 its spline needs a (20000, 20000) array."""
    angles = 2 * np.pi * np.arange(k) / k
    rows = ["id,group," + ",".join(f"x{i},y{i}" for i in range(1, k + 1))]
    for n, group in enumerate(("young", "old")):
        x, y = (1.0 + 0.1 * n) * np.cos(angles), np.sin(angles)
        rows.append(f"s{n},{group}," + ",".join(f"{a:.6f},{b:.6f}" for a, b in zip(x, y)))
    return "\n".join(rows) + "\n"


def short_baseline_outline(gap):
    """Three 12-landmark outlines per group as wide CSV text, landmark 2 placed gap times the
    outline's size (20) from landmark 1. Plain float arithmetic written with six decimals, so
    the bytes are the same everywhere."""
    outline = [(10, 0), (9, 5), (5, 9), (0, 10), (-5, 9), (-9, 5), (-10, 0), (-9, -5), (-5, -9),
               (0, -10), (5, -9), (9, -5)]
    rows = ["id,group," + ",".join(f"x{i},y{i}" for i in range(1, 13))]
    for n in range(6):
        group, cells = ("young", "old")[n // 3], []
        for j, (x, y) in enumerate(outline):
            if j == 1:
                x, y = 10 + 12 * gap, 16 * gap
            if group == "old":
                x, y = x + 0.01 * x * y, y + 0.005 * x * x
            if j > 1:
                x, y = x + 0.01 * ((3 * n + j) % 5 - 2), y + 0.01 * ((n + 2 * j) % 3 - 1)
            cells += [f"{x + 0.5 * n:.6f}", f"{y - 0.25 * n:.6f}"]
        rows.append(f"spec_{n + 1},{group}," + ",".join(cells))
    return "\n".join(rows) + "\n"

"""Shared test helpers: a Sample stacked from LandmarkConfiguration objects, the sample of the
large-sample benchmark's size and the tracemalloc peak of one call."""

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

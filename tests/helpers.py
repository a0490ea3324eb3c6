"""Shared test helper: a Sample stacked from LandmarkConfiguration objects."""

from gridmorph.core import Sample, _require_unique_names, require_homologous
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

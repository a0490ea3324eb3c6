"""Shared test helper: a Sample stacked from LandmarkConfiguration objects."""

from gridmorph.core import Sample, _require_unique_names, require_homologous


def sample_of(configs, groups=None) -> Sample:
    """The sample of these configurations, with their names and unit tags.

    Errors come in the order the parsers report them: duplicate names, then
    the first configuration that is not homologous to the first, then the
    stack's own checks (an empty list raises there).
    """
    configs = tuple(configs)
    _require_unique_names(tuple(c.name for c in configs))
    require_homologous(*configs)
    return Sample([c.name for c in configs], configs[0].labels if configs else (),
                  [c.coords for c in configs], [c.unit for c in configs], groups)

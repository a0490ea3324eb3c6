"""Landmark data model and elementary coordinate operations.

A landmark configuration is an ordered list of labelled points in the
plane. Order, not labels, carries identity: the i-th landmark of one
configuration is homologous to the i-th landmark of another. Every
configuration carries a unit tag naming the registration its coordinates
live in ("raw", "two-point" or "procrustes"); operations that compare
configurations check the tags instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfigurationError, HomologyError, InputError

UNIT_RAW = "raw"
UNIT_TWO_POINT = "two-point"
UNIT_PROCRUSTES = "procrustes"
_UNITS = (UNIT_RAW, UNIT_TWO_POINT, UNIT_PROCRUSTES)

# Grid and prototype defaults, here so the command line's option table needs no
# drawing module; gridlab and maps re-export them.
DEFAULT_CELLS = 24
DEFAULT_SAMPLES_PER_EDGE = 10
# Most samples one grid may hold (its preimage and image alone take 32 B a sample):
# an oversized --cells/--samples request is an InputError, not an out-of-memory kill.
MAX_GRID_SAMPLES = 2 ** 22
MAX_MARGIN = 100.0  # largest grid margin per bounding box: far out, the fitted maps overflow
PROTOTYPE_KINDS = ("parallelogram", "rotated_parallelogram", "trapezoid", "kite")


def default_labels(k: int) -> tuple[str, ...]:
    """Placeholder landmark labels L1..Lk."""
    return tuple(f"L{i}" for i in range(1, k + 1))


def freeze_arrays(obj, *names: str, dtype=float) -> None:
    """Set each named field of a frozen dataclass instance to a read-only array of it."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class LandmarkConfiguration:
    """An ordered, labelled set of k >= 3 planar landmarks.

    coords is a read-only (k, 2) float64 array. Instances are immutable;
    derived configurations are new objects (see with_coords).
    """

    name: str
    labels: tuple[str, ...]
    coords: np.ndarray
    unit: str = UNIT_RAW

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InputError(f"configuration {self.name!r}: coords must be (k, 2), got {coords.shape}")
        k = coords.shape[0]
        if k < 3:
            raise InputError(f"configuration {self.name!r}: at least 3 landmarks required, got {k}")
        if not np.all(np.isfinite(coords)):
            raise InputError(f"configuration {self.name!r}: coordinates must be finite")
        labels = tuple(str(s) for s in self.labels)
        if len(labels) != k:
            raise InputError(f"configuration {self.name!r}: {len(labels)} labels for {k} landmarks")
        if len(set(labels)) != k:
            raise InputError(f"configuration {self.name!r}: landmark labels must be unique")
        if self.unit not in _UNITS:
            raise InputError(f"configuration {self.name!r}: unknown unit tag {self.unit!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coords", _freeze(coords))

    def with_coords(self, coords, unit: str | None = None, name: str | None = None) -> "LandmarkConfiguration":
        """Copy of this configuration with new positions (and optionally a new unit tag)."""
        return LandmarkConfiguration(
            name if name is not None else self.name,
            self.labels,
            coords,
            unit if unit is not None else self.unit,
        )

    @classmethod
    def _trusted(cls, name: str, labels: tuple[str, ...], coords: np.ndarray, unit: str):
        """A configuration from parts already checked (a row of a validated Sample)."""
        config = cls.__new__(cls)
        config.__dict__.update(name=name, labels=labels, coords=coords, unit=unit)
        return config

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LandmarkConfiguration):
            return NotImplemented
        return (self.name == other.name and self.labels == other.labels
                and self.unit == other.unit and np.array_equal(self.coords, other.coords))

    __hash__ = None


def require_homologous(*configs: LandmarkConfiguration) -> None:
    """Raise HomologyError unless every configuration shares the first one's landmark
    count and labels; the error names the first one and the first that differs."""
    for b in configs[1:]:
        a = configs[0]
        if len(a) != len(b):
            raise HomologyError(f"configurations {a.name!r} and {b.name!r} are not homologous: "
                                f"{len(a)} vs {len(b)} landmarks")
        if a.labels != b.labels:
            raise HomologyError(f"configurations {a.name!r} and {b.name!r} are not homologous: "
                                "label sequences differ")


def _require_unique_names(names: tuple[str, ...]) -> None:
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise InputError(f"duplicate configuration name {dup!r} in sample")


@dataclass(frozen=True, eq=False)
class Sample:
    """Homologous configurations, stored as one stack checked as a whole.

    coords is a read-only (n, k, 2) float64 array; names hold one entry per
    configuration and labels one per landmark. units is one unit tag for all
    configurations or one per configuration, and is stored as n tags. groups
    maps configuration name to a group tag; names absent from the mapping
    belong to the anonymous group "".
    """

    names: tuple[str, ...]
    labels: tuple[str, ...]
    coords: np.ndarray
    units: str | tuple[str, ...] = UNIT_RAW
    groups: dict[str, str] | None = None

    def __post_init__(self):
        names, coords, groups = tuple(self.names), _freeze(self.coords), dict(self.groups or {})
        units = (self.units,) * len(names) if isinstance(self.units, str) else tuple(self.units)
        if not names:
            raise InputError("sample must contain at least one configuration")
        if coords.ndim != 3 or coords.shape[::2] != (len(names), 2) or len(units) != len(names):
            raise InputError(f"{len(names)} configurations need (n, k, 2) coords and as many "
                             f"unit tags, got {coords.shape} and {len(units)}")
        labels = tuple(str(s) for s in self.labels)
        bad = ~np.isfinite(coords).all(axis=(1, 2)) | [u not in _UNITS for u in units]
        bad[0] |= not 3 <= coords.shape[1] == len(labels) == len(set(labels))
        if bad.any():  # the first faulty configuration's own checks raise its error
            first = int(np.argmax(bad))
            LandmarkConfiguration(names[first], labels, coords[first], units[first])
        _require_unique_names(names)
        known = set(names)
        for name in groups:
            if name not in known:
                raise InputError(f"group tag given for unknown configuration {name!r}")
        self.__dict__.update(names=names, labels=labels, coords=coords, units=units,
                             groups=groups)

    @cached_property
    def configurations(self) -> tuple[LandmarkConfiguration, ...]:
        """One configuration per stack row (read-only views), built on first access."""
        return tuple(LandmarkConfiguration._trusted(name, self.labels, coords, unit)
                     for name, coords, unit in zip(self.names, self.coords, self.units))

    @property
    def landmark_count(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return len(self.names)

    def group_of(self, name: str) -> str:
        return self.groups.get(name, "")

    @property
    def group_tags(self) -> list[str]:
        """Group tags in order of first appearance (ungrouped configurations excluded)."""
        return [tag for tag in dict.fromkeys(map(self.group_of, self.names)) if tag]

    def in_group(self, tag: str) -> "Sample":
        """The configurations tagged tag, as a sample of their own (rows of the stack)."""
        rows = [i for i, name in enumerate(self.names) if self.group_of(name) == tag]
        if not rows:
            raise InputError(f"group {tag!r} has no configurations")
        names = [self.names[i] for i in rows]
        return Sample(names, self.labels, self.coords[rows], [self.units[i] for i in rows],
                      {n: tag for n in names if tag})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return (self.names == other.names and self.labels == other.labels
                and self.units == other.units and np.array_equal(self.coords, other.coords)
                and self.groups == other.groups)

    __hash__ = None


class Segment(NamedTuple):
    """Ordered pair of landmark ordinals, 0 <= i < j < k."""

    i: int
    j: int


def as_coords(obj) -> np.ndarray:
    """Coerce a configuration or array-like into a (k, 2) float array."""
    if isinstance(obj, LandmarkConfiguration):
        return obj.coords
    coords = np.asarray(obj, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InputError(f"expected (k, 2) coordinates, got shape {coords.shape}")
    return coords


def centroid(config) -> np.ndarray:
    """Arithmetic mean of the landmark positions, as a (2,) array."""
    return as_coords(config).mean(axis=0)


def centered(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center (..., k, 2) coordinates per configuration, with their centroid sizes (maybe 0)."""
    dev = coords - coords.mean(axis=-2, keepdims=True)
    return dev, np.sqrt((dev * dev).sum(axis=(-2, -1)))


def centroid_size(config) -> float:
    """Square root of the summed squared distances of landmarks from their centroid."""
    size = float(centered(as_coords(config))[1])
    if size <= 0.0:
        raise DegenerateConfigurationError("all landmarks coincide; centroid size is zero")
    return size


def enumerate_segments(k: int) -> list[Segment]:
    """All k*(k-1)/2 landmark pairs (i, j) with i < j, in lexicographic order."""
    if k < 2:
        raise InputError(f"need at least 2 landmarks to form segments, got {k}")
    return [Segment(i, j) for i in range(k - 1) for j in range(i + 1, k)]

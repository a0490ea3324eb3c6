"""Landmark data model and elementary coordinate operations.

A landmark configuration is an ordered list of labelled points in the
plane. Order, not labels, carries identity: the i-th landmark of one
configuration is homologous to the i-th landmark of another. Every
configuration carries a unit tag naming the registration its coordinates
live in ("raw", "two-point" or "procrustes"); operations that compare
configurations check the tags instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateConfigurationError, HomologyError, InputError

UNIT_RAW = "raw"
UNIT_TWO_POINT = "two-point"
UNIT_PROCRUSTES = "procrustes"
_UNITS = (UNIT_RAW, UNIT_TWO_POINT, UNIT_PROCRUSTES)


def default_labels(k: int) -> tuple[str, ...]:
    """Placeholder landmark labels L1..Lk."""
    return tuple(f"L{i}" for i in range(1, k + 1))


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

    @classmethod
    def build(cls, name: str, coords, labels: Iterable[str] | None = None,
              unit: str = UNIT_RAW) -> "LandmarkConfiguration":
        coords = np.asarray(coords, dtype=float)
        if labels is None:
            labels = default_labels(coords.shape[0] if coords.ndim == 2 else 0)
        return cls(name, tuple(labels), coords, unit)

    def with_coords(self, coords, unit: str | None = None, name: str | None = None) -> "LandmarkConfiguration":
        """Copy of this configuration with new positions (and optionally a new unit tag)."""
        return LandmarkConfiguration(
            name if name is not None else self.name,
            self.labels,
            coords,
            unit if unit is not None else self.unit,
        )

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LandmarkConfiguration):
            return NotImplemented
        return (self.name == other.name and self.labels == other.labels
                and self.unit == other.unit and np.array_equal(self.coords, other.coords))

    __hash__ = None


def require_homologous(a: LandmarkConfiguration, b: LandmarkConfiguration) -> None:
    """Raise HomologyError unless a and b share their landmark count and labels."""
    if len(a) != len(b):
        raise HomologyError(f"configurations {a.name!r} and {b.name!r} are not homologous: "
                            f"{len(a)} vs {len(b)} landmarks")
    if a.labels != b.labels:
        raise HomologyError(f"configurations {a.name!r} and {b.name!r} are not homologous: "
                            "label sequences differ")


@dataclass(frozen=True, eq=False)
class Sample:
    """Homologous configurations with group tags and free-form metadata.

    groups maps configuration name to a group tag; names absent from the
    mapping belong to the anonymous group "".
    """

    configurations: tuple[LandmarkConfiguration, ...]
    groups: dict[str, str] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        configs = tuple(self.configurations)
        if not configs:
            raise InputError("sample must contain at least one configuration")
        names = [c.name for c in configs]
        known = set(names)
        if len(known) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise InputError(f"duplicate configuration name {dup!r} in sample")
        for c in configs[1:]:
            require_homologous(configs[0], c)
        for name in self.groups:
            if name not in known:
                raise InputError(f"group tag given for unknown configuration {name!r}")
        object.__setattr__(self, "configurations", configs)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.configurations[0].labels

    @property
    def landmark_count(self) -> int:
        return len(self.configurations[0])

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.configurations)

    @property
    def coords(self) -> np.ndarray:
        """All coordinates as one new (n, k, 2) array, in configuration order."""
        return np.stack([c.coords for c in self.configurations])

    def __len__(self) -> int:
        return len(self.configurations)

    def group_of(self, name: str) -> str:
        return self.groups.get(name, "")

    @property
    def group_tags(self) -> list[str]:
        """Group tags in order of first appearance (ungrouped configurations excluded)."""
        seen: list[str] = []
        for c in self.configurations:
            tag = self.group_of(c.name)
            if tag and tag not in seen:
                seen.append(tag)
        return seen

    def configs_in_group(self, tag: str) -> list[LandmarkConfiguration]:
        return [c for c in self.configurations if self.group_of(c.name) == tag]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return (self.configurations == other.configurations
                and self.groups == other.groups and self.metadata == other.metadata)

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

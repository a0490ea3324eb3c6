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

from .errors import InputError, NumericalError

UNIT_RAW = "raw"
UNIT_TWO_POINT = "two-point"
UNIT_PROCRUSTES = "procrustes"
_UNITS = (UNIT_RAW, UNIT_TWO_POINT, UNIT_PROCRUSTES)

# Grid and prototype defaults, here so the command line's option table needs no
# drawing module; gridlab and maps re-export them.
DEFAULT_CELLS = 24
DEFAULT_SAMPLES_PER_EDGE = 10
# Most samples one grid may hold (its shared preimage and its image take 32 B a sample):
# an oversized --cells/--samples request is an InputError, not an out-of-memory kill.
MAX_GRID_SAMPLES = 2 ** 22
MAX_MARGIN = 100.0  # largest grid margin per bounding box: far out, the fitted maps overflow
PROTOTYPE_KINDS = ("parallelogram", "rotated_parallelogram", "trapezoid", "kite")


def default_labels(k: int) -> tuple[str, ...]:
    """Placeholder landmark labels L1..Lk."""
    return tuple(f"L{i}" for i in range(1, k + 1))


def freeze_arrays(obj, *names: str, dtype=float) -> None:
    """Set each named field of a frozen dataclass instance to a read-only view of it as an
    array: no copy, and an array the caller holds stays writeable."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=dtype).view()
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


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
        coords = np.array(self.coords, dtype=float)  # its own copy, frozen below
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
        coords.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coords", coords)

    def with_coords(self, coords, unit: str | None = None, name: str | None = None) -> "LandmarkConfiguration":
        """Copy of this configuration with new positions (and optionally a new unit tag)."""
        return LandmarkConfiguration(self.name if name is None else name, self.labels, coords,
                                     self.unit if unit is None else unit)

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
    """Raise InputError unless every configuration shares the first one's landmark
    count and labels; the error names the first one and the first that differs."""
    for b in configs[1:]:
        a = configs[0]
        if len(a) != len(b):
            raise InputError(f"configurations {a.name!r} and {b.name!r} are not homologous: "
                             f"{len(a)} vs {len(b)} landmarks")
        if a.labels != b.labels:
            raise InputError(f"configurations {a.name!r} and {b.name!r} are not homologous: "
                             "label sequences differ")


def _require_unique_names(names: tuple[str, ...]) -> None:
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise InputError(f"duplicate configuration name {dup!r} in sample")


@dataclass(frozen=True, eq=False)
class Sample:
    """Homologous configurations, stored as one stack checked as a whole.

    coords is a read-only (n, k, 2) float64 array; names hold one entry per
    configuration and labels one per landmark. unit is the one unit tag of
    every configuration. groups maps configuration name to a group tag; names
    absent from the mapping belong to the anonymous group "".
    """

    names: tuple[str, ...]
    labels: tuple[str, ...]
    coords: np.ndarray
    unit: str = UNIT_RAW
    groups: dict[str, str] | None = None

    def __post_init__(self):
        names, groups = tuple(self.names), dict(self.groups or {})
        coords = np.array(self.coords, dtype=float)  # its own copy, frozen below
        if not names:
            raise InputError("sample must contain at least one configuration")
        if coords.ndim != 3 or coords.shape[::2] != (len(names), 2):
            raise InputError(f"{len(names)} configurations need (n, k, 2) coords, "
                             f"got {coords.shape}")
        labels = tuple(str(s) for s in self.labels)
        bad = ~np.isfinite(coords).all(axis=(1, 2))
        bad[0] |= (self.unit not in _UNITS
                   or not 3 <= coords.shape[1] == len(labels) == len(set(labels)))
        if bad.any():  # the first faulty configuration's own checks raise its error
            first = int(np.argmax(bad))
            LandmarkConfiguration(names[first], labels, coords[first], self.unit)
        _require_unique_names(names)
        known = set(names)
        for name in groups:
            if name not in known:
                raise InputError(f"group tag given for unknown configuration {name!r}")
        coords.flags.writeable = False
        self.__dict__.update(names=names, labels=labels, coords=coords, groups=groups)

    @cached_property
    def configurations(self) -> tuple[LandmarkConfiguration, ...]:
        """One configuration per stack row (read-only views), built on first access."""
        return tuple(LandmarkConfiguration._trusted(name, self.labels, coords, self.unit)
                     for name, coords in zip(self.names, self.coords))

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
        return Sample(names, self.labels, self.coords[rows], self.unit,
                      {n: tag for n in names if tag})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return (self.names == other.names and self.labels == other.labels
                and self.unit == other.unit and np.array_equal(self.coords, other.coords)
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


def frame(values: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """(scaled, e): the values scaled exactly by 2^-e, e the exponent of their largest magnitude
    along axis (kept as length 1), so no scaled magnitude reaches 1 and no sum of two overflows."""
    e = np.frexp(np.abs(values).max(axis=axis, keepdims=True))[1]
    return np.ldexp(values, -e), e


def centered(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dev, size, e) of (..., k, 2) coordinates: each configuration's deviations from its centroid
    and centroid size (maybe 0), both taken in its frame and so scaled exactly by 2^-e. No sum or
    difference overflows, no square underflows, and wherever no scaled value is subnormal the
    bits are those of the raw arithmetic scaled by 2^-e; np.ldexp(size, e) is the raw size."""
    p, e = frame(coords, (-2, -1))
    dev = p - p.mean(axis=-2, keepdims=True)
    # landmarks that all coincide have size 0 even where their mean does not round back
    dev[(p == p[..., :1, :]).all(axis=(-2, -1))] = 0.0
    unit, f = frame(dev, (-2, -1))
    return dev, np.ldexp(np.sqrt((unit * unit).sum(axis=(-2, -1))), f[..., 0, 0]), e[..., 0, 0]


def collinear(coords: np.ndarray) -> bool:
    """Whether (k, 2) points lie on one line (or coincide), whatever their unit and offset: the
    smaller singular value of their centred deviations is at most 1e-12 of the larger."""
    sv = np.linalg.svd(centered(coords)[0], compute_uv=False)
    return sv[1] <= 1e-12 * sv[0]


def centroid_size(config) -> float:
    """Square root of the summed squared distances of landmarks from their centroid."""
    _, size, e = centered(as_coords(config))
    if size <= 0.0:
        raise NumericalError("all landmarks coincide; centroid size is zero")
    if np.frexp(size)[1] + e > 1024:  # 2^1024 is past the largest float
        raise NumericalError("centroid size is past the largest float")
    return float(np.ldexp(size, e))


def enumerate_segments(k: int) -> list[Segment]:
    """All k*(k-1)/2 landmark pairs (i, j) with i < j, in lexicographic order."""
    if k < 2:
        raise InputError(f"need at least 2 landmarks to form segments, got {k}")
    return [Segment(i, j) for i in range(k - 1) for j in range(i + 1, k)]

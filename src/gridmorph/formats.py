"""Landmark file ingestion and the canonical dataset JSON.

Three inputs are understood: TPS landmark files (LM= records with optional
ID= and SCALE= lines), CSV in long form (id,label,x,y) or wide form
(id,x1,y1,...,xk,yk), and the canonical JSON produced here. The JSON
serializer is hand-rolled so that output is byte-deterministic and
coordinates carry 17 significant digits, enough to round-trip float64
exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import LandmarkConfiguration, Sample, default_labels
from .errors import InputError, ParseError, SchemaError

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sample plus schema version and provenance (source paths)."""

    sample: Sample
    schema: int = SCHEMA_VERSION
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "provenance", tuple(str(s) for s in self.provenance))
        if self.schema != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema version {self.schema}; this build reads {SCHEMA_VERSION}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.schema == other.schema and self.provenance == other.provenance
                and self.sample == other.sample)

    __hash__ = None


def write_dataset(dataset: Dataset) -> str:
    """Serialize to canonical JSON text. Deterministic: same dataset, same bytes.

    Every coordinate is a JSON number with 17 significant digits (exact
    float64 round trip). -0.0 is written as 0 (adding 0.0 folds it): JSON
    readers may hand "-0" back as the integer zero, so the sign bit would
    not survive a round trip anyway.
    """
    sample = dataset.sample
    coords = "[" + ", ".join(["[%.17g, %.17g]"] * sample.landmark_count) + "]"
    last = sample.configurations[-1]
    lines = ["{", f'  "schema": {dataset.schema},',
             f'  "landmarks": [{", ".join(json.dumps(l) for l in sample.labels)}],',
             '  "configurations": [']
    lines += [f'    {{"id": {json.dumps(config.name)}, '
              f'"group": {json.dumps(sample.group_of(config.name))}, '
              f'"coords": {coords % tuple((config.coords + 0.0).ravel().tolist())}}}'
              f'{"" if config is last else ","}' for config in sample.configurations]
    sources = ", ".join(json.dumps(s) for s in dataset.provenance)
    # one join, ending in "\n", so the text is built once
    lines += ["  ],", f'  "provenance": {{"sources": [{sources}]}}', "}", ""]
    return "\n".join(lines)


def _reject_constant(token: str):
    raise SchemaError(f"non-finite number {token!r} in dataset JSON")


def _coords_array(cid: str, coords) -> np.ndarray:
    """A configuration's "coords" value as a (k, 2) array, or SchemaError.

    Only JSON numbers are coordinates: true/false, strings and numbers
    beyond the float64 range (a long integer, 1e400) are rejected.
    """
    if (type(coords) is list and set(map(type, coords)) <= {list}
            and set(map(len, coords)) <= {2}):
        values = list(itertools.chain.from_iterable(coords))
        if set(map(type, values)) <= {int, float}:
            with contextlib.suppress(OverflowError):  # an int beyond the float64 range
                array = np.array(values, dtype=float).reshape(-1, 2)
                if np.isfinite(array).all():
                    return array
    raise SchemaError(
        f"configuration {cid!r}: \"coords\" must be [[x, y], ...] with finite numbers")


def read_dataset(text: str) -> Dataset:
    """Parse canonical JSON; the exact inverse of write_dataset."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise SchemaError("dataset JSON must be an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {schema!r}; this build reads {SCHEMA_VERSION}")
    labels = doc.get("landmarks")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise SchemaError("\"landmarks\" must be a list of strings")
    entries = doc.get("configurations")
    if not isinstance(entries, list) or not entries:
        raise SchemaError("\"configurations\" must be a non-empty list")
    labels = tuple(labels)
    configs: list[LandmarkConfiguration] = []
    groups: dict[str, str] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "coords" not in entry:
            raise SchemaError("each configuration needs \"id\" and \"coords\"")
        cid = entry["id"]
        if not isinstance(cid, str):
            raise SchemaError("configuration \"id\" must be a string")
        configs.append(LandmarkConfiguration(cid, labels, _coords_array(cid, entry["coords"])))
        group = entry.get("group", "")
        if not isinstance(group, str):
            raise SchemaError(f"configuration {cid!r}: \"group\" must be a string")
        if group:
            groups[cid] = group
    prov = doc.get("provenance", {})
    sources = prov.get("sources", []) if isinstance(prov, dict) else []
    if type(sources) is not list or not all(isinstance(s, str) for s in sources):
        raise SchemaError("\"provenance.sources\" must be a list of strings")
    return Dataset(Sample(tuple(configs), groups), schema, sources)


_KEY_LINE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)=(.*)$")


def parse_tps_file(text: str) -> Sample:
    """Parse a TPS landmark file into a sample.

    Each record is LM=<k> followed by k coordinate lines; ID= names the
    specimen and SCALE= is applied multiplicatively. Other KEY= lines are
    ignored. Labels default to L1..Lk since the format has none.
    """
    configs: list[LandmarkConfiguration] = []
    pending: list[tuple[float, float]] | None = None
    remaining = 0
    ident: str | None = None
    scale = 1.0
    start_line = 0

    def finish(line_no: int):
        nonlocal pending, ident, scale
        if pending is None:
            return
        if remaining > 0:
            raise ParseError(f"record starting at line {start_line} ends early: "
                             f"{remaining} coordinate line(s) missing", line=line_no)
        name = ident if ident else f"specimen_{len(configs) + 1}"
        coords = np.asarray(pending, dtype=float) * scale
        configs.append(LandmarkConfiguration(name, default_labels(len(pending)), coords))
        pending, ident, scale = None, None, 1.0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        match = _KEY_LINE.match(line)
        if match:
            key, value = match.group(1).upper(), match.group(2).strip()
            if key == "LM":
                if pending is not None and remaining > 0:
                    raise ParseError(f"record starting at line {start_line} ends early: "
                                     f"{remaining} coordinate line(s) missing", line=line_no)
                finish(line_no)
                try:
                    count = int(value)
                except ValueError:
                    raise ParseError(f"LM= needs an integer, got {value!r}", line=line_no)
                if count <= 0:
                    raise ParseError(f"LM= must be positive, got {count}", line=line_no)
                pending = []
                remaining = count
                start_line = line_no
            elif pending is not None and remaining > 0:
                raise ParseError(f"expected a coordinate line ({remaining} to go), got {key}=",
                                 line=line_no)
            elif key == "ID":
                ident = value
            elif key == "SCALE":
                try:
                    scale = float(value)
                except ValueError:
                    raise ParseError(f"SCALE= needs a number, got {value!r}", line=line_no)
                if not math.isfinite(scale) or scale <= 0.0:
                    raise ParseError(f"SCALE= must be positive and finite, got {value}", line=line_no)
            # other KEY= lines (IMAGE=, COMMENT=, ...) are ignored
            continue
        if pending is None or remaining == 0:
            raise ParseError(f"unexpected line outside a landmark record: {line!r}", line=line_no)
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two coordinates, got {len(parts)} field(s)", line=line_no)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"malformed coordinates {line!r}", line=line_no)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("non-finite coordinates are not allowed", line=line_no)
        pending.append((x, y))
        remaining -= 1
    finish(len(text.splitlines()))
    if not configs:
        raise ParseError("no LM= records found", line=1)
    return Sample(tuple(configs))


_WIDE_PAIR = re.compile(r"^([xy])(\d+)$")


def parse_csv(text: str) -> Sample:
    """Parse landmark CSV, long form (id,label,x,y) or wide form (id,x1,y1,...).

    Either form may carry an optional group column: trailing in long form,
    immediately after id in wide form.
    """
    rows = [row for row in csv.reader(io.StringIO(text))
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty CSV", line=1)
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:4] == ["id", "label", "x", "y"] and len(header) in (4, 5):
        if len(header) == 5 and header[4] != "group":
            raise ParseError(f"unrecognized long-form column {rows[0][4]!r}", line=1)
        return _parse_csv_long(rows, with_group=len(header) == 5)
    if header and header[0] == "id":
        rest = header[1:]
        with_group = bool(rest) and rest[0] == "group"
        if with_group:
            rest = rest[1:]
        if rest and len(rest) % 2 == 0:
            for idx, cell in enumerate(rest):
                want_axis = "x" if idx % 2 == 0 else "y"
                want_num = idx // 2 + 1
                m = _WIDE_PAIR.match(cell)
                if not m or m.group(1) != want_axis or int(m.group(2)) != want_num:
                    raise ParseError(
                        f"unrecognized wide-form column {rows[0][1 + with_group + idx]!r} "
                        f"(expected {want_axis}{want_num})", line=1)
            return _parse_csv_wide(rows, k=len(rest) // 2, with_group=with_group)
    raise ParseError("unrecognized CSV header; expected id,label,x,y or id,x1,y1,...,xk,yk", line=1)


def _parse_float(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"malformed coordinate {token!r}", line=line)
    if not math.isfinite(value):
        raise ParseError(f"non-finite coordinate {token!r}", line=line)
    return value


def _parse_csv_long(rows, with_group: bool) -> Sample:
    width = 5 if with_group else 4
    order: list[str] = []
    per_id: dict[str, list[tuple[str, float, float]]] = {}
    groups: dict[str, str] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", line=line_no)
        cid, label = row[0].strip(), row[1].strip()
        if not cid:
            raise ParseError("empty id", line=line_no)
        x = _parse_float(row[2].strip(), line_no)
        y = _parse_float(row[3].strip(), line_no)
        if cid not in per_id:
            order.append(cid)
            per_id[cid] = []
        per_id[cid].append((label, x, y))
        if with_group and row[4].strip():
            groups.setdefault(cid, row[4].strip())
    configs = []
    for cid in order:
        entries = per_id[cid]
        labels = tuple(label for label, _, _ in entries)
        coords = np.asarray([(x, y) for _, x, y in entries], dtype=float)
        configs.append(LandmarkConfiguration(cid, labels, coords))
    return Sample(tuple(configs), groups)


def _parse_csv_wide(rows, k: int, with_group: bool) -> Sample:
    labels = default_labels(k)
    configs = []
    groups: dict[str, str] = {}
    base = 2 if with_group else 1
    width = base + 2 * k
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", line=line_no)
        cid = row[0].strip()
        if not cid:
            raise ParseError("empty id", line=line_no)
        coords = np.asarray(
            [(_parse_float(row[base + 2 * i].strip(), line_no),
              _parse_float(row[base + 2 * i + 1].strip(), line_no)) for i in range(k)],
            dtype=float)
        configs.append(LandmarkConfiguration(cid, labels, coords))
        if with_group and row[1].strip():
            groups[cid] = row[1].strip()
    return Sample(tuple(configs), groups)


def read_landmarks(path: str) -> Dataset:
    """Load any supported landmark file, detecting the format by extension."""
    lower = str(path).lower()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{str(path)!r} is not UTF-8 text (byte {exc.start})") from exc
    if lower.endswith(".tps"):
        sample = parse_tps_file(text)
    elif lower.endswith(".csv"):
        sample = parse_csv(text)
    elif lower.endswith(".json"):
        return read_dataset(text)
    else:
        raise InputError(f"cannot detect format of {path!r}; expected .tps, .csv or .json")
    return Dataset(sample, provenance=(str(path),))

"""Landmark file ingestion and the canonical dataset JSON.

Three inputs are understood: TPS landmark files (LM= records with optional
ID= and SCALE= lines), CSV in long form (id,label,x,y) or wide form
(id,x1,y1,...,xk,yk), and the canonical JSON produced here. The JSON
serializer is hand-rolled so that output is byte-deterministic and
coordinates carry 17 significant digits, enough to round-trip float64
exactly, as "%.17g" prints them. fmt_g prints floats as "%.{digits}g" does,
in whole-array passes: the JSON writer at 17 digits, the SVG renderer at 6.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import re
from array import array
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np

from .core import (LandmarkConfiguration, Sample, _require_unique_names, default_labels,
                   require_homologous)
from .errors import InputError, ParseError

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sample plus provenance (source paths)."""

    sample: Sample
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "provenance", tuple(str(s) for s in self.provenance))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.provenance == other.provenance and self.sample == other.sample

    __hash__ = None


WRITE_BLOCK = 4096  # coordinates per fmt_g call (or one configuration, if it has more)
# 0-999 as ASCII in the low bytes of little-endian words, built on first use, 1000 words a
# form: all 3 digits (from 0); no leading zeros (_INT); no trailing zeros, 0 as nothing
# (_TRAIL); the first and second with a point in byte 3 (_POINT, _INT_POINT)
_INT, _TRAIL, _POINT, _INT_POINT = 1000, 2000, 3000, 4000
_digit_words = functools.cache(lambda: np.frombuffer(b"".join(
    text.encode().ljust(4, b"\0") for text in [*("%03d" % n for n in range(1000)),
    *("%d" % n for n in range(1000)), *(("%03d" % n).rstrip("0") for n in range(1000)),
    *("%03d." % n for n in range(1000)), *(("%d" % n).ljust(3, "\0") + "." for n in range(1000))]),
    "<u4"))
_POW10 = 10.0 ** np.arange(21)  # exact in binary
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # Veltkamp split (2^27 + 1)
_POW10_LO = _POW10 - _POW10_HI


@functools.cache
def _forms(digits: int, index: type) -> np.ndarray:
    """[g, 2k + z]: the form of group g (0 the lowest) of the digits times 10^(-k % 3) of a
    value with k fraction digits, z: every lower group is 0. The lowest (k + 2) // 3 groups are
    the fraction, group (digits + 2 + -k % 3) // 3 - 1 leads, and a point ends the whole part
    of |x| >= 1. Groups above the leading one are 0, printed as nothing."""
    return np.array([[z * _TRAIL if g < (k + 2) // 3 else _TRAIL if g > lead else
                      [[0, _POINT], [_INT, _INT_POINT]][g == lead][
                          g == (k + 2) // 3 and k < digits and not z]
                      for k in range(digits + 4) for lead in [(digits + 2 + -k % 3) // 3 - 1]
                      for z in (0, 1)] for g in range((digits + 5) // 3)], dtype=index)


def fmt_g(values: np.ndarray, seps: np.ndarray, digits: int) -> str:
    """Each float as "%.{digits}g" % (x + 0.0) prints it, then its separator word (one "<u4"
    word per value, zero bytes dropped), in whole-array passes, at any digits from 1 to 17
    (tested against % at each; the figures use 6 and the dataset JSON 17).

    In fixed notation (|x| in [1e-4, 10^digits)) the digits are the integer nearest
    |x| 10^k, k = digits - 1 - e for the decimal exponent e: rint of the product hi, unless
    hi is within its own error of a half (every value at 17 digits, almost none at 6). There
    Dekker's exact product (Numer. Math. 18, 1971) gives hi + lo == |x| 10^k: lo rounds an
    integer hi > 2^53, and its sign decides a hi that is a half (to even if lo == 0).
    Exponential notation, non-finite values and carries into a (digits + 1)-th digit go to %
    (Steele & White, PLDI 1990). A value owns a row of a canvas of words, as wide as its block
    needs: sign and "0." if a value is negative or below 1; the digits times 10^(-k % 3) in
    3-digit groups (the point in byte 3 of the lowest whole-number group), 32-bit up to 7 digits
    (10^(digits + 2) < 2^32); a separator, unless each is one byte: that goes in byte 3 of group
    0, which no form fills (no lower group, so no point). A block with a row for % has them all.
    """
    x = np.asarray(values, dtype=float)
    a, zero, top = np.abs(x), x == 0, 10.0 ** digits
    fast = (a >= 1e-4) & (a < top)  # false for nan and inf
    a = np.where(fast, a, 1.0)  # printed with k = digits - 1: 0 as "0"
    k = (digits - 1 - np.floor(np.log10(a))).astype(np.intp)
    s = a * _POW10.take(k, mode="clip")  # a guess that log10 put one out of range is clipped
    # log10 can be one off: k is corrected against the exact powers of ten
    k = np.clip(k - (s >= top).view(np.int8) + (s < top / 10).view(np.int8), 0, digits + 3)
    hi = a * _POW10[k]
    d = np.rint(hi).astype(np.int64)
    near = np.abs(hi - np.floor(hi) - 0.5) <= top * 2.0 ** -52
    if near.any():
        near = slice(None) if near.all() else np.flatnonzero(near)  # all of them at 17 digits
        an, hn, kn = a[near], hi[near], k[near]
        ah = an * 134217729.0 - (an * 134217729.0 - an)  # Veltkamp's split, 26 bits each
        al, ph, pl = an - ah, _POW10_HI[kn], _POW10_LO[kn]
        lo = ((ah * ph - hn) + ah * pl + al * ph) + al * pl  # hn + lo == |x| 10^k exactly
        sign = np.sign(lo)  # 2 (hn - rint(hn)) is +-1 where hn is a half that rint made even
        d[near] += (np.rint(lo) + (2 * (hn - np.rint(hn)) == sign) * sign).astype(np.int64)
    d *= ~zero
    fast &= (d >= 10 ** (digits - 1)) & (d < 10 ** digits)
    neg, below_one, slow = x < 0, k >= digits, np.flatnonzero(~(fast | zero))
    head = int(len(slow) > 0 or neg.any() or below_one.any())
    tail = int(len(slow) > 0 or seps.max(initial=0) > 255)
    word, index = (np.uint32, np.int32) if digits <= 7 else (np.uint64, np.int64)
    rest = d.astype(word) * (10 ** (-np.arange(digits + 4) % 3)).astype(word)[k]
    table, forms, k2, groups = _digit_words(), _forms(digits, index), 2 * k, (digits + 5) // 3
    canvas = np.empty((len(x), head + groups + tail), dtype="<u4")
    lower_zero, last = np.ones(len(x), dtype=bool), head + groups - 1
    for g in range(groups):  # into columns last (group 0) to head
        q = rest // word(1000)
        group = rest - q * word(1000)
        np.take(table, group.view(index) + forms[g][k2 + lower_zero], out=canvas[:, last - g],
                mode="clip")  # both addends signed: a mixed sum would widen or turn float
        lower_zero &= group == 0
        rest = q
    if head:
        canvas[:, 0] = neg * ord("-") + below_one * (ord("0") << 8 | ord(".") << 16)
    if tail:
        canvas[:, -1] = seps
    else:
        canvas[:, last] |= seps << np.uint32(24)
    if len(slow):
        exact = b"".join(("%.*g" % (digits, v)).encode().ljust(4 * groups + 4, b"\0")
                         for v in x[slow].tolist())
        canvas[slow, :-1] = np.frombuffer(exact, "<u4").reshape(len(slow), groups + 1)
    return canvas.tobytes().translate(None, b"\0").decode("ascii")


def write_dataset(dataset: Dataset) -> str:
    """Serialize to canonical JSON text. Deterministic: same dataset, same bytes.

    Every coordinate is a JSON number with 17 significant digits (exact
    float64 round trip), as "%.17g" prints it: fmt_g at 17 digits, WRITE_BLOCK
    coordinates at a time. -0.0 is written as 0: JSON readers may hand "-0"
    back as the integer zero, so the sign bit would not survive a round trip
    anyway. Strings are quoted as json.dumps does.
    """
    sample = dataset.sample
    n, k = len(sample), sample.landmark_count
    lines = ["{", f'  "schema": {SCHEMA_VERSION},',
             f'  "landmarks": [{", ".join(map(_quote, sample.labels))}],', '  "configurations": [']
    values = sample.coords.reshape(n, 2 * k)
    rows = max(1, WRITE_BLOCK // (2 * k))  # configurations per block
    seps = np.tile(np.frombuffer(b", \0\0], [", "<u4"), k * rows)  # after an x, after a y
    seps[2 * k - 1::2 * k] = ord("\n")  # after a configuration
    for start in range(0, n, rows):
        block, names = values[start:start + rows].ravel(), sample.names[start:start + rows]
        texts = fmt_g(block, seps[:len(block)], 17).split("\n")
        lines += [f'    {{"id": {_quote(name)}, "group": {_quote(sample.groups.get(name, ""))}, '
                  f'"coords": [[{text}]]}},' for name, text in zip(names, texts)]
    lines[-1] = lines[-1][:-1]  # no comma after the last configuration
    sources = ", ".join(map(_quote, dataset.provenance))
    # one join, ending in "\n", so the text is built once
    lines += ["  ],", f'  "provenance": {{"sources": [{sources}]}}', "}", ""]
    return "\n".join(lines)


def _reject_constant(token: str):
    raise InputError(f"non-finite number {token!r} in dataset JSON")


def _coords_stack(values: list, k: int) -> np.ndarray | None:
    """Several "coords" values as one (n, k, 2) array, or None.

    Each value must be a list of k [x, y] pairs. Only JSON numbers are
    coordinates: true/false, strings and numbers beyond the float64 range
    (a long integer, 1e400) give None. Types are checked over the chained
    values, and one cast builds the stack.
    """
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {k}:
        pairs = list(itertools.chain.from_iterable(values))
        if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
            numbers = list(itertools.chain.from_iterable(pairs))
            if set(map(type, numbers)) <= {int, float}:
                with contextlib.suppress(OverflowError):  # an int beyond the float64 range
                    stack = np.array(numbers, dtype=float).reshape(len(values), k, 2)
                    if np.isfinite(stack).all():
                        return stack
    return None


def _raise_entry_error(labels: tuple[str, ...], entries: list) -> None:
    """Check the entries one at a time and raise the first error found."""
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "coords" not in entry:
            raise InputError("each configuration needs \"id\" and \"coords\"")
        cid, coords = entry["id"], entry["coords"]
        if not isinstance(cid, str):
            raise InputError("configuration \"id\" must be a string")
        stack = _coords_stack([coords], len(coords)) if type(coords) is list else None
        if stack is None:
            raise InputError(
                f"configuration {cid!r}: \"coords\" must be [[x, y], ...] with finite numbers")
        LandmarkConfiguration(cid, labels, stack[0])
        if not isinstance(entry.get("group", ""), str):
            raise InputError(f"configuration {cid!r}: \"group\" must be a string")


def read_dataset(text: str) -> Dataset:
    """Parse canonical JSON; the exact inverse of write_dataset."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise InputError("dataset JSON must be an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {schema!r}; this build reads {SCHEMA_VERSION}")
    labels = doc.get("landmarks")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise InputError("\"landmarks\" must be a list of strings")
    entries = doc.get("configurations")
    if not isinstance(entries, list) or not entries:
        raise InputError("\"configurations\" must be a non-empty list")
    labels = tuple(labels)
    k = len(labels)
    stack = None
    if k >= 3 and len(set(labels)) == k and all(
            type(e) is dict and type(e.get("id")) is str and "coords" in e
            and type(e.get("group", "")) is str for e in entries):
        stack = _coords_stack([e["coords"] for e in entries], k)
    if stack is None:
        _raise_entry_error(labels, entries)
    prov = doc.get("provenance", {})
    sources = prov.get("sources", []) if isinstance(prov, dict) else []
    if type(sources) is not list or not all(isinstance(s, str) for s in sources):
        raise InputError("\"provenance.sources\" must be a list of strings")
    groups = {e["id"]: e["group"] for e in entries if e.get("group")}
    return Dataset(Sample([e["id"] for e in entries], labels, stack, groups=groups), sources)


_KEY_LINE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)=(.*)$")

CAST_BLOCK = 4096  # coordinate lines cast to float at a time


def _floats(tokens, count: int) -> np.ndarray | None:
    """float() of count tokens, or None if one is malformed or a value is not finite."""
    try:
        values = np.fromiter(map(float, tokens), float, count)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _tps_coordinates(line: str, line_no: int) -> None:
    """Check one TPS coordinate line on its own, raising its error."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"expected two coordinates, got {len(parts)} field(s)", line=line_no)
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"malformed coordinates {line.strip()!r}", line=line_no)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError("non-finite coordinates are not allowed", line=line_no)


def parse_tps_file(text: str) -> Sample:
    """Parse a TPS landmark file into a sample.

    Each record is LM=<k> followed by k coordinate lines; ID= names the
    specimen and SCALE= is applied multiplicatively. Other KEY= lines are
    ignored. Labels default to L1..Lk since the format has none.

    One pass tells KEY= lines from coordinate lines, which are cast to float
    CAST_BLOCK lines at a time. The first error in file order is reported:
    the lines above a structural error are cast before it is raised, and a
    block that fails is rescanned line by line.
    """
    lines = text.splitlines()
    rows = array("l")  # index of each coordinate line
    blocks: list[np.ndarray] = []  # values of the coordinate lines cast so far
    records: list[tuple[str, int, float]] = []  # name, count and scale of closed records
    ident, scale, count, remaining, start = None, 1.0, 0, 0, 0

    def cast():
        for b in range(sum(map(len, blocks)) // 2, len(rows), CAST_BLOCK):
            block = rows[b:b + CAST_BLOCK]
            # "|" (which float() rejects) between lines: if every third token is
            # one and the rest are numbers, each line held exactly two fields
            tokens = " | ".join(map(lines.__getitem__, block)).split()
            two_fields = len(tokens) == 3 * len(block) - 1 and set(tokens[2::3]) <= {"|"}
            del tokens[2::3]
            values = _floats(tokens, 2 * len(block)) if two_fields else None
            if values is None:  # the first bad line of the block raises
                for i in block:
                    _tps_coordinates(lines[i], i + 1)
            blocks.append(values)

    def fail(message: str, line_no: int):
        cast()  # a bad coordinate line above the error comes first
        raise ParseError(message, line=line_no)

    def ends_early(line_no: int):
        fail(f"record starting at line {start} ends early: "
             f"{remaining} coordinate line(s) missing", line_no)

    def close():
        nonlocal ident, scale
        records.append((ident or f"specimen_{len(records) + 1}", count, scale))
        if count < 3 or scale > 1.0:
            # too short, or scaled up (an overflow is non-finite): checked as it closes
            done = len(blocks)
            cast()
            coords = np.concatenate(blocks[done:])[-2 * count:].reshape(-1, 2)
            with np.errstate(over="ignore"):
                LandmarkConfiguration(records[-1][0], default_labels(count), coords * scale)
        ident, scale = None, 1.0

    for i, raw in enumerate(lines):
        line = raw.strip()
        match = _KEY_LINE.match(line) if "=" in line else None
        if match is None and line:
            if not remaining:
                fail(f"unexpected line outside a landmark record: {line!r}", i + 1)
            rows.append(i)
            remaining -= 1
        elif match:
            key, value = match.group(1).upper(), match.group(2).strip()
            if remaining and key == "LM":
                ends_early(i + 1)
            elif remaining:
                fail(f"expected a coordinate line ({remaining} to go), got {key}=", i + 1)
            elif key == "LM":
                if count:
                    close()
                try:
                    count = int(value)
                except ValueError:
                    fail(f"LM= needs an integer, got {value!r}", i + 1)
                if count <= 0:
                    fail(f"LM= must be positive, got {count}", i + 1)
                remaining, start = count, i + 1
            elif key == "ID":
                ident = value
            elif key == "SCALE":
                try:
                    scale = float(value)
                except ValueError:
                    fail(f"SCALE= needs a number, got {value!r}", i + 1)
                if not math.isfinite(scale) or scale <= 0.0:
                    fail(f"SCALE= must be positive and finite, got {value}", i + 1)
            # other KEY= lines (IMAGE=, COMMENT=, ...) are ignored
    if remaining:
        ends_early(len(lines))
    if count:
        close()
    if not records:
        raise ParseError("no LM= records found", line=1)
    cast()
    values = np.concatenate(blocks).reshape(-1, 2)
    names, counts, scales = zip(*records)
    if len(set(counts)) > 1:  # records of different lengths: the first to differ raises
        configs = [LandmarkConfiguration(name, default_labels(len(xy)), xy * s) for name, xy, s
                   in zip(names, np.split(values, np.cumsum(counts)[:-1]), scales)]
        _require_unique_names(names)  # reported before homology, as always
        require_homologous(*configs)
    coords = values.reshape(len(records), counts[0], 2)
    if set(scales) != {1.0}:
        coords *= np.array(scales)[:, None, None]
    return Sample(names, default_labels(counts[0]), coords)


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


def _csv_coordinates(data: list[list[str]], width: int, first: int, last: int) -> np.ndarray:
    """Cells first:last of every data row, as floats in one cast.

    Each row must have width fields and an id. On any failure the rows are
    checked one at a time (field count, id, then each coordinate in order)
    and the first error is raised, with its row number.
    """
    end = next((i for i, row in enumerate(data) if len(row) != width or not row[0].strip()),
               len(data))
    cells = itertools.chain.from_iterable(row[first:last] for row in data[:end])
    values = _floats(map(str.strip, cells), end * (last - first))
    if values is None or end < len(data):
        for line_no, row in enumerate(data[:end + 1], start=2):
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", line=line_no)
            if not row[0].strip():
                raise ParseError("empty id", line=line_no)
            for cell in row[first:last]:
                _parse_float(cell.strip(), line_no)
    return values


def _parse_csv_long(rows, with_group: bool) -> Sample:
    data = rows[1:]
    values = _csv_coordinates(data, 5 if with_group else 4, 2, 4).reshape(-1, 2)
    ids = [row[0].strip() for row in data]
    order = {cid: i for i, cid in enumerate(dict.fromkeys(ids))}
    groups: dict[str, str] = {}
    for cid, row in zip(ids, data):
        if with_group and row[4].strip():
            groups.setdefault(cid, row[4].strip())
    codes = np.fromiter(map(order.__getitem__, ids), np.intp, len(ids))
    rank = np.argsort(codes, kind="stable")  # rows grouped by id, in file order within an id
    labels = np.array([row[1].strip() for row in data], dtype=object)[rank]
    counts = np.bincount(codes, minlength=len(order))
    n, k = len(order), len(data) // max(len(order), 1)
    if not (n and (counts == k).all() and (labels.reshape(n, k) == labels[:k]).all()):
        # ids of different lengths or labels: the first to differ from the first id raises
        bounds = np.cumsum(counts)[:-1]
        require_homologous(*(LandmarkConfiguration(cid, tuple(l), xy) for cid, l, xy in
                             zip(order, np.split(labels, bounds), np.split(values[rank], bounds))))
    return Sample(order, tuple(labels[:k]), values[rank].reshape(n, k, 2), groups=groups)


def _parse_csv_wide(rows, k: int, with_group: bool) -> Sample:
    base = 2 if with_group else 1
    data = rows[1:2] if k < 3 else rows[1:]  # too few landmarks: the first row reports it
    values = _csv_coordinates(data, base + 2 * k, base, base + 2 * k)
    groups = {row[0].strip(): row[1].strip() for row in data if with_group and row[1].strip()}
    return Sample([row[0].strip() for row in data], default_labels(k),
                  values.reshape(len(data), k, 2), groups=groups)


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

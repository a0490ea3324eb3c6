"""Differential fuzz of the landmark parsers against per-line reference parsers.

The reference functions below are the line-at-a-time parsers that the
whole-sample parsers replaced, kept as they were apart from names, an
errstate that silences the overflow warning of a SCALE product, and the final
stacking of their configurations, which goes through helpers.sample_of (it
checks names, then homology, then the stack, as the parsers do). On any text
both must either return equal samples (names, labels, groups and
coordinates bit for bit) or raise the same InputError subclass with the
same message and line number. Inputs are valid files, optionally with a few
mutations: dropped, duplicated or extra lines, extra fields, nan/inf/1e400,
SCALE=0, a stray "=", blank lines, CRLF endings and records of different
lengths. The TPS tests also run with a tiny cast block, so that errors fall
before, inside and after block boundaries.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridmorph import InputError, ParseError, formats
from gridmorph.core import LandmarkConfiguration, Sample, default_labels
from helpers import sample_of

FUZZ = settings(max_examples=200, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# reference parsers: one line, row or entry at a time

_KEY_LINE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)=(.*)$")


def reference_tps(text: str) -> Sample:
    configs = []
    pending = None
    remaining = 0
    ident = None
    scale = 1.0
    start_line = 0

    def finish(line_no):
        nonlocal pending, ident, scale
        if pending is None:
            return
        if remaining > 0:
            raise ParseError(f"record starting at line {start_line} ends early: "
                             f"{remaining} coordinate line(s) missing", line=line_no)
        name = ident if ident else f"specimen_{len(configs) + 1}"
        with np.errstate(over="ignore"):
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
                    raise ParseError(f"SCALE= must be positive and finite, got {value}",
                                     line=line_no)
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
    return sample_of(configs)


def _reference_float(token, line):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"malformed coordinate {token!r}", line=line)
    if not math.isfinite(value):
        raise ParseError(f"non-finite coordinate {token!r}", line=line)
    return value


def _reference_csv_long(rows, with_group):
    width = 5 if with_group else 4
    order, per_id, groups = [], {}, {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", line=line_no)
        cid, label = row[0].strip(), row[1].strip()
        if not cid:
            raise ParseError("empty id", line=line_no)
        x = _reference_float(row[2].strip(), line_no)
        y = _reference_float(row[3].strip(), line_no)
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
    return sample_of(configs, groups)


def _reference_csv_wide(rows, k, with_group):
    labels = default_labels(k)
    configs, groups = [], {}
    base = 2 if with_group else 1
    width = base + 2 * k
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", line=line_no)
        cid = row[0].strip()
        if not cid:
            raise ParseError("empty id", line=line_no)
        coords = np.asarray(
            [(_reference_float(row[base + 2 * i].strip(), line_no),
              _reference_float(row[base + 2 * i + 1].strip(), line_no)) for i in range(k)],
            dtype=float)
        configs.append(LandmarkConfiguration(cid, labels, coords))
        if with_group and row[1].strip():
            groups[cid] = row[1].strip()
    return sample_of(configs, groups)


def reference_csv(text: str) -> Sample:
    rows = [row for row in csv.reader(io.StringIO(text))
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty CSV", line=1)
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:4] == ["id", "label", "x", "y"] and len(header) in (4, 5):
        if len(header) == 5 and header[4] != "group":
            raise ParseError(f"unrecognized long-form column {rows[0][4]!r}", line=1)
        return _reference_csv_long(rows, with_group=len(header) == 5)
    if header and header[0] == "id":
        rest = header[1:]
        with_group = bool(rest) and rest[0] == "group"
        if with_group:
            rest = rest[1:]
        if rest and len(rest) % 2 == 0:
            for idx, cell in enumerate(rest):
                want_axis = "x" if idx % 2 == 0 else "y"
                want_num = idx // 2 + 1
                m = re.match(r"^([xy])(\d+)$", cell)
                if not m or m.group(1) != want_axis or int(m.group(2)) != want_num:
                    raise ParseError(
                        f"unrecognized wide-form column {rows[0][1 + with_group + idx]!r} "
                        f"(expected {want_axis}{want_num})", line=1)
            return _reference_csv_wide(rows, k=len(rest) // 2, with_group=with_group)
    raise ParseError("unrecognized CSV header; expected id,label,x,y or id,x1,y1,...,xk,yk",
                     line=1)


def _reference_coords_array(cid, coords):
    if (type(coords) is list and set(map(type, coords)) <= {list}
            and set(map(len, coords)) <= {2}):
        values = list(itertools.chain.from_iterable(coords))
        if set(map(type, values)) <= {int, float}:
            with contextlib.suppress(OverflowError):
                array = np.array(values, dtype=float).reshape(-1, 2)
                if np.isfinite(array).all():
                    return array
    raise InputError(
        f"configuration {cid!r}: \"coords\" must be [[x, y], ...] with finite numbers")


def reference_dataset(text: str) -> formats.Dataset:
    try:
        doc = json.loads(text, parse_constant=formats._reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise InputError("dataset JSON must be an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != formats.SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {schema!r}; "
                         f"this build reads {formats.SCHEMA_VERSION}")
    labels = doc.get("landmarks")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise InputError("\"landmarks\" must be a list of strings")
    entries = doc.get("configurations")
    if not isinstance(entries, list) or not entries:
        raise InputError("\"configurations\" must be a non-empty list")
    labels = tuple(labels)
    configs, groups = [], {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "coords" not in entry:
            raise InputError("each configuration needs \"id\" and \"coords\"")
        cid = entry["id"]
        if not isinstance(cid, str):
            raise InputError("configuration \"id\" must be a string")
        configs.append(LandmarkConfiguration(cid, labels,
                                             _reference_coords_array(cid, entry["coords"])))
        group = entry.get("group", "")
        if not isinstance(group, str):
            raise InputError(f"configuration {cid!r}: \"group\" must be a string")
        if group:
            groups[cid] = group
    prov = doc.get("provenance", {})
    sources = prov.get("sources", []) if isinstance(prov, dict) else []
    if type(sources) is not list or not all(isinstance(s, str) for s in sources):
        raise InputError("\"provenance.sources\" must be a list of strings")
    return formats.Dataset(sample_of(configs, groups), sources)


# ---------------------------------------------------------------------------
# the comparison


def _outcome(parse, text):
    try:
        return parse(text), None
    except InputError as exc:  # any other exception escapes and fails the test
        return None, exc


def _same_sample(a: Sample, b: Sample) -> bool:
    return (a.names == b.names and a.labels == b.labels and a.unit == b.unit
            and a.groups == b.groups
            and a.coords.shape == b.coords.shape
            and a.coords.tobytes() == b.coords.tobytes())


def assert_same_outcome(parse, reference, text, want_valid=False):
    got, error = _outcome(parse, text)
    want, want_error = _outcome(reference, text)
    if want_error is not None or error is not None:
        assert not want_valid, want_error
        assert type(error) is type(want_error), (error, want_error)
        assert str(error) == str(want_error)
        assert getattr(error, "line", None) == getattr(want_error, "line", None)
        return
    if isinstance(got, formats.Dataset):
        assert got.provenance == want.provenance
        got, want = got.sample, want.sample
    assert _same_sample(got, want)


# ---------------------------------------------------------------------------
# generators

NUMBER = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.4f}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["1_0", "-0", "-0.0", "+3.5", "1e3", ".5", "5.", "١٢", "1e300",
                     "2.5e-310", "1E-5"]),
)
SPACE = st.sampled_from([" ", "\t", "  ", " \t "])
POOL = ["0x10 1", "infinity 0", "1 2 3", "4", "x=1 2", "1=2 3", "1 2=3", "nan 0", "0 inf", "1e400 2", "-inf -inf",
        "SCALE=0", "SCALE=-1", "SCALE=abc", "SCALE=inf", "SCALE=1e300", "LM=abc", "LM=0",
        "LM=-2", "LM=2", "LM=3", "LM=4", "ID=dup", "", "   ", "garbage", "IMAGE=a=b", "1,2",
        "COMMENT=x", "id=lower", "  1.5\t2.5  "]


@st.composite
def tps_lines(draw, ragged=False):
    k = draw(st.integers(3, 6))
    lines = []
    for index in range(draw(st.integers(1, 6))):
        count = draw(st.integers(3, 6)) if ragged else k
        lines.append(draw(st.sampled_from([f"LM={count}", f"lm= {count}", f"  LM=+{count}"])))
        for _ in range(count):
            x, y, gap = draw(NUMBER), draw(NUMBER), draw(SPACE)
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(f"{pad}{x}{gap}{y}{pad}")
        for key in draw(st.lists(st.sampled_from(["ID", "SCALE", "IMAGE", "COMMENT", "BLANK"]),
                                 max_size=3)):
            lines.append({"ID": f"ID=spec_{index}",
                          "SCALE": f"SCALE={draw(st.sampled_from(['0.5', '2', '1', '1e-3']))}",
                          "IMAGE": "IMAGE=img.jpg", "COMMENT": "COMMENT=a b",
                          "BLANK": ""}[key])
    return lines


@st.composite
def mutated(draw, lines):
    """Apply up to three mutations to a list of lines, then join with LF or CRLF."""
    lines = list(draw(lines))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["drop", "dup", "extra", "field", "token", "blank"]))
        if kind == "extra" or not lines:
            lines.insert(at, draw(st.sampled_from(POOL)))
            continue
        at = min(at, len(lines) - 1)
        if kind == "drop":
            del lines[at]
        elif kind == "dup":
            lines.insert(at, lines[at])
        elif kind == "field":
            lines[at] += draw(st.sampled_from([" 7", ",7", "\t1e400"]))
        elif kind == "token":
            bad = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "1=2"]))
            lines[at] = re.sub(r"[^\s,=]+", bad, lines[at], count=1)
        else:
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


# ---------------------------------------------------------------------------
# TPS


@pytest.fixture(params=[formats.CAST_BLOCK, 3], ids=lambda b: f"block{b}")
def cast_block(request, monkeypatch):
    monkeypatch.setattr(formats, "CAST_BLOCK", request.param)
    return request.param


@FUZZ
@given(st.data())
def test_tps_valid_files_parse_like_the_reference(cast_block, data):
    text = "\n".join(data.draw(tps_lines())) + "\n"
    assert_same_outcome(formats.parse_tps_file, reference_tps, text, want_valid=True)


@FUZZ
@given(st.data())
def test_tps_mutations_fail_like_the_reference(cast_block, data):
    text = data.draw(mutated(tps_lines(ragged=data.draw(st.booleans()))))
    assert_same_outcome(formats.parse_tps_file, reference_tps, text)


@pytest.mark.parametrize("line", [
    "1_0 2", "\u0661 2", "1\u00a02", "1\u20032", "1\x0b2", "1\x0c2", "+1 .5", "1. -0",
    "1e400 2", "nan 2", "0x10 2", "1,2 3", "1 2 # comment", "# 1 2"])
def test_tps_cast_of_a_line_is_the_references(cast_block, line):
    # the block cast and its line-by-line rescan read each of these as float() does
    lines = []
    for r in range(4):
        lines += ["LM=4", "0 0", "1 0", "0 1", f"{r} {r}.5"]
    lines[13] = line  # the third record's third landmark: in the middle of a block of 3
    text = "\n".join(lines) + "\n"
    assert_same_outcome(formats.parse_tps_file, reference_tps, text)
    if line == "1. -0":
        assert np.signbit(formats.parse_tps_file(text).coords[2, 2, 1])


def test_tps_valid_file_is_a_sample():
    text = "LM=3\n1 2\n3 4\n5 6\nID=a\nSCALE=2\nLM=3\n1_0 2\n١ 1e3\n-0 5\n"
    sample = formats.parse_tps_file(text)
    assert _same_sample(sample, reference_tps(text))
    assert sample.names == ("a", "specimen_2")


@pytest.mark.parametrize("bad_line", [5, 4096, 4097, 4099, 8193])
def test_tps_errors_across_real_cast_blocks(bad_line):
    # 83 records of 103 landmarks: 8549 coordinate lines in three blocks of
    # 4096; records straddle the block ends and no block ends with a record
    lines = []
    for r in range(83):
        lines.append("LM=103")
        lines += [f"{r}.5 {i}" for i in range(103)]
    good = "\n".join(lines) + "\n"
    assert_same_outcome(formats.parse_tps_file, reference_tps, good, want_valid=True)
    coordinate_lines = [i for i, line in enumerate(lines) if not line.startswith("LM")]
    at = coordinate_lines[bad_line - 1]
    for bad in ("1 nan", "1 2 3", "one 2"):
        broken = list(lines)
        broken[at] = bad
        assert_same_outcome(formats.parse_tps_file, reference_tps, "\n".join(broken))
        # a structural error further down must not hide it
        broken[-50] = "LM=x"
        assert_same_outcome(formats.parse_tps_file, reference_tps, "\n".join(broken))


def test_tps_scaled_overflow_is_reported_where_its_record_closes():
    text = "LM=3\n1e300 0\n0 1\n1 1\nSCALE=1e10\nLM=3\n0 0\nx y\n1 1\n"
    assert_same_outcome(formats.parse_tps_file, reference_tps, text)
    with pytest.raises(InputError, match="must be finite"):
        formats.parse_tps_file(text)


# ---------------------------------------------------------------------------
# CSV


@st.composite
def csv_wide_lines(draw):
    k = draw(st.integers(1, 5))
    group = draw(st.booleans())
    lines = ["id," + ("group," if group else "") + ",".join(f"x{i},y{i}" for i in range(1, k + 1))]
    for index in range(draw(st.integers(0, 5))):
        cells = [f"s{index}"] + ([draw(st.sampled_from(["a", "b", "", " b "]))] if group else [])
        cells += [draw(NUMBER) for _ in range(2 * k)]
        lines.append(",".join(cells))
    return lines


@st.composite
def csv_long_lines(draw):
    group = draw(st.booleans())
    labels = draw(st.lists(st.sampled_from(["Bas", "Opi", "Brg", "Lam", "Sos"]),
                           min_size=1, max_size=5))
    lines = ["id,label,x,y" + (",group" if group else "")]
    for index in range(draw(st.integers(0, 4))):
        for label in labels:
            cells = [f"s{index}", label, draw(NUMBER), draw(NUMBER)]
            cells += [draw(st.sampled_from(["a", "b", ""]))] if group else []
            lines.append(",".join(cells))
    if draw(st.booleans()):  # interleave the ids
        lines[1:] = sorted(lines[1:], key=lambda line: line.split(",")[1])
    return lines


@FUZZ
@given(st.data())
def test_csv_wide_parses_like_the_reference(data):
    text = data.draw(mutated(csv_wide_lines()))
    assert_same_outcome(formats.parse_csv, reference_csv, text)


@FUZZ
@given(st.data())
def test_csv_long_parses_like_the_reference(data):
    text = data.draw(mutated(csv_long_lines()))
    assert_same_outcome(formats.parse_csv, reference_csv, text)


def test_csv_valid_files_are_samples():
    wide = "id,group,x1,y1,x2,y2,x3,y3\na,g, 1_0 ,2,3,4,5,6\nb,,0,0,1,0,0,1\n"
    long = "id,label,x,y\na,P,0,0\nb,P,1,1\na,Q,1,0\nb,Q,2,1\na,R,0,1\nb,R,1,2\n"
    for text in (wide, long):
        assert_same_outcome(formats.parse_csv, reference_csv, text, want_valid=True)
    assert formats.parse_csv(long).names == ("a", "b")


# ---------------------------------------------------------------------------
# dataset JSON


@st.composite
def dataset_texts(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(3, 5))
    doc = {"schema": 1, "landmarks": list(default_labels(k)),
           "configurations": [{"id": f"c{i}", "group": draw(st.sampled_from(["", "g"])),
                               "coords": [[draw(st.floats(-1e6, 1e6)), draw(st.integers(-9, 9))]
                                          for _ in range(k)]}
                              for i in range(n)],
           "provenance": {"sources": ["a.tps"]}}
    generated = list(doc["configurations"])
    for _ in range(draw(st.integers(0, 3))):
        entry = draw(st.sampled_from(generated))
        kind = draw(st.sampled_from(["coord", "pair", "drop_pair", "id", "group", "missing",
                                     "dup", "labels", "provenance", "entry"]))
        pairs = entry.get("coords")
        if kind in ("coord", "pair", "drop_pair") and not (
                pairs and all(type(pair) is list and pair for pair in pairs)):
            continue  # an earlier mutation already broke these coords
        if kind == "coord":
            pair = draw(st.sampled_from(entry["coords"]))
            pair[draw(st.integers(0, len(pair) - 1))] = draw(st.sampled_from(
                [True, "1", None, 10 ** 400, [1], 1.5, -0.0]))
        elif kind == "pair":
            entry["coords"][0] = draw(st.sampled_from([[1, 2, 3], [1], {}, "xy", None]))
        elif kind == "drop_pair":
            entry["coords"].pop()
        elif kind == "id":
            entry["id"] = draw(st.sampled_from([7, None, "c0", ""]))
        elif kind == "group":
            entry["group"] = draw(st.sampled_from([3, None, ["g"], "h"]))
        elif kind == "missing":
            entry.pop(draw(st.sampled_from(["id", "coords", "group"])), None)
        elif kind == "dup":
            doc["configurations"].append(json.loads(json.dumps(entry)))
        elif kind == "labels":
            doc["landmarks"] = draw(st.sampled_from([["L1", "L1", "L3"], ["L1", "L2"], [],
                                                     ["L1", "L2", "L3", "L4", "L5", "L6"]]))
        elif kind == "provenance":
            doc["provenance"] = draw(st.sampled_from([{"sources": 9}, [], {"sources": "ab"}, {}]))
        else:
            doc["configurations"].insert(0, draw(st.sampled_from([[], 3, {"id": "z"}])))
    text = json.dumps(doc)
    if draw(st.booleans()):  # a number JSON can hold but float64 cannot
        text = text.replace("1.5", "1e400", 1)
    return text


@FUZZ
@given(dataset_texts())
def test_read_dataset_like_the_reference(text):
    assert_same_outcome(formats.read_dataset, reference_dataset, text)


def test_read_dataset_valid_text_is_a_sample():
    sample = Sample(["a", "b"], default_labels(3), [[(0, 0), (1, 0), (0, 1)],
                                                    [(0, 0), (2, 0), (0, 2.5)]], groups={"b": "g"})
    text = formats.write_dataset(formats.Dataset(sample, provenance=("x.tps",)))
    assert_same_outcome(formats.read_dataset, reference_dataset, text, want_valid=True)


def _doc(**changes):
    doc = {"schema": 1, "landmarks": ["L1", "L2", "L3"],
           "configurations": [{"id": "a", "group": "", "coords": [[0, 0], [1, 0], [0, 1]]},
                              {"id": "b", "group": "g", "coords": [[0, 0], [2, 0], [0, 1]]}],
           "provenance": {"sources": []}}
    for path, value in changes.items():
        *keys, last = path.split("__")
        node = doc
        for key in keys:
            node = node[int(key)] if key.isdigit() else node[key]
        node[int(last) if last.isdigit() else last] = value
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    # an entry's own error comes before the provenance check, duplicate ids after it
    (_doc(landmarks=["L1", "L1", "L3"], provenance={"sources": 9}), "labels must be unique"),
    (_doc(landmarks=["L1", "L2"], provenance={"sources": 9}), "'a': 2 labels for 3 landmarks"),
    (_doc(configurations__1__id="a", provenance={"sources": 9}), "provenance.sources"),
    (_doc(configurations__1__id="a"), "duplicate configuration name 'a'"),
    # within the entries, the first faulty one decides
    (_doc(configurations__0__coords=[[0, 0], [1, True], [0, 1]], configurations__1__id=3),
     "'a': \"coords\" must be"),
    (_doc(configurations__0__group=1, configurations__1__coords=[]), "'a': \"group\" must be"),
    (_doc(configurations__1__coords=[[0, 0], [1, 0]]), "'b': at least 3 landmarks"),
])
def test_read_dataset_reports_the_first_error(text, message):
    assert_same_outcome(formats.read_dataset, reference_dataset, text)
    with pytest.raises(InputError, match=re.escape(message)):
        formats.read_dataset(text)

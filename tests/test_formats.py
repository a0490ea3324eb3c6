import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (Dataset, InputError, ParseError, Sample, parse_csv, parse_tps_file,
                       read_dataset, read_landmarks, synthetic_vilmann, write_dataset)
from gridmorph import cli, formats
from gridmorph.core import default_labels
from gridmorph.formats import SCHEMA_VERSION, _quote, fmt_g
from helpers import large_sample, traced_peak


# ---------------------------------------------------------------------------
# TPS records

def test_tps_single_record():
    text = "LM=3\n1.0 2.0\n3.5 4.0\n-1.0 0.25\nID=spec_a\n"
    sample = parse_tps_file(text)
    assert len(sample) == 1
    cfg = sample.configurations[0]
    assert cfg.name == "spec_a"
    assert np.array_equal(cfg.coords, [(1.0, 2.0), (3.5, 4.0), (-1.0, 0.25)])


def test_tps_two_records_share_labels():
    lines = ["LM=8"]
    lines += [f"{i}.0 {i}.5" for i in range(8)]
    lines += ["ID=first", "LM=8"]
    lines += [f"{i}.25 {i}.75" for i in range(8)]
    lines += ["ID=second"]
    sample = parse_tps_file("\n".join(lines) + "\n")
    assert sample.names == ("first", "second")
    assert len(sample.labels) == 8
    assert sample.configurations[0].labels == sample.configurations[1].labels


def test_tps_scale_applied():
    text = "LM=3\n2.0 4.0\n6.0 8.0\n10.0 0.0\nSCALE=0.5\n"
    sample = parse_tps_file(text)
    assert np.array_equal(sample.configurations[0].coords,
                          [(1.0, 2.0), (3.0, 4.0), (5.0, 0.0)])


def test_tps_missing_id_gets_sequential_name():
    text = "LM=3\n0 0\n1 0\n0 1\nLM=3\n0 0\n2 0\n0 2\n"
    sample = parse_tps_file(text)
    assert sample.names == ("specimen_1", "specimen_2")


def test_tps_short_record_reports_line():
    text = "LM=4\n0 0\n1 0\nID=oops\n"
    with pytest.raises(ParseError) as err:
        parse_tps_file(text)
    assert "line 4" in str(err.value)


def test_tps_bad_coordinate_reports_line():
    text = "LM=3\n0 0\n1 zero\n0 1\n"
    with pytest.raises(ParseError) as err:
        parse_tps_file(text)
    assert "line 3" in str(err.value)


def test_tps_inconsistent_counts_rejected():
    text = "LM=3\n0 0\n1 0\n0 1\nLM=4\n0 0\n1 0\n1 1\n0 1\n"
    with pytest.raises(InputError, match="'specimen_1' and 'specimen_2' are not homologous: "
                                         "3 vs 4 landmarks"):
        parse_tps_file(text)
    # a duplicate ID= is reported before the first record that differs
    three = "LM=3\n0 0\n1 0\n0 1\nID={}\n"
    four = "LM=4\n0 0\n1 0\n1 1\n0 1\nID={}\n"
    text = three.format("a") + three.format("b") + four.format("c") + four.format("a")
    with pytest.raises(InputError, match="duplicate configuration name 'a'"):
        parse_tps_file(text)
    text = three.format("a") + three.format("b") + four.format("c") + three.format("d")
    with pytest.raises(InputError, match="'a' and 'c' are not homologous: 3 vs 4"):
        parse_tps_file(text)


def test_tps_unknown_keys_ignored():
    text = "LM=3\n0 0\n1 0\n0 1\nIMAGE=whatever.jpg\nCOMMENT=x\nID=ok\n"
    sample = parse_tps_file(text)
    assert sample.names == ("ok",)


def test_tps_no_records():
    with pytest.raises(ParseError):
        parse_tps_file("# just a comment\n")


def test_tps_nonpositive_scale_rejected():
    text = "LM=3\n0 0\n1 0\n0 1\nSCALE=0\n"
    with pytest.raises(ParseError):
        parse_tps_file(text)


# ---------------------------------------------------------------------------
# CSV, long and wide

LONG = """id,label,x,y
a,Bas,0.0,0.0
a,Opi,1.0,0.0
a,Brg,0.5,1.0
b,Bas,0.1,0.0
b,Opi,1.1,0.0
b,Brg,0.6,1.2
"""


def test_csv_long():
    sample = parse_csv(LONG)
    assert sample.names == ("a", "b")
    assert sample.labels == ("Bas", "Opi", "Brg")
    assert np.array_equal(sample.configurations[1].coords,
                          [(0.1, 0.0), (1.1, 0.0), (0.6, 1.2)])


def test_csv_long_with_group():
    text = LONG.replace("id,label,x,y", "id,label,x,y,group")
    text = "\n".join(
        line + ",juv" if line and not line.startswith("id") else line
        for line in text.split("\n"))
    sample = parse_csv(text)
    assert sample.groups == {"a": "juv", "b": "juv"}


def test_csv_wide():
    text = "id,x1,y1,x2,y2,x3,y3\nfoo,0,0,1,0,0,1\nbar,0,0,2,0,0,2\n"
    sample = parse_csv(text)
    assert sample.names == ("foo", "bar")
    assert np.array_equal(sample.configurations[0].coords,
                          [(0, 0), (1, 0), (0, 1)])


def test_csv_wide_with_group():
    text = "id,group,x1,y1,x2,y2,x3,y3\nfoo,old,0,0,1,0,0,1\n"
    sample = parse_csv(text)
    assert sample.groups == {"foo": "old"}


def test_csv_unrecognized_header():
    with pytest.raises(ParseError):
        parse_csv("name,east,north\nfoo,1,2\n")


def test_csv_bad_value_reports_row():
    text = "id,label,x,y\na,Bas,0.0,0.0\na,Opi,one,0.0\na,Brg,0.5,1.0\n"
    with pytest.raises(ParseError) as err:
        parse_csv(text)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("text, line, message", [
    ("id,x1,y1,x2,y2,x3,y3\n\na,1,2,3,4,5,6\nb,1,2,3,4,5,z\n", 4, "malformed coordinate 'z'"),
    ("\n \nid,label,x,y,kind\n", 3, "unrecognized long-form column 'kind'"),
    ("\nid,x1,y1,x2\n", 2, "unrecognized CSV header"),
    ("id,label,x,y\r\n\r\na,P,0,0\r\n,P,1,1\r\n", 4, "empty id"),
    ('id,label,x,y\na,"P\nQ",0,0\na,R,0\n', 4, "expected 4 fields, got 3"),
    ("id,x1,y1,x2,y2,x3,y3\n\na," + "1" * 200_000 + ",2,3,4,5,6\n", 3,
     "invalid CSV: field larger than field limit"),
], ids=["blank-line", "header-after-blanks", "header", "crlf", "quoted-newline", "long-cell"])
def test_csv_errors_name_the_line_in_the_file(text, line, message):
    # blank lines count: a row is numbered by the line it ends on, as csv's reader counts them
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_csv(text)
    assert err.value.line == line


def test_csv_rejects_nonfinite():
    text = "id,label,x,y\na,Bas,0.0,0.0\na,Opi,nan,0.0\na,Brg,0.5,1.0\n"
    with pytest.raises(ParseError):
        parse_csv(text)


def test_csv_inconsistent_labels_rejected():
    text = ("id,label,x,y\n"
            "a,Bas,0,0\na,Opi,1,0\na,Brg,0,1\n"
            "b,Bas,0,0\nb,XXX,1,0\nb,Brg,0,1\n")
    with pytest.raises(InputError, match="'a' and 'b' are not homologous: label sequences differ"):
        parse_csv(text)
    # the first id that differs from the first is named, whatever follows it
    rows = ["id,label,x,y", "a,P,0,0", "a,Q,1,0", "a,R,0,1", "b,P,0,0", "b,Q,2,0", "b,R,0,2"]
    with pytest.raises(InputError, match="'a' and 'c' .*label sequences differ"):
        parse_csv("\n".join(rows + ["c,P,0,0", "c,R,1,0", "c,Q,0,1",
                                    "d,P,0,0", "d,Q,1,0", "d,R,0,1", "d,S,1,1"]) + "\n")
    with pytest.raises(InputError, match="'a' and 'c' .*: 3 vs 4 landmarks"):
        parse_csv("\n".join(rows + ["c,P,0,0", "c,Q,1,0", "c,R,0,1", "c,S,1,1"]) + "\n")
    with pytest.raises(InputError, match="sample must contain at least one configuration"):
        parse_csv("id,label,x,y\n")


# ---------------------------------------------------------------------------
# dataset JSON

def test_dataset_round_trip_bitwise():
    dataset = Dataset(synthetic_vilmann(), provenance=("synthetic",))
    text = write_dataset(dataset)
    again = read_dataset(text)
    assert again == dataset
    for a, b in zip(again.sample.configurations, dataset.sample.configurations):
        assert np.array_equal(a.coords, b.coords)  # bitwise, not approx
    assert write_dataset(again) == text


def test_dataset_serializes_awkward_floats():
    coords = np.array([(0.1, 1e-300), (np.pi, -0.0), (1e300, 2.0 / 3.0)])
    dataset = Dataset(Sample(["weird"], default_labels(3), coords[None]))
    again = read_dataset(write_dataset(dataset))
    assert np.array_equal(again.sample.configurations[0].coords, coords)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.integers(3, 6).flatmap(
    lambda k: arrays(np.float64, (n, k, 2), elements=st.floats(allow_nan=False,
                                                               allow_infinity=False)))))
@example(np.array([[[-0.0, 5e-324], [1e308, -1e308], [-2.2250738585072014e-308, 0.1]]]))
def test_dataset_round_trip_is_exact(stack):
    names = [f"c{i}" for i in range(len(stack))]
    text = write_dataset(Dataset(Sample(names, default_labels(stack.shape[1]), stack,
                                        groups={"c0": "first"})))
    again = read_dataset(text).sample
    assert again.groups == {"c0": "first"}
    back = again.coords
    assert np.array_equal(back, stack)  # bit for bit, and -0.0 comes back as 0.0
    assert not np.signbit(back[stack == 0.0]).any()
    assert write_dataset(Dataset(again)) == text


def percent_write_dataset(dataset):
    """The oracle for write_dataset: a "%.17g" template per row and json.dumps per string."""
    sample = dataset.sample
    coords = "[" + ", ".join(["[%.17g, %.17g]"] * sample.landmark_count) + "]"
    rows = (row.tolist() for row in (sample.coords + 0.0).reshape(len(sample), -1))
    lines = ["{", f'  "schema": {SCHEMA_VERSION},',
             f'  "landmarks": [{", ".join(json.dumps(l) for l in sample.labels)}],',
             '  "configurations": [']
    lines += [f'    {{"id": {json.dumps(name)}, "group": {json.dumps(sample.group_of(name))}, '
              f'"coords": {coords % tuple(row)}}},' for name, row in zip(sample.names, rows)]
    lines[-1] = lines[-1][:-1]
    sources = ", ".join(json.dumps(s) for s in dataset.provenance)
    lines += ["  ],", f'  "provenance": {{"sources": [{sources}]}}', "}", ""]
    return "\n".join(lines)


AWKWARD = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\xe9 \u4e2d \U0001f600",
           "lone \ud800 \udfff"]


def random_dataset(rng, n, k):
    """n configurations of k landmarks: coordinates across scales with zeros, -0.0, negatives,
    integers and exact ties; awkward ids, groups and sources; the last configuration has no
    group."""
    coords = rng.choice([-1.0, 1.0], (n, k, 2)) * 10 ** rng.uniform(-6, 19, (n, k, 2))
    kind = rng.integers(8, size=(n, k, 2))
    coords[kind == 0] = 0.0
    coords[kind == 1] = -0.0
    coords[kind == 2] = np.round(coords[kind == 2] % 2000 - 1000, 2)
    coords[kind == 3] = rng.integers(-10 ** 6, 10 ** 6, (kind == 3).sum())
    coords[kind == 4] = (2 * rng.integers(1 << 33, 1 << 36, (kind == 4).sum()) + 1) / 1024
    names = [f"{AWKWARD[i % len(AWKWARD)]} {i}" for i in range(n)]
    groups = {name: AWKWARD[i % 3] for i, name in enumerate(names[:-1])}
    return Dataset(Sample(names, [f"L{j} {AWKWARD[j % 5]}" for j in range(k)], coords,
                          groups=groups), provenance=AWKWARD)


@pytest.mark.parametrize("block", [1, 6, 64, formats.WRITE_BLOCK])
def test_write_dataset_equals_per_row_percent_oracle(monkeypatch, block):
    rng = np.random.default_rng(block)
    datasets = [random_dataset(rng, n, k) for n, k in ((1, 3), (2, 3), (9, 3), (40, 5), (310, 20),
                                                        (701, 7))]
    for dataset in datasets[-2:]:  # three blocks or more, the last one short
        n, rows = len(dataset.sample), max(1, block // (2 * dataset.sample.landmark_count))
        assert n > 2 * rows and (n % rows or rows == 1)
    monkeypatch.setattr(formats, "WRITE_BLOCK", block)
    assert [write_dataset(d) for d in datasets] == [percent_write_dataset(d) for d in datasets]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.text(st.characters(exclude_categories=())))
@example("".join(AWKWARD))
@example("\\\"\x00\x08\x0c\u2028\ud83d\ude00\udbff")
def test_quote_equals_json_dumps(text):
    assert _quote(text) == json.dumps(text)


# ---------------------------------------------------------------------------
# fmt_g against %, at the SVG's 6 digits and the dataset JSON's 17

DIGITS = pytest.mark.parametrize("digits", [6, 17])
# a one-byte separator shares the word of the lowest digit group, a longer one has its own
SEPS = (",", ", ")


def fmt_g_text(values, digits, sep):
    """fmt_g of some values, each followed by sep."""
    values = np.asarray(values, dtype=float).ravel()
    word = np.frombuffer(sep.encode().ljust(4, b"\0"), "<u4")[0]
    return fmt_g(values, np.full(len(values), word), digits)


def percent_g(values, digits, sep):
    return "".join("%.*g%s" % (digits, v + 0.0, sep)
                   for v in np.asarray(values, dtype=float).ravel().tolist())


def assert_fmt_g_equals_percent(values, digits):
    """fmt_g prints the values as % does after each separator of SEPS: as drawn, and those of
    their absolute values of at least 1 that % prints in fixed notation, whose block has no sign
    word."""
    a = np.abs(np.asarray(values, dtype=float).ravel())
    a = a[(a >= 1) & (a < np.inf)]
    for block in (values, a[["e" not in "%.*g" % (digits, v) for v in a.tolist()]]):
        for sep in SEPS:
            assert fmt_g_text(block, digits, sep) == percent_g(block, digits, sep)


def fixed_notation_ties():
    """(k + 0.5) 10^(e-5) at every exponent e that %.6g prints in fixed notation, and negated.

    Per exponent: three nearest doubles of ties, one of which carries into the
    next power of ten, and one tie that a double holds exactly.
    """
    values = []
    for e in range(-4, 6):
        step = 5 ** (5 - e)  # (2k + 1) / 2^(6-e) / 5^(5-e) is a double when step divides 2k + 1
        exact = step * (-(-200001 // step) | 1)
        values += [odd / (2 * 10 ** (5 - e)) for odd in (200001, 271829, 1999999, exact)]
    return np.array(values + [-v for v in values])


def ulp_neighbours():
    """1e-4, 1e5, 1e6, 1 and 10, each with its neighbouring doubles, and two carries."""
    values = [np.nextafter(v, to) for v in (1e-4, 1e5, 1e6, 1.0, 10.0) for to in (0.0, v, np.inf)]
    return np.array(values + [99999.95, 999999.5, -99999.95])


def pre_rounded(decimals):
    return np.round(np.random.default_rng(decimals).uniform(-1000, 1000, 200), decimals)


def exact_ties():
    """Doubles whose decimal expansion has 18 significant digits, the last a 5: %.17g rounds
    them half to even. odd * 2^-m has the digits of odd * 5^m: k / 1024 from 1e7 to 1e8, and
    from each m a few in the fixed notation range, and 2^-25, and their negatives."""
    values = [2.0 ** -25, 3 * 2.0 ** -25]
    for m in range(2, 22):
        first, last = -(-10 ** 17 // 5 ** m) | 1, min((10 ** 18 - 1) // 5 ** m, 2 ** 53 - 1)
        middle, end = first + 2 * ((last - first) // 7), last - 1 + last % 2
        values += [first / 2 ** m, middle / 2 ** m, end / 2 ** m]
    values += [(10 ** 10 * j + 1) / 1024 for j in range(2, 10)]
    return np.array(values + [-v for v in values])


def six_digit_ties_and_carries():
    """Doubles with 7 significant digits, the last a 5, that %.6g rounds half to even (up and
    down), and values whose 6 or 17 digits carry into the next power of ten, and negated."""
    ties = [123456.5, 123455.5, 100000.5, 999998.5, 12345.25, 12345.75, 1234.125, 1234.375,
            123.0625, 2.5, 0.5, 1.5, 0.0001234565, 2.5 * 2.0 ** -14]
    carries = [np.nextafter(v, to) for v in (999999.5, 99999.95, 9.999995, 0.0009999995,
                                             0.99999999999999999, 9999999999999999.5)
               for to in (0.0, np.inf)] + [999999.5, 9.9999999999999995, 99999999999999999.0]
    return np.array(ties + carries + [-v for v in ties + carries])


def decade_neighbours():
    """Powers of ten from 1e-5 to 1e18 with their neighbouring doubles, two more around 1e-4,
    1e16 and 1e17, and values whose rounding carries into the next power of ten."""
    powers = 10.0 ** np.arange(-5, 19)
    around = [np.nextafter(np.nextafter(p, to), to) for p in (1e-4, 1e16, 1e17)
              for to in (0, np.inf)]
    return np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf), around,
                           [9999.99999999999999, 0.99999999999999999, 99999999999999999.0,
                            9.9999999999999998e16, 0.000099999999999999999]])


EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.5, 0.1, 1 / 3,
                  -2.5e-320, 1e300, -1e-07, -9.9999996e-08, np.nan, -np.nan, np.inf, -np.inf])
BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@DIGITS
@settings(max_examples=400, derandomize=True, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.one_of(
    st.floats(), st.floats(-1e6, 1e6), st.floats(-1e17, 1e17), BITS)))
@example(fixed_notation_ties())
@example(ulp_neighbours())
@example(pre_rounded(2))
@example(pre_rounded(6))
@example(exact_ties())
@example(six_digit_ties_and_carries())
@example(decade_neighbours())
@example(EDGES)
@example(np.round(np.random.default_rng(2).uniform(-1000, 1000, 200), 2))
@example(np.array([1.5, 2.0, 333.25, np.nan, 7.0, 960.0]))  # one nan: the canvas of %'s rows
@example(np.array([1.5, 2.0, 333.25, 0.0, 7.0, 960.0]))  # one 0: still two halves
@example(np.array([1.5, 2.0, 333.25, 0.5, 7.0, 960.0]))  # one below 1: groups and "0."
@example(np.array([1.5, 2.0, 333.25, -7.0, 7.0, 960.0]))  # one negative: a sign word
@example(10 ** np.random.default_rng(7).uniform(3, 6, 300))  # the point in the low half
@example(np.array([999.9995, 9999.995, 99999.95, 999999.5, 1.5, 1234.5, 12345.75]))  # carries
def test_fmt_g_equals_percent(digits, values):
    assert_fmt_g_equals_percent(values, digits)


@DIGITS
def test_fmt_g_equals_percent_across_scales(digits):
    rng = np.random.default_rng(digits)
    values = np.concatenate([rng.choice([-1.0, 1.0], 100_000) * 10 ** rng.uniform(-6, 19, 100_000),
                             rng.normal(size=50_000), rng.uniform(0, 960, 50_000)])
    assert_fmt_g_equals_percent(values, digits)


@DIGITS
@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_fmt_g_digits_do_not_depend_on_log10_rounding(monkeypatch, digits, shift):
    # an exponent that log10 puts one off is corrected against the exact powers of ten
    values = np.concatenate([fixed_notation_ties(), ulp_neighbours(), pre_rounded(2),
                             exact_ties(), six_digit_ties_and_carries(), decade_neighbours(),
                             EDGES, np.random.default_rng(4).normal(size=200) * 1e3,
                             [0.5, 1.5, 7.25, 42.0, 314.159, 5e5]])
    want = percent_g(values, digits, ", ")
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert fmt_g_text(values, digits, ", ") == want


def power_of_ten_neighbours():
    """10^e and its two neighbouring doubles for e from -4 to 16, nextafter(0.1, 0), negated."""
    powers = 10.0 ** np.arange(-4, 17)
    values = np.concatenate([np.nextafter(powers, -np.inf), powers, np.nextafter(powers, np.inf),
                             [np.nextafter(0.1, 0.0)]])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("digits", range(1, 18))
def test_fmt_g_equals_percent_at_every_precision(digits):
    # the exponent correction holds at every precision, not only the 6 and 17 digits in use, and
    # so do the digit groups: the largest digits at every exponent fill the groups times 1, 10
    # and 100
    values = np.concatenate([power_of_ten_neighbours(), EDGES,
                             9.87654321987654321 * 10.0 ** np.arange(17),
                             np.random.default_rng(digits).normal(size=200) * 1e3])
    assert_fmt_g_equals_percent(values, digits)


def test_dataset_text_is_valid_json_with_schema():
    text = write_dataset(Dataset(synthetic_vilmann()))
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert [c["id"] for c in doc["configurations"]] == ["age7_mean", "age150_mean"]
    assert doc["configurations"][0]["group"] == "age7"
    assert text.endswith("\n")


def test_dataset_wrong_schema_rejected():
    text = write_dataset(Dataset(synthetic_vilmann()))
    with pytest.raises(InputError, match="unsupported schema version 99; this build reads 1"):
        read_dataset(text.replace('"schema": 1', '"schema": 99', 1))


def test_dataset_rejects_nonfinite_tokens():
    broken = ('{"schema": 1, "landmarks": ["L1", "L2", "L3"], "configurations": '
              '[{"id": "a", "group": "", "coords": [[0, 0], [1, NaN], [0, 1]]}], '
              '"provenance": {"sources": []}}')
    with pytest.raises(InputError, match="non-finite number 'NaN' in dataset JSON"):
        read_dataset(broken)
    with pytest.raises(InputError, match="non-finite number 'Infinity' in dataset JSON"):
        read_dataset(broken.replace("NaN", "Infinity"))


def test_dataset_malformed_json():
    with pytest.raises(ParseError):
        read_dataset("{not json")


def test_dataset_missing_field():
    text = write_dataset(Dataset(synthetic_vilmann()))
    doc = json.loads(text)
    del doc["landmarks"]
    with pytest.raises(InputError, match='"landmarks" must be a list of strings'):
        read_dataset(json.dumps(doc))


# ---------------------------------------------------------------------------
# reading by extension

def test_read_landmarks_dispatch(tmp_path):
    tps = tmp_path / "three.tps"
    tps.write_text("LM=3\n0 0\n1 0\n0 1\nID=t\n", encoding="utf-8")
    csv = tmp_path / "three.csv"
    csv.write_text(LONG, encoding="utf-8")
    js = tmp_path / "three.json"
    js.write_text(write_dataset(Dataset(synthetic_vilmann())), encoding="utf-8")

    assert read_landmarks(tps).sample.names == ("t",)
    assert read_landmarks(csv).sample.names == ("a", "b")
    assert read_landmarks(js).sample.names == ("age7_mean", "age150_mean")

    odd = tmp_path / "three.xyz"
    odd.write_text("whatever", encoding="utf-8")
    with pytest.raises(InputError):
        read_landmarks(odd)


# ---------------------------------------------------------------------------
# memory bounded by the input's shape: one configuration or one block at a time


@pytest.fixture(scope="module")
def pixel_sample():
    return large_sample()


def test_streamed_dataset_write_peaks_below_half_its_file(tmp_path, pixel_sample):
    path = tmp_path / "sample.json"
    dataset = Dataset(pixel_sample, provenance=("sample.csv",))
    peak = traced_peak(formats.write_blocks, path, formats.dataset_blocks(dataset))
    size = path.stat().st_size
    assert path.read_text(encoding="utf-8") == write_dataset(dataset)
    assert size > 2_000_000
    assert peak < size / 2, f"dataset write peak {peak} B for a {size} B file"


def test_read_dataset_peaks_below_two_and_a_half_times_its_text(pixel_sample):
    text = write_dataset(Dataset(pixel_sample))
    peak = traced_peak(read_dataset, text)
    # the whole JSON tree of lists and floats took 5.2 times the text
    assert peak < 2.5 * len(text), f"read_dataset peak {peak} B for a {len(text)} B text"


def test_parse_csv_peaks_below_three_times_its_text(pixel_sample):
    rows = ["id,group," + ",".join(f"x{i},y{i}" for i in range(1, 21))]
    rows += [f"{name},{pixel_sample.group_of(name)}," + ",".join(f"{v:.4f}" for v in xy.ravel())
             for name, xy in zip(pixel_sample.names, pixel_sample.coords)]
    text = "\n".join(rows) + "\n"
    assert parse_csv(text) == pixel_sample
    peak = traced_peak(parse_csv, text)
    # every cell as a str at once took 11 times the text, and io.StringIO's copy alone
    # (4 bytes a character) 4 times
    assert peak < 3 * len(text), f"parse_csv peak {peak} B for a {len(text)} B text"


def test_parse_tps_file_peaks_below_three_and_a_half_times_its_text(pixel_sample):
    lines = []
    for name, xy in zip(pixel_sample.names, pixel_sample.coords):
        lines += ["LM=20", *(f"{x:.4f} {y:.4f}" for x, y in xy), f"IMAGE={name}.jpg", f"ID={name}"]
    text = "\n".join(lines) + "\n"
    sample = parse_tps_file(text)
    assert sample.names == pixel_sample.names
    assert sample.coords.tobytes() == pixel_sample.coords.tobytes()
    peak = traced_peak(parse_tps_file, text)
    # the lines of the whole text at once took 7.2 times the text
    assert peak < 3.5 * len(text), f"parse_tps_file peak {peak} B for a {len(text)} B text"


def test_interrupted_dataset_write_leaves_no_file(tmp_path, monkeypatch):
    source, path = tmp_path / "vilmann.json", tmp_path / "out.json"
    source.write_text(write_dataset(Dataset(synthetic_vilmann())), encoding="utf-8")
    assert cli.main(["ingest", str(source), "-o", str(path)]) == 0  # an earlier run's output
    calls = []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return fmt_g(*args)

    monkeypatch.setattr(formats, "WRITE_BLOCK", 1)  # one configuration a block
    monkeypatch.setattr(formats, "fmt_g", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["ingest", str(source), "-o", str(path)])
    assert len(calls) == 2 and not path.exists()

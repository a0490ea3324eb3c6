import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (Dataset, HomologyError, InputError, ParseError, Sample,
                       SchemaError, parse_csv, parse_tps_file, read_dataset,
                       read_landmarks, synthetic_vilmann, write_dataset)
from gridmorph.core import LandmarkConfiguration


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
    with pytest.raises(HomologyError):
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


def test_csv_rejects_nonfinite():
    text = "id,label,x,y\na,Bas,0.0,0.0\na,Opi,nan,0.0\na,Brg,0.5,1.0\n"
    with pytest.raises(ParseError):
        parse_csv(text)


def test_csv_inconsistent_labels_rejected():
    text = ("id,label,x,y\n"
            "a,Bas,0,0\na,Opi,1,0\na,Brg,0,1\n"
            "b,Bas,0,0\nb,XXX,1,0\nb,Brg,0,1\n")
    with pytest.raises(HomologyError):
        parse_csv(text)


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
    cfg = LandmarkConfiguration.build("weird", coords)
    dataset = Dataset(Sample((cfg,)))
    again = read_dataset(write_dataset(dataset))
    assert np.array_equal(again.sample.configurations[0].coords, coords)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.integers(3, 6).flatmap(
    lambda k: arrays(np.float64, (n, k, 2), elements=st.floats(allow_nan=False,
                                                               allow_infinity=False)))))
@example(np.array([[[-0.0, 5e-324], [1e308, -1e308], [-2.2250738585072014e-308, 0.1]]]))
def test_dataset_round_trip_is_exact(stack):
    configs = tuple(LandmarkConfiguration.build(f"c{i}", coords) for i, coords in enumerate(stack))
    text = write_dataset(Dataset(Sample(configs, {"c0": "first"})))
    again = read_dataset(text).sample
    assert again.groups == {"c0": "first"}
    back = again.coords
    assert np.array_equal(back, stack)  # bit for bit, and -0.0 comes back as 0.0
    assert not np.signbit(back[stack == 0.0]).any()
    assert write_dataset(Dataset(again)) == text


def test_dataset_text_is_valid_json_with_schema():
    text = write_dataset(Dataset(synthetic_vilmann()))
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert [c["id"] for c in doc["configurations"]] == ["age7_mean", "age150_mean"]
    assert doc["configurations"][0]["group"] == "age7"
    assert text.endswith("\n")


def test_dataset_wrong_schema_rejected():
    text = write_dataset(Dataset(synthetic_vilmann()))
    with pytest.raises(SchemaError):
        read_dataset(text.replace('"schema": 1', '"schema": 99', 1))


def test_dataset_rejects_nonfinite_tokens():
    broken = ('{"schema": 1, "landmarks": ["L1", "L2", "L3"], "configurations": '
              '[{"id": "a", "group": "", "coords": [[0, 0], [1, NaN], [0, 1]]}], '
              '"provenance": {"sources": []}}')
    with pytest.raises(SchemaError):
        read_dataset(broken)
    with pytest.raises(SchemaError):
        read_dataset(broken.replace("NaN", "Infinity"))


def test_dataset_malformed_json():
    with pytest.raises(ParseError):
        read_dataset("{not json")


def test_dataset_missing_field():
    text = write_dataset(Dataset(synthetic_vilmann()))
    doc = json.loads(text)
    del doc["landmarks"]
    with pytest.raises(SchemaError):
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

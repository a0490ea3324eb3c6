import argparse
import codecs
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from gridmorph import (MAX_GRID_SAMPLES, Dataset, InputError, ParseError, Sample,
                       default_labels, gpa_mean, read_dataset, read_landmarks,
                       synthetic_vilmann, two_point_register, write_dataset)
import gridmorph.tps
from gridmorph import cli, render
from gridmorph.cli import COMMANDS, build_parser, main
from gridmorph.core import LandmarkConfiguration
from gridmorph.registration import Baseline
from helpers import ring_csv, sample_of, short_baseline_outline, traced_peak

SVG = "{http://www.w3.org/2000/svg}"


def write_vilmann(tmp_path):
    path = tmp_path / "vilmann.json"
    path.write_text(write_dataset(Dataset(synthetic_vilmann())), encoding="utf-8")
    return str(path)


def random_sample(k, per_group=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = default_labels(k)
    configs, groups = [], {}
    for tag in ("juv", "adult"):
        for idx in range(per_group):
            name = f"{tag}_{idx}"
            coords = rng.normal(size=(k, 2)) + (0.0 if tag == "juv" else 0.3)
            configs.append(LandmarkConfiguration(name, labels, coords))
            groups[name] = tag
    return sample_of(configs, groups)


def write_sample(tmp_path, sample, name="data.json"):
    path = tmp_path / name
    path.write_text(write_dataset(Dataset(sample)), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# exit codes and error reporting

def test_missing_input_file(tmp_path, capsys):
    code = main(["average", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "out.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fit_degree2_needs_six_landmarks(tmp_path, capsys):
    path = write_sample(tmp_path, random_sample(5))
    code = main(["fit", path, "--degree", "2", "--baseline", "1,2",
                 "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "6" in err and "5" in err


def test_fit_degree3_needs_ten_landmarks(tmp_path, capsys):
    path = write_sample(tmp_path, random_sample(9))
    code = main(["fit", path, "--degree", "3", "--baseline", "1,2",
                 "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "10" in err and "9" in err


def test_bad_baseline_flag(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    for bad in ("1", "0,2", "3,3", "a,b"):
        code = main(["twopoint", path, "--baseline", bad,
                     "-o", str(tmp_path / "out.json")])
        assert code == 2, bad
    assert "error:" in capsys.readouterr().err


def test_missing_baseline_is_input_error(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    code = main(["twopoint", path, "-o", str(tmp_path / "out.json")])
    assert code == 2
    assert "--baseline" in capsys.readouterr().err


# Every option of the command is resolved and checked before its input is read, so a bad
# flag is reported even when the input file does not exist.
@pytest.mark.parametrize("argv, config, flag", [
    (["fit", "{in}", "--degree", "5", "--outdir", "{out}"], None, "--degree"),
    (["fit", "{in}", "--degree", "2", "--outdir", "{out}"], None, "missing --baseline"),
    (["rotations", "{in}"], '{"threshold": "0.1"}', "--threshold"),
    (["twopoint", "{in}", "-o", "{out}"], '{"baseline": [1, 2]}', "--baseline"),
], ids=["degree-range", "baseline-missing", "threshold-config-string", "baseline-config-list"])
def test_option_errors_come_before_the_input_is_read(tmp_path, capsys, monkeypatch, argv, config,
                                                     flag):
    monkeypatch.setattr(cli, "read_landmarks", lambda path: pytest.fail(f"read {path}"))
    argv = [a.format(**{"in": tmp_path / "no" / "such.json", "out": tmp_path / "out"})
            for a in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and "such.json" not in err
    assert not (tmp_path / "out").exists()


def test_out_of_memory_is_exit_3_without_a_traceback(tmp_path):
    # the spline of 20,000 landmarks needs a (20000, 20000) array: 3 GiB, past the child's limit
    resource = pytest.importorskip("resource")
    (tmp_path / "wide.csv").write_text(ring_csv(20000), encoding="utf-8")

    def limit():  # in the child only: 1 GiB of address space, ample for numpy and the input
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gridmorph", "fit", "wide.csv", "--degree", "2",
                           "--baseline", "1,5000", "--outdir", "out"], cwd=tmp_path, env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: fit ran out of memory")
    assert "Traceback" not in proc.stderr


def test_collinear_data_is_numerical_error(tmp_path, capsys):
    labels = default_labels(6)
    configs, groups = [], {}
    for tag, shift in (("a", 0.0), ("b", 0.5)):
        coords = np.column_stack([np.arange(6.0) + shift, np.zeros(6)])
        configs.append(LandmarkConfiguration(tag, labels, coords))
        groups[tag] = tag
    path = write_sample(tmp_path, sample_of(configs, groups))
    code = main(["fit", path, "--degree", "2", "--baseline", "1,6",
                 "--outdir", str(tmp_path / "out")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, argv, code", [
    ("LM=3\n0 0\n1 0\n0 1\n", ["ingest", "{in}", "-o", "{out}"], 0),
    ("LM=3\n0 0\n1 x\n0 1\n", ["ingest", "{in}", "-o", "{out}"], 2),
    ("LM=3\n0 0\n0 0\n1 1\n", ["twopoint", "{in}", "--baseline", "1,2", "-o", "{out}"], 3),
    ("", ["ingest", "{in}"], SystemExit),  # argparse: -o is missing
], ids=["ok", "input-error", "numerical-error", "usage-error"])
@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_and_restores_the_callers_state(
        tmp_path, capsys, monkeypatch, text, argv, code, collecting):
    data = tmp_path / "in.tps"
    data.write_text(text, encoding="utf-8")
    argv = [a.format(**{"in": data, "out": tmp_path / "out.json"}) for a in argv]
    seen = []

    def spy(path):  # the collector's state while the command runs
        seen.append(gc.isenabled())
        return read_landmarks(path)
    monkeypatch.setattr(cli, "read_landmarks", spy)
    (gc.enable if collecting else gc.disable)()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() == collecting
    finally:
        gc.enable()
    assert seen == ([] if code is SystemExit else [False])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# ingest / average / twopoint

def test_ingest_tps_round_trip(tmp_path, capsys):
    tps = tmp_path / "in.tps"
    tps.write_text("LM=3\n0 0\n1 0\n0 1\nID=one\nLM=3\n0 0\n2 0\n0 2\nID=two\n",
                   encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["ingest", str(tps), "-o", str(out)]) == 0
    dataset = read_dataset(out.read_text(encoding="utf-8"))
    assert dataset.sample.names == ("one", "two")
    capsys.readouterr()

    again = tmp_path / "again.json"
    assert main(["ingest", str(tps), "-o", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_average_matches_library_gpa(tmp_path, capsys):
    sample = random_sample(7, per_group=4, seed=3)
    path = write_sample(tmp_path, sample)
    out = tmp_path / "means.json"
    assert main(["average", path, "-o", str(out)]) == 0
    means = read_dataset(out.read_text(encoding="utf-8")).sample
    assert means.names == ("juv_mean", "adult_mean")
    assert means.groups == {"juv_mean": "juv", "adult_mean": "adult"}
    want = gpa_mean(sample.in_group("juv"))
    got = means.configurations[0]
    assert np.abs(got.coords - want.coords).max() < 1e-12
    capsys.readouterr()


def test_average_single_group_flag(tmp_path, capsys):
    sample = random_sample(5, per_group=2, seed=4)
    path = write_sample(tmp_path, sample)
    out = tmp_path / "one.json"
    assert main(["average", path, "--group", "adult", "-o", str(out)]) == 0
    means = read_dataset(out.read_text(encoding="utf-8")).sample
    assert means.names == ("adult_mean",)
    capsys.readouterr()


def test_twopoint_pins_anchors(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    out = tmp_path / "reg.json"
    assert main(["twopoint", path, "--baseline", "3,8", "-o", str(out)]) == 0
    sample = read_dataset(out.read_text(encoding="utf-8")).sample
    for cfg in sample.configurations:
        # anchors are exact even after a serialization round trip
        assert cfg.coords[2, 0] == 0.0 and cfg.coords[2, 1] == 0.0
        assert cfg.coords[7, 0] == 1.0 and cfg.coords[7, 1] == 0.0
    capsys.readouterr()


@pytest.mark.parametrize("points, baseline, code, message", [
    ("0 0\n1 0\n0 1", "1,9", 2, "baseline (1, 9) out of range for 3 landmarks (counted from 1)"),
    ("0 0\n0 0\n1 1", "1,2", 3,
     "configuration 'specimen_1': baseline landmarks 'L1' and 'L2' nearly coincide"),
], ids=["out-of-range", "coincident"])
def test_twopoint_baseline_errors_count_landmarks_as_the_cli_does(tmp_path, capsys, points,
                                                                  baseline, code, message):
    path = tmp_path / "f.tps"
    path.write_text(f"LM=3\n{points}\n", encoding="utf-8")
    assert main(["twopoint", str(path), "--baseline", baseline, "-o", str(tmp_path / "o.json")]) \
        == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_twopoint_near_the_float_limit(tmp_path, capsys):
    """x sums past the largest float; the centroid is taken without overflow, so baseline 1,3
    registers and 1,2 (length 1, against a size of 1.39e308) is refused as nearly coincident."""
    path = tmp_path / "big.tps"
    path.write_text("".join(f"LM=3\n1.7e308 0\n1.7e308 1\n0 0\nID={name}\n" for name in "ab"),
                    encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["twopoint", str(path), "--baseline", "1,3", "-o", str(out)]) == 0
    for cfg in read_dataset(out.read_text(encoding="utf-8")).sample.configurations:
        assert cfg.coords[[0, 2]].tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert cfg.coords[1, 0] == 0.0 and cfg.coords[1, 1] == pytest.approx(-1 / 1.7e308)
    capsys.readouterr()
    assert main(["twopoint", str(path), "--baseline", "1,2", "-o", str(out)]) == 3
    assert capsys.readouterr().err == \
        "error: configuration 'a': baseline landmarks 'L1' and 'L2' nearly coincide\n"


def test_twopoint_of_a_baseline_longer_than_the_largest_float(tmp_path, capsys):
    """The baseline vector (-3.4e308, 0) is out of range; in each configuration's exactly
    scaled frame it is not, and (0, 1) lands at (0.5, -1 / 3.4e308)."""
    path = tmp_path / "wide.tps"
    path.write_text("LM=3\n1.7e308 0\n-1.7e308 0\n0 1\n", encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["twopoint", str(path), "--baseline", "1,2", "-o", str(out)]) == 0
    coords = read_dataset(out.read_text(encoding="utf-8")).sample.coords[0]
    assert coords[:, 0].tolist() == [0.0, 1.0, 0.5] and coords[:2, 1].tolist() == [0.0, 0.0]
    assert coords[2, 1] == pytest.approx(-1 / 3.4e308)
    capsys.readouterr()


@pytest.mark.parametrize("points", ["1.7e308 0\n-1.7e308 0\n-1.7e308 1\n-1.7e308 2",
                                    "1.7e308 0\n-1.7e308 0\n0 1"], ids=["four", "three"])
def test_average_of_a_configuration_wider_than_the_largest_float(tmp_path, capsys, points):
    """Deviations from the centroid near 3.4e308 are out of range; in the configuration's exactly
    scaled frame they are not, so its Procrustes mean is that of the same points times 2^-1000
    (the four-landmark file was "did not converge", the three-landmark one "degenerate")."""
    path = tmp_path / "wide.tps"
    path.write_text(f"LM={points.count(chr(10)) + 1}\n{points}\n", encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["average", str(path), "-o", str(out)]) == 0, capsys.readouterr().err
    coords = np.array([line.split() for line in points.splitlines()], dtype=float)
    small = Sample(["c"], default_labels(len(coords)), np.ldexp(coords, -1000)[None])
    mean = read_dataset(out.read_text(encoding="utf-8")).sample.coords[0]
    assert np.array_equal(mean, gpa_mean(small).coords)


@pytest.mark.parametrize("nonaffine", [[], ["--nonaffine"]], ids=["raw", "nonaffine"])
def test_rotations_of_configurations_wider_than_the_largest_float(tmp_path, capsys, nonaffine):
    """Two groups whose coordinates reach +-1.7e308, so that landmark differences leave the
    float range, rotate segments as the same data times 2^-1000 does."""
    base = synthetic_vilmann()
    noise = np.random.default_rng(1).normal(scale=0.01, size=(2, 3, 8, 2))
    coords = (base.coords[:, None] + noise).reshape(6, 8, 2)
    coords -= (coords.max(axis=(0, 1)) + coords.min(axis=(0, 1))) / 2
    wide = coords / np.abs(coords).max() * 1.7e308
    assert wide.max() > 1.6e308 > -1.6e308 > wide.min()
    names = [f"{tag}_{i}" for tag in base.names for i in range(3)]
    groups = {name: name.rsplit("_", 1)[0] for name in names}
    tables = []
    for scale in (0, -1000):
        path = write_sample(tmp_path, Sample(names, base.labels, np.ldexp(wide, scale),
                                             groups=groups))
        out = tmp_path / f"{scale}.csv"
        assert main(["rotations", path, "--threshold", "0", *nonaffine, "-o", str(out)]) == 0, \
            capsys.readouterr().err
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["survey", "-o", "s.svg"],
     "configuration 'young_mean': baseline landmarks 'L2' and 'L3' nearly coincide"),
    (["fit", "--degree", "2", "--baseline", "1,2", "--outdir", "fit"],
     "trend design matrix is rank-deficient (rank 2 < 6); template landmarks lie on a degree-2 "
     "algebraic curve"),
], ids=["survey", "fit"])
def test_group_means_near_the_float_limit(tmp_path, capsys, monkeypatch, argv, message):
    """Landmark 1 of each young configuration is at (1.7e308, 0) and of each old one at
    (-1.7e308, 1): the group sums leave the float range, the means do not. Against that span
    the other seven landmarks nearly coincide, which is the error of either command."""
    base = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 1.5), (-0.5, 0.5), (0.3, 0.2)])
    coords = [np.vstack([far, base + (0.01 * i, -0.02 * i)])
              for far in ((1.7e308, 0.0), (-1.7e308, 1.0)) for i in range(2)]
    names = ["young_0", "young_1", "old_0", "old_1"]
    path = write_sample(tmp_path, Sample(names, default_labels(8), coords,
                                         groups={name: name.split("_")[0] for name in names}))
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], path, *argv[1:]]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


GOOD_JSON = ('{"schema": 1, "landmarks": ["L1", "L2", "L3"], "configurations": '
             '[{"id": "a", "group": "", "coords": [[0, 0], [1, 0], [0, 1]]}], '
             '"provenance": {"sources": []}}')


SOURCES_NOT_STRINGS = '"provenance.sources" must be a list of strings'
COORDS_NOT_NUMBERS = 'configuration \'a\': "coords" must be [[x, y], ...] with finite numbers'


@pytest.mark.parametrize("old, new, message", [
    ('"sources": []', '"sources": 9', SOURCES_NOT_STRINGS),      # was a TypeError traceback
    ('[1, 0]', '[1' + "0" * 400 + ', 0]', COORDS_NOT_NUMBERS),   # was an OverflowError traceback
    ('[1, 0]', '[true, 0]', COORDS_NOT_NUMBERS),                # was read as 1.0
    ('[1, 0]', '["1", 0]', COORDS_NOT_NUMBERS),
    ('[1, 0]', '[1e400, 0]', COORDS_NOT_NUMBERS),
    ('"schema": 1', '"schema": true',                           # was read as schema 1
     "unsupported schema version True; this build reads 1"),
    ('"sources": []', '"sources": "in.csv"', SOURCES_NOT_STRINGS),  # was read as six sources
], ids=["sources-number", "huge-integer", "true", "string", "1e400", "schema-true",
        "sources-string"])
def test_ingest_rejects_malformed_dataset_json(tmp_path, capsys, old, new, message):
    assert read_dataset(GOOD_JSON).sample.names == ("a",)
    text = GOOD_JSON.replace(old, new)
    assert text != GOOD_JSON
    with pytest.raises(InputError, match=re.escape(message)):
        read_dataset(text)
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    assert main(["ingest", str(path), "-o", str(tmp_path / "out.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("suffix", [".csv", ".tps", ".json"])
def test_non_utf8_input_is_input_error(tmp_path, capsys, suffix):
    path = tmp_path / f"latin1{suffix}"
    path.write_bytes("id,label,x,y\nspécimen,L1,0,0\n".encode("latin-1"))
    with pytest.raises(InputError, match="UTF-8"):
        read_landmarks(str(path))
    assert main(["ingest", str(path), "-o", str(tmp_path / "out.json")]) == 2
    assert "UTF-8 text (byte 15)" in capsys.readouterr().err
    # the offset counts from the file's start, a byte-order mark included
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(["ingest", str(path), "-o", str(tmp_path / "out.json")]) == 2
    assert "UTF-8 text (byte 18)" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, argv, code", [
    ("in.tps", "LM=3\n0 0\n1 0\n0 1\nID=a\n", ["ingest", "in.tps", "-o", "out.json"], 0),
    ("in.csv", "id,x1,y1,x2,y2,x3,y3\na,0,0,1,0,0,1\n", ["ingest", "in.csv", "-o", "out.json"], 0),
    ("in.json", GOOD_JSON, ["ingest", "in.json", "-o", "out.json"], 0),
    ("in.tps", "LM=3\n0 0\n1 x\n2 2\n", ["ingest", "in.tps", "-o", "out.json"], 2),
    ("cfg.json", '{"threshold": 2.9}', ["rotations", "vilmann.json", "--config", "cfg.json",
                                         "-o", "out.csv"], 0),
], ids=["tps", "csv", "json", "tps-line-3", "config"])
def test_byte_order_mark_is_read_as_no_mark(tmp_path, capsys, monkeypatch, name, text, argv, code):
    # Excel's "CSV UTF-8" and some TPS writers put EF BB BF first: the same output bytes, exit
    # code and messages with the mark as without it (it was a header, line 1 or JSON error)
    monkeypatch.chdir(tmp_path)
    write_vilmann(tmp_path)
    runs = []
    for mark in (b"", codecs.BOM_UTF8):
        (tmp_path / name).write_bytes(mark + text.encode("utf-8"))
        for out in tmp_path.glob("out.*"):
            out.unlink()
        runs.append((main(argv), capsys.readouterr(),
                     {out.name: out.read_bytes() for out in tmp_path.glob("out.*")}))
    assert runs[0][0] == code
    assert runs[1] == runs[0]


def test_unknown_extension_is_named_before_the_bytes_are_decoded(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "odd.xyz").write_bytes(bytes.fromhex("fffe00626164"))
    assert main(["ingest", "odd.xyz", "-o", "out.json"]) == 2
    err = capsys.readouterr().err
    assert "cannot detect format of 'odd.xyz'; expected .tps, .csv or .json" in err
    assert "UTF-8" not in err and not (tmp_path / "out.json").exists()


def test_non_utf8_config_is_input_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(GOOD_JSON, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_bytes('{"group": "é"}'.encode("latin-1"))
    assert main(["average", str(good), "--config", str(config),
                 "-o", str(tmp_path / "out.json")]) == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[" * 3000 + "]" * 3000, '{"schema": ' + "1" * 5000 + "}"],
                         ids=["nested-3000-deep", "integer-of-5000-digits"])
def test_json_that_json_cannot_decode_is_input_error(tmp_path, capsys, text):
    # json.loads ended each in a RecursionError or a ValueError traceback (exit 1)
    with pytest.raises(ParseError, match="^invalid JSON: "):
        read_dataset(text)
    good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "out.json"
    good.write_text(GOOD_JSON, encoding="utf-8")
    bad.write_text(text, encoding="utf-8")
    assert main(["ingest", str(bad), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")
    assert main(["ingest", str(good), "--config", str(bad), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {str(bad)!r} is not valid JSON: ")
    assert not out.exists()


def test_csv_cell_past_the_field_limit_is_input_error(tmp_path, capsys):
    # csv.reader refuses a field of more than 131,072 characters: a traceback (exit 1) before
    path = tmp_path / "long.csv"
    path.write_text("id,x1,y1,x2,y2,x3,y3\na," + "1" * 200_000 + ",2,3,4,5,6\n", encoding="utf-8")
    assert main(["ingest", str(path), "-o", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == ("error: line 2: invalid CSV: field larger than field "
                                       "limit (131072)\n")


def byte_guard_inputs():
    """Six specimens of six landmarks in two groups, as TPS and wide CSV text.

    Built with plain float arithmetic (rotations with rational cosines) and
    written with four decimals, so the input bytes are the same everywhere.
    """
    base = [(0.0, 0.0), (4.0, 0.5), (6.0, 3.0), (4.5, 6.0), (1.0, 5.5), (-1.5, 2.5)]
    turns = [(0.8, 0.6), (0.6, -0.8), (-0.28, 0.96), (1.0, 0.0), (0.96, 0.28), (-0.6, 0.8)]
    tps = []
    rows = ["id,group," + ",".join(f"x{i},y{i}" for i in range(1, 7))]
    for n, (a, b) in enumerate(turns):
        name, group = f"spec_{n + 1}", ("young", "old")[n % 2]
        cells = []
        for j, (x, y) in enumerate(base):
            x += 0.4 * (n % 2) * (j % 3) + 0.05 * ((3 * n + j) % 4)
            y += 0.3 * (n % 2) * (j % 2) - 0.05 * ((n + 2 * j) % 3)
            cells += [f"{(a * x - b * y) * (10 + n) + 100 * n:.4f}",
                      f"{(b * x + a * y) * (10 + n) - 50 * n:.4f}"]
        tps += [f"LM={len(base)}"]
        tps += [f"{cells[2 * j]} {cells[2 * j + 1]}" for j in range(len(base))]
        tps += [f"ID={name}"]
        rows.append(f"{name},{group}," + ",".join(cells))
    return "\n".join(tps) + "\n", "\n".join(rows) + "\n"


# SHA-256 of each output, recorded before the whole-sample array rewrite of
# formats and registration (x86-64 Linux, numpy 2.4, OpenBLAS). means.json
# carries GPA arithmetic, so its bytes follow the platform's libm and BLAS.
BYTE_GUARD = {
    "tps.json": "bfa330599d373157dacb8329658b3699dee7623d7763ada24b91fe8576b94e6c",
    "csv.json": "abccfe523cfaeec174797dea5298a1460ddf99d2b08f9644c31bb0bd54b443cb",
    "means.json": "8cc2dcdf6037f0cee09957533bb8e380ceea3fb11fc32332ba007171d828f6a3",
    "twopoint.json": "b7830346b2df4a7ee3d9b23694f07c9b69af17cb03dfcd9b4f3c2e1c3769f406",
}


def test_sample_commands_keep_their_bytes(tmp_path, capsys, monkeypatch):
    tps, wide = byte_guard_inputs()
    (tmp_path / "in.tps").write_text(tps, encoding="utf-8")
    (tmp_path / "in.csv").write_text(wide, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # provenance records the input path as given
    for argv in (["ingest", "in.tps", "-o", "tps.json"],
                 ["ingest", "in.csv", "-o", "csv.json"],
                 ["average", "csv.json", "-o", "means.json"],
                 ["twopoint", "csv.json", "--baseline", "1,4", "-o", "twopoint.json"]):
        assert main(argv) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in BYTE_GUARD}
    assert digests == BYTE_GUARD
    capsys.readouterr()


@pytest.mark.parametrize("exponent", [600, -600, 20, 1023])
def test_commands_are_invariant_to_a_power_of_two_scale(tmp_path, capsys, monkeypatch, exponent):
    # scaling every coordinate by 2^exponent is exact; near 2^+-600 squared lengths leave the
    # float range, so sizes and baselines must be computed without squaring raw coordinates;
    # near 2^1023 so do the sums of a group's coordinates and the differences of landmarks.
    # The quarter turn (x, y) -> (-y, x) of the scaled data is exact too.
    base = synthetic_vilmann()
    noise = np.random.default_rng(0).normal(scale=0.01, size=(2, 3, 8, 2))
    coords = (base.coords[:, None] + noise).reshape(6, 8, 2)
    names = [f"{tag}_{i}" for tag in ("age7", "age150") for i in range(3)]
    groups = {name: name.split("_")[0] for name in names}
    targets = ["--targets", "age7,age150"]
    runs = []
    for scale, turned in ((0, False), (exponent, False), (exponent, True)):
        run = tmp_path / f"{scale}{'_turned' * turned}"
        run.mkdir()
        monkeypatch.chdir(run)
        scaled = np.ldexp(coords, scale)
        if turned:
            scaled = np.stack([-scaled[..., 1], scaled[..., 0]], axis=-1)
        write_sample(run, Sample(names, base.labels, scaled, groups=groups))
        stdout = []
        for argv in (["twopoint", "data.json", "--baseline", "3,8", "-o", "twopoint.json"],
                     ["average", "data.json", "-o", "means.json"],
                     ["survey", "data.json", *targets, "-o", "survey.svg"],
                     ["rotations", "data.json", *targets, "--threshold", "0", "-o", "raw.csv",
                      "--svg", "raw.svg"],
                     ["rotations", "data.json", *targets, "--threshold", "0", "--nonaffine",
                      "-o", "nonaffine.csv", "--svg", "nonaffine.svg"],
                     ["fit", "data.json", *targets, "--baseline", "3,8", "--degree", "2",
                      "--outdir", "fit"]):
            assert main(argv) == 0, capsys.readouterr().err
            stdout.append(capsys.readouterr().out)
        runs.append((stdout, {str(path.relative_to(run)): path.read_bytes()
                              for path in sorted(run.rglob("*.*")) if path.name != "data.json"}))
    assert len(runs[0][1]) == 10  # 7 outputs, and the fit's SVG and two CSV files
    assert runs[1] == runs[0]

    # two-point registration undoes the turn bit for bit; the GPA frame turns with the data
    (stdout, files), (turned_stdout, turned_files) = runs[1:]
    assert turned_stdout == stdout and turned_files.keys() == files.keys()
    for name in ("twopoint.json", "survey.svg", "fit/fit_3-8.svg", "fit/fit_3-8_coefficients.csv",
                 "fit/fit_3-8_residuals.csv"):
        assert turned_files[name] == files[name], name
    means, turned_means = (read_dataset(f["means.json"].decode()).sample.coords
                           for f in (files, turned_files))
    quarter_turn = np.stack([-means[..., 1], means[..., 0]], axis=-1)
    assert np.abs(turned_means - quarter_turn).max() <= 1e-12 * np.abs(means).max()
    for name in ("raw.csv", "nonaffine.csv"):  # same rows in the same order, values to rounding
        table, turned_table = (np.array([row.split(",") for row in f[name].decode().splitlines()])
                               for f in (files, turned_files))
        assert table.shape == turned_table.shape
        assert np.array_equal(table[:, :4], turned_table[:, :4])
        values, turned_values = table[1:, 4:].astype(float), turned_table[1:, 4:].astype(float)
        assert (np.abs(turned_values - values) <= 1e-10 * np.abs(values).max(axis=0)).all(), name


# ---------------------------------------------------------------------------
# survey / rotations

def test_survey_panel_count(tmp_path, capsys):
    path = write_sample(tmp_path, random_sample(4, seed=5))
    out = tmp_path / "survey.svg"
    assert main(["survey", path, "-o", str(out)]) == 0
    root = ET.fromstring(out.read_bytes())
    borders = [el for el in root if el.tag == SVG + "rect"]
    assert len(borders) == 6  # k(k-1)/2 baselines for k=4
    assert "6 baseline panels" in capsys.readouterr().err


def test_rotations_threshold_zero_lists_all(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    assert main(["rotations", path, "--threshold", "0"]) == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert len(lines) == 1 + 28  # header plus every segment of 8 landmarks
    assert "28 of 28 segments" in captured.err


def test_rotations_csv_and_svg_outputs(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    csv = tmp_path / "rot.csv"
    svg = tmp_path / "rot.svg"
    assert main(["rotations", path, "--threshold", "0.05",
                 "-o", str(csv), "--svg", str(svg)]) == 0
    rows = csv.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "i,j,from,to,rotation_rad,rotation_deg,length_ratio"
    assert len(rows) > 1
    first = rows[1].split(",")
    assert first[2] in ("Bas", "Opi", "IPS", "Lam", "Brg", "SES", "ISS", "SOS")
    ET.fromstring(svg.read_bytes())
    capsys.readouterr()


def test_rotations_nonaffine_flag_runs(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    assert main(["rotations", path, "--threshold", "0", "--nonaffine"]) == 0
    assert "nonaffine" in capsys.readouterr().err


# SHA-256 of each output of the synthetic Vilmann data, recorded before landmark pairs became
# one (m, 2) index array (x86-64 Linux, numpy 2.4, OpenBLAS); a .txt is the command's stdout.
DRAWING_GUARD = {
    "survey.svg": "72181ce982959cfa9527569665f2ae122aba7edd9075cb50089f02fb2aeb1a6f",
    "raw.csv": "b4c9c2a77d974de2298327e6ba4db1b027871f52c30963456a8768dcf5713f7a",
    "raw.svg": "002dc5c7fce8a33f0cf56f9f5c087b9138257a24e27a6b516ae933f0045ed8aa",
    "raw.txt": "c7a57b7f91f8906f43db2e589f08482c07aa2530c7c1c7e59d38a5a94324a4a0",
    "nonaffine.csv": "b18487f0e64a37623fc75df02d08d0fbea96b9ff16eaa8ad9ce26794883d1938",
    "nonaffine.svg": "be7e6b67aa96a893d794a759d6d91c76d049f0d46e6f097510486e6adb9cca7a",
    "nonaffine.txt": "c887ef3fbebaf660e8a0eb44dccca6ed235e92b3a8ef583309a4b7fdd0400f9d",
}


def test_drawing_commands_keep_their_bytes(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    assert main(["survey", path, "-o", str(tmp_path / "survey.svg")]) == 0
    for mode in ("raw", "nonaffine"):
        argv = ["rotations", path, "--threshold", "0", "-o", str(tmp_path / f"{mode}.csv"),
                "--svg", str(tmp_path / f"{mode}.svg")]
        capsys.readouterr()
        assert main(argv + ["--nonaffine"] * (mode == "nonaffine")) == 0
        (tmp_path / f"{mode}.txt").write_text(capsys.readouterr().out, encoding="utf-8")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DRAWING_GUARD}
    assert digests == DRAWING_GUARD


# ---------------------------------------------------------------------------
# fit

def test_fit_outputs_and_determinism(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    outdir = tmp_path / "fit1"
    assert main(["fit", path, "--degree", "2", "--baseline", "3,8",
                 "--extend", "left:1.0", "--outdir", str(outdir)]) == 0
    captured = capsys.readouterr()
    assert "degree 2" in captured.out
    assert "df 2" in captured.out
    names = ("fit_3-8.svg", "fit_3-8_residuals.csv", "fit_3-8_coefficients.csv")
    for name in names:
        assert (outdir / name).is_file(), name
    ET.fromstring((outdir / "fit_3-8.svg").read_bytes())

    coeff_rows = (outdir / "fit_3-8_coefficients.csv").read_text().splitlines()
    assert coeff_rows[0] == "term,x_coefficient,y_coefficient"
    assert [r.split(",")[0] for r in coeff_rows[1:]] == ["1", "x", "y", "x^2", "y^2", "xy"]

    residual_rows = (outdir / "fit_3-8_residuals.csv").read_text().splitlines()
    assert residual_rows[0] == "label,dx,dy,magnitude"
    assert len(residual_rows) == 9

    outdir2 = tmp_path / "fit2"
    assert main(["fit", path, "--degree", "2", "--baseline", "3,8",
                 "--extend", "left:1.0", "--outdir", str(outdir2)]) == 0
    for name in names:
        assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes(), name
    capsys.readouterr()


def test_dense_fit_builds_no_preimage(tmp_path, capsys, monkeypatch):
    # the three images (48 B a sample) and four kept masks (4 B) are the fit's only arrays of the
    # grid's size: the splines, the trend and the template trim read the spec's axis tables by
    # blocks. Measured 10.18 MB for 164,334 samples, 1.63 MB over 52 B a sample, most of it one
    # fmt_g call on a PRINT_BLOCK; with the shared preimage it was 13.39 MB
    import gridmorph.gridlab
    specs, make_grid = [], gridmorph.gridlab.make_grid
    monkeypatch.setattr(gridmorph.gridlab, "make_grid",
                        lambda *args, **kw: specs.append(make_grid(*args, **kw)) or specs[-1])
    argv = ["fit", write_vilmann(tmp_path), "--degree", "2", "--baseline", "1,5", "--cells", "96",
            "--outdir", str(tmp_path / "fit")]
    peak = traced_peak(main, argv)
    (spec,) = specs
    assert spec.size > 160_000 and "preimage" not in vars(spec)
    assert peak <= 52 * spec.size + 2_000_000, f"dense fit peak {peak} B"
    capsys.readouterr()


def test_fit_over_grid_sample_budget_is_input_error(tmp_path, capsys):
    # refused when the grid is specified, before any sample array exists
    path = write_vilmann(tmp_path)
    assert main(["fit", path, "--degree", "2", "--baseline", "3,8", "--cells", "5000",
                 "--samples", "2", "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"grid of \d+ samples exceeds the budget of {MAX_GRID_SAMPLES}", err)
    assert not (tmp_path / "out" / "fit_3-8.svg").exists()


def test_fit_trim_target_hull(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    outdir = tmp_path / "fit"
    assert main(["fit", path, "--degree", "2", "--baseline", "1,2",
                 "--trim", "target", "--hull", "--cells", "12",
                 "--outdir", str(outdir)]) == 0
    assert (outdir / "fit_1-2.svg").is_file()
    capsys.readouterr()


def test_fit_saturated_cubic(tmp_path, capsys):
    rng = np.random.default_rng(11)
    labels = default_labels(10)
    base = rng.normal(size=(10, 2))
    configs = {
        "a": LandmarkConfiguration("a", labels, base),
        "b": LandmarkConfiguration("b", labels, base + rng.normal(scale=0.05, size=(10, 2))),
    }
    sample = sample_of(configs.values(), {"a": "a", "b": "b"})
    path = write_sample(tmp_path, sample)
    assert main(["fit", path, "--degree", "3", "--baseline", "1,2",
                 "--outdir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "saturated" in out


# What fit --degree 3 --baseline 1,2 prints and writes today for a 1e-3 gap (x86-64 Linux,
# numpy 2.4, OpenBLAS): the design condition measures the baseline's length, not the
# configuration, and the coefficients carry the ill-conditioned solve into their last digits.
SHORT_BASELINE_STDOUT = """\
fit: degree 3 trend, baseline 1,2, template young, target old, 12 landmarks
rss: x 0.0334444, y 0.034546; df 2 per coordinate; design condition 9.79379e+08
largest residual: L11 (0.116419)
"""
SHORT_BASELINE_COEFFICIENTS = """\
term,x_coefficient,y_coefficient
1,-0.010867602226061659,0.0072304089609577784
x,0.97630466522202752,0.031598758506460371
y,-0.017541520625334126,0.78480851049123368
x^2,4.1947176878233106e-05,3.1825252609588207e-06
y^2,-0.00012750834734379023,0.00026305730886671879
xy,-3.0270851133955087e-05,-0.00010781538370515779
x^3,-5.3594788292254756e-10,1.4591260265960941e-09
y^3,1.0230975521413368e-07,-1.3588890144202869e-07
x^2y,1.0728786476238582e-07,-1.4275722236153229e-07
xy^2,-6.2374389610799859e-09,8.7504603769291156e-09
"""


def fit_short_baseline(tmp_path, gap):
    path = tmp_path / "outline.csv"
    path.write_text(short_baseline_outline(gap), encoding="utf-8")
    return main(["fit", str(path), "--degree", "3", "--baseline", "1,2",
                 "--outdir", str(tmp_path / "out")])


def test_short_baseline_cubic_fit_keeps_its_bytes(tmp_path, capsys):
    assert fit_short_baseline(tmp_path, 1e-3) == 0
    assert capsys.readouterr().out == SHORT_BASELINE_STDOUT
    coefficients = tmp_path / "out" / "fit_1-2_coefficients.csv"
    assert coefficients.read_text(encoding="utf-8") == SHORT_BASELINE_COEFFICIENTS


def test_shorter_baseline_cubic_fit_succeeds(tmp_path, capsys):
    # the raw design of a baseline this short is rank-deficient in two-point units; its rank and
    # fit are taken on the framed template, whose condition is that of the outline
    for gap in (1e-5, 1e-6, 1e-7):
        assert fit_short_baseline(tmp_path, gap) == 0, capsys.readouterr().err
        condition = float(capsys.readouterr().out.split("design condition ")[1].split()[0])
        assert condition < 1e4
        assert "nan" not in (tmp_path / "out" / "fit_1-2.svg").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# demo

def test_demo_synthetic_vilmann(tmp_path, capsys):
    assert main(["demo", "synthetic-vilmann", "--outdir", str(tmp_path)]) == 0
    data = (tmp_path / "demo_synthetic_vilmann.json").read_text(encoding="utf-8")
    sample = read_dataset(data).sample
    assert sample.names == ("age7_mean", "age150_mean")
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["parallelogram", "trapezoid"])
def test_demo_prototypes(tmp_path, capsys, kind):
    assert main(["demo", kind, "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / f"demo_{kind}.json").is_file()
    ET.fromstring((tmp_path / f"demo_{kind}.svg").read_bytes())
    capsys.readouterr()


def test_demo_kite_writes_map_comparison(tmp_path, capsys):
    assert main(["demo", "kite", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "demo_kite.json").is_file()
    ET.fromstring((tmp_path / "demo_kite.svg").read_bytes())
    ET.fromstring((tmp_path / "demo_kite_maps.svg").read_bytes())
    capsys.readouterr()


def test_demo_kite_fits_its_spline_once(tmp_path, capsys, monkeypatch):
    # the prototype panels and the map comparison draw the same square-to-kite spline
    fit, fits = gridmorph.tps.tps_fit, []
    monkeypatch.setattr(gridmorph.tps, "tps_fit", lambda *args: fits.append(args) or fit(*args))
    assert main(["demo", "kite", "--outdir", str(tmp_path)]) == 0
    assert len(fits) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config file merging

def test_config_supplies_defaults(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 2.9}), encoding="utf-8")
    assert main(["rotations", path, "--config", str(cfg)]) == 0
    assert "|rotation| >= 2.9" in capsys.readouterr().err


def test_explicit_flag_beats_config(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 2.9}), encoding="utf-8")
    assert main(["rotations", path, "--config", str(cfg),
                 "--threshold", "0"]) == 0
    captured = capsys.readouterr()
    assert "28 of 28" in captured.err


def test_config_with_dashed_keys(tmp_path, capsys):
    # a config key is an option name as written: no dash-to-underscore spelling
    path = write_vilmann(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"baseline": "3,8", "degree": 2, "samples-per-edge": 3}),
                   encoding="utf-8")
    outdir = tmp_path / "out"
    assert main(["fit", path, "--config", str(cfg), "--outdir", str(outdir)]) == 2
    assert "unknown key 'samples-per-edge'" in capsys.readouterr().err
    assert not outdir.exists()


def test_config_must_be_object(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["rotations", path, "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


# Each of these ended in a traceback (exit 1), ran with a misread value, or
# exited 0 having selected or drawn nothing.
@pytest.mark.parametrize("command, config, argv, flag", [
    ("fit", '{"margin": "a"}', [], "--margin"),
    ("rotations", '{"threshold": "x"}', [], "--threshold"),
    ("fit", '{"cells": 1e400}', [], "--cells"),
    ("fit", '{"hull": "no"}', [], "--hull"),
    ("rotations", '{"nonaffine": "false"}', [], "--nonaffine"),
    ("fit", '{"cells": 2.5}', [], "--cells"),
    ("fit", '{"samples": true}', [], "--samples"),
    ("fit", '{"degree": "2"}', [], "--degree"),
    ("fit", '{"extend": ["left:2", 3]}', [], "--extend"),
    ("rotations", None, ["--threshold", "nan"], "--threshold"),
    ("fit", None, ["--margin", "1e308"], "--margin"),
    ("fit", None, ["--cells", "2.5"], "--cells"),
    ("fit", '{"thresold": 0.1}', [], "'thresold'"),
], ids=["margin-string", "threshold-string", "cells-1e400", "hull-string",
        "nonaffine-string", "cells-float", "samples-true", "degree-string",
        "extend-list-number", "threshold-nan", "margin-1e308", "cells-text-float",
        "unknown-key"])
def test_bad_option_value_is_input_error(tmp_path, capsys, command, config, argv, flag):
    path = write_vilmann(tmp_path)
    args = [command, path, *argv]
    if command == "fit":
        args += ["--outdir", str(tmp_path / "out")]
        if config is None or "degree" not in config:
            args += ["--degree", "2", "--baseline", "3,8"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
        args += ["--config", str(tmp_path / "cfg.json")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not (tmp_path / "out" / "fit_3-8.svg").exists()


def test_config_extend_string_and_list(tmp_path, capsys):
    path = write_vilmann(tmp_path)
    base = ["fit", path, "--degree", "2", "--baseline", "3,8", "--cells", "6"]
    svgs = []
    for name, config, argv in (("flag", None, ["--extend", "left:2"]),
                               ("string", {"extend": "left:2"}, []),
                               ("list", {"extend": ["left:1", "left:1"]}, []),
                               ("replaced", {"extend": ["up:1"]}, ["--extend", "left:2"])):
        args = base + argv + ["--outdir", str(tmp_path / name)]
        if config is not None:
            (tmp_path / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
            args += ["--config", str(tmp_path / f"{name}.json")]
        assert main(args) == 0, name
        svgs.append((tmp_path / name / "fit_3-8.svg").read_bytes())
    assert svgs[1:] == svgs[:1] * 3  # an explicit --extend replaces the config list
    capsys.readouterr()


# ---------------------------------------------------------------------------
# parser

USAGE = "usage: gridmorph [-h] {ingest,average,twopoint,survey,rotations,fit,demo} ...\n"
# the shortest command line each command accepts
VALID_ARGV = {"ingest": ["x", "-o", "y"], "average": ["x", "-o", "y"],
              "twopoint": ["x", "-o", "y"], "survey": ["x", "-o", "y"], "rotations": ["x"],
              "fit": ["x", "--outdir", "o"], "demo": ["kite", "--outdir", "o"]}


def parse_exit(parse, argv, capsys):
    """(exit code, stdout, stderr) of an argparse exit: help, or a usage error."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [["-h"], [], ["fitt"], ["-h", "fit"]] + [
    argv for name in VALID_ARGV for argv in (
        [name, "-h"],                             # help
        [name],                                   # a required argument missing
        [name + "s"],                             # a command that is not one of the seven
        [name, *VALID_ARGV[name], "--bogus"],     # unrecognized arguments
    )] + [["demo", "kites", "--outdir", "o"]],    # a choice that is not one of the kinds
    ids=" ".join)
def test_help_and_usage_errors_are_those_of_the_full_parser(capsys, monkeypatch, argv):
    assert list(VALID_ARGV) == list(COMMANDS)
    monkeypatch.setenv("COLUMNS", "100")
    got = parse_exit(main, argv, capsys)
    assert got == parse_exit(build_parser().parse_args, argv, capsys)
    assert got[0] == (0 if "-h" in argv else 2)


def test_usage_line_names_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    assert parse_exit(main, ["-h"], capsys)[1].startswith(USAGE)
    for argv in ([], ["fit", "x", "--outdir", "o", "--bogus"]):
        assert parse_exit(main, argv, capsys)[2].startswith(USAGE)
    # a command builds only its own parser; with none, all seven are built
    for word, names in (("fit", ["fit"]), ("demo", ["demo"]), ("-h", list(COMMANDS))):
        sub, = [action for action in build_parser(word)._actions
                if isinstance(action, argparse._SubParsersAction)]
        assert list(sub.choices) == names


def numbers_printed(svg: str) -> int:
    """The numbers of an SVG's polylines, circles and lines: those formats.fmt_g prints."""
    points = sum(len(attr.split()) for attr in re.findall(r' points="([^"]*)"', svg))
    return 2 * points + 2 * svg.count("<circle ") + 4 * svg.count("<line ")


@pytest.mark.parametrize("block", [64, render.PRINT_BLOCK])
def test_svg_numbers_are_printed_in_one_fmt_g_call_per_block(tmp_path, capsys, monkeypatch,
                                                             block):
    """No marker run or segment network gets an fmt_g call of its own, at any block size."""
    path = write_vilmann(tmp_path)
    calls = {}  # SVG path -> the count of values of each fmt_g call that wrote it
    fmt_g, write_svg = render.fmt_g, render.write_svg

    def spy_fmt_g(values, seps, digits):
        list(calls.values())[-1].append(len(values))
        return fmt_g(values, seps, digits)

    def spy_write_svg(scene, svg):
        calls[str(svg)] = []
        write_svg(scene, svg)

    def figures(outdir):
        commands = (["fit", path, "--degree", "2", "--baseline", "3,8", "--outdir", outdir],
                    ["demo", "kite", "--outdir", outdir],
                    ["rotations", path, "--threshold", "0", "--svg", f"{outdir}/rotations.svg"])
        for argv in commands:
            assert main(argv) == 0
        capsys.readouterr()
        return {Path(svg).name: Path(svg).read_text(encoding="utf-8") for svg in calls}

    monkeypatch.setattr(render, "write_svg", spy_write_svg)
    want = figures(str(tmp_path / "default"))
    calls.clear()
    monkeypatch.setattr(render, "fmt_g", spy_fmt_g)
    monkeypatch.setattr(render, "PRINT_BLOCK", block)
    got = figures(str(tmp_path / "spied"))
    assert sorted(got) == ["demo_kite.svg", "demo_kite_maps.svg", "fit_3-8.svg", "rotations.svg"]
    assert got == want  # the block size never shows in the bytes
    for svg, sizes in calls.items():
        assert sum(sizes) == numbers_printed(Path(svg).read_text(encoding="utf-8"))
        assert len(sizes) == sum(sizes) // block + 1 and set(sizes[:-1]) <= {block}, svg


# ---------------------------------------------------------------------------
# module entry point

def test_python_dash_m_entry(tmp_path):
    tps = tmp_path / "in.tps"
    tps.write_text("LM=3\n0 0\n1 0\n0 1\n", encoding="utf-8")
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gridmorph", "ingest", str(tps), "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()

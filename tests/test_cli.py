import hashlib
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gridmorph import (MAX_GRID_SAMPLES, Dataset, InputError, SchemaError,
                       default_labels, gpa_mean, read_dataset, read_landmarks,
                       synthetic_vilmann, two_point_register, write_dataset)
from gridmorph.cli import main
from gridmorph.core import LandmarkConfiguration
from gridmorph.registration import Baseline
from helpers import sample_of

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


GOOD_JSON = ('{"schema": 1, "landmarks": ["L1", "L2", "L3"], "configurations": '
             '[{"id": "a", "group": "", "coords": [[0, 0], [1, 0], [0, 1]]}], '
             '"provenance": {"sources": []}}')


@pytest.mark.parametrize("old, new", [
    ('"sources": []', '"sources": 9'),              # was a TypeError traceback
    ('[1, 0]', '[1' + "0" * 400 + ', 0]'),           # was an OverflowError traceback
    ('[1, 0]', '[true, 0]'),                        # was read as 1.0
    ('[1, 0]', '["1", 0]'),
    ('[1, 0]', '[1e400, 0]'),
    ('"schema": 1', '"schema": true'),              # was read as schema 1
    ('"sources": []', '"sources": "in.csv"'),       # was read as six sources
], ids=["sources-number", "huge-integer", "true", "string", "1e400", "schema-true",
        "sources-string"])
def test_ingest_rejects_malformed_dataset_json(tmp_path, capsys, old, new):
    assert read_dataset(GOOD_JSON).sample.names == ("a",)
    text = GOOD_JSON.replace(old, new)
    assert text != GOOD_JSON
    with pytest.raises(SchemaError):
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
    assert "UTF-8" in capsys.readouterr().err


def test_non_utf8_config_is_input_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(GOOD_JSON, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_bytes('{"group": "é"}'.encode("latin-1"))
    assert main(["average", str(good), "--config", str(config),
                 "-o", str(tmp_path / "out.json")]) == 2
    assert "UTF-8" in capsys.readouterr().err


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

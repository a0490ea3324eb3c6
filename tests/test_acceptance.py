"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Run with -s to see the PASS lines; every tolerance here is part of the
contract, so do not loosen them to make a regression go away.
"""

import os
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from gridmorph import (Baseline, BilinearMap, PLANTED_COEFFICIENTS,
                       PERTURBED_LANDMARK, Quad, Segment,
                       bending_energy, default_labels, design_matrix,
                       enumerate_segments, filter_rotations, gpa_mean,
                       homography_from_quads,
                       procrustes_align, prototype_pair, remove_affine,
                       segment_rotations, tps_eval, tps_fit, trend_fit,
                       two_point_register, vilmann_template)
from gridmorph.cli import main
from gridmorph.core import LandmarkConfiguration
from gridmorph.registration import _normalized
from helpers import sample_of


def config(coords, name="cfg"):
    coords = np.asarray(coords, dtype=float)
    return LandmarkConfiguration(name, default_labels(len(coords)), coords)


def rot(coords, angle, about=None):
    c, s = np.cos(angle), np.sin(angle)
    about = coords.mean(axis=0) if about is None else about
    return (coords - about) @ np.array([(c, -s), (s, c)]).T + about


def diameter(coords):
    d = coords[:, None, :] - coords[None, :, :]
    return float(np.sqrt((d * d).sum(axis=2)).max())


def test_criterion_01_tps_interpolation():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(4, 26))
        template = config(rng.normal(size=(k, 2)), "t")
        target = config(rng.normal(size=(k, 2)), "g")
        model = tps_fit(template, target)
        err = np.abs(tps_eval(model, template.coords) - target.coords).max()
        worst = max(worst, err / diameter(target.coords))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"PASS 1: spline reproduces landmarks, 200 trials, "
          f"worst {worst:.2e} of diameter in {elapsed:.2f}s")


def test_criterion_02_tps_affine_precision():
    rng = np.random.default_rng(1002)
    worst_energy = 0.0
    worst_chord = 0.0
    for _ in range(30):
        k = int(rng.integers(5, 13))
        template = config(rng.normal(size=(k, 2)), "t")
        linear = rng.normal(size=(2, 2))
        while abs(np.linalg.det(linear)) < 0.2:
            linear = rng.normal(size=(2, 2))
        target = config(template.coords @ linear.T + rng.normal(size=2), "g")
        model = tps_fit(template, target)
        worst_energy = max(worst_energy, bending_energy(model))
        a, b = rng.normal(size=(2, 2)) * 3.0
        line = a + np.linspace(0, 1, 50)[:, None] * (b - a)
        img = tps_eval(model, line)
        chord = img[-1] - img[0]
        normal = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
        worst_chord = max(worst_chord, np.abs((img - img[0]) @ normal).max())
    assert worst_energy < 1e-10
    assert worst_chord < 1e-9
    print(f"PASS 2: affine targets give bending energy <= {worst_energy:.2e} "
          f"and straight grid lines (chord deviation <= {worst_chord:.2e})")


def test_criterion_03_quadratic_recovery():
    rng = np.random.default_rng(1003)
    for _ in range(20):
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=8))
        radii = rng.uniform(0.8, 1.25, size=8)  # varied radii: a common circle
        # would make the quadratic design rank-deficient
        template = config(np.column_stack([radii * np.cos(angles),
                                           radii * np.sin(angles)]), "t")
        planted = rng.normal(scale=0.3, size=(6, 2))
        target = config(design_matrix(template.coords, 2) @ planted, "g")
        trend = trend_fit(template, target, 2)
        assert np.abs(trend.coefficients - planted).max() < 1e-8
        assert np.abs(trend.residuals).max() < 1e-9
        assert trend.df == 2
    print("PASS 3: planted quadratics on octagons recover all 12 coefficients "
          "to 1e-8 with residuals < 1e-9 and df 2 per coordinate")


def test_criterion_04_rss_nesting():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        k = int(rng.integers(10, 17))
        template = config(rng.normal(size=(k, 2)), "t")
        target = config(rng.normal(size=(k, 2)), "g")
        rss = {}
        for degree in (1, 2, 3):
            trend = trend_fit(template, target, degree)
            rss[degree] = float((trend.residuals ** 2).sum())
        slack = 1e-10 * (1.0 + rss[1])
        assert rss[3] <= rss[2] + slack
        assert rss[2] <= rss[1] + slack
    print("PASS 4: residual sum of squares is nested over degrees 1 >= 2 >= 3 "
          "on 100 random pairs")


def test_criterion_05_segment_enumeration():
    assert len(enumerate_segments(8)) == 28
    assert len(enumerate_segments(20)) == 190
    print("PASS 5: 8 landmarks give 28 segments, 20 give 190")


def two_block_pair(seed=1006):
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(5, 2))
    right = rng.normal(size=(3, 2)) + np.array([40.0, 0.0])
    template = np.vstack([left, right])
    target = np.vstack([rot(left, -0.2), rot(right, +0.2)])
    return template, target


def test_criterion_06_rotation_filter():
    rng = np.random.default_rng(1005)
    coords = rng.normal(size=(8, 2))
    template = config(coords, "t")
    all28 = filter_rotations(
        segment_rotations(template, config(rot(coords, 0.2), "g")), 0.15)
    assert len(all28) == 28
    none = filter_rotations(
        segment_rotations(template, config(rot(coords, 0.1), "g")), 0.15)
    assert none == []

    block_template, block_target = two_block_pair()
    report = segment_rotations(config(block_template, "t"),
                               config(block_target, "g"))
    selected = set(filter_rotations(report, 0.15))
    oracle = set()
    for seg in report.segments:
        u = block_template[seg.j] - block_template[seg.i]
        v = block_target[seg.j] - block_target[seg.i]
        angle = np.arctan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])
        if abs(angle) >= 0.15:
            oracle.add(seg)
    within = {Segment(i, j) for i in range(5) for j in range(i + 1, 5)}
    within |= {Segment(i, j) for i in range(5, 8) for j in range(i + 1, 8)}
    assert selected == oracle == within
    print("PASS 6: rigid +0.2 rad flags 28/28 at threshold 0.15, +0.1 rad flags "
          "none, two-block form flags exactly the within-block segments")


def test_criterion_07_two_point_registration():
    rng = np.random.default_rng(1007)
    worst_invariance = 0.0
    for _ in range(50):
        k = int(rng.integers(3, 12))
        coords = rng.normal(size=(k, 2))
        baseline = Baseline(*sorted(rng.choice(k, size=2, replace=False)))
        registered = two_point_register(config(coords, "c"), baseline)
        assert abs(registered.coords[baseline.start, 0]) < 1e-12
        assert abs(registered.coords[baseline.start, 1]) < 1e-12
        assert abs(registered.coords[baseline.end, 0] - 1.0) < 1e-12
        assert abs(registered.coords[baseline.end, 1]) < 1e-12

        angle = rng.uniform(-np.pi, np.pi)
        scale = rng.uniform(0.2, 5.0)
        moved = rot(coords, angle, about=np.zeros(2)) * scale + rng.normal(size=2)
        again = two_point_register(config(moved, "c"), baseline)
        worst_invariance = max(worst_invariance,
                               np.abs(again.coords - registered.coords).max())
        twice = two_point_register(registered, baseline)
        assert np.abs(twice.coords - registered.coords).max() < 1e-12
    assert worst_invariance < 1e-9
    print(f"PASS 7: baseline anchors exact to 1e-12, similarity invariance "
          f"{worst_invariance:.2e}, idempotent to 1e-12")


def test_criterion_08_gpa_mean():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(4, 10))
        base = rng.normal(size=(k, 2))
        reference = config(_normalized(base), "ref")
        configs = []
        for i in range(int(rng.integers(3, 8))):
            angle = rng.uniform(-np.pi, np.pi)
            scale = rng.uniform(0.3, 3.0)
            moved = rot(base, angle, about=np.zeros(2)) * scale + rng.normal(size=2)
            configs.append(config(moved, f"c{i}"))
        mean = gpa_mean(sample_of(configs))  # raises if 100 iterations pass
        aligned = procrustes_align(mean, reference)
        worst = max(worst, float(np.linalg.norm(aligned.coords - reference.coords)))
    assert worst < 1e-8
    print(f"PASS 8: GPA mean of similarity copies within {worst:.2e} Procrustes "
          f"distance of the normalized original, 100 samples, all converged")


def test_criterion_09_remove_affine_contract():
    rng = np.random.default_rng(1009)
    from gridmorph import affine_fit

    worst_linear = 0.0
    worst_shift = 0.0
    for _ in range(50):
        k = int(rng.integers(4, 12))
        template = config(rng.normal(size=(k, 2)), "t")
        target = config(rng.normal(size=(k, 2)), "g")
        adjusted = remove_affine(template, target)
        refit = affine_fit(template, adjusted)
        worst_linear = max(worst_linear, np.abs(refit.linear - np.eye(2)).max())
        worst_shift = max(worst_shift, np.abs(refit.translation).max())
    assert worst_linear < 1e-9
    assert worst_shift < 1e-9
    print(f"PASS 9: refit affine after removal is the identity "
          f"(linear within {worst_linear:.2e}, shift within {worst_shift:.2e})")


def test_criterion_10_bilinear_matches_closed_form():
    a = 0.2
    square = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    kite = square + a * np.column_stack([1.0 + square[:, 0] * square[:, 1],
                                         1.0 + square[:, 0] * square[:, 1]])
    m = BilinearMap(Quad(square), Quad(kite))
    rng = np.random.default_rng(1010)
    pts = rng.uniform(-0.999, 0.999, size=(100, 2))
    want = pts + a * np.column_stack([1.0 + pts[:, 0] * pts[:, 1],
                                      1.0 + pts[:, 0] * pts[:, 1]])
    got = m.map_points(pts)
    assert np.abs(got - want).max() < 1e-12
    print("PASS 10: corner-built bilinear map reproduces the closed-form kite "
          "displacement at 100 interior points to 1e-12")


def test_criterion_11_line_preservation_and_parabola():
    rng = np.random.default_rng(1011)
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    worst = 0.0
    for _ in range(10):
        src = Quad(square + rng.uniform(-0.2, 0.2, size=(4, 2)))
        dst = Quad(square * rng.uniform(0.5, 2.0)
                   + rng.uniform(-0.3, 0.3, size=(4, 2)))
        h = homography_from_quads(src, dst)
        for _ in range(100):
            p, q = rng.uniform(0.1, 0.9, size=(2, 2))
            ts = np.sort(rng.uniform(0.0, 1.0, size=3))
            triple = p + ts[:, None] * (q - p)
            images = h(triple)
            assert np.isfinite(images).all()  # a NaN residual would vanish in max()
            u = images[1] - images[0]
            v = images[2] - images[0]
            residual = abs(u[0] * v[1] - u[1] * v[0]) / np.linalg.norm(v)
            worst = max(worst, residual)
    assert worst < 1e-9

    template, target = prototype_pair("kite")
    m = BilinearMap(Quad(template.coords), Quad(target.coords))
    steps = np.linspace(0.0, 1.0, 101)[:, None]
    chord = (1.0 - steps) * template.coords[1] + steps * template.coords[3]
    image = m.map_points(chord)
    assert np.isfinite(image).all()
    quad_fit = np.polyfit(image[:, 0], image[:, 1], 2)
    line_fit = np.polyfit(image[:, 0], image[:, 1], 1)
    quad_res = np.sqrt(np.mean(
        (np.polyval(quad_fit, image[:, 0]) - image[:, 1]) ** 2))
    line_res = np.sqrt(np.mean(
        (np.polyval(line_fit, image[:, 0]) - image[:, 1]) ** 2))
    assert quad_res < 1e-10
    assert line_res > 1e-3
    print(f"PASS 11: 1000 collinear triples stay collinear to {worst:.2e}; kite "
          f"midline is a parabola (quad res {quad_res:.1e}, line res {line_res:.1e})")


def test_criterion_12_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    assert main(["demo", "synthetic-vilmann", "--outdir", str(tmp_path)]) == 0
    data = str(tmp_path / "demo_synthetic_vilmann.json")
    outdir = tmp_path / "fit"
    assert main(["fit", data, "--degree", "2", "--baseline", "3,8",
                 "--extend", "left:2.0", "--outdir", str(outdir)]) == 0
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()

    svg = outdir / "fit_3-8.svg"
    ET.fromstring(svg.read_bytes())  # well-formed or this raises

    rows = (outdir / "fit_3-8_coefficients.csv").read_text().splitlines()[1:]
    got = np.array([[float(f) for f in row.split(",")[1:]] for row in rows])
    assert np.abs(got - PLANTED_COEFFICIENTS).max() < 1e-6

    labels = vilmann_template().labels
    residual_rows = (outdir / "fit_3-8_residuals.csv").read_text().splitlines()[1:]
    magnitudes = {row.split(",")[0]: float(row.split(",")[3])
                  for row in residual_rows}
    largest = max(magnitudes, key=magnitudes.get)
    assert largest == labels[PERTURBED_LANDMARK]
    assert f"largest residual: {largest}" in captured.out
    assert elapsed < 2.0
    print(f"PASS 12: demo + fit pipeline in {elapsed:.2f}s; planted coefficients "
          f"recovered to 1e-6, perturbed landmark {largest!r} is the top residual")


def vilmann_data_file():
    env = os.environ.get("GRIDMORPH_VILMANN")
    if env:
        return env
    fallback = Path(__file__).parent / "data" / "vilmann_means.json"
    return str(fallback) if fallback.is_file() else None


def test_criterion_13_vilmann_reproduction(capsys):
    path = vilmann_data_file()
    if path is None:
        pytest.skip("Vilmann group means not supplied (set GRIDMORPH_VILMANN "
                    "or add tests/data/vilmann_means.json)")
    assert main(["rotations", path, "--threshold", "0.15"]) == 0
    raw = len([l for l in capsys.readouterr().out.splitlines()[1:] if l.strip()])
    assert main(["rotations", path, "--threshold", "0.15", "--nonaffine"]) == 0
    nonaffine = len([l for l in capsys.readouterr().out.splitlines()[1:] if l.strip()])
    assert raw == 9
    assert nonaffine == 6
    print("PASS 13: supplied group means flag 9 segments raw and 6 nonaffine")

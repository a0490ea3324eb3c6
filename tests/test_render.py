import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (Baseline, InputError, Segment, deform_grid, default_labels, grid_scene, make_grid,
                       network_scene, outline_panel, render_scene, tile_scenes,
                       two_point_register, vilmann_target, vilmann_template,
                       write_svg)
from gridmorph import render
from gridmorph.core import LandmarkConfiguration
from gridmorph.render import Label, Marker, Panel, Polyline, Scene, _fmt, _fmt_coords

GOLDEN = Path(__file__).parent / "golden"

SVG = "{http://www.w3.org/2000/svg}"


def parse(text):
    return ET.fromstring(text)


def tags(root):
    return [child.tag.removeprefix(SVG) for child in root]


def test_empty_scene_is_root_only():
    text = render_scene(Scene(size=(100, 100), viewport=(0, 0, 1, 1)))
    root = parse(text)
    assert root.tag == SVG + "svg"
    assert root.get("version") == "1.1"
    assert root.get("width") == "100" and root.get("height") == "100"
    assert root.get("viewBox") == "0 0 100 100"
    assert len(root) == 0


def test_unit_segment_spans_full_width():
    scene = Scene(size=(100, 100), viewport=(0, 0, 1, 1),
                  layers=(Polyline(np.array([(0.0, 0.0), (1.0, 0.0)])),))
    root = parse(render_scene(scene))
    (line,) = root
    pts = [tuple(map(float, pair.split(","))) for pair in line.get("points").split()]
    assert pts == [(0.0, 100.0), (100.0, 100.0)]  # y axis flips


def test_isotropic_mapping_centers_short_axis():
    scene = Scene(size=(100, 100), viewport=(0, 0, 2, 1),
                  layers=(Marker(np.array([0.0, 0.0])), Marker(np.array([2.0, 1.0]))))
    root = parse(render_scene(scene))
    a, b = root
    assert (float(a.get("cx")), float(a.get("cy"))) == (0.0, 75.0)
    assert (float(b.get("cx")), float(b.get("cy"))) == (100.0, 25.0)
    assert a.get("r") == b.get("r")  # marker size never stretches


def test_marker_fill_styles():
    scene = Scene(size=(50, 50), viewport=(0, 0, 1, 1),
                  layers=(Marker(np.array([0.5, 0.5])),
                          Marker(np.array([0.25, 0.25]), filled=False),
                          Marker(np.array([0.75, 0.75]), baseline=True)))
    root = parse(render_scene(scene))
    solid, hollow, base, ring = root
    assert solid.get("fill") == "black" and solid.get("stroke") == "none"
    assert hollow.get("fill") == "white" and hollow.get("stroke") == "black"
    assert float(ring.get("r")) > float(base.get("r"))
    assert ring.get("fill") == "none"


def test_polyline_variants():
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    scene = Scene(size=(50, 50), viewport=(0, 0, 1, 1),
                  layers=(Polyline(pts), Polyline(pts, heavy=True),
                          Polyline(pts, dashed=True), Polyline(pts, closed=True)))
    root = parse(render_scene(scene))
    light, heavy, dashed, closed = root
    assert float(heavy.get("stroke-width")) > float(light.get("stroke-width"))
    assert dashed.get("stroke-dasharray") is not None
    assert light.get("stroke-dasharray") is None
    assert closed.tag == SVG + "polygon"
    assert light.tag == SVG + "polyline"


def test_label_text_escaped():
    scene = Scene(size=(50, 50), viewport=(0, 0, 1, 1),
                  layers=(Label(np.array([0.5, 0.5]), "a<b&c"),))
    text = render_scene(scene)
    assert "a&lt;b&amp;c" in text
    assert parse(text)[0].text == "a<b&c"


def test_float_formatting():
    assert _fmt(-0.0) == "0"
    assert _fmt(0.25) == "0.25"
    assert _fmt(1 / 3) == "0.333333"
    assert _fmt(1200000.0) == "1.2e+06"


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
    return np.array(values + [-v for v in values]).reshape(-1, 2)


def ulp_neighbours():
    """1e-4, 1e5, 1e6, 1 and 10, each with its neighbouring doubles, and two carries."""
    values = [np.nextafter(v, to) for v in (1e-4, 1e5, 1e6, 1.0, 10.0) for to in (0.0, v, np.inf)]
    return np.array(values + [99999.95, 999999.5, -99999.95]).reshape(-1, 2)


def pre_rounded(decimals):
    return np.round(np.random.default_rng(decimals).uniform(-1000, 1000, (100, 2)), decimals)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.just(2)), elements=st.floats()))
@example(np.array([[0.0, -0.0], [5e-324, -2.5e-320], [1e300, -1e300], [-1e-07, -9.9999996e-08],
                   [np.nan, -np.nan], [np.inf, -np.inf]]))
@example(fixed_notation_ties())
@example(ulp_neighbours())
@example(pre_rounded(2))
@example(pre_rounded(6))
def test_polyline_points_equal_per_coordinate_fmt(pts):
    want = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in pts)
    seps = np.tile(np.frombuffer(b", ", dtype=np.uint8), len(pts))
    seps[-1:] = 0
    assert _fmt_coords(pts.ravel(), seps) == want


def test_fmt_coords_equals_fmt_across_scales():
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.choice([-1.0, 1.0], 200_000) * 10 ** rng.uniform(-6, 7, 200_000),
                             rng.uniform(0, 960, 50_000)])
    seps = np.full(len(values), ord(" "), dtype=np.uint8)
    assert _fmt_coords(values, seps) == "".join(_fmt(v) + " " for v in values.tolist())


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_fmt_coords_digits_do_not_depend_on_log10_rounding(monkeypatch, shift):
    # an exponent that log10 puts one off is corrected against the exact powers of ten
    values = np.concatenate([fixed_notation_ties().ravel(), ulp_neighbours().ravel(),
                             pre_rounded(2).ravel(), [0.5, 1.5, 7.25, 42.0, 314.159, 5e5]])
    seps = np.full(len(values), ord(" "), dtype=np.uint8)
    want = "".join(_fmt(v) + " " for v in values.tolist())
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert _fmt_coords(values, seps) == want


def percent_print_polylines(polylines, out):
    """The per-polyline % path that _print_polylines replaced, kept as the oracle."""
    for slot, tf, pts in polylines:
        xy = tf.apply(pts) + 0.0
        out[slot] += " ".join(["%.6g,%.6g"] * len(xy)) % tuple(xy.ravel().tolist()) + '"/>'


def random_scene(rng, lengths, depth=0):
    """Polylines of the given lengths among markers, some inside nested panels."""
    layers = []
    for n in lengths:
        pts = rng.normal(size=(n, 2)) * 10 ** rng.uniform(-3, 4)
        pts[rng.random(n) < 0.01] = np.nan
        layers.append(Polyline(pts, heavy=bool(rng.integers(2)), closed=bool(rng.integers(2))))
        if rng.random() < 0.3:
            layers.append(Marker(rng.normal(size=2)))
        if depth < 2 and rng.random() < 0.3:
            inner = random_scene(rng, rng.choice([0, 1, 2, 3, 17], size=3), depth + 1)
            layers.append(Panel(inner, tuple(rng.uniform(0, 100, 4) + [0, 0, 10, 10])))
    x0, y0 = rng.normal(size=2)
    return Scene(size=(300, 200), viewport=(x0, y0, x0 + 2, y0 + 1), layers=tuple(layers))


@pytest.mark.parametrize("block", [2, 6, 64, render.PRINT_BLOCK])
def test_render_scene_equals_per_polyline_percent_oracle(monkeypatch, block):
    rng = np.random.default_rng(block)
    half = block // 2
    lengths = [0, 1, 2, 3, half - 1, half, half + 1, 2 * half + 1, 5, 2, 40]
    scenes = [random_scene(rng, rng.permutation(lengths)) for _ in range(3)]
    monkeypatch.setattr(render, "PRINT_BLOCK", block)
    got = [render_scene(scene) for scene in scenes]
    monkeypatch.setattr(render, "_print_polylines", percent_print_polylines)
    assert got == [render_scene(scene) for scene in scenes]


def row_mask_padded_bounds(chunks):
    """padded_bounds as it was: the finite rows by a row-wise mask, stacked."""
    pts = np.concatenate([np.asarray(c, dtype=float).reshape(-1, 2) for c in chunks])
    pts = pts[np.isfinite(pts).all(axis=1)]
    if not len(pts):
        return None
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.05 * max(float((hi - lo).max()), 1e-9)
    return (float(lo[0]) - pad, float(lo[1]) - pad, float(hi[0]) + pad, float(hi[1]) + pad)


@pytest.mark.parametrize("seed", range(6))
def test_padded_bounds_equals_row_mask_reference(seed):
    rng = np.random.default_rng(seed)
    chunks = [np.zeros((0, 2)), rng.normal(size=2)]
    for n in (1, 5, 300):
        for column in ([0], [1], [0, 1]):  # non-finite in x only, y only, both
            for bad in (np.nan, np.inf, -np.inf):
                pts = rng.normal(size=(n, 2)) * 10 ** rng.uniform(-3, 3)
                # outliers that are only half finite must not stretch the box
                pts[rng.random(n) < 0.3] = 1e6
                pts[np.ix_(np.flatnonzero(pts[:, 0] == 1e6), column)] = bad
                chunks.append(pts)
    chunks = [chunks[i] for i in rng.permutation(len(chunks))]
    assert render.padded_bounds(chunks) == row_mask_padded_bounds(chunks)
    assert render.padded_bounds(iter(chunks)) == row_mask_padded_bounds(chunks)


def test_padded_bounds_of_nothing_finite_is_none():
    half = np.array([(np.nan, 1.0), (2.0, np.inf), (-np.inf, np.nan)])
    assert render.padded_bounds([]) is None
    assert render.padded_bounds([np.zeros((0, 2))]) is None
    assert render.padded_bounds([half, np.zeros((0, 2)), half[1]]) is None
    assert render.padded_bounds([half, [3.0, 4.0]]) == row_mask_padded_bounds([[3.0, 4.0]])


def test_render_is_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    layers = tuple(Marker(p) for p in rng.normal(size=(40, 2)))
    scene = Scene(size=(300, 300), layers=layers)
    assert render_scene(scene) == render_scene(scene)
    write_svg(scene, tmp_path / "a.svg")
    write_svg(scene, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_degenerate_viewport_rejected():
    scene = Scene(size=(100, 100), viewport=(0, 0, 0, 1),
                  layers=(Marker(np.array([0.0, 0.0])),))
    with pytest.raises(InputError):
        render_scene(scene)


def vilmann_pair():
    baseline = Baseline(0, 1)
    template = two_point_register(vilmann_template(), baseline)
    target = two_point_register(vilmann_target(), baseline)
    return template, target, baseline


def test_outline_panel_structure():
    template, target, baseline = vilmann_pair()
    scene = outline_panel(template, target, baseline, "age7 vs age150")
    root = parse(render_scene(scene))
    names = tags(root)
    assert names.count("polygon") == 2  # one closed outline per configuration
    assert "text" in names
    (text,) = [el for el in root if el.tag == SVG + "text"]
    assert text.text == "age7 vs age150"
    # open template markers, filled target markers, baseline rings on both
    circles = [el for el in root if el.tag == SVG + "circle"]
    assert len(circles) == 8 + 8 + 4


def test_network_scene_one_line_per_segment():
    template, target, _ = vilmann_pair()
    segments = (Segment(0, 1), Segment(2, 5), Segment(3, 4))
    scene = network_scene(template, target, segments)
    root = parse(render_scene(scene))
    names = tags(root)
    # each segment drawn once per configuration: light template, heavy target
    assert names.count("line") == 2 * len(segments)
    assert names.count("circle") == 2 * 8


def test_tile_scenes_four_panel_dimensions():
    template, target, baseline = vilmann_pair()
    panel = outline_panel(template, target, baseline, "p")
    composite = tile_scenes([panel, panel, panel, panel], columns=2, panel_size=480)
    root = parse(render_scene(composite))
    assert root.get("width") == "960" and root.get("height") == "960"
    assert tags(root).count("rect") == 4  # one border per panel
    # every panel contributes the same layer count
    assert tags(root).count("text") == 4
    assert [layer.rect for layer in composite.layers] == [
        (0.0, 0.0, 480.0, 480.0), (480.0, 0.0, 480.0, 480.0),
        (0.0, 480.0, 480.0, 480.0), (480.0, 480.0, 480.0, 480.0)]
    assert composite.landmark_count == len(template)


def test_tile_scenes_rejects_mixed_landmark_counts():
    template, target, baseline = vilmann_pair()
    panel = outline_panel(template, target, baseline, "p")
    other = Scene(size=(240, 240), viewport=(0, 0, 1, 1), landmark_count=len(template) + 1)
    with pytest.raises(InputError, match="landmark count"):
        tile_scenes([panel, other])
    undeclared = Scene(size=(240, 240), viewport=(0, 0, 1, 1))
    assert tile_scenes([panel, undeclared]).landmark_count == len(template)


def test_tile_scenes_layout():
    template, target, baseline = vilmann_pair()
    panel = outline_panel(template, target, baseline, "p")
    grid3 = tile_scenes([panel, panel, panel], panel_size=240)
    root = parse(render_scene(grid3))
    assert root.get("width") == "480" and root.get("height") == "480"
    row = tile_scenes([panel, panel, panel], columns=3, panel_size=240)
    root = parse(render_scene(row))
    assert root.get("width") == "720" and root.get("height") == "240"


def kite_grid_scene():
    from gridmorph import prototype_pair, tps_fit

    src, dst = prototype_pair("kite")
    warp = tps_fit(src, dst)
    spec = make_grid(src, margin=0.25, cells=6, samples_per_edge=6)
    grid = deform_grid(spec, warp)
    return grid_scene(grid, solid_points=dst.coords, baseline=(0, 2),
                      size=(360, 360))


def test_grid_scene_well_formed():
    root = parse(render_scene(kite_grid_scene()))
    names = tags(root)
    assert names.count("circle") == 4 + 2  # corners plus baseline rings
    assert names.count("polyline") == 14  # 7 vertical + 7 horizontal lines


def test_golden_kite_grid():
    want = (GOLDEN / "kite_grid.svg").read_bytes()
    got = render_scene(kite_grid_scene()).encode("utf-8")
    assert got == want


def test_golden_vilmann_panel():
    template, target, baseline = vilmann_pair()
    scene = outline_panel(template, target, baseline, "baseline 1,2")
    want = (GOLDEN / "vilmann_panel.svg").read_bytes()
    assert render_scene(scene).encode("utf-8") == want

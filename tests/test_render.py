import dataclasses
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (Baseline, InputError, deform_grid, default_labels, grid_scene, make_grid,
                       network_scene, outline_panel, render_scene, tile_scenes,
                       two_point_register, vilmann_target, vilmann_template,
                       write_svg)
from gridmorph import render
from gridmorph.core import LandmarkConfiguration
from gridmorph.gridlab import kept_runs
from gridmorph.render import Label, Markers, Panel, Polyline, Scene, SegmentNetwork, _fmt

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
                  layers=(Markers(np.array([(0.0, 0.0), (2.0, 1.0)])),))
    root = parse(render_scene(scene))
    a, b = root
    assert (float(a.get("cx")), float(a.get("cy"))) == (0.0, 75.0)
    assert (float(b.get("cx")), float(b.get("cy"))) == (100.0, 25.0)
    assert a.get("r") == b.get("r")  # marker size never stretches


def test_marker_fill_styles():
    scene = Scene(size=(50, 50), viewport=(0, 0, 1, 1),
                  layers=(Markers(np.array([(0.5, 0.5)])),
                          Markers(np.array([(0.25, 0.25)]), filled=False),
                          Markers(np.array([(0.75, 0.75)]), rings=(0,))))
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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.just(2)), elements=st.floats()))
@example(np.array([[0.0, -0.0], [5e-324, -2.5e-320], [1e300, -1e300], [-1e-07, -9.9999996e-08],
                   [np.nan, -np.nan], [np.inf, -np.inf]]))
@example(np.array([[123456.5, 2.5], [0.5, -1234.125], [999999.5, 99999.95], [-9.999995, 1e-4]]))
def test_polyline_points_equal_per_coordinate_fmt(pts):
    # the viewport maps (x, y) to the pixel (x, -y) exactly, so every value reaches fmt_g as drawn
    scene = Scene(size=(480.0, 480.0), viewport=(0.0, -480.0, 480.0, 0.0), layers=(Polyline(pts),))
    want = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts.tolist())
    assert [line.get("points") for line in parse(render_scene(scene))] == [want] * (len(pts) >= 2)


def reference_viewports(scene):
    """The scene with each missing viewport derived from one chunk of points per layer (a row
    per label), bounded by row_mask_padded_bounds."""
    chunks = [chunk for layer in scene.layers for chunk in (
        [layer.points[start:stop] for start, stop in layer.runs.tolist()]
        if isinstance(layer, Polyline) and layer.runs is not None else
        [getattr(layer, key) for key in ("points", "anchor") if hasattr(layer, key)])]
    layers = tuple(dataclasses.replace(layer, scene=reference_viewports(layer.scene))
                   if isinstance(layer, Panel) else layer for layer in scene.layers)
    viewport = scene.viewport
    if viewport is None and chunks:
        viewport = row_mask_padded_bounds(chunks)
    return dataclasses.replace(scene, viewport=viewport, layers=layers)


def percent_render_scene(scene):
    """The oracle for render_scene: viewports derived by reference_viewports, then each
    polyline, marker and segment transformed and printed with % on its own, in the order
    render._layers gives, and every other layer as render._text prints it. A marker is ringed
    if its ordinal is among its layer's rings."""
    w, h = scene.size
    stroke = 'stroke="black" stroke-width="%.6g"' % render.LIGHT_WIDTH
    out = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="%.6g" height="%.6g" '
           'viewBox="0 0 %.6g %.6g">\n' % (w, h, w, h)]
    for layer, where in render._layers(reference_viewports(scene), (0.0, 0.0, float(w), float(h))):
        if isinstance(layer, Markers):
            for idx, centre in enumerate(layer.points):
                (x, y), = where(centre) + 0.0
                circles = [(render.MARKER_RADIUS, 'fill="black" stroke="none"' if layer.filled
                            else 'fill="white" ' + stroke)]
                if idx in layer.rings:
                    circles.append((render.MARKER_RADIUS * render.BASELINE_RING_RATIO,
                                    'fill="none" ' + stroke))
                out += ['<circle cx="%.6g" cy="%.6g" r="%.6g" %s/>\n' % (x, y, r, paint)
                        for r, paint in circles]
            continue
        if isinstance(layer, SegmentNetwork):
            width = "%.6g" % (render.HEAVY_WIDTH if layer.heavy else render.LIGHT_WIDTH)
            for i, j in layer.segments:
                (x1, y1), (x2, y2) = where(layer.points[[i, j]]) + 0.0
                out.append('<line x1="%.6g" y1="%.6g" x2="%.6g" y2="%.6g" stroke="black" '
                           'stroke-width="%s"/>\n' % (x1, y1, x2, y2, width))
            continue
        if not isinstance(layer, Polyline):
            out.append(render._text(layer, where))
            continue
        pts = np.asarray(layer.points, dtype=float).reshape(-1, 2)
        tag = "polygon" if layer.closed else "polyline"
        width = "%.6g" % (render.HEAVY_WIDTH if layer.heavy else render.LIGHT_WIDTH)
        dash = ' stroke-dasharray="4 3"' if layer.dashed else ""
        for start, stop in [(0, len(pts))] if layer.runs is None else layer.runs.tolist():
            if stop - start >= 2:
                xy = where(pts[start:stop]) + 0.0
                out.append(f'<{tag} fill="none" stroke="black" stroke-width="{width}"{dash} points="'
                           + " ".join(["%.6g,%.6g"] * len(xy)) % tuple(xy.ravel().tolist())
                           + '"/>\n')
    return "".join(out) + "</svg>\n"


def random_centre(rng):
    """A marker centre: mostly ordinary, some NaN, -0.0 or far enough out to print >= 1e6 px."""
    kind = rng.integers(6)
    centre = rng.normal(size=2)
    if kind == 0:
        centre[rng.integers(2)] = np.nan
    elif kind == 1:
        centre[rng.integers(2)] = -0.0
    elif kind == 2:
        centre *= 1e5
    return centre


def random_scene(rng, lengths, depth=0):
    """Polylines and grid lines of the given lengths among marker layers (filled or open, some
    ringed, of a few points or as many as the polyline), segment networks, labels and nested
    panels; half the scenes derive their viewport."""
    layers = []
    for n in lengths:
        pts = rng.normal(size=(n, 2)) * 10 ** rng.uniform(-3, 4)
        pts[rng.random(n) < 0.01] = np.nan
        layers.append(Polyline(pts, heavy=bool(rng.integers(2)), closed=bool(rng.integers(2))))
        if n and rng.random() < 0.5:  # lines of n samples, with runs of every length
            kept = rng.random((int(rng.integers(1, 4)), n)) < rng.choice([0.5, 0.9, 1.0])
            layers.append(Polyline(pts[rng.integers(n, size=kept.size)], runs=kept_runs(kept)))
        for m in rng.choice([0, 1, 2, 5, n], size=rng.integers(3)):  # maybe between labels
            # rings name ordinals, some twice, and some of no point: those draw no ring
            rings = tuple(int(i) for i in rng.integers(-1, m + 2, size=rng.integers(4)))
            layers.append(Markers(np.array([random_centre(rng) for _ in range(m)]).reshape(-1, 2),
                                  filled=bool(rng.integers(2)), rings=rings))
            if rng.random() < 0.15:
                layers.append(Label(rng.normal(size=2), "a<b&c"))
        if rng.random() < 0.3:  # as many segments as the polyline has points, maybe none
            ends = np.sort(rng.integers(n + 1, size=(n, 2)), axis=1)
            layers.append(SegmentNetwork(np.vstack([pts, random_centre(rng)]), ends,
                                         heavy=bool(rng.integers(2))))
        if depth < 2 and rng.random() < 0.3:
            inner = random_scene(rng, rng.choice([0, 1, 2, 3, 17], size=3), depth + 1)
            layers.append(Panel(inner, tuple(rng.uniform(0, 100, 4) + [0, 0, 10, 10])))
    x0, y0 = rng.normal(size=2)
    if rng.random() < 0.5:  # derived from the layers; a finite marker makes sure there is one
        return Scene(size=(300, 200), layers=(*layers, Markers(rng.normal(size=(1, 2)))))
    return Scene(size=(300, 200), viewport=(x0, y0, x0 + 2, y0 + 1), layers=tuple(layers))


@pytest.mark.parametrize("block", [2, 6, 64, render.PRINT_BLOCK])
def test_render_scene_equals_per_polyline_percent_oracle(monkeypatch, block):
    rng = np.random.default_rng(block)
    half = block // 2
    lengths = [0, 1, 2, 3, half - 1, half, half + 1, 2 * half + 1, 5, 2, 40]
    scenes = [random_scene(rng, rng.permutation(lengths)) for _ in range(3)]
    monkeypatch.setattr(render, "PRINT_BLOCK", block)
    assert [render_scene(scene) for scene in scenes] == [percent_render_scene(scene)
                                                        for scene in scenes]


def test_print_blocks_with_and_without_a_sign_word_equal_the_percent_oracle():
    # fmt_g sizes its canvas to each block: the first block holds a negative pixel coordinate,
    # the second only pixels of at least 1, the third one below 1, the last the markers
    half = render.PRINT_BLOCK // 2
    pixels = np.random.default_rng(6).uniform(1.0, 479.0, (3 * half, 2))
    pixels[half // 2, 0], pixels[2 * half + 7, 1] = -3.25, 0.5
    world = pixels * [1.0, -1.0]  # the viewport maps (x, y) to the pixel (x, -y) exactly
    scene = Scene(size=(480.0, 480.0), viewport=(0.0, -480.0, 480.0, 0.0),
                  layers=(Polyline(world), Markers(world[:5])))
    assert render_scene(scene) == percent_render_scene(scene)


@pytest.mark.parametrize("block", [2, 6, 64, render.PRINT_BLOCK])
def test_write_svg_writes_render_scene_bytes(monkeypatch, tmp_path, block):
    rng = np.random.default_rng(block + 1)
    scene = random_scene(rng, [0, 2, block // 2 + 1, block + 3, 40])
    monkeypatch.setattr(render, "PRINT_BLOCK", block)
    write_svg(scene, tmp_path / "scene.svg")
    assert (tmp_path / "scene.svg").read_bytes() == render_scene(scene).encode()


def test_failed_write_svg_leaves_no_file(tmp_path):
    good = Scene(size=(10, 10), viewport=(0, 0, 1, 1), layers=(Markers(np.zeros((1, 2))),))
    bad = Scene(size=(10, 10), viewport=(0, 0, 0, 1), layers=(Markers(np.zeros((1, 2))),))
    path = tmp_path / "figure.svg"
    write_svg(good, path)  # a figure from an earlier run
    with pytest.raises(InputError, match="degenerate viewport"):
        write_svg(tile_scenes([good, bad]), path)  # the second panel fails after the first
    assert not path.exists()
    link = tmp_path / "link.svg"  # what a link points at is not the output's own file
    link.symlink_to(tmp_path / "target.svg")
    with pytest.raises(InputError):
        write_svg(bad, link)
    assert link.is_symlink()


def test_write_svg_peak_memory_is_below_half_the_file(tmp_path):
    from gridmorph import prototype_pair, tps_fit

    src, dst = prototype_pair("kite")
    grid = deform_grid(make_grid(src, margin=0.25, cells=96), tps_fit(src, dst))
    figure = tile_scenes([grid_scene(grid, solid_points=dst.coords)] * 4, columns=2,
                         panel_size=480.0)
    path = tmp_path / "figure.svg"
    tracemalloc.start()
    try:
        write_svg(figure, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 8_000_000  # the figure is as large as the dense benchmark's
    assert peak < size / 2, f"write_svg peak {peak} B for a {size} B file"


def row_mask_padded_bounds(chunks):
    """padded_bounds as it was, with its floor now relative: the finite rows by a row-wise
    mask, stacked, and an extent of at least 1e-9 of their largest magnitude (1 if that is 0)."""
    pts = np.concatenate([np.asarray(c, dtype=float).reshape(-1, 2) for c in chunks])
    pts = pts[np.isfinite(pts).all(axis=1)]
    if not len(pts):
        return None
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.05 * (max(float((hi - lo).max()), 1e-9 * float(np.abs(pts).max())) or 1.0)
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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pts=st.integers(0, 30).flatmap(lambda n: arrays(np.float64, (n, 2), elements=st.floats(
           -1e12, 1e12))),
       corner=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       extent=st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)),
       rect=st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 500.0), st.floats(1.0, 1000.0),
                      st.floats(1.0, 1000.0)))
@example(pts=np.array([[0.0, -0.0], [np.nan, 1.0], [np.inf, -np.inf], [5e-324, 1e-310]]),
         corner=(-1.0, -2.0), extent=(3.0, 0.5), rect=(0.0, 0.0, 480.0, 480.0))
def test_transform_columns_equal_broadcast_formula(pts, corner, extent, rect):
    viewport = (corner[0], corner[1], corner[0] + extent[0], corner[1] + extent[1])
    assume(viewport[2] > viewport[0] and viewport[3] > viewport[1])
    x0, y0, x1, y1 = viewport
    px, py, pw, ph = rect
    scale = min(pw / (x1 - x0), ph / (y1 - y0))
    offset = np.array([px + (pw - (x1 - x0) * scale) / 2.0, py + (ph - (y1 - y0) * scale) / 2.0])
    with np.errstate(invalid="ignore"):  # inf - inf is part of the comparison
        want = (pts - np.array([x0, y1])) * np.array([scale, -scale]) + offset
        tf = render._transform(viewport, rect)
        got = tf(pts)
        inplace = pts.copy()
        tf(inplace, inplace)
    bits = [np.ascontiguousarray(a).view(np.uint64) for a in (want, got, inplace)]
    assert np.array_equal(bits[0], bits[1]) and np.array_equal(bits[0], bits[2])


def marker_scene(centre, spread):
    """Markers, a label and a polyline within spread of centre: a one-point scene if spread is 0."""
    rng = np.random.default_rng(3)
    pts = np.asarray(centre, dtype=float) + spread * rng.normal(size=(5, 2))
    return Scene(layers=(Polyline(pts), Markers(pts), Label(pts[0], "a")))


def scaled(scene, factor):
    return dataclasses.replace(scene, layers=tuple(
        Polyline(layer.points * factor) if isinstance(layer, Polyline) else
        Markers(layer.points * factor) if isinstance(layer, Markers) else
        Label(layer.anchor * factor, layer.text) for layer in scene.layers))


@pytest.mark.parametrize("centre", [(0.0, 0.0), (3.0, -4.0), (1e3, 1e3), (1e6, 1e6), (1e9, 1e9),
                                    (-1e-12, 2e-12), (1e200, 1e200)])
@pytest.mark.parametrize("spread", [0.0, 1e-12, 1e-3, 1.0])
def test_viewport_scales_with_the_data(centre, spread):
    scene = marker_scene(centre, spread * max(1.0, abs(centre[0])))
    text = render_scene(scene)  # a one-point scene far from the origin is no degenerate viewport
    assert text.count("<circle") == 5
    for exponent in (-40, 40):
        assert render_scene(scaled(scene, 2.0 ** exponent)) == text


def test_tiny_data_is_framed_by_its_own_size():
    x0, y0, x1, y1 = render.padded_bounds([np.array([[0.0, 0.0], [2e-12, 1e-12]])])
    assert (x0, y0, x1, y1) == pytest.approx((-1e-13, -1e-13, 2.1e-12, 1.1e-12), rel=1e-9)
    x0, y0, x1, y1 = render.padded_bounds([np.array([1e6, 1e6])])
    assert x0 < 1e6 < x1 and x1 - x0 == pytest.approx(1e-4, rel=1e-3)


def test_render_is_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    layers = (Markers(rng.normal(size=(40, 2))),)
    scene = Scene(size=(300, 300), layers=layers)
    assert render_scene(scene) == render_scene(scene)
    write_svg(scene, tmp_path / "a.svg")
    write_svg(scene, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_degenerate_viewport_rejected():
    scene = Scene(size=(100, 100), viewport=(0, 0, 0, 1),
                  layers=(Markers(np.array([(0.0, 0.0)])),))
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
    segments = np.array([(0, 1), (2, 5), (3, 4)])
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
    return dataclasses.replace(grid_scene(grid, solid_points=dst.coords, baseline=(0, 2)),
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

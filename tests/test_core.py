import numpy as np
import pytest

from gridmorph import (HomologyError, InputError, LandmarkConfiguration,
                       NumericalError, Sample, Segment, affine_fit, centroid,
                       centroid_size, default_labels, enumerate_segments,
                       procrustes_align, tps_fit, trend_fit)
from gridmorph.core import require_homologous
from helpers import sample_of

square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_centroid_unit_square():
    assert np.allclose(centroid(square), (0.5, 0.5))


def test_centroid_size_unit_square():
    # four corners, each at distance sqrt(2)/2 from the centroid
    assert centroid_size(square) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_centroid_size_two_points():
    # coordinate ops accept bare arrays below the configuration minimum
    pts = np.array([(0.0, 0.0), (2.0, 0.0)])
    assert centroid_size(pts) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_centroid_size_translation_invariant_scale_equivariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.normal(size=(7, 2))
        shift = rng.normal(size=2)
        scale = rng.uniform(0.1, 10.0)
        assert centroid_size(pts + shift) == pytest.approx(centroid_size(pts), rel=1e-12)
        assert centroid_size(pts * scale) == pytest.approx(scale * centroid_size(pts), rel=1e-12)


def test_centroid_size_coincident_points_raises():
    with pytest.raises(NumericalError):
        centroid_size(np.zeros((4, 2)))


def test_configuration_validation():
    cfg = LandmarkConfiguration("sq", default_labels(4), square)
    assert len(cfg) == 4
    assert cfg.labels == ("L1", "L2", "L3", "L4")
    assert cfg.unit == "raw"
    with pytest.raises(InputError):
        LandmarkConfiguration("bad", ("A", "B"), square[:2])  # k < 3
    with pytest.raises(InputError):
        LandmarkConfiguration("bad", ("A", "A", "B", "C"), square)  # duplicate label
    with pytest.raises(InputError):
        LandmarkConfiguration("bad", default_labels(4),
                              np.array([(0, 0), (1, 0), (1, np.nan), (0, 1)]))
    with pytest.raises(InputError):
        LandmarkConfiguration("bad", default_labels(4), square, unit="feet")


def test_configuration_coords_frozen():
    cfg = LandmarkConfiguration("sq", default_labels(4), square)
    with pytest.raises(ValueError):
        cfg.coords[0, 0] = 9.0


def test_configuration_equality_is_bitwise():
    a = LandmarkConfiguration("sq", default_labels(4), square)
    b = LandmarkConfiguration("sq", default_labels(4), square.copy())
    c = LandmarkConfiguration("sq", default_labels(4), square + 1e-16)
    assert a == b
    assert a != c or np.array_equal(square, square + 1e-16)


def test_sample_homology_names_both_configurations():
    a = LandmarkConfiguration("alpha", default_labels(4), square)
    b = LandmarkConfiguration("beta", default_labels(3), square[:3])
    with pytest.raises(HomologyError) as err:
        require_homologous(a, b)
    assert "alpha" in str(err.value) and "beta" in str(err.value)
    # any number of configurations: the first one and the first that differs are named
    a = LandmarkConfiguration("a", default_labels(4), square)
    same = LandmarkConfiguration("same", default_labels(4), square + 1.0)
    short = LandmarkConfiguration("short", default_labels(3), square[:3])
    relabelled = LandmarkConfiguration("relabelled", ("L1", "L2", "L4", "L3"), square)
    require_homologous()
    require_homologous(a)
    require_homologous(a, same, same)
    with pytest.raises(HomologyError, match="'a' and 'short' .*: 4 vs 3 landmarks"):
        require_homologous(a, same, short, relabelled)
    with pytest.raises(HomologyError, match="'a' and 'relabelled' .*: label sequences differ"):
        require_homologous(a, same, relabelled, short)
    with pytest.raises(HomologyError, match="'short' and 'a' .*: 3 vs 4 landmarks"):
        require_homologous(short, short, a, relabelled)


@pytest.mark.parametrize("fit", [tps_fit, lambda a, b: trend_fit(a, b, 1),
                                 procrustes_align, affine_fit],
                         ids=["tps_fit", "trend_fit", "procrustes_align", "affine_fit"])
def test_fits_reject_relabelled_configurations(fit):
    a = LandmarkConfiguration("alpha", default_labels(4), square)
    b = LandmarkConfiguration("beta", ("L1", "L2", "L4", "L3"), square + 0.5)
    with pytest.raises(HomologyError) as err:
        fit(a, b)
    assert "alpha" in str(err.value) and "beta" in str(err.value)
    assert "label sequences differ" in str(err.value)
    fit(a, LandmarkConfiguration("beta", default_labels(4), square + 0.5))  # same labels fit


def test_sample_groups():
    a = LandmarkConfiguration("a1", default_labels(4), square)
    b = LandmarkConfiguration("b1", default_labels(4), square + 2.0)
    s = sample_of((a, b), groups={"a1": "young", "b1": "old"})
    assert s.group_tags == ["young", "old"]
    assert s.group_of("a1") == "young"
    assert s.in_group("old").names == ("b1",)
    with pytest.raises(InputError):
        sample_of((a, b), groups={"nobody": "young"})


def test_sample_duplicate_names_rejected():
    a = LandmarkConfiguration("same", default_labels(4), square)
    b = LandmarkConfiguration("same", default_labels(4), square + 1.0)
    with pytest.raises(InputError, match="duplicate configuration name 'same'"):
        Sample([a.name, b.name], a.labels, [a.coords, b.coords])


def test_enumerate_segments_counts():
    assert len(enumerate_segments(8)) == 28
    assert len(enumerate_segments(20)) == 190
    assert len(enumerate_segments(2)) == 1


def test_enumerate_segments_order_and_bounds():
    segs = enumerate_segments(4)
    assert segs[0] == Segment(0, 1)
    assert segs[-1] == Segment(2, 3)
    assert all(s.i < s.j for s in segs)
    # lexicographic order
    assert segs == sorted(segs)


def test_default_labels():
    assert default_labels(3) == ("L1", "L2", "L3")


def test_sample_from_stack_stores_one_read_only_stack():
    stack = np.stack([square, square + 1.0, square * 2.0])
    s = Sample(["a", "b", "c"], default_labels(4), stack, groups={"b": "g"})
    assert s.names == ("a", "b", "c") and s.units == ("raw",) * 3 and len(s) == 3
    assert s.coords is s.coords and not s.coords.flags.writeable
    assert np.array_equal(s.coords, stack) and not np.shares_memory(s.coords, stack)
    assert "configurations" not in vars(s)  # built on first access only
    first = s.configurations[0]
    assert s.configurations is s.configurations
    assert first.name == "a" and first.labels == s.labels and first.unit == "raw"
    assert np.shares_memory(first.coords, s.coords) and not first.coords.flags.writeable
    assert s == sample_of(s.configurations, {"b": "g"})
    group = s.in_group("g")
    assert group.names == ("b",) and np.array_equal(group.coords, stack[1:2])
    assert group.groups == {"b": "g"} and s.in_group("").names == ("a", "c")
    with pytest.raises(InputError, match="has no configurations"):
        s.in_group("nobody")


def test_sample_keeps_the_configurations_it_was_given():
    a = LandmarkConfiguration("a", default_labels(4), square)
    b = LandmarkConfiguration("b", default_labels(4), square + 1.0, unit="two-point")
    s = Sample(["a", "b"], default_labels(4), [a.coords, b.coords], ["raw", "two-point"])
    assert s.units == ("raw", "two-point") and s.configurations == (a, b)
    assert Sample(["a"], default_labels(4), [square], "procrustes").units == ("procrustes",)


@pytest.mark.parametrize("names, labels, coords, units, groups, message", [
    ([], default_labels(4), np.zeros((0, 4, 2)), "raw", {}, "at least one configuration"),
    (["a"], default_labels(4), square, "raw", {}, r"need \(n, k, 2\) coords"),
    (["a", "b"], default_labels(4), np.stack([square] * 3), "raw", {}, r"need \(n, k, 2\)"),
    (["a"], default_labels(4), square[None], ["raw", "raw"], {}, "as many unit tags"),
    (["a", "b"], default_labels(2), np.stack([square[:2]] * 2), "raw", {},
     "'a': at least 3 landmarks required, got 2"),
    (["a", "b", "c"], default_labels(4), np.stack([square, square + np.inf, square + np.nan]),
     "raw", {}, "'b': coordinates must be finite"),
    (["a", "b"], ("L1", "L2", "L3"), np.stack([square] * 2), "raw", {}, "'a': 3 labels for 4"),
    (["a", "b"], ("L1", "L2", "L1", "L4"), np.stack([square] * 2), "raw", {},
     "'a': landmark labels must be unique"),
    (["a", "b"], default_labels(4), np.stack([square] * 2), ["raw", "feet"], {},
     "'b': unknown unit tag 'feet'"),
    (["a", "a"], default_labels(4), np.stack([square] * 2), "raw", {}, "duplicate .* 'a'"),
    (["a", "b"], default_labels(4), np.stack([square] * 2), "raw", {"c": "g"},
     "unknown configuration 'c'"),
])
def test_sample_from_stack_rejects(names, labels, coords, units, groups, message):
    with pytest.raises(InputError, match=message):
        Sample(names, labels, coords, units, groups)


def test_sample_errors_come_in_configuration_order():
    # the first faulty configuration decides, whichever of its checks fails
    bad = np.stack([square, square, square])
    bad[1, 0, 0] = np.nan
    with pytest.raises(InputError, match="'b': coordinates must be finite"):
        Sample(["a", "b", "c"], default_labels(4), bad, ["raw", "raw", "feet"])
    with pytest.raises(InputError, match="'a': unknown unit"):
        Sample(["a", "b", "c"], default_labels(4), bad, ["feet", "raw", "raw"])

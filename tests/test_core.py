import numpy as np
import pytest

from gridmorph import (HomologyError, InputError, LandmarkConfiguration,
                       NumericalError, Sample, Segment, affine_fit, centroid,
                       centroid_size, default_labels, enumerate_segments,
                       procrustes_align, tps_fit, trend_fit)

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
        Sample((a, b))
    assert "alpha" in str(err.value) and "beta" in str(err.value)


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
    s = Sample((a, b), groups={"a1": "young", "b1": "old"})
    assert s.group_tags == ["young", "old"]
    assert s.group_of("a1") == "young"
    assert [c.name for c in s.configs_in_group("old")] == ["b1"]
    with pytest.raises(InputError):
        Sample((a, b), groups={"nobody": "young"})


def test_sample_duplicate_names_rejected():
    a = LandmarkConfiguration("same", default_labels(4), square)
    b = LandmarkConfiguration("same", default_labels(4), square + 1.0)
    with pytest.raises(InputError):
        Sample((a, b))


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

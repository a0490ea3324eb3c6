import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (InputError, LandmarkConfiguration,
                       NumericalError, Sample,
                       centroid_size, default_labels, enumerate_segments, gpa_mean,
                       procrustes_align, remove_affine, tps_fit, trend_fit)
from gridmorph.cli import _group_mean
from gridmorph.core import centered, frame, require_homologous
from helpers import sample_of

square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_centroid_unit_square():
    scaled, e = frame(square, 0)
    assert e.tolist() == [[1, 1]] and np.ldexp(scaled.mean(axis=0), e[0]).tolist() == [0.5, 0.5]
    # the group's x sum 3.4e308 is past the largest float; the scaled values' is not
    wide = Sample(["a", "b"], default_labels(3), [[(0, 0), (1.7e308, 0), (0, 1)],
                                                  [(1, 1), (1.7e308, 1), (0, 1)]],
                  groups={"a": "g", "b": "g"})
    assert _group_mean(wide, "g", False).coords.tolist() == [[0.5, 0.5], [1.7e308, 0.5], [0, 1]]


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
        # exact, though the squares leave the range (and at 2 ** 1020, the sums)
        for exponent in (-700, -600, -1, 500, 600, 1020):
            assert centroid_size(np.ldexp(pts, exponent)) == np.ldexp(centroid_size(pts), exponent)


def test_centroid_size_near_the_float_limit():
    # the x coordinates sum past the largest float, their mean does not
    assert centroid_size([[1.7e308, 0.0], [1.7e308, 1.0], [0.0, 0.0]]) == \
        pytest.approx(1.7e308 * np.sqrt(2 / 3), rel=1e-15)


def test_centroid_size_past_the_largest_float_raises():
    # every deviation is in range, the size 1.7e308 * sqrt(2) is not
    with pytest.raises(NumericalError, match="centroid size is past the largest float"):
        centroid_size([[1.7e308, 0.0], [-1.7e308, 0.0], [0.0, 1.0]])


def test_centroid_size_coincident_points_raises():
    with pytest.raises(NumericalError):
        centroid_size(np.zeros((4, 2)))


def test_coincident_points_whose_mean_does_not_round_back_raise():
    # six copies of 0.00878125 average to a neighbouring float, not to 0.00878125
    same = np.full((6, 2), 0.00878125)
    assert same.mean(axis=0)[0] != same[0, 0]
    with pytest.raises(NumericalError, match="all landmarks coincide; centroid size is zero"):
        centroid_size(same)
    rng = np.random.default_rng(5)
    sample = Sample(["same", "a", "b"], default_labels(6),
                    np.concatenate([same[None], rng.normal(size=(2, 6, 2))]))
    with pytest.raises(NumericalError, match="all landmarks coincide; centroid size is zero"):
        gpa_mean(sample)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(3, 50),
       st.integers(0, 4), st.data())
def test_constant_configuration_has_size_exactly_zero(value, k, n, data):
    if n == 0:  # one configuration alone
        dev, size, _ = centered(np.full((k, 2), value))
        assert size == 0.0 and not dev.any()
        return
    stack = np.random.default_rng(k).normal(size=(n, k, 2))
    same = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    stack[same] = value
    dev, size, _ = centered(stack)
    assert (size[same] == 0.0).all() and not dev[same].any()
    others = np.setdiff1d(np.arange(n), same)
    assert np.array_equal(size[others], [centered(stack[i])[1] for i in others])
    assert (size[others] > 0.0).all()


@st.composite
def stacks_and_exponents(draw):
    """(n, k, 2) configurations, each with largest magnitude in [1, 2), and an exponent j up to
    1023 that keeps each nonzero coordinate times 2^j finite and normal."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(3, 8))
    stack = draw(arrays(np.float64, (n, k, 2), elements=st.floats(-2, 2, exclude_min=True,
                                                                      exclude_max=True)))
    for c in stack:
        c.flat[draw(st.integers(0, 2 * k - 1))] = draw(st.sampled_from((-1, 1))) * \
            draw(st.floats(1, 2, exclude_max=True))
    lowest = -1021 - int(np.frexp(np.abs(stack[stack != 0]).min())[1])
    return stack, draw(st.sampled_from((lowest, 1023)) | st.integers(lowest, 1023))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(stacks_and_exponents())
def test_frame_makes_centering_and_gpa_exact_under_a_power_of_two_scale(case):
    stack, j = case
    scaled = np.ldexp(stack, j)
    assert np.isfinite(scaled).all() and (np.abs(scaled[scaled != 0]) >= 2.0 ** -1022).all()
    (dev, size, e), (dev_j, size_j, e_j) = centered(stack), centered(scaled)
    assert np.array_equal(dev_j, dev) and np.array_equal(size_j, size)
    assert (e == 1).all() and (e_j == e + j).all()
    means = []
    for coords in (stack, scaled):
        try:
            means.append(gpa_mean(Sample([f"c{i}" for i in range(len(stack))],
                                         default_labels(stack.shape[1]), coords)).coords)
        except NumericalError as exc:
            means.append(str(exc))
    assert type(means[1]) is type(means[0])
    assert np.array_equal(*means) if isinstance(means[0], np.ndarray) else means[1] == means[0]


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
    with pytest.raises(InputError, match="'alpha' and 'beta' are not homologous: 4 vs 3") as err:
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
    with pytest.raises(InputError, match="'a' and 'short' .*: 4 vs 3 landmarks"):
        require_homologous(a, same, short, relabelled)
    with pytest.raises(InputError, match="'a' and 'relabelled' .*: label sequences differ"):
        require_homologous(a, same, relabelled, short)
    with pytest.raises(InputError, match="'short' and 'a' .*: 3 vs 4 landmarks"):
        require_homologous(short, short, a, relabelled)


@pytest.mark.parametrize("fit", [tps_fit, lambda a, b: trend_fit(a, b, 1),
                                 procrustes_align, remove_affine],
                         ids=["tps_fit", "trend_fit", "procrustes_align", "remove_affine"])
def test_fits_reject_relabelled_configurations(fit):
    a = LandmarkConfiguration("alpha", default_labels(4), square)
    b = LandmarkConfiguration("beta", ("L1", "L2", "L4", "L3"), square + 0.5)
    with pytest.raises(InputError, match="'alpha' and 'beta' are not homologous") as err:
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
    assert segs[0].tolist() == [0, 1]
    assert segs[-1].tolist() == [2, 3]
    assert all(i < j for i, j in segs.tolist())
    # lexicographic order
    assert segs.tolist() == sorted(segs.tolist())


@pytest.mark.parametrize("k", [2, 3, 8, 60])
def test_enumerate_segments_is_a_read_only_triu_indices_array(k):
    segs = enumerate_segments(k)
    assert segs.dtype == np.intp and segs.shape == (k * (k - 1) // 2, 2)
    assert np.array_equal(segs, np.column_stack(np.triu_indices(k, 1)))
    assert segs.tolist() == [[i, j] for i in range(k - 1) for j in range(i + 1, k)]
    assert not segs.flags.writeable
    with pytest.raises(ValueError):
        segs[0, 0] = 1


def test_default_labels():
    assert default_labels(3) == ("L1", "L2", "L3")


def test_sample_from_stack_stores_one_read_only_stack():
    stack = np.stack([square, square + 1.0, square * 2.0])
    s = Sample(["a", "b", "c"], default_labels(4), stack, groups={"b": "g"})
    assert s.names == ("a", "b", "c") and s.unit == "raw" and len(s) == 3
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
    a = LandmarkConfiguration("a", default_labels(4), square, unit="two-point")
    b = LandmarkConfiguration("b", default_labels(4), square + 1.0, unit="two-point")
    s = Sample(["a", "b"], default_labels(4), [a.coords, b.coords], "two-point")
    assert s.unit == "two-point" and s.configurations == (a, b)
    assert Sample(["a"], default_labels(4), [square]).unit == "raw"


@pytest.mark.parametrize("names, labels, coords, units, groups, message", [
    ([], default_labels(4), np.zeros((0, 4, 2)), "raw", {}, "at least one configuration"),
    (["a"], default_labels(4), square, "raw", {}, r"need \(n, k, 2\) coords"),
    (["a", "b"], default_labels(4), np.stack([square] * 3), "raw", {}, r"need \(n, k, 2\)"),
    (["a"], default_labels(4), square[None], ["raw"], {}, r"'a': unknown unit tag \['raw'\]"),
    (["a", "b"], default_labels(2), np.stack([square[:2]] * 2), "raw", {},
     "'a': at least 3 landmarks required, got 2"),
    (["a", "b", "c"], default_labels(4), np.stack([square, square + np.inf, square + np.nan]),
     "raw", {}, "'b': coordinates must be finite"),
    (["a", "b"], ("L1", "L2", "L3"), np.stack([square] * 2), "raw", {}, "'a': 3 labels for 4"),
    (["a", "b"], ("L1", "L2", "L1", "L4"), np.stack([square] * 2), "raw", {},
     "'a': landmark labels must be unique"),
    (["b", "c"], default_labels(4), np.stack([square] * 2), ("raw", "raw"), {},
     r"'b': unknown unit tag \('raw', 'raw'\)"),  # one tag for all, never one each
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
        Sample(["a", "b", "c"], default_labels(4), bad)
    with pytest.raises(InputError, match="'a': unknown unit"):  # the tag of every configuration
        Sample(["a", "b", "c"], default_labels(4), bad, "feet")

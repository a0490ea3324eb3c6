import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmorph import (AffineMap2, Baseline, InputError, NumericalError, LandmarkConfiguration,
                       Sample, UNIT_PROCRUSTES, UNIT_TWO_POINT, affine_fit, centroid_size,
                       default_labels, gpa_mean, procrustes_align, remove_affine,
                       two_point_register, two_point_register_sample)
from gridmorph.core import centered, collinear
from gridmorph.registration import GPA_MAX_ITER, GPA_TOL, _normalized, _rotation_angles
from helpers import sample_of


def config(coords, name="cfg", unit="raw"):
    coords = np.asarray(coords, dtype=float)
    return LandmarkConfiguration(name, default_labels(len(coords)), coords, unit=unit)


def random_similarity(rng):
    angle = rng.uniform(-np.pi, np.pi)
    scale = rng.uniform(0.2, 5.0)
    c, s = np.cos(angle), np.sin(angle)
    rot = scale * np.array([(c, -s), (s, c)])
    shift = rng.normal(scale=3.0, size=2)
    return lambda pts: pts @ rot.T + shift


# ---------------------------------------------------------------------------
# two-point registration

def brute_two_point(coords, i, j):
    """Oracle: translate, rotate, and scale by explicit matrix arithmetic."""
    coords = np.asarray(coords, dtype=float)
    shifted = coords - coords[i]
    d = shifted[j]
    length = np.hypot(d[0], d[1])
    angle = np.arctan2(d[1], d[0])
    c, s = np.cos(-angle), np.sin(-angle)
    rotated = shifted @ np.array([(c, -s), (s, c)]).T
    return rotated / length


def test_two_point_worked_example():
    # triangle {(1,1),(1,3),(0,1)} on baseline 1,2 lands on {(0,0),(1,0),(0,0.5)}
    cfg = config([(1.0, 1.0), (1.0, 3.0), (0.0, 1.0)])
    reg = two_point_register(cfg, Baseline(0, 1))
    expected = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 0.5)])
    assert np.allclose(reg.coords, expected, atol=1e-15)
    assert np.allclose(brute_two_point(cfg.coords, 0, 1), expected, atol=1e-12)
    assert reg.unit == "two-point"


def test_two_point_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(50):
        k = rng.integers(3, 12)
        coords = rng.normal(size=(k, 2)) * rng.uniform(0.1, 20.0)
        i, j = rng.choice(k, size=2, replace=False)
        reg = two_point_register(config(coords), Baseline(int(i), int(j)))
        assert np.allclose(reg.coords, brute_two_point(coords, i, j), atol=1e-10)


def test_two_point_anchors_exact():
    rng = np.random.default_rng(22)
    for _ in range(200):
        k = int(rng.integers(3, 10))
        coords = rng.normal(scale=rng.uniform(0.01, 100.0), size=(k, 2))
        i, j = rng.choice(k, size=2, replace=False)
        reg = two_point_register(config(coords), Baseline(int(i), int(j))).coords
        assert reg[i, 0] == 0.0 and reg[i, 1] == 0.0
        assert reg[j, 0] == 1.0 and reg[j, 1] == 0.0


def test_two_point_similarity_invariance():
    rng = np.random.default_rng(23)
    for _ in range(50):
        coords = rng.normal(size=(6, 2))
        reg = two_point_register(config(coords), Baseline(1, 4)).coords
        moved = random_similarity(rng)(coords)
        reg2 = two_point_register(config(moved), Baseline(1, 4)).coords
        # reflections are not in the similarity group here; same-orientation transforms only
        assert np.allclose(reg, reg2, atol=1e-9)


def test_two_point_idempotent():
    rng = np.random.default_rng(24)
    coords = rng.normal(size=(7, 2))
    once = two_point_register(config(coords), Baseline(2, 5))
    twice = two_point_register(once, Baseline(2, 5))
    assert np.allclose(once.coords, twice.coords, atol=1e-12)


def test_two_point_degenerate_baseline():
    coords = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 2.0)])
    with pytest.raises(NumericalError, match="baseline landmarks 'L1' and 'L2' nearly coincide"):
        two_point_register(config(coords), Baseline(0, 1))
    with pytest.raises(InputError, match=r"baseline \(1, 4\) out of range for 3 landmarks "
                                         r"\(counted from 1\)"):
        two_point_register(config(np.eye(3, 2)), Baseline(0, 3))
    with pytest.raises(InputError):
        two_point_register(config(np.eye(3, 2)), Baseline(1, 1))


# ---------------------------------------------------------------------------
# Procrustes alignment

def brute_rotation_angle(coords, reference, steps=2_000_000):
    """Oracle: scan rotation angles for the least-squares optimum."""
    best, best_angle = np.inf, 0.0
    # coarse-to-fine scan keeps this fast enough while reaching 1e-4
    lo, hi, n = -np.pi, np.pi, 7_200
    for _ in range(3):
        angles = np.linspace(lo, hi, n)
        c, s = np.cos(angles), np.sin(angles)
        x, y = coords[:, 0], coords[:, 1]
        rx = c[:, None] * x - s[:, None] * y
        ry = s[:, None] * x + c[:, None] * y
        sq = ((rx - reference[:, 0]) ** 2 + (ry - reference[:, 1]) ** 2).sum(axis=1)
        idx = int(np.argmin(sq))
        best, best_angle = sq[idx], angles[idx]
        width = (hi - lo) / n
        lo, hi = best_angle - 2 * width, best_angle + 2 * width
    return best_angle


def test_optimal_rotation_quarter_turn():
    # reference is the target rotated by +90 degrees; optimum is exactly +pi/2
    base = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.5, 0.5)])
    base -= base.mean(axis=0)
    rot90 = np.array([(0.0, -1.0), (1.0, 0.0)])
    angle = _rotation_angles(base[None], base @ rot90.T)[0]
    assert angle == pytest.approx(np.pi / 2, abs=1e-12)


def test_optimal_rotation_matches_scan():
    rng = np.random.default_rng(31)
    for _ in range(5):
        coords = rng.normal(size=(6, 2))
        coords -= coords.mean(axis=0)
        reference = rng.normal(size=(6, 2))
        reference -= reference.mean(axis=0)
        angle = _rotation_angles(coords[None], reference)[0]
        scanned = brute_rotation_angle(coords, reference)
        assert angle == pytest.approx(scanned, abs=1e-4)


def test_procrustes_align_unit_size_and_fit():
    rng = np.random.default_rng(32)
    ref = config(rng.normal(size=(8, 2)), name="ref")
    target = config(random_similarity(rng)(ref.coords), name="tgt")
    aligned = procrustes_align(target, ref)
    assert aligned.unit == "procrustes"
    assert centroid_size(aligned.coords) == pytest.approx(1.0, abs=1e-12)
    # a similarity copy aligns onto the normalized reference exactly
    ref_norm = ref.coords - ref.coords.mean(axis=0)
    ref_norm /= centroid_size(ref_norm)
    assert np.allclose(aligned.coords, ref_norm, atol=1e-9)


def test_procrustes_no_reflection():
    rng = np.random.default_rng(33)
    coords = rng.normal(size=(5, 2))
    mirrored = coords * np.array([1.0, -1.0])
    aligned = procrustes_align(config(mirrored), config(coords))
    # best proper rotation cannot flip a mirrored shape back onto the original
    resid = np.linalg.norm(aligned.coords - (coords - coords.mean(axis=0))
                           / centroid_size(coords - coords.mean(axis=0)))
    assert resid > 1e-3


# ---------------------------------------------------------------------------
# GPA mean

def test_gpa_identical_configs():
    rng = np.random.default_rng(41)
    coords = rng.normal(size=(6, 2))
    sample = sample_of(config(coords, name=f"c{i}") for i in range(4))
    mean = gpa_mean(sample)
    expected = coords - coords.mean(axis=0)
    expected /= centroid_size(expected)
    assert np.allclose(mean.coords, expected, atol=1e-12)
    assert centroid_size(mean.coords) == pytest.approx(1.0, abs=1e-12)


def procrustes_distance(a, b):
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    a = a / np.sqrt((a * a).sum())
    b = b / np.sqrt((b * b).sum())
    # optimal rotation via the closed form, then the residual norm
    num = (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]).sum()
    den = (a * b).sum()
    angle = np.arctan2(num, den)
    c, s = np.cos(angle), np.sin(angle)
    rotated = a @ np.array([(c, s), (-s, c)])
    return np.linalg.norm(rotated - b)


def test_gpa_similarity_invariance():
    # similarity-transformed copies of one shape: the mean matches the shape
    rng = np.random.default_rng(42)
    base = rng.normal(size=(7, 2))
    configs = tuple(config(random_similarity(rng)(base), name=f"c{i}") for i in range(6))
    mean = gpa_mean(sample_of(configs))
    assert procrustes_distance(mean.coords, base) < 1e-8


def test_gpa_converges_on_random_samples():
    rng = np.random.default_rng(43)
    for _ in range(25):
        k = int(rng.integers(4, 10))
        base = rng.normal(size=(k, 2))
        configs = tuple(config(base + rng.normal(scale=0.1, size=(k, 2)), name=f"c{i}")
                        for i in range(int(rng.integers(2, 7))))
        mean = gpa_mean(sample_of(configs))
        assert np.isfinite(mean.coords).all()
        assert centroid_size(mean.coords) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# affine fit / removal

def normal_equations_affine(template, target):
    """Oracle: per-coordinate normal equations for the affine fit."""
    X = np.column_stack([np.ones(len(template)), template])
    beta = np.linalg.solve(X.T @ X, X.T @ target)
    return beta  # rows: intercept, x, y


def test_affine_fit_exact_on_affine_pair():
    rng = np.random.default_rng(51)
    template = rng.normal(size=(6, 2))
    linear = np.array([(1.2, 0.3), (-0.4, 0.9)])
    shift = np.array([0.5, -2.0])
    target = template @ linear.T + shift
    amap = affine_fit(config(template), config(target))
    assert np.allclose(amap.linear, linear, atol=1e-10)
    assert np.allclose(amap.translation, shift, atol=1e-10)
    assert np.allclose(amap(template), target, atol=1e-10)


def test_affine_fit_matches_normal_equations():
    rng = np.random.default_rng(52)
    for _ in range(20):
        template = rng.normal(size=(8, 2))
        target = rng.normal(size=(8, 2))
        amap = affine_fit(config(template), config(target))
        beta = normal_equations_affine(template, target)
        assert np.allclose(amap.translation, beta[0], atol=1e-9)
        assert np.allclose(amap.linear, beta[1:].T, atol=1e-9)


def test_remove_affine_refit_is_identity():
    rng = np.random.default_rng(53)
    for _ in range(20):
        k = int(rng.integers(4, 12))
        template = config(rng.normal(size=(k, 2)), name="tpl")
        target = config(rng.normal(size=(k, 2)), name="tgt")
        adjusted = remove_affine(template, target)
        refit = affine_fit(template, adjusted)
        assert np.allclose(refit.linear, np.eye(2), atol=1e-9)
        assert np.allclose(refit.translation, 0.0, atol=1e-9)


def test_remove_affine_pure_affine_target_collapses_to_template():
    rng = np.random.default_rng(54)
    template = rng.normal(size=(7, 2))
    target = template @ np.array([(1.1, 0.2), (0.1, 0.8)]).T + np.array([3.0, -1.0])
    adjusted = remove_affine(config(template, name="tpl"), config(target, name="tgt"))
    assert np.allclose(adjusted.coords, template, atol=1e-9)


def test_affine_fit_collinear_template_raises():
    template = config([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    target = config(np.random.default_rng(55).normal(size=(4, 2)))
    with pytest.raises(NumericalError):
        affine_fit(template, target)


def test_affine_fit_of_a_full_rank_design_is_the_raw_least_squares_solution():
    rng = np.random.default_rng(56)
    for k in (3, 4, 9):
        template, target = rng.normal(size=(k, 2)) * 50.0 + 3.0, rng.normal(size=(k, 2))
        coef = np.linalg.lstsq(np.column_stack([np.ones(k), template]), target, rcond=None)[0]
        amap = affine_fit(config(template), config(target))
        assert amap.linear.tobytes() == coef[1:3].T.tobytes()
        assert amap.translation.tobytes() == coef[0].tobytes()


KITE = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.5)])


@pytest.mark.parametrize("height", [1e-13, 1e-14, 3e-15])
def test_affine_fit_of_a_nearly_collinear_full_rank_design_is_the_raw_solution(height):
    # core.collinear calls this kite flat, but its raw design has rank 3, so lstsq's fit stands
    template = KITE * (1.0, height)
    assert collinear(template)
    target = KITE @ np.array([(1.2, 0.3), (-0.4, 0.9)]).T
    coef, _, rank, _ = np.linalg.lstsq(np.column_stack([np.ones(4), template]), target, rcond=None)
    assert rank == 3
    amap = affine_fit(config(template), config(target))
    assert amap.linear.tobytes() == coef[1:3].T.tobytes()
    assert amap.translation.tobytes() == coef[0].tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-17, 1e-14, 1e14, 1e17, 1e300])
@pytest.mark.parametrize("offset", [0.0, 7.0])
def test_affine_fit_of_a_kite_at_any_unit(scale, offset):
    # the raw design [1, x, y] of the kite has rank 1 at 1e-17 and 2 at 1e17: its rank measures
    # the unit, while the collinearity test and the fit are taken on the centred, framed kite
    linear, shift = np.array([(1.2, 0.3), (-0.4, 0.9)]), np.array([0.5, -2.0])
    target = KITE @ linear.T + shift
    template = (KITE + offset) * scale
    amap = affine_fit(config(template), config(target))
    assert np.allclose(amap.linear * scale, linear, rtol=1e-12, atol=0.0)
    assert np.allclose(amap(template), target, rtol=0.0, atol=1e-12)
    line = np.column_stack([np.arange(4.0), np.arange(4.0) * 0.5]) + offset
    with pytest.raises(NumericalError, match="collinear"):
        affine_fit(config(line * scale), config(target))


def test_affine_fit_at_the_ends_of_the_float_range():
    template = np.array([(1.7e308, 0.0), (-1.7e308, 0.0), (0.0, 1.7e308), (0.0, -1e308)])
    amap = affine_fit(config(template), config(template * 0.5))
    assert np.allclose(amap.linear, 0.5 * np.eye(2), rtol=0.0, atol=1e-15)
    assert np.abs(amap(template) - template * 0.5).max() <= 1e-15 * 1.7e308
    # a map that scales by 1e400 has no float coefficients: a NumericalError, with no warning
    with pytest.raises(NumericalError, match="past the largest float"):
        affine_fit(config(KITE * 1e-200), config(KITE * 1e200))


def test_gpa_single_config():
    coords = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
    mean = gpa_mean(sample_of([config(coords)]))
    assert centroid_size(mean.coords) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# whole-sample arrays against one configuration at a time

def stacked_sample(stack):
    configs = tuple(config(coords, name=f"c{i}") for i, coords in enumerate(stack))
    return sample_of(configs, {c.name: "ab"[i % 2] for i, c in enumerate(configs)})


def outcome(fn, *args):
    """fn's result, or the type and message of the GridmorphError it raised."""
    try:
        return fn(*args)
    except (InputError, NumericalError) as exc:
        return type(exc), str(exc)


def per_specimen_gpa(sample):
    """Reference: align each configuration onto the reference, average, renormalize."""
    # like gpa_mean, scale every configuration before the first pass, so that the first
    # degenerate one is reported with gpa_mean's message
    ref = [_normalized(c.coords) for c in sample.configurations][0]
    for _ in range(GPA_MAX_ITER):
        ref_config = LandmarkConfiguration("mean", sample.labels, ref, UNIT_PROCRUSTES)
        aligned = np.stack([procrustes_align(c, ref_config).coords
                            for c in sample.configurations])
        avg = _normalized(aligned.mean(axis=0))
        rms = float(np.sqrt(((avg - ref) ** 2).mean()))
        ref = avg
        if rms < GPA_TOL:
            return ref
    return NumericalError, (f"generalized Procrustes averaging did not converge in {GPA_MAX_ITER} "
                            f"iterations (last RMS movement {rms:.3e})")


@st.composite
def noisy_copies(draw):
    """One shape under n similarities plus noise, as an (n, k, 2) stack."""
    n, k = draw(st.integers(1, 10)), draw(st.integers(3, 9))
    base = draw(arrays(np.float64, (k, 2), elements=st.floats(-10, 10)))
    noise = draw(arrays(np.float64, (n, k, 2), elements=st.floats(-1, 1)))
    angle = draw(arrays(np.float64, n, elements=st.floats(-np.pi, np.pi)))
    scale = draw(arrays(np.float64, n, elements=st.floats(1e-3, 1e3)))
    c, s = scale * np.cos(angle), scale * np.sin(angle)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(n, 2, 2)
    return (base + draw(st.sampled_from([0.0, 1e-3, 0.3])) * noise) @ rot.transpose(0, 2, 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(noisy_copies())
def test_gpa_mean_equals_per_specimen_loop(stack):
    sample = stacked_sample(stack)
    expected = outcome(per_specimen_gpa, sample)
    got = outcome(gpa_mean, sample)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.unit == UNIT_PROCRUSTES and got.labels == sample.labels
        assert np.array_equal(got.coords, expected)  # bit for bit, not allclose


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_two_point_sample_equals_per_configuration(data):
    n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(3, 9))
    stack = data.draw(arrays(np.float64, (n, k, 2), elements=st.floats(-1e6, 1e6)))
    start, end = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                    unique=True))
    baseline = Baseline(start, end)
    j = data.draw(st.integers(0, n - 1))
    broken = stack.copy()
    broken[j, end] = broken[j, start]  # coincident baseline landmarks in specimen j
    for coords in (stack, broken):
        sample = stacked_sample(coords)
        expected = [outcome(two_point_register, c, baseline) for c in sample.configurations]
        failures = [e for e in expected if isinstance(e, tuple)]
        got = outcome(two_point_register_sample, sample, baseline)
        if failures:  # the first failing specimen names the error
            assert got == failures[0]
            continue
        assert got.names == sample.names and got.groups == sample.groups
        for a, b in zip(got.configurations, expected):
            assert a.unit == UNIT_TWO_POINT
            assert np.array_equal(a.coords, b.coords)
    assert expected[j] == (NumericalError, f"configuration 'c{j}': " + (
        f"baseline landmarks 'L{start + 1}' and 'L{end + 1}' nearly coincide"
        if np.ldexp(*centered(broken[j])[1:]) > 0.0 else "all landmarks coincide"))


# ---------------------------------------------------------------------------
# similarity equivariance over the stack path

EPS = np.finfo(float).eps


@st.composite
def specimens_and_similarities(draw):
    """Noisy copies of one shape, (n, k, 2), and one similarity per specimen."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(3, 9))
    base = draw(arrays(np.float64, (k, 2), elements=st.floats(-10, 10)))
    stack = base + draw(arrays(np.float64, (n, k, 2), elements=st.floats(-0.3, 0.3)))
    angle = draw(arrays(np.float64, n, elements=st.floats(-np.pi, np.pi)))
    scale = draw(arrays(np.float64, n, elements=st.floats(1e-3, 1e3)))
    shift = draw(arrays(np.float64, (n, 2), elements=st.floats(-1e4, 1e4)))
    c, s = scale * np.cos(angle), scale * np.sin(angle)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(n, 2, 2)
    return stack, stack @ rot.transpose(0, 2, 1) + shift[:, None], angle


@settings(max_examples=200, derandomize=True, deadline=None)
@given(specimens_and_similarities(), st.data())
def test_two_point_sample_is_similarity_invariant(case, data):
    stack, moved, _ = case
    k = stack.shape[1]
    start, end = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    baselines = [np.hypot(*(p[:, end] - p[:, start]).T) for p in (stack, moved)]
    assume(all((b > 1e-3 * np.ldexp(*centered(p)[1:])).all()
               for b, p in zip(baselines, (stack, moved))))
    got = [two_point_register_sample(Sample([f"c{i}" for i in range(len(p))],
                                            default_labels(k), p), Baseline(start, end))
           for p in (stack, moved)]
    assert all(s.unit == UNIT_TWO_POINT for s in got)
    # rounding of p - a and of the division by the baseline vector, for both inputs
    registered = np.abs(got[0].coords).max(axis=(1, 2))
    reach = sum(np.abs(p).max(axis=(1, 2)) / b for p, b in zip((stack, moved), baselines))
    tol = 16 * EPS * (reach * (1 + registered) + registered)
    assert (np.abs(got[0].coords - got[1].coords).max(axis=(1, 2)) <= tol).all()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(3, 9), st.just(2)),
              elements=st.floats(-1e6, 1e6)), st.data())
def test_two_point_registration_composes(coords, data):
    k = len(coords)
    first, second = (Baseline(*data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                                   unique=True))) for _ in range(2))
    size = np.ldexp(*centered(coords)[1:])
    length = {b: np.hypot(*(coords[b.end] - coords[b.start])) for b in (first, second)}
    assume(all(v > 1e-9 * size for v in length.values()))  # both baselines far from degenerate
    cfg = config(coords)
    via = two_point_register(cfg, first)
    got = two_point_register(via, second).coords
    direct = two_point_register(cfg, second).coords
    # rounding of p - a and of the division by the baseline vector, in each of the three
    # registrations; the first one's error reaches the result through the second's baseline
    registered = np.abs(direct).max()
    reach = (np.abs(coords).max() + np.abs(coords - coords[first.start]).max()) / length[second]
    tol = 16 * EPS * (reach * (1 + registered) + registered)
    assert np.abs(got - direct).max() <= tol


@pytest.mark.parametrize("exponent", [-600, 600])
def test_two_point_sample_is_exact_under_a_power_of_two_scale(exponent):
    # at 2^+-600 the squared baseline length leaves the float range; the registration must not
    p = np.random.default_rng(2).normal(size=(4, 6, 2))
    got = [two_point_register_sample(Sample([f"c{i}" for i in range(4)], default_labels(6), c),
                                     Baseline(0, 3)).coords for c in (p, np.ldexp(p, exponent))]
    assert np.array_equal(got[1], got[0])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(specimens_and_similarities())
def test_gpa_mean_is_similarity_invariant(case):
    stack, moved, angle = case
    assume((np.ldexp(*centered(stack)[1:]) > 1.0).all())
    names = [f"c{i}" for i in range(len(stack))]
    means = [gpa_mean(Sample(names, default_labels(stack.shape[1]), p)).coords
             for p in (stack, moved)]
    # the reference starts from the first specimen, so the mean turns with it
    c, s = np.cos(angle[0]), np.sin(angle[0])
    expected = means[0] @ np.array([(c, -s), (s, c)]).T
    # centering and scaling to unit size cost about eps * |p| / size per
    # coordinate; either run may stop up to GPA_TOL short of the fixed point
    reach = max((np.abs(p).max(axis=(1, 2)) / np.ldexp(*centered(p)[1:])).max()
                for p in (stack, moved))
    assert np.abs(means[1] - expected).max() <= GPA_TOL + 64 * EPS * reach

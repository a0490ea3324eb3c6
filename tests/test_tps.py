import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmorph import (GridSpec, InputError, LandmarkConfiguration, NumericalError, TpsModel,
                       default_labels, extend_grid, tps_eval, tps_fit)
from gridmorph import tps
from gridmorph.tps import EVAL_BLOCK


def config(coords, name="cfg"):
    coords = np.asarray(coords, dtype=float)
    return LandmarkConfiguration(name, default_labels(len(coords)), coords)


def reference_tps(points, values):
    """Independent spline solve: build the bordered system from scratch and
    put it through lstsq (the implementation uses an LU solve)."""
    points = np.asarray(points, dtype=float)
    k = len(points)
    K = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            r = np.linalg.norm(points[a] - points[b])
            K[a, b] = r * r * np.log(r)
    P = np.column_stack([np.ones(k), points])
    L = np.zeros((k + 3, k + 3))
    L[:k, :k] = K
    L[:k, k:] = P
    L[k:, :k] = P.T
    rhs = np.concatenate([values, np.zeros(3)])
    sol, *_ = np.linalg.lstsq(L, rhs, rcond=None)
    return sol[:k], sol[k:]  # weights, (const, x, y)


def reference_eval(points, weights, aff, q):
    total = aff[0] + aff[1] * q[0] + aff[2] * q[1]
    for w, p in zip(weights, points):
        r = np.linalg.norm(q - p)
        if r > 0:
            total += w * r * r * np.log(r)
    return total


square = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
kite = square + 0.25 * np.column_stack([1 + square[:, 0] * square[:, 1],
                                        1 + square[:, 0] * square[:, 1]])


def test_square_to_kite_matches_reference_solve():
    model = tps_fit(config(square, "square"), config(kite, "kite"))
    for coord in range(2):
        w_ref, aff_ref = reference_tps(square, kite[:, coord])
        assert np.allclose(model.weights[:, coord], w_ref, atol=1e-10)
        assert np.allclose(model.affine[:, coord], aff_ref, atol=1e-10)
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5, size=2)
        got = tps_eval(model, q)
        want = [reference_eval(square, model.weights[:, c], model.affine[:, c], q)
                for c in range(2)]
        assert np.allclose(got, want, atol=1e-12)


def test_interpolation_exact_at_landmarks():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(4, 26))
        template = rng.normal(size=(k, 2)) * rng.uniform(0.5, 10.0)
        target = template + rng.normal(scale=0.3, size=(k, 2))
        model = tps_fit(config(template), config(target))
        diameter = np.max([np.linalg.norm(a - b) for a in template for b in template])
        err = np.abs(tps_eval(model, template) - target).max()
        assert err < 1e-9 * diameter


def test_side_conditions_hold():
    rng = np.random.default_rng(18)
    for _ in range(20):
        k = int(rng.integers(4, 15))
        template = rng.normal(size=(k, 2))
        target = rng.normal(size=(k, 2))
        model = tps_fit(config(template), config(target))
        w = model.weights
        assert np.abs(w.sum(axis=0)).max() < 1e-9
        assert np.abs((template[:, :1] * w).sum(axis=0)).max() < 1e-9
        assert np.abs((template[:, 1:] * w).sum(axis=0)).max() < 1e-9


def test_affine_target_gives_zero_energy_and_straight_lines():
    rng = np.random.default_rng(19)
    template = rng.normal(size=(6, 2))
    linear = np.array([(1.3, -0.2), (0.4, 0.8)])
    shift = np.array([2.0, -0.5])
    target = template @ linear.T + shift
    model = tps_fit(config(template), config(target))
    assert sum(model.energy) < 1e-10
    # segment images stay straight: chord midpoint deviation
    for _ in range(20):
        a, b = rng.normal(size=(2, 2)) * 2.0
        img_a, img_b, img_m = tps_eval(model, np.array([a, b, (a + b) / 2]))
        assert np.linalg.norm(img_m - (img_a + img_b) / 2) < 1e-9


def test_energy_nonnegative():
    rng = np.random.default_rng(20)
    for _ in range(30):
        k = int(rng.integers(4, 12))
        model = tps_fit(config(rng.normal(size=(k, 2))),
                        config(rng.normal(size=(k, 2))))
        assert sum(model.energy) >= 0.0
        assert model.energy[0] >= 0.0 and model.energy[1] >= 0.0


def test_identity_map_zero_energy():
    template = np.array([(0.0, 0.0), (2.0, 0.1), (1.0, 1.7), (-0.5, 1.0), (0.7, -0.9)])
    model = tps_fit(config(template), config(template))
    assert sum(model.energy) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(model.affine, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], atol=1e-10)


def test_far_field_approaches_affine():
    # side conditions kill the monopole and dipole of the kernel expansion, so far from the
    # landmarks the map's derivative, taken here by central differences of tps_eval, converges
    # to the affine part: its gap shrinks about as 1 / distance
    rng = np.random.default_rng(21)
    template = rng.normal(size=(8, 2))
    target = template + rng.normal(scale=0.2, size=(8, 2))
    model = tps_fit(config(template), config(target))
    diameter = np.max([np.linalg.norm(a - b) for a in template for b in template])
    h = np.eye(2) * diameter  # differences of the affine part are exact to rounding
    for direction in np.array([(1.0, 0.0), (0.0, 1.0), (0.7, -0.7)]):
        gaps = []
        for distance in (150.0, 1500.0):
            q = template.mean(axis=0) + direction * distance * diameter
            values = tps_eval(model, np.stack([q + h, q - h]))  # (2, 2 directions, 2)
            slope = (values[0] - values[1]).T / (2.0 * diameter)  # [r, c] is d f_r / d p_c
            gaps.append(np.abs(slope - model.affine[1:].T).max())
        assert gaps[0] < 1e-3 and gaps[1] < 0.2 * gaps[0]


def test_coincident_landmarks_rejected():
    template = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(NumericalError) as err:
        tps_fit(config(template), config(np.eye(4, 2)))
    assert "L1" in str(err.value) and "L2" in str(err.value)


def test_collinear_template_rejected():
    template = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    target = np.array([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0), (3.0, -0.5)])
    with pytest.raises(NumericalError):
        tps_fit(config(template), config(target))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_template_wider_than_the_float_range_is_refused():
    kite4 = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.5)]
    wide = [(1.7e308, 0.0), (-1.7e308, 0.0), (0.0, 1.7e308), (0.0, -1e308)]
    with pytest.raises(NumericalError, match="too wide for a spline"):
        tps_fit(config(wide, name="wide"), config(kite4))
    # the last power of two at which the kernel is finite still fits, exactly at its landmarks
    for exponent, fits in ((506, True), (507, False)):
        template = np.ldexp(kite4, exponent)
        if fits:
            model = tps_fit(config(template), config(kite4))
            assert np.allclose(tps_eval(model, template), kite4, rtol=0.0, atol=1e-12)
        else:
            with pytest.raises(NumericalError, match="too wide for a spline"):
                tps_fit(config(template), config(kite4))


def test_eval_shapes():
    model = tps_fit(config(square), config(kite))
    single = tps_eval(model, np.array([0.3, 0.4]))
    assert single.shape == (2,)
    batch = tps_eval(model, np.zeros((5, 2)))
    assert batch.shape == (5, 2)
    grid = tps_eval(model, np.zeros((3, 4, 2)))
    assert grid.shape == (3, 4, 2)


# ---------------------------------------------------------------------------
# the chunked, mask-free kernel against the formulation it replaced

def masked_kernel(r2):
    out = np.zeros_like(r2)
    pos = r2 > 0.0
    out[pos] = 0.5 * r2[pos] * np.log(r2[pos])
    return out


def reference_whole_eval(model, points):
    """tps_eval before chunking: an (n, k, 2) difference array and a masked kernel."""
    flat = np.asarray(points, dtype=float).reshape(-1, 2)
    diff = flat[:, None, :] - model.template_points[None, :, :]
    g = masked_kernel((diff * diff).sum(axis=2))
    return model.affine[0] + flat @ model.affine[1:] + g @ model.weights


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 300),
       n_in_blocks=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)]),
       scale=st.floats(-3.0, 3.0))
def test_eval_equals_masked_whole_array_formulation(seed, k, n_in_blocks, scale):
    rows = EVAL_BLOCK // k  # points per block
    n = max(0, n_in_blocks[0] * rows + n_in_blocks[1])
    rng = np.random.default_rng(seed)
    template = rng.normal(size=(k, 2)) * 10.0 ** scale
    target = template + rng.normal(scale=0.2, size=(k, 2)) * 10.0 ** scale
    model = tps_fit(config(template), config(target))
    pts = rng.uniform(-2.0, 2.0, size=(n, 2)) * 10.0 ** scale
    on_centres = rng.integers(0, k, size=n // 2)
    pts[: n // 2] = template[on_centres]  # r = 0 exactly: U(0) = 0
    got = tps_eval(model, pts)
    # Each block of points is the old formulation, bit for bit; up to one
    # block, so is the whole result.
    blocks = [reference_whole_eval(model, pts[s:s + rows]) for s in range(0, n, rows)]
    assert np.array_equal(got, np.concatenate(blocks) if blocks else np.zeros((0, 2)))
    want = reference_whole_eval(model, pts)
    if n <= rows:
        assert np.array_equal(got, want)
    else:
        # BLAS may sum a row's k products in another order when the product
        # has fewer rows, so across blocks the results agree to a dot-product
        # rounding bound over k + 3 terms.
        diff = pts[:, None, :] - template[None, :, :]
        terms = (np.abs(model.affine[0]) + np.abs(pts) @ np.abs(model.affine[1:])
                 + np.abs(masked_kernel((diff * diff).sum(axis=2))) @ np.abs(model.weights))
        assert np.all(np.abs(got - want) <= 2 * (k + 3) * np.finfo(float).eps * terms)
    if n:
        single = tps_eval(model, pts[0])
        assert np.array_equal(single, reference_whole_eval(model, pts[:1])[0])
        half = n // 2 * 2
        grid = tps_eval(model, pts[:half].reshape(2, -1, 2))
        assert np.array_equal(grid, tps_eval(model, pts[:half]).reshape(2, -1, 2))
    # two more splines of the same template share each kernel block with the first, and each
    # spline's values are its own tps_eval's, bit for bit
    others = [tps_fit(config(template), config(template + rng.normal(scale=0.2, size=(k, 2))
                                               * 10.0 ** scale)) for _ in range(2)]
    together = tps_eval(model, pts, *others)
    assert together.shape == (3, n, 2)
    for values, spline in zip(together, (model, *others)):
        assert np.array_equal(values, tps_eval(spline, pts))
    if n:  # a point (2,) and a grid (2, m, 2) too, each in its own blocks
        for shaped in (pts[0], pts[:half].reshape(2, -1, 2)):
            together = tps_eval(model, shaped, *others)
            assert together.shape == (3, *shaped.shape)
            for values, spline in zip(together, (model, *others)):
                assert np.array_equal(values, tps_eval(spline, shaped))


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 60), cells=st.tuples(
           st.integers(1, 30), st.integers(1, 30)), samples=st.integers(2, 12),
       corner=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), scale=st.floats(-3.0, 3.0),
       extends=st.lists(st.tuples(st.sampled_from(["left", "right", "down", "up"]),
                                  st.floats(0.1, 2.0)), max_size=2))
def test_eval_on_a_lattice_equals_eval_at_its_preimage(seed, k, cells, samples, corner, scale,
                                                       extends):
    # the kernel's r2 from per-axis tables of the lattice has the bits of the per-point r2,
    # U(0) too: one landmark sits on a lattice sample
    rng = np.random.default_rng(seed)
    size = 10.0 ** scale
    (x0, y0), (w, h) = np.array(corner) * size, rng.uniform(0.5, 2.0, 2) * size
    spec = GridSpec((x0, x0 + w), (y0, y0 + h), *cells, samples)
    for side, multiples in extends:
        spec = extend_grid(spec, side, multiples)
    template = np.array([x0, y0]) + rng.uniform(0.0, 1.0, size=(k, 2)) * (w, h)
    template[0] = spec.preimage[rng.integers(len(spec.preimage))]
    models = tps_fit(config(template), *(config(template + rng.normal(scale=0.2, size=(k, 2))
                                                * size) for _ in range(2)))
    for more in ((), models[1:]):
        assert np.array_equal(bits(tps_eval(models[0], spec, *more)),
                              bits(tps_eval(models[0], spec.preimage, *more)))


def test_eval_on_a_long_lattice_makes_no_tables():
    # per-axis tables of 20,014 rows of 60 centres would take 9.6 MB: the lattice goes as points
    rng = np.random.default_rng(44)
    spec = GridSpec((0.0, 2000.0), (0.0, 1.0), 2000, 1, 10)
    template = rng.uniform(0.0, 1.0, size=(60, 2)) * (2000.0, 1.0)
    model = tps_fit(config(template), config(template + rng.normal(size=(60, 2))))
    want = tps_eval(model, spec.preimage)
    tracemalloc.start()
    try:
        got = tps_eval(model, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(bits(got), bits(want))
    assert peak < 2 * got.nbytes + 2 * 8 * EVAL_BLOCK + 2 ** 16


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 300), scale=st.floats(-3.0, 3.0),
       offset=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_fit_of_several_targets_is_each_targets_own_fit(seed, k, scale, offset):
    # one factorization and one solve of every target's columns: each model is bit for bit the
    # fit of its target alone, with C-contiguous arrays like a single fit's
    rng = np.random.default_rng(seed)
    template = (rng.normal(size=(k, 2)) + offset) * 10.0 ** scale
    targets = [template + rng.normal(scale=0.2, size=(k, 2)) * 10.0 ** scale for _ in range(2)]
    targets.append(template @ np.array([(1.3, -0.2), (0.4, 0.8)]).T)  # an affine target too
    for more in (targets[1:2], targets[1:]):
        models = tps_fit(config(template), config(targets[0]), *map(config, more))
        assert isinstance(models, tuple) and len(models) == 1 + len(more)
        for model, target in zip(models, targets):
            alone = tps_fit(config(template), config(target))
            for name in ("weights", "affine"):
                got = getattr(model, name)
                assert got.flags.c_contiguous and np.array_equal(got, getattr(alone, name))
            assert model.energy == alone.energy
            assert np.array_equal(model.template_points, alone.template_points)


def test_fit_of_a_non_homologous_more_target_is_the_single_fits_input_error():
    rng = np.random.default_rng(42)
    template = rng.normal(size=(6, 2))
    good = config(template * 1.1, "good")
    for bad in (config(rng.normal(size=(7, 2)), "bad"),
                LandmarkConfiguration("bad", tuple("abcdef"), template)):
        with pytest.raises(InputError) as single:
            tps_fit(config(template), bad)
        with pytest.raises(InputError) as shared:
            tps_fit(config(template), good, bad)
        assert type(shared.value) is type(single.value)
        assert str(shared.value) == str(single.value)


@pytest.mark.parametrize("exponent", [-3, 0, 3])
def test_kernel_equals_masked_kernel_with_its_signs(exponent):
    # U(0) = +0.0 exactly on a centre, U = +0.0 at r = 1 exactly, and every other entry's bits
    rng = np.random.default_rng(43 + exponent)
    centres = np.round(rng.normal(size=(30, 2)) * 4.0) * 10.0 ** exponent
    unit = 10.0 ** exponent * np.array([(1.0, 0.0), (0.0, -1.0)])
    points = np.vstack([centres, centres + unit[0], (centres[:5, None] + unit).reshape(-1, 2),
                        rng.uniform(-8.0, 8.0, size=(200, 2)) * 10.0 ** exponent])
    diff = points[:, None, :] - centres[None, :, :]
    want = masked_kernel((diff * diff).sum(axis=2))
    r2 = (diff * diff).sum(axis=2)  # dx * dx + dy * dy
    for got in (tps._kernel(r2.copy(), np.empty(want.shape)),
                tps._kernel(r2, np.full(want.shape, np.nan))):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # the first rows are the centres (r = 0); at unit scale the next are at r = 1 exactly
        zeros = [got.diagonal()] + ([got[len(centres):].diagonal()] if exponent == 0 else [])
        for u in zeros:
            assert (u == 0.0).all() and not np.signbit(u).any()


def test_eval_of_splines_of_different_templates_is_input_error():
    rng = np.random.default_rng(41)
    template = rng.normal(size=(6, 2))
    model = tps_fit(config(template), config(template * 1.1))
    moved = tps_fit(config(template + 1e-9), config(template * 1.1))
    with pytest.raises(InputError, match="share their template points"):
        tps_eval(model, template, moved)
    copy = tps_fit(config(template.copy()), config(template ** 2))  # equal points, another array
    assert tps_eval(model, template, copy).shape == (2, 6, 2)


# ---------------------------------------------------------------------------
# tolerances relative to the data: the same fit at every scale

EPS = np.finfo(float).eps


def test_fit_is_scale_free():
    # bending energy is invariant under a common similarity of template and target
    rng = np.random.default_rng(23)
    template = rng.normal(size=(8, 2))
    warped = template + rng.normal(scale=0.2, size=(8, 2))
    affine = template @ np.array([(1.3, -0.2), (0.4, 0.8)]).T + (2.0, -0.5)
    energy = sum(tps_fit(config(template), config(warped)).energy)
    for exponent in range(-12, 9):
        s = 10.0 ** exponent
        model = tps_fit(config(template * s), config(warped * s))
        assert sum(model.energy) == pytest.approx(energy, rel=1e-9)
        assert np.abs(tps_eval(model, template * s) - warped * s).max() <= 1e-9 * s
        for target in (affine, template):  # weights at rounding level: no false alarm
            assert abs(sum(tps_fit(config(template * s), config(target * s)).energy)) \
                <= 1e-12 * energy


@pytest.mark.parametrize("exponent", [-12, -6, 0, 6, 8])
def test_coincident_landmarks_rejected_at_every_scale(exponent):
    template = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.2)])
    for gap in (0.0, 1e-11):  # relative to the template's diameter
        template[1, 0] = gap
        with pytest.raises(NumericalError, match="template landmarks 'L1' and 'L2' are closer "
                                                 "than 1e-10 times the template's diameter"):
            tps_fit(config(template * 10.0 ** exponent), config(np.eye(5, 2)))


@pytest.mark.parametrize("exponent", [-12, -6, 0, 6, 8])
def test_side_condition_check_fires_at_every_scale(monkeypatch, exponent):
    # a solve that returns every weight shifted by delta leaves moments k delta
    rng = np.random.default_rng(24)
    template = rng.normal(size=(8, 2)) * 10.0 ** exponent
    target = template + rng.normal(scale=0.2, size=(8, 2)) * 10.0 ** exponent
    solve = np.linalg.solve
    for relative in (1e-13, 1e-6):  # of the largest weight: rounding level, then far above it

        def shifted(a, b):
            solution = solve(a, b)
            solution[:-3] += relative * np.abs(solution[:-3]).max()
            return solution

        monkeypatch.setattr(np.linalg, "solve", shifted)
        if relative < 1e-9:
            tps_fit(config(template), config(target))
        else:
            with pytest.raises(NumericalError, match="side conditions violated"):
                tps_fit(config(template), config(target))


@pytest.mark.parametrize("exponent", [-12, -6, 0, 6, 8])
def test_negative_energy_check_fires_at_every_scale(monkeypatch, exponent):
    # a negated kernel flips the weights' sign, not their moments: w K w < 0 for a warp
    rng = np.random.default_rng(25)
    template = rng.normal(size=(8, 2)) * 10.0 ** exponent
    target = template + rng.normal(scale=0.2, size=(8, 2)) * 10.0 ** exponent
    kernel = tps._kernel
    monkeypatch.setattr(tps, "_kernel", lambda r2, t: -kernel(r2, t))
    with pytest.raises(NumericalError, match="bending energy came out negative"):
        tps_fit(config(template), config(target))


def star(rng, k):
    """k landmarks, one per sector of the circle: well apart and never collinear."""
    angles = 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    radii = rng.uniform(0.5, 1.0, k)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(4, 15), angle=st.floats(-np.pi, np.pi),
       exponent=st.floats(-6.0, 6.0),
       shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_fit_is_similarity_equivariant(seed, k, angle, exponent, shift):
    rng = np.random.default_rng(seed)
    template = star(rng, k)
    target = template + rng.normal(scale=0.3, size=(k, 2))
    pts = rng.uniform(-1.5, 1.5, size=(40, 2))
    scale = 10.0 ** exponent
    c, s = scale * np.cos(angle), scale * np.sin(angle)
    offset = scale * np.array(shift)  # shift is in units of the template's size

    def move(p):
        return p @ np.array([(c, -s), (s, c)]).T + offset

    model = tps_fit(config(template), config(target))
    moved = tps_fit(config(move(template)), config(move(target)))
    # f_S(S p) = S f(p). Every coordinate the fits read or write is rounded to
    # eps of the largest one; the bordered solve is not centred, so its error
    # grows with the shift, to about 7e3 eps of it over 3000 seeded draws.
    reach = scale * (np.abs(np.vstack([template, target, pts, model(pts)])).max()
                     + np.abs(shift).max())
    assert np.abs(moved(move(pts)) - move(model(pts))).max() <= 2 ** 16 * EPS * reach
    assert sum(moved.energy) == pytest.approx(sum(model.energy), rel=1e-6)

"""The compiled density kernel and the skipping marches against references.

The references are written out here: the per-primitive density formulas
that evaluated each primitive on (..., 3) points, the bitwise search that
counted a run's ends, the bounding-sphere clip summed with np.sum over
(N, 3) rows, the dense transmittance and primary marches that evaluated
every sample, the compositing weights over every column of a
primary march, the normals taken with one density call per tap, and the
surface-point sampler that marched one probe ray per try. The kernel, the
closed-form counts, the skipping marches, the compositing window, the
stacked normal taps and the batched sampler must reproduce them bit for
bit.
"""

import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import lobe_sh_light
from prtvol import cli, envlight, field, render, transport

DTYPES = (np.float32, np.float64)


# ------------------------------------------------------------ references

def reference_primitive_density(p, pts, project=None):
    """One primitive's density, reducing over the trailing xyz axis."""
    dt = pts.dtype
    if p.kind == "sphere":
        d = pts - p.center.astype(dt)
        dist = np.sqrt(np.sum(d * d, axis=-1)) - dt.type(p.radius)
    elif p.kind == "box":
        q = np.abs(pts - p.center.astype(dt)) - (0.5 * p.extent).astype(dt)
        outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=-1))
        dist = outside + np.minimum(np.max(q, axis=-1), 0.0)
    else:
        a = p.axis.astype(dt)
        u = pts @ a if project is None else project(pts, a)
        dist = np.abs(u - dt.type(p.offset)) - dt.type(0.5 * p.thickness)
    w = p.softness
    t = np.clip((dist + 0.5 * w) / w, 0.0, 1.0)
    return p.density_scale * (1.0 - t * t * (3.0 - 2.0 * t))


def reference_weights(scene, pts, project=None):
    weights = [reference_primitive_density(p, pts, project) for p in scene.primitives]
    total = np.zeros(pts.shape[:-1], dtype=pts.dtype)
    for w in weights:
        total += w
    if scene.primitives:
        d = pts - scene.bounds.center.astype(pts.dtype)
        total *= np.sum(d * d, axis=-1) <= pts.dtype.type(scene.bounds.radius**2)
    return total, weights


def reference_material(scene, pts, project=None):
    total, weights = reference_weights(scene, pts, project)
    hit = total > 0.0
    safe = np.where(hit, total, 1.0)
    albedo = np.zeros(pts.shape[:-1] + (3,))
    tint = np.zeros(pts.shape[:-1] + (3,))
    for p, w in zip(scene.primitives, weights):
        f = (w / safe)[..., None]
        albedo += f * p.albedo
        tint += f * p.tint
    return (np.where(hit[..., None], albedo, scene.default_material.albedo),
            np.where(hit[..., None], tint, scene.default_material.tint))


def per_axis(pts, a):
    """The slab projection written per axis, as the kernel computes it."""
    return pts[..., 0] * a[0] + pts[..., 1] * a[1] + pts[..., 2] * a[2]


def reference_exit_distance(scene, origins, dirs):
    """Per-ray [t0, t_exit] clipped to the bounding sphere, on (N, 3) rows with np.sum."""
    c = scene.bounds.center.astype(origins.dtype, copy=False)
    r2 = origins.dtype.type(scene.bounds.radius2)
    oc = origins - c
    b = np.sum(oc * dirs, axis=-1)
    disc = b * b - (np.sum(oc * oc, axis=-1) - r2)
    hit = disc > 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    t_enter = np.where(hit, -b - root, 0.0)
    t_exit = np.where(hit, -b + root, 0.0)
    return np.maximum(t_enter, 0.0), np.maximum(t_exit, 0.0)


def dense_transmittance(scene, origins, dirs, steps, offset, window=None):
    """Every midpoint sample through field.density, summed step by step.

    With window = (lo, hi), per-ray float64 bounds, a sample counts only
    when lo <= t <= hi; the others add an exact 0.0.
    """
    dtype = origins.dtype.type
    t_enter, t_exit = reference_exit_distance(scene, origins, dirs)
    t0 = np.maximum(t_enter, dtype(offset))
    dt = np.maximum(t_exit - t0, 0.0) / dtype(steps)
    tau = np.zeros(origins.shape[0], dtype=origins.dtype)
    for k in range(steps):
        t = t0 + (dtype(k) + dtype(0.5)) * dt
        sigma = field.density(scene, origins + t[:, None] * dirs)
        if window is not None:
            sigma = sigma * ((window[0] <= t) & (t <= window[1]))
        tau += sigma
    return np.exp(-tau * dt)


# --------------------------------------------------------------- scenes

SPHERE = {"type": "sphere", "center": [0.3, -0.2, 0.4], "radius": 0.9,
          "density_scale": 6.0, "softness": 0.3, "albedo": [0.9, 0.1, 0.2], "tint": 0.3}
BOX = {"type": "box", "center": [-0.6, 0.5, 0.1], "extent": [1.1, 0.7, 1.4],
       "density_scale": 4.0, "softness": 0.25, "albedo": [0.1, 0.8, 0.3]}
SLAB = {"type": "slab", "axis": [0.0, 0.0, 1.0], "offset": -0.4, "thickness": 0.5,
        "density_scale": 3.0, "softness": 0.2, "albedo": [0.2, 0.3, 0.9], "tint": 0.1}
TILTED = dict(SLAB, axis=[0.3, -0.5, 0.8], offset=0.2)


def make_scene(*prims, radius=2.5, march=None):
    return field.scene_from_dict({
        "bounds": {"center": [0.1, 0.0, -0.1], "radius": radius},
        "march": march or {"secondary_steps": 24},
        "primitives": [dict(p) for p in prims]})


MIXED = make_scene(SPHERE, BOX, SLAB, dict(SPHERE, center=[-0.4, 0.1, -0.3], radius=0.5))
# Three overlapping primitives whose density scales lie far apart.
SEVERAL = (dict(SPHERE, center=[0.0, 0.0, 0.0], radius=0.6, softness=0.8),
           dict(BOX, center=[0.2, 0.1, 0.0], density_scale=0.0123),
           dict(SLAB, offset=0.1, thickness=0.3, density_scale=7.3))


def sample_points(shape, dtype, seed=0):
    return np.random.default_rng(seed).uniform(-2.6, 2.6, size=shape + (3,)).astype(dtype)


# --------------------------------------------------------------- kernel

class TestKernelMatchesReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(3,), (1, 3), (257, 3), (6, 9, 3)],
                             ids=["point", "row", "rows", "grid"])
    def test_density_bitwise(self, dtype, shape):
        pts = sample_points(shape[:-1], dtype)
        got = field.density(MIXED, pts)
        want, _ = reference_weights(MIXED, pts)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.count_nonzero(want) > 0 or want.size < 10

    @pytest.mark.parametrize("shape", [(3,), (300, 3), (5, 8, 3)])
    def test_material_bitwise(self, shape):
        pts = sample_points(shape[:-1], np.float64, seed=1)
        albedo, tint = field.material(MIXED, pts)
        want_albedo, want_tint = reference_material(MIXED, pts)
        assert albedo.shape == shape[:-1] + (3,)
        assert np.array_equal(albedo, want_albedo)
        assert np.array_equal(tint, want_tint)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_tilted_slab_is_the_per_axis_projection(self, dtype):
        # A matrix-vector product may round a row differently from the
        # per-axis sum, so the tilted slab is compared against the per-axis
        # formula bit for bit and against pts @ axis to a few ulps.
        scene = make_scene(SPHERE, TILTED)
        pts = sample_points((40, 25), dtype, seed=2)
        got = field.density(scene, pts)
        want, _ = reference_weights(scene, pts, project=per_axis)
        assert np.array_equal(got, want)
        matmul, _ = reference_weights(scene, pts)
        assert np.allclose(got, matmul, rtol=0.0, atol=64 * np.finfo(dtype).eps * 6.0)
        albedo, tint = field.material(scene, pts.astype(np.float64))
        want_albedo, want_tint = reference_material(scene, pts.astype(np.float64), per_axis)
        assert np.array_equal(albedo, want_albedo) and np.array_equal(tint, want_tint)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_density_does_not_depend_on_the_batch(self, dtype):
        # The skipping march evaluates subsets of a step's samples; each
        # point's density must not change with the rows beside it.
        scene = make_scene(TILTED, BOX)
        pts = sample_points((999,), dtype, seed=3)
        full = field.density(scene, pts)
        rng = np.random.default_rng(4)
        for size in (1, 2, 3, 5, 17, 400):
            idx = np.sort(rng.choice(len(pts), size, replace=False))
            assert np.array_equal(field.density(scene, pts[idx]), full[idx])
        assert np.array_equal([field.density(scene, p) for p in pts[:9]], full[:9])


# ------------------------------------------------- closed-form step counts

def bitwise_count_before(t0, dt, s, steps, before):
    """How many samples t0 + (k + 0.5) * dt, k < steps, lead with before(t, s).

    A search from the highest power of two down, one pass per bit. The
    sample at k - 1 may lie past the last step; t keeps growing there, so
    the count is only clipped at the end.
    """
    half = t0.dtype.type(0.5)
    c = np.zeros(t0.shape, dtype=np.intp)
    for p in reversed(range(int(steps).bit_length())):
        k = c + (1 << p)
        c = np.where(before(t0 + ((k - 1).astype(t0.dtype) + half) * dt, s), k, c)
    return np.minimum(c, steps)


def counted_passes(t0, dt, s, steps, before):
    """transport._count_before's counts, and the passes it made over the rays."""
    passes = []

    def test(t, bound):
        passes.append(t.size)
        return before(t, bound)

    with np.errstate(all="ignore"):
        return transport._count_before(t0, dt, s, steps, test), len(passes)


EDGES = [0.0, -0.0, 5e-324, 1e-310, 1e-40, 1e300, np.inf, -np.inf, np.nan]
edge = st.one_of(st.sampled_from(EDGES + [-x for x in EDGES[2:6]]), st.floats(-10.0, 10.0),
                 st.floats(allow_nan=True, allow_infinity=True))
# dt >= 0 in the marches; -0.0 and -inf give a t that is constant in k too.
step_size = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0),
                      st.floats(min_value=0.0, allow_infinity=True))


@st.composite
def count_cases(draw):
    """(t0, dt, s, steps): some bounds are edge values, some sit on a sample's t or an ulp off."""
    dtype = draw(st.sampled_from(DTYPES))
    steps = draw(st.integers(1, 512))
    n = draw(st.integers(1, 12))
    with np.errstate(all="ignore"):
        t0 = np.array(draw(st.lists(edge, min_size=n, max_size=n))).astype(dtype)
        dt = np.array(draw(st.lists(step_size, min_size=n, max_size=n))).astype(dtype)
        s = np.array(draw(st.lists(edge, min_size=n, max_size=n)))
        for i in range(n):
            if draw(st.booleans()):
                k = draw(st.integers(-1, steps))
                t = float(t0[i] + (dtype(k) + dtype(0.5)) * dt[i])
                s[i] = np.nextafter(t, draw(st.sampled_from([-np.inf, t, np.inf])))
    return t0, dt, s, steps


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=count_cases(), strict=st.booleans())
def test_closed_form_counts_equal_the_bitwise_search(case, strict):
    t0, dt, s, steps = case
    before = np.less if strict else np.less_equal
    with np.errstate(all="ignore"):
        want = bitwise_count_before(t0, dt, s, steps, before)
    got, passes = counted_passes(t0, dt, s, steps, before)
    assert got.dtype == np.intp and got.tolist() == want.tolist()
    assert passes <= 2 + steps.bit_length()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("before", [np.less, np.less_equal], ids=["strict", "non_strict"])
def test_march_like_guesses_settle_in_two_passes(dtype, before):
    # Unless a bound lies within rounding of a sample's t, the guess is
    # the count, and it and the step beside it settle every ray.
    rng = np.random.default_rng(23)
    t0 = rng.uniform(0.0, 5.0, size=2000).astype(dtype)
    dt = rng.uniform(0.001, 0.1, size=2000).astype(dtype)
    s = rng.uniform(-1.0, 30.0, size=2000)
    want = bitwise_count_before(t0, dt, s, 192, before)
    got, passes = counted_passes(t0, dt, s, 192, before)
    assert got.tolist() == want.tolist()
    assert 0 < np.count_nonzero(got % 192) and passes == 2


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("before", [np.less, np.less_equal], ids=["strict", "non_strict"])
def test_non_finite_guesses_settle_in_few_passes(dtype, before):
    # Every guess below is NaN or infinite: dt = 0 with t0 == s (0 / 0),
    # dt = 0 elsewhere, infinite t0, s or dt, and NaN. A walk of one step
    # per pass from a clipped guess would take up to 512 passes on the
    # first; the bisection after the first two passes takes at most 10.
    t0 = np.array([1.5, 1.5, 1.5, np.inf, 0.25, -np.inf, 0.25, np.nan, 2.0], dtype=dtype)
    dt = np.array([0.0, 0.0, 0.0, 0.5, np.inf, 0.5, 0.5, 0.5, np.nan], dtype=dtype)
    s = np.array([1.5, 3.0, 0.5, np.inf, np.inf, -np.inf, np.inf, 1.0, 9.0])
    with np.errstate(all="ignore"):
        assert not np.isfinite(np.ceil((s - t0) / dt - 0.5)).any()
        want = bitwise_count_before(t0, dt, s, 512, before)
    got, passes = counted_passes(t0, dt, s, 512, before)
    assert got.tolist() == want.tolist()
    assert passes <= 2 + (512).bit_length()


# ------------------------------------------------------- skipping march

def assert_march_matches_dense(scene, origins, dirs, dtype, steps=24, offset=0.05, chunk=7):
    o = np.asarray(origins, dtype=dtype)
    d = np.asarray(dirs, dtype=dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "MARCH_CHUNK", chunk)
        got = transport.transmittance(field.with_steps(scene, secondary_steps=steps), o, d,
                                      offset=offset)
    want = dense_transmittance(scene, o, d, steps, offset)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), np.flatnonzero(got != want)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


AXES = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)


@pytest.mark.parametrize("dtype", DTYPES)
class TestSkippingMarchCases:
    def test_axis_aligned_directions(self, dtype):
        origins = np.random.default_rng(5).uniform(-1.5, 1.5, size=(30, 3))
        origins = np.repeat(origins, 6, axis=0)
        assert_march_matches_dense(MIXED, origins, np.tile(AXES, (30, 1)), dtype)

    def test_rays_parallel_to_slab(self, dtype):
        scene = make_scene(SLAB, TILTED, BOX)
        rng = np.random.default_rng(6)
        dirs = []
        for axis in (np.array(SLAB["axis"], float), unit(TILTED["axis"])):
            v = rng.normal(size=(20, 3))
            dirs.append(unit(v - np.outer(v @ axis, axis)))
        dirs = np.vstack(dirs)
        # Origins on, inside and just outside the bands' soft edges.
        z = np.linspace(-0.9, 0.1, 40)
        origins = np.stack([np.zeros(40), np.zeros(40), z], axis=1)
        assert_march_matches_dense(scene, origins, dirs, dtype)

    def test_grazing_rays(self, dtype):
        # Rays passing a sphere at its support radius, and skimming box faces.
        c = np.array(SPHERE["center"])
        rho = SPHERE["radius"] + 0.5 * SPHERE["softness"]
        rng = np.random.default_rng(7)
        d = unit(rng.normal(size=(40, 3)))
        side = unit(np.cross(d, rng.normal(size=(40, 3))))
        scale = rng.choice([1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.0 + 1e-4], size=(40, 1))
        origins = c + rho * scale * side - 1.8 * d
        box_c = np.array(BOX["center"])
        half = 0.5 * np.array(BOX["extent"]) + 0.5 * BOX["softness"]
        face = np.tile(box_c + [half[0], 0.0, 0.0], (10, 1)) + [0.0, 0.0, -1.5]
        origins = np.vstack([origins, face])
        dirs = np.vstack([d, np.tile([0.0, 0.0, 1.0], (10, 1))])
        assert_march_matches_dense(MIXED, origins, dirs, dtype)

    def test_origins_inside_supports(self, dtype):
        rng = np.random.default_rng(8)
        centers = np.array([SPHERE["center"], BOX["center"], [0.0, 0.0, -0.4]])
        origins = np.repeat(centers, 20, axis=0) + rng.normal(scale=0.2, size=(60, 3))
        assert_march_matches_dense(MIXED, origins, unit(rng.normal(size=(60, 3))), dtype,
                                   offset=0.0)

    def test_non_finite_and_zero_length_rays(self, dtype):
        # Rays the support test cannot place are marched in full, so NaN
        # input gives the dense march's NaN rather than a skipped 1.0.
        origins = np.array([[np.nan, 0.0, 0.0], [0.2, 0.1, 0.0], [0.2, 0.1, 0.0],
                            [0.3, -0.2, 0.4], [1.0, 1.0, 1.0]])
        dirs = np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]])
        o, d = origins.astype(dtype), dirs.astype(dtype)
        with np.errstate(invalid="ignore"):
            got = transport.transmittance(field.with_steps(MIXED, secondary_steps=6), o, d)
            want = dense_transmittance(MIXED, o, d, 6, 0.0)
        np.testing.assert_array_equal(got, want)

    def test_samples_inside_several_supports(self, dtype):
        # Three overlapping primitives with scales far apart: where a
        # sample lies inside all three supports, the sum in scene order
        # differs from the reverse order in its last bits.
        scene = make_scene(*SEVERAL, radius=3.0)
        rng = np.random.default_rng(24)
        origins = rng.normal(scale=0.2, size=(40, 3)) + [0.0, -2.5, 0.0]
        dirs = unit(rng.normal(scale=0.1, size=(40, 3)) + [0.0, 1.0, 0.0])
        assert_march_matches_dense(scene, origins, dirs, dtype, steps=64, offset=0.0)
        o, d = origins.astype(dtype), dirs.astype(dtype)
        t = sample_t(scene, o, d, 64, 0.0, np.arange(64)[:, None]).astype(dtype)
        pts = o + t[..., None] * d
        w = [reference_primitive_density(p, pts) for p in scene.primitives]
        inside = (w[0] > 0.0) & (w[1] > 0.0) & (w[2] > 0.0)
        assert np.count_nonzero(inside) > 100
        assert np.any(((w[0] + w[1]) + w[2])[inside] != ((w[2] + w[1]) + w[0])[inside])

    def test_no_primitives(self, dtype):
        rng = np.random.default_rng(9)
        origins = rng.uniform(-1.0, 1.0, size=(12, 3))
        got = transport.transmittance(field.with_steps(make_scene(), secondary_steps=8),
                                      origins.astype(dtype),
                                      unit(rng.normal(size=(12, 3))).astype(dtype))
        assert np.all(got == 1.0)
        assert_march_matches_dense(make_scene(), origins, unit(rng.normal(size=(12, 3))), dtype)


# A sphere wider than the bounds: every sample inside the bounds has
# density 6, so one sample more or less in a ray's live steps shows.
FILLED = make_scene(dict(SPHERE, center=[0.1, 0.0, -0.1], radius=3.0, softness=0.5))


def sample_t(scene, origins, dirs, steps, offset, k):
    """Float64 copy of each ray's sample t at step k, as the march computes it."""
    dtype = origins.dtype.type
    t_enter, t_exit = reference_exit_distance(scene, origins, dirs)
    t0 = np.maximum(t_enter, dtype(offset))
    dt = np.maximum(t_exit - t0, 0.0) / dtype(steps)
    return (t0 + (k.astype(origins.dtype) + dtype(0.5)) * dt).astype(np.float64)


def mixed_rays(n, seed):
    """n random rays, then NaN, zero-length and dt == 0 rays."""
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-1.5, 1.5, size=(n, 3))
    dirs = unit(rng.normal(size=(n, 3)))
    odd_o = [[np.nan, 0.0, 0.0], [0.2, 0.1, 0.0], [0.2, 0.1, 0.0], [2.8, 0.0, 0.0],
             [2.8, 0.0, 0.0], [0.0, 0.5, 0.0]]
    odd_d = [[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    return np.vstack([origins, odd_o]), np.vstack([dirs, odd_d])


@pytest.mark.parametrize("dtype", DTYPES)
class TestLiveSpanMarch:
    """The live step range of each ray, and the blocks its samples go in."""

    @pytest.mark.parametrize("nudge", [-1, 0, 1], ids=["below", "on", "above"])
    def test_support_edge_on_a_sample(self, dtype, nudge, monkeypatch):
        # FILLED's one support is replaced by bounds that sit exactly on a
        # sample's t (or one float64 ulp off it), so a sample on the edge
        # must be counted and one just outside must not.
        rng = np.random.default_rng(20)
        steps, offset = 16, 0.05
        o = rng.uniform(-1.0, 1.0, size=(60, 3)).astype(dtype)
        d = unit(rng.normal(size=(60, 3))).astype(dtype)
        a = rng.integers(0, steps, size=60)
        b = np.minimum(a + rng.integers(0, 4, size=60), steps - 1)
        lo = sample_t(FILLED, o, d, steps, offset, a)
        hi = sample_t(FILLED, o, d, steps, offset, b)
        if nudge:
            lo, hi = np.nextafter(lo, nudge * np.inf), np.nextafter(hi, nudge * np.inf)
        monkeypatch.setattr(field, "supports", lambda *args: (lo[None], hi[None]))
        got = transport.transmittance(field.with_steps(FILLED, secondary_steps=steps), o, d,
                                      offset=offset)
        want = dense_transmittance(FILLED, o, d, steps, offset, window=(lo, hi))
        assert got.tobytes() == want.tobytes()
        assert np.all(want < 1.0) if nudge == 0 else np.any(want < 1.0)

    def test_zero_dt(self, dtype):
        # Origins outside the bounds (a miss, and the bounds behind the
        # ray) and an offset past the exit put every sample at t0, which
        # lies inside FILLED's support but outside the bounds.
        o = np.array([[2.8, 0.0, 0.0], [2.8, 0.0, 0.0], [0.1, 0.5, 0.0]], dtype=dtype)
        d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=dtype)
        for offset in (0.0, 0.3, 9.0):
            got = transport.transmittance(field.with_steps(FILLED, secondary_steps=5), o, d,
                                          offset=offset)
            want = dense_transmittance(FILLED, o, d, 5, offset)
            assert got.tobytes() == want.tobytes()
        assert np.all(got == 1.0)

    @pytest.mark.parametrize("steps", [1, 1000])
    def test_step_counts(self, dtype, steps):
        rng = np.random.default_rng(21)
        o, d = rng.uniform(-1.5, 1.5, size=(40, 3)), unit(rng.normal(size=(40, 3)))
        for scene in (MIXED, FILLED):
            assert_march_matches_dense(scene, o, d, dtype, steps=steps, chunk=65536)

    def test_each_primitive_is_evaluated_on_its_own_run(self, dtype, monkeypatch):
        # The kernel sees each primitive exactly at the samples whose t lies
        # in its support, on the rays that meet it, and nowhere else.
        rng = np.random.default_rng(25)
        o = rng.uniform(-1.5, 1.5, size=(60, 3)).astype(dtype)
        d = unit(rng.normal(size=(60, 3))).astype(dtype)
        steps, offset = 24, 0.05
        scene = field.with_steps(MIXED, secondary_steps=steps)
        seen = np.zeros(len(MIXED.primitives), dtype=int)
        density = field._primitive_density

        def spy(scene, i, x, y, z):
            seen[i] += x.size
            return density(scene, i, x, y, z)

        monkeypatch.setattr(field, "_primitive_density", spy)
        transport.transmittance(scene, o, d, offset=offset)
        _, t_exit = reference_exit_distance(MIXED, o, d)
        t = sample_t(MIXED, o, d, steps, offset, np.arange(steps)[:, None])
        want = [np.count_nonzero((lo <= t) & (t <= hi))
                for lo, hi in zip(*field.supports(MIXED, o.T, d.T, t_exit))]
        assert seen.tolist() == want
        assert 0 < sum(want) < 0.5 * len(MIXED.primitives) * steps * len(o)

    def test_chunks_and_blocks_give_the_same_bits(self, dtype, monkeypatch):
        o, d = mixed_rays(50, 22)
        o, d = o.astype(dtype), d.astype(dtype)
        with np.errstate(invalid="ignore"):
            want = dense_transmittance(MIXED, o, d, 24, 0.05)
            runs = []
            chunks = (1, 3, transport.MARCH_CHUNK)
            for block in (1, 5, transport.MARCH_BLOCK):
                monkeypatch.setattr(transport, "MARCH_BLOCK", block)
                for chunk in chunks:
                    monkeypatch.setattr(transport, "MARCH_CHUNK", chunk)
                    runs.append(transport.transmittance(
                        field.with_steps(MIXED, secondary_steps=24), o, d, offset=0.05))
        assert np.isnan(want[50]) and np.isnan(want[51])
        for got in runs:
            assert got.tobytes() == want.tobytes()


def reference_runs(t0, dt, steps, lo, hi):
    """transport._runs as a loop over supports and rays, counted by bitwise_count_before."""
    ends, ray, first, count = [], [], [], []
    for i in range(lo.shape[0]):
        for r in range(t0.shape[0]):
            if lo[i, r] <= hi[i, r]:
                a, b = t0[r:r + 1], dt[r:r + 1]
                f = bitwise_count_before(a, b, lo[i, r:r + 1], steps, np.less)[0]
                c = bitwise_count_before(a, b, hi[i, r:r + 1], steps, np.less_equal)[0] - f
                if c > 0:
                    ray.append(r), first.append(f), count.append(c)
        ends.append(len(ray))
    return [ends, ray, first, count]


def runs_of(scene, o, d, steps, offset):
    """transport._runs and reference_runs on field.supports' table, as transmittance forms it."""
    o, d = np.ascontiguousarray(o.T), np.ascontiguousarray(d.T)
    t_enter, t_exit = transport._exit_distance(scene, o, d)
    t0 = np.maximum(t_enter, o.dtype.type(offset))
    dt = np.maximum(t_exit - t0, 0.0) / o.dtype.type(steps)
    lo, hi = field.supports(scene, o, d, t_exit)
    assert lo.dtype == hi.dtype == np.float64
    assert lo.shape == hi.shape == (len(scene.primitives), o.shape[1])
    got = transport._runs(t0, dt, steps, lo, hi)
    return [x.tolist() for x in got], reference_runs(t0, dt, steps, lo, hi)


@pytest.mark.parametrize("dtype", DTYPES)
class TestRunList:
    """_runs equals a loop over each support and each ray."""

    def test_mixed_rays(self, dtype):
        o, d = mixed_rays(60, 26)
        with np.errstate(invalid="ignore"):
            got, want = runs_of(MIXED, o.astype(dtype), d.astype(dtype), 24, 0.05)
        assert got == want
        ends, ray, _, _ = got
        assert len(ends) == len(MIXED.primitives) and np.all(np.diff(ends) > 0)
        # Some rays meet no support and have no run.
        assert 0 < len(set(ray)) < len(o)

    def test_rays_that_meet_no_support(self, dtype):
        # Rays from outside the primitives, pointing away from all of them.
        o = np.array([[2.0, 2.0, 2.0], [-2.2, 0.0, 1.8], [0.0, -2.3, 1.5]], dtype=dtype)
        got, want = runs_of(MIXED, o, unit(o).astype(dtype), 24, 0.0)
        assert got == want == [[0] * len(MIXED.primitives), [], [], []]

    def test_no_primitives(self, dtype):
        rng = np.random.default_rng(27)
        o = rng.uniform(-1.0, 1.0, size=(10, 3)).astype(dtype)
        got, want = runs_of(make_scene(), o, unit(rng.normal(size=(10, 3))).astype(dtype), 8, 0.0)
        assert got == want == [[], [], [], []]


# Generated scenes: centers and rays in a 3-unit cube, sizes from thin
# shells to wide blobs, edges from nearly hard to broad, slabs along an
# axis or tilted.

coord = st.floats(-1.5, 1.5)
vec3 = st.tuples(coord, coord, coord)
size = st.floats(0.05, 1.5)
softness = st.one_of(st.floats(1e-5, 1e-3), st.floats(0.01, 0.8))
scale = st.floats(0.0, 12.0)
axis = st.one_of(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)]),
                 vec3.filter(lambda v: np.linalg.norm(v) > 0.1))

sphere = st.builds(lambda c, r, w, s: {"type": "sphere", "center": c, "radius": r,
                                       "softness": w, "density_scale": s},
                   vec3, size, softness, scale)
box = st.builds(lambda c, e, w, s: {"type": "box", "center": c, "extent": e,
                                    "softness": w, "density_scale": s},
                vec3, st.tuples(size, size, size), softness, scale)
slab = st.builds(lambda a, o, t, w, s: {"type": "slab", "axis": a, "offset": o, "thickness": t,
                                        "softness": w, "density_scale": s},
                 axis, coord, size, softness, scale)


@st.composite
def scenes_and_rays(draw):
    prims = draw(st.lists(st.one_of(sphere, box, slab), min_size=0, max_size=5))
    scene = make_scene(*prims, radius=draw(st.floats(1.0, 4.0)))
    n = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-1.5, 1.5, size=(n, 3))
    dirs = rng.normal(size=(n, 3))
    # Some rays start at a primitive's center or run along a coordinate axis.
    for i in range(n):
        if prims and rng.random() < 0.3:
            p = prims[rng.integers(len(prims))]
            origins[i] = p.get("center", origins[i])
        if rng.random() < 0.3:
            dirs[i] = AXES[rng.integers(6)]
    return scene, origins, unit(dirs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=scenes_and_rays(), dtype=st.sampled_from(DTYPES), steps=st.integers(1, 40),
       offset=st.floats(0.0, 0.3))
def test_skipping_march_equals_dense_march(case, dtype, steps, offset):
    scene, origins, dirs = case
    assert_march_matches_dense(scene, origins, dirs, dtype, steps=steps, offset=offset, chunk=5)


@st.composite
def point_major_cases(draw):
    """A scene, (P, 3) origins, (D, 3) directions and (p, q) index pairs into them.

    Some origins sit at a primitive's center, inside its support. Beside
    random directions come axis directions, one grazing a sphere's support
    from the first origin, one parallel to a slab, and zero, NaN and inf
    directions. The pairs repeat, and may be empty.
    """
    prims = draw(st.lists(st.one_of(sphere, box, slab), min_size=0, max_size=4))
    scene = make_scene(*prims, radius=draw(st.floats(1.0, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origins = rng.uniform(-1.5, 1.5, size=(draw(st.integers(1, 6)), 3))
    for i in range(len(origins)):
        if prims and rng.random() < 0.4:
            origins[i] = prims[rng.integers(len(prims))].get("center", origins[i])
    dirs = [*unit(rng.normal(size=(draw(st.integers(0, 8)), 3))), *AXES[rng.integers(6, size=2)]]
    for p in prims:
        if p["type"] == "sphere":
            to_c = np.asarray(p["center"]) - origins[0]
            rho, dist = p["radius"] + 0.5 * p["softness"], np.linalg.norm(to_c)
            if dist > rho:
                side = unit(np.cross(to_c, rng.normal(size=3)))
                dirs.append(unit(to_c / dist * np.sqrt(dist**2 - rho**2) + side * rho))
        elif p["type"] == "slab":
            v = rng.normal(size=3)
            a = unit(p["axis"])
            dirs.append(unit(v - (v @ a) * a))
    dirs += [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]]
    n = draw(st.sampled_from([40, 5, 1, 0]))
    pairs = rng.integers(len(origins), size=n), rng.integers(len(dirs), size=n)
    return scene, origins, np.array(dirs), pairs


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=point_major_cases(), steps=st.integers(1, 24), offset=st.floats(0.0, 0.3))
def test_point_major_march_equals_dense_march_on_the_rows(dtype, case, steps, offset):
    # transmittance on (origins, dirs) tables and index pairs gives the bits
    # of the dense row-major march on the rows (origins[p], dirs[q]). A ray
    # whose dt is NaN (an inf direction) has no live step, so its NaN can
    # carry another sign than the dense march's: NaNs compare by position.
    scene, origins, dirs, (p, q) = case
    o, d = origins.astype(dtype), dirs.astype(dtype)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore", over="ignore"):
        mp.setattr(transport, "MARCH_CHUNK", 7)
        got = transport.transmittance(field.with_steps(scene, secondary_steps=steps), o, d,
                                      pairs=(p, q), offset=offset)
        want = dense_transmittance(scene, o[p], d[q], steps, offset)
    nan = np.isnan(want)
    assert got.dtype == dtype and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_written_out_sum_of_three_is_np_sum(dtype):
    # The march sums length-3 rows as ((0.0 + x0) + x1) + x2, which is
    # np.sum(axis=-1) bit for bit, signed zeros, NaN and overflow included
    # (±1e308 in float64, ±max in float32), and on random rows of products.
    info = np.finfo(dtype)
    tiny, big = info.smallest_subnormal, min(1e308, float(info.max))
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny,
                       info.smallest_normal - tiny, -(info.smallest_normal - tiny), 1.0, -1.0,
                       big, -big, 0.1, -0.3, info.eps, 1.0 / 3.0], dtype=dtype)
    rows = np.stack(np.meshgrid(values, values, values, indexing="ij"), axis=-1).reshape(-1, 3)
    rng = np.random.default_rng(26)
    a = np.vstack([rows, rng.normal(size=(20000, 3)) * 10.0 ** rng.integers(-30, 30, (20000, 1))])
    a = a.astype(dtype)
    b = np.vstack([np.ones_like(rows), rng.normal(size=(20000, 3))]).astype(dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        got = transport._sum3(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
        want = np.sum(a * b, axis=-1)
    assert len(rows) == 18**3 and got.dtype == dtype
    assert got.tobytes() == want.tobytes()


def exact_support_entry(prim, o, d):
    """Float64 t where each ray enters the primitive's unpadded support."""
    w2 = 0.5 * prim["softness"]
    if prim["type"] == "sphere":
        oc = o - prim["center"]
        b = np.sum(oc * d, axis=1)
        disc = b * b - (np.sum(oc * oc, axis=1) - (prim["radius"] + w2) ** 2)
        return -b - np.sqrt(disc)
    if prim["type"] == "box":
        half = 0.5 * np.asarray(prim["extent"]) + w2
        t1 = (prim["center"] - half - o) / d
        t2 = (prim["center"] + half - o) / d
        return np.max(np.minimum(t1, t2), axis=1)
    a = unit(prim["axis"])
    u0, slope = o @ a - prim["offset"], d @ a
    return np.minimum((-0.5 * prim["thickness"] - w2 - u0) / slope,
                      (0.5 * prim["thickness"] + w2 - u0) / slope)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("prim", [dict(SPHERE, softness=1e-5), dict(BOX, softness=2e-5),
                                  dict(TILTED, softness=1e-5)], ids=["sphere", "box", "slab"])
def test_support_interval_covers_rounding_at_the_edge(prim, dtype):
    # With a thin shell the smoothstep leaves no dead band near the edge,
    # so samples a few ulps outside the exact support can round to a
    # nonzero density; the primitive's padded support must still contain them.
    scene = make_scene(prim, radius=6.0)
    rng = np.random.default_rng(11)
    o = rng.uniform(-3.0, 3.0, size=(4000, 3))
    d = unit(rng.normal(size=(4000, 3)))
    with np.errstate(invalid="ignore", divide="ignore"):
        t_edge = exact_support_entry(prim, o, d)
    keep = np.isfinite(t_edge) & (t_edge > 0.1) & (t_edge < 5.0)
    o, d, t_edge = o[keep].astype(dtype), d[keep].astype(dtype), t_edge[keep]
    (lo,), (hi,) = field.supports(scene, o.T, d.T, np.full(len(o), 6.0, dtype=dtype))
    nonzero = 0
    for j in range(-40, 41):
        t = (t_edge * (1.0 + j * 2e-8)).astype(dtype)
        sigma = field.density(scene, o + t[:, None] * d)
        nonzero += np.count_nonzero(sigma)
        assert not np.any((sigma > 0.0) & ((t < lo) | (t > hi)))
    assert nonzero > 1000


def test_support_interval_brackets_every_nonzero_sample():
    # Each primitive's support brackets every sample where its own term is
    # nonzero.
    rng = np.random.default_rng(10)
    origins = rng.uniform(-2.0, 2.0, size=(200, 3))
    dirs = unit(rng.normal(size=(200, 3)))
    t = np.linspace(0.0, 5.0, 801)
    pts = origins[:, None, :] + t[None, :, None] * dirs[:, None, :]
    lo_all, hi_all = field.supports(MIXED, origins.T, dirs.T, np.full(200, 5.0))
    assert lo_all.shape == hi_all.shape == (len(MIXED.primitives), 200)
    for p, lo, hi in zip(MIXED.primitives, lo_all, hi_all):
        w = reference_primitive_density(p, pts, per_axis)
        outside = (t[None, :] < lo[:, None]) | (t[None, :] > hi[:, None])
        assert np.all(w[outside] == 0.0)
        assert np.count_nonzero(outside) > 0.5 * outside.size
        assert np.count_nonzero(w) > 0


# --------------------------------------------------------- primary march

def dense_primary_march(scene, origins, dirs, steps):
    """Every midpoint sample of [t_near, t_far] through field.density."""
    t0, t1 = scene.march.t_near, scene.march.t_far
    dt = (t1 - t0) / steps
    t = t0 + (np.arange(steps) + 0.5) * dt
    pts = origins[:, None, :] + t[None, :, None] * dirs[:, None, :]
    return pts, field.density(scene, pts), dt


def assert_primary_matches_dense(scene, origins, dirs, steps=None):
    scene = field.with_steps(scene, primary_steps=steps)
    o, d = np.asarray(origins, dtype=np.float64), np.asarray(dirs, dtype=np.float64)
    sigma, t, dt = transport.primary_march(scene, o, d)
    want_pts, want_sigma, want_dt = dense_primary_march(scene, o, d, scene.march.primary_steps)
    assert dt == want_dt
    # The positions consumers form are the ones the dense march evaluated.
    # Byte comparison: the sign of a zero counts too.
    ray, step = np.indices(sigma.shape).reshape(2, -1)
    pts = transport.primary_points(o, d, t, ray, step).reshape(want_pts.shape)
    assert pts.tobytes() == want_pts.tobytes()
    assert sigma.shape == want_sigma.shape and sigma.dtype == want_sigma.dtype
    assert sigma.tobytes() == want_sigma.tobytes(), np.argwhere(sigma != want_sigma)
    return sigma


class TestPrimaryMarchCases:
    def test_camera_inside_supports(self):
        rng = np.random.default_rng(12)
        centers = np.array([SPHERE["center"], BOX["center"], [0.0, 0.0, -0.4]])
        origins = np.repeat(centers, 10, axis=0) + rng.normal(scale=0.1, size=(30, 3))
        sigma = assert_primary_matches_dense(MIXED, origins, unit(rng.normal(size=(30, 3))))
        assert np.all(sigma[:, 0] > 0.0)

    def test_rays_parallel_to_slab(self):
        scene = make_scene(SLAB, TILTED)
        rng = np.random.default_rng(13)
        dirs = []
        for a in (np.array(SLAB["axis"], float), unit(TILTED["axis"])):
            v = rng.normal(size=(15, 3))
            dirs.append(unit(v - np.outer(v @ a, a)))
        z = np.linspace(-0.9, 0.1, 30)
        origins = np.stack([np.full(30, -3.0), np.zeros(30), z], axis=1)
        assert_primary_matches_dense(scene, origins, np.vstack(dirs))

    def test_t_near_and_steps_override(self):
        scene = dataclasses.replace(MIXED, march=field.MarchParams(
            primary_steps=50, t_near=1.3, t_far=4.1))
        rng = np.random.default_rng(14)
        origins = rng.uniform(-3.0, 3.0, size=(40, 3))
        dirs = unit(rng.normal(size=(40, 3)))
        for steps in (None, 1, 7, 333):
            sigma = assert_primary_matches_dense(scene, origins, dirs, steps=steps)
            assert sigma.shape == (40, 50 if steps is None else steps)

    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(16)
        origins = rng.uniform(-3.0, 3.0, size=(20, 3))
        dirs = unit(rng.normal(size=(20, 3)))
        for block in (1, 5, 333):
            monkeypatch.setattr(transport, "MARCH_BLOCK", block)
            assert np.count_nonzero(assert_primary_matches_dense(MIXED, origins, dirs)) > 5

    def test_samples_inside_several_supports(self):
        # Three overlapping primitives with scales far apart: where a
        # sample lies inside all three supports, the sum in scene order
        # differs from the reverse order in its last bits.
        scene = make_scene(*SEVERAL, march={"primary_steps": 64, "t_near": 0.5, "t_far": 5.5})
        rng = np.random.default_rng(17)
        origins = rng.normal(scale=0.2, size=(40, 3)) + [0.0, -3.0, 0.0]
        dirs = unit(rng.normal(scale=0.1, size=(40, 3)) + [0.0, 1.0, 0.0])
        assert_primary_matches_dense(scene, origins, dirs)
        pts, _, _ = dense_primary_march(scene, origins, dirs, 64)
        w = [reference_primitive_density(p, pts) for p in scene.primitives]
        inside = (w[0] > 0.0) & (w[1] > 0.0) & (w[2] > 0.0)
        assert np.count_nonzero(inside) > 100
        assert np.any(((w[0] + w[1]) + w[2])[inside] != ((w[2] + w[1]) + w[0])[inside])

    def test_gaps_between_supports(self):
        # Rays along x cross a sphere, a box and a sphere with empty space
        # between them: three runs of live samples per ray.
        scene = make_scene(dict(SPHERE, center=[-1.5, 0.0, 0.0], radius=0.4, softness=0.1),
                           dict(BOX, center=[0.0, 0.0, 0.0], extent=[0.5, 0.5, 0.5],
                                softness=0.1),
                           dict(SPHERE, center=[1.5, 0.0, 0.0], radius=0.4, softness=0.1),
                           radius=3.0, march={"primary_steps": 120, "t_far": 6.0})
        rng = np.random.default_rng(18)
        origins = np.column_stack([np.full(20, -3.0), rng.uniform(-0.1, 0.1, size=(20, 2))])
        sigma = assert_primary_matches_dense(scene, origins, np.tile([1.0, 0.0, 0.0], (20, 1)))
        starts = np.diff((sigma > 0.0).astype(int), axis=1) == 1
        assert np.all(np.count_nonzero(starts, axis=1) == 3)

    def test_supports_met_only_outside_the_march_range(self):
        # Rays along x from x = -3 march t in [2, 4]: the first sphere's
        # support lies at t < 2 and the last one's at t > 4, so only the
        # box between them holds live samples.
        scene = make_scene(dict(SPHERE, center=[-2.0, 0.0, 0.0], radius=0.3, softness=0.1),
                           dict(BOX, center=[0.0, 0.0, 0.0], extent=[0.5, 0.5, 0.5]),
                           dict(SPHERE, center=[2.0, 0.0, 0.0], radius=0.3, softness=0.1),
                           radius=3.0, march={"primary_steps": 40, "t_near": 2.0, "t_far": 4.0})
        rng = np.random.default_rng(19)
        origins = np.column_stack([np.full(12, -3.0), rng.uniform(-0.1, 0.1, size=(12, 2))])
        dirs = np.tile([1.0, 0.0, 0.0], (12, 1))
        (lo0, _, lo2), (hi0, _, hi2) = field.supports(scene, origins.T, dirs.T, 4.0)
        assert np.all((lo0 <= hi0) & (hi0 < 2.0)) and np.all((lo2 <= hi2) & (lo2 > 4.0))
        sigma = assert_primary_matches_dense(scene, origins, dirs)
        assert np.all(np.any(sigma > 0.0, axis=1))

    def test_empty_scene(self):
        rng = np.random.default_rng(15)
        sigma = assert_primary_matches_dense(make_scene(), rng.uniform(-1.0, 1.0, (6, 3)),
                                             unit(rng.normal(size=(6, 3))), steps=9)
        assert not np.any(sigma)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=scenes_and_rays(), steps=st.integers(1, 64), t_near=st.floats(0.0, 2.0),
       length=st.floats(0.05, 6.0))
def test_primary_march_equals_dense_density(case, steps, t_near, length):
    scene, origins, dirs = case
    scene = dataclasses.replace(scene, march=field.MarchParams(
        primary_steps=steps, t_near=t_near, t_far=t_near + length))
    assert_primary_matches_dense(scene, origins, dirs)


def dense_march(scene, origins, dirs):
    """transport.primary_march's (sigma, t, dt), from dense_primary_march."""
    steps = scene.march.primary_steps
    _, sigma, dt = dense_primary_march(scene, origins, dirs, steps)
    return sigma, scene.march.t_near + (np.arange(steps) + 0.5) * dt, dt


EXAMPLE_SCENE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "example_scene.json"


@pytest.fixture(scope="module")
def light_and_cache(tmp_path_factory):
    d = tmp_path_factory.mktemp("dense_render")
    light, cache = d / "light.json", d / "cache.bin"
    envlight.save_sh_light(str(light), lobe_sh_light())
    assert cli.main(["bake", str(EXAMPLE_SCENE), "--points", "24", "--resolution", "8", "16",
                     "-o", str(cache)]) == 0
    return str(light), str(cache)


def assert_render_equals_reference(light_and_cache, cached, threads, tmp_path, monkeypatch,
                                   name, reference):
    """Every mode's PFM and alpha bytes are equal with transport.<name> replaced by reference."""
    light, cache = light_and_cache
    for mode in render.MODES:
        outputs = []
        for function in (getattr(transport, name), reference):
            monkeypatch.setattr(transport, name, function)
            pfm, alpha = tmp_path / f"{mode}.pfm", tmp_path / f"{mode}_alpha.ppm"
            argv = ["render", str(EXAMPLE_SCENE), "--env", light, "--mode", mode,
                    "--width", "10", "--height", "8", "--transfer-grid", "8", "16",
                    "--threads", threads, "-o", str(pfm), "--alpha", str(alpha)]
            assert cli.main(argv + (["--cache", cache] if cached else [])) == 0
            outputs.append((pfm.read_bytes(), alpha.read_bytes()))
        assert outputs[0] == outputs[1], mode


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_render_equals_dense_primary_march(light_and_cache, cached, threads, tmp_path,
                                           monkeypatch):
    # The example scene's sphere and box rest on its slab, so their soft
    # shells overlap, and most rays cross gaps between supports.
    assert_render_equals_reference(light_and_cache, cached, threads, tmp_path, monkeypatch,
                                   "primary_march", dense_march)


# ---------------------------------------------------- compositing window

def dense_march_weights(sigma, dt, width):
    """transport._march_weights over every column, as the renderer and the
    probe composited before the window: (tau, live, 0, T, T * depth)."""
    depth = sigma * dt
    trans = np.exp(-(np.cumsum(depth, axis=1) - depth))
    return np.sum(depth, axis=1), sigma > 0.0, 0, trans, trans * depth


def assert_window_matches_dense(sigma, dt, width):
    """The window's outputs are the dense ones over [c0, c1); returns (c0, weight)."""
    want_tau, want_live, _, want_trans, want_weight = dense_march_weights(sigma, dt, width)
    tau, live, c0, trans, weight = transport._march_weights(sigma.copy(), dt, width)
    c1 = c0 + weight.shape[1]
    assert 0 <= c0 and c1 <= sigma.shape[1] and c1 - c0 >= min(width, sigma.shape[1])
    assert tau.tobytes() == want_tau.tobytes()
    assert np.array_equal(live, want_live[:, c0:c1])
    assert not want_live[:, :c0].any() and not want_live[:, c1:].any()
    assert trans.tobytes() == want_trans[:, c0:c1].tobytes()
    assert weight.tobytes() == want_weight[:, c0:c1].tobytes()
    assert not want_weight[:, :c0].any() and not want_weight[:, c1:].any()
    return c0, weight


def window_case(name, rays=6, steps=24):
    """(sigma, dt) of one edge case of the live window."""
    sigma = np.zeros((rays, steps))
    dt = 0.25
    if name == "first_columns":
        sigma[[0, 3], 0] = [2.0, 0.5]
        sigma[4, 1] = 1.0
    elif name == "last_columns":
        sigma[[1, 4], steps - 1] = [2.0, 0.5]
        sigma[2, steps - 2] = 1.0
    elif name == "few_positive_weights":
        sigma[0, 9] = 3.0
        sigma[1, [9, 15]] = [0.2, 0.7]
        sigma[2, 12:15] = 1.5
    elif name == "all_zero_weights":
        # 5e-324 * 0.25 rounds to a zero depth: sigma > 0 on row 2, yet all
        # its weights are 0, and the dense argmax is step 0.
        sigma[0, 10:14] = 1.0
        sigma[2, 12:16] = 5e-324
    elif name == "ties":
        # exp(-(cumsum - depth)) rounds to 1.0, so every weight is equal.
        sigma[:, 5:15] = 1e-30
        sigma[3, 8] = 2e-30
    return sigma, dt


def centered_t(sigma, dt):
    """Sample distances that put the live steps about 3 from the ray origin,
    where rays from 3 away toward the origin cross MIXED."""
    live = np.flatnonzero(np.any(sigma > 0.0, axis=0))
    return 3.0 + (np.arange(sigma.shape[1]) - (live.mean() if live.size else 0.0)) * dt


WINDOW_CASES = ["no_live_column", "first_columns", "last_columns", "few_positive_weights",
                "all_zero_weights", "ties"]


@pytest.mark.parametrize("width", [1, 4, 30])
@pytest.mark.parametrize("name", WINDOW_CASES)
def test_window_equals_dense_weights(name, width):
    sigma, dt = window_case(name)
    c0, weight = assert_window_matches_dense(sigma, dt, width)
    steps = sigma.shape[1]
    if name == "no_live_column":
        assert c0 == 0 and weight.shape[1] == min(width, steps)
    if name == "first_columns" and width == 4:
        assert c0 == 0 and weight.shape[1] == 4
    if name == "last_columns" and width == 4:
        assert c0 == steps - 4 and weight.shape[1] == 4
    if name == "all_zero_weights":
        assert not weight[2].any() and np.any(sigma[2] > 0.0)
    # Each ray's top weights on the window are the dense ones. Their steps
    # can differ only where equal positive weights tie at the cut:
    # argpartition's pick among them depends on the array it is given.
    want = dense_march_weights(sigma, dt, width)[4]
    m = min(width, steps)
    got = np.sort(np.partition(weight, weight.shape[1] - m, axis=1)[:, -m:], axis=1)
    assert got.tobytes() == np.sort(np.partition(want, steps - m, axis=1)[:, -m:],
                                     axis=1).tobytes()


@st.composite
def sigma_rows(draw):
    rays, steps = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    lo = draw(st.integers(0, steps - 1))
    hi = draw(st.integers(lo, steps))
    values = st.sampled_from([0.0, 5e-324, 1e-300, 1e-30, 0.3, 2.0, 7.5, 1e300, np.inf])
    sigma = np.zeros((rays, steps))
    sigma[:, lo:hi] = np.array(draw(st.lists(values, min_size=rays * (hi - lo),
                                             max_size=rays * (hi - lo)))).reshape(rays, -1)
    return sigma


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sigma=sigma_rows(), dt=st.sampled_from([1e-3, 0.25, 1.0, 40.0]),
       width=st.integers(1, 8))
def test_window_equals_dense_weights_on_any_row(sigma, dt, width):
    with np.errstate(invalid="ignore", over="ignore"):
        assert_window_matches_dense(sigma, dt, width)


@pytest.mark.parametrize("name", WINDOW_CASES)
def test_probe_steps_equal_dense_argmax(name, monkeypatch):
    sigma, dt = window_case(name)
    rng = np.random.default_rng(20)
    origins = rng.uniform(-0.5, 0.5, size=(sigma.shape[0], 3)) + [0.0, -3.0, 0.0]
    dirs = unit(rng.normal(scale=0.1, size=(sigma.shape[0], 3)) + [0.0, 1.0, 0.0])
    t = centered_t(sigma, dt)
    monkeypatch.setattr(transport, "primary_march", lambda *_: (sigma.copy(), t, dt))
    steps = []
    points = transport.primary_points

    def spy(o, d, t, ray, step):
        steps.append((ray, step))
        return points(o, d, t, ray, step)

    monkeypatch.setattr(transport, "primary_points", spy)
    outputs = []
    for weights in (transport._march_weights, dense_march_weights):
        monkeypatch.setattr(transport, "_march_weights", weights)
        outputs.append(transport._probe(MIXED, origins, dirs))
    (ray, step), (want_ray, want_step) = steps
    assert np.array_equal(ray, want_ray) and np.array_equal(step, want_step)
    for got, want in zip(*outputs):
        assert got.tobytes() == want.tobytes()
    if name == "all_zero_weights":
        assert step[list(ray).index(2)] == 0
    if name == "ties":
        assert np.array_equal(step, np.where(ray == 3, 3, 0) + 5)


@pytest.mark.parametrize("mode", render.MODES)
@pytest.mark.parametrize("name", [n for n in WINDOW_CASES if n != "ties"])
def test_trace_equals_dense_weights_on_edge_cases(name, mode, monkeypatch):
    # Every case but ties, where argpartition may pick another of the
    # tied anchors (test_window_equals_dense_weights checks their weights).
    sigma, dt = window_case(name)
    camera = render.Camera(position=[0.0, -3.0, 0.6], look_at=[0.0, 0.0, 0.0], width=3,
                           height=2)
    origins, dirs = camera.rays(0, 6)
    t = centered_t(sigma, dt)
    monkeypatch.setattr(transport, "primary_march", lambda *_: (sigma.copy(), t, dt))
    outputs = []
    for weights in (transport._march_weights, dense_march_weights):
        monkeypatch.setattr(transport, "_march_weights", weights)
        rgb, alpha = render._trace_batch(MIXED, lobe_sh_light(), origins, dirs, mode, (8, 16),
                                         render.ANCHORS_PER_RAY, None)
        outputs.append((rgb.tobytes(), alpha.tobytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_render_equals_dense_march_weights(light_and_cache, cached, threads, tmp_path,
                                           monkeypatch):
    assert_render_equals_reference(light_and_cache, cached, threads, tmp_path, monkeypatch,
                                   "_march_weights", dense_march_weights)


def reference_normals(scene, pts):
    """field.normals with one density call per tap, x + offset and x - offset."""
    flat = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    h = scene.fd_step
    grad = np.empty_like(flat)
    offset = np.zeros_like(flat)
    for axis in range(3):
        offset[...] = 0.0
        offset[:, axis] = h
        grad[:, axis] = (field.density(scene, flat + offset)
                         - field.density(scene, flat - offset)) / (2.0 * h)
    mag = np.linalg.norm(grad, axis=-1)
    valid = mag >= field.EPS_GRAD
    n = -grad / np.where(valid, mag, 1.0)[:, None]
    n[~valid] = 0.0
    return n, valid


def test_stacked_normal_taps_equal_one_call_per_tap():
    # Over several blocks of the stacked call, signed zeros among the points.
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.5, 1.5, size=(5000, 3))
    pts[::7, 0], pts[1::7, 1], pts[2::7, 2] = -0.0, 0.0, -0.0
    got, want = field.normals(MIXED, pts), reference_normals(MIXED, pts)
    assert np.count_nonzero(want[1]) > 1000
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


# ------------------------------------------------------ surface sampler

def one_ray_sampler(scene, count, seed=0, max_tries=None):
    """The sampler as a loop of tries: one dense probe march per try, then
    one normals and one material call on the dominant sample, kept when
    its normal faces the probe's origin."""
    rng = np.random.default_rng(seed)
    if max_tries is None:
        max_tries = 40 * count
    steps = scene.march.primary_steps
    t0, t1 = scene.march.t_near, scene.march.t_far
    dt = (t1 - t0) / steps
    t = t0 + (np.arange(steps) + 0.5) * dt
    found = []
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        u = rng.normal(size=3)
        n = np.linalg.norm(u)
        if n < 1e-12:
            continue
        origin = scene.bounds.center + scene.bounds.radius * (u / n)
        target = scene.bounds.center + rng.uniform(-0.3, 0.3, size=3) * scene.bounds.radius
        d = target - origin
        dn = np.linalg.norm(d)
        if dn < 1e-12:
            continue
        d = d / dn
        pts = origin[None, :] + t[:, None] * d[None, :]
        sigma = field.density(scene, pts)
        if not np.any(sigma > 0.0):
            continue
        tau = np.concatenate([[0.0], np.cumsum(sigma * dt)])[:-1]
        x = pts[int(np.argmax(np.exp(-tau) * sigma * dt))]
        nrm, valid = field.normals(scene, x[None, :])
        facing = nrm[0, 0] * d[0] + nrm[0, 1] * d[1] + nrm[0, 2] * d[2] < 0.0
        if not (valid[0] and facing):
            continue
        albedo, _ = field.material(scene, x)
        found.append((x, nrm[0], albedo, -d))
    return found


@pytest.mark.parametrize("count, kwargs", [
    (300, {}),                      # spans two blocks
    (400, {"max_tries": 300}),      # tries run out inside the second block
    (9, {"steps": 50, "seed": 3}),  # stops mid-block once count is reached
    (5, {"max_tries": 1}),
], ids=["two_blocks", "max_tries_mid_block", "count_mid_block", "one_try"])
def test_batched_sampler_equals_one_ray_loop(blocker_scene, count, kwargs):
    # A "steps" entry sets the scene's primary march steps.
    kwargs = dict(kwargs)
    scene = field.with_steps(blocker_scene, primary_steps=kwargs.pop("steps", None))
    want = one_ray_sampler(scene, count, **kwargs)
    if not want:
        with pytest.raises(ValueError, match="no valid surface points"):
            transport.sample_surface_points(scene, count, **kwargs)
        return
    out = transport.sample_surface_points(scene, count, **kwargs)
    assert all(len(a) == len(want) <= count for a in out)
    for i, ref in enumerate(want):
        assert out[1][i].any()
        for got, r in zip((a[i] for a in out), ref):
            assert got.shape == r.shape and got.tobytes() == r.tobytes()


def test_batched_sampler_on_a_mostly_missed_scene():
    scene = make_scene(dict(SPHERE, center=[0.9, 0.0, 0.0], radius=0.08, softness=0.06,
                            density_scale=30.0), radius=4.0, march={"primary_steps": 96})
    want = one_ray_sampler(scene, 20)
    positions = transport.sample_surface_points(scene, 20)[0]
    assert 0 < len(want) < 20
    assert [x.tobytes() for x in positions] == [w[0].tobytes() for w in want]

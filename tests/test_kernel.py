"""The packed density kernel and the skipping march against references.

The references are written out here: the per-primitive density formulas
that evaluated each primitive on (..., 3) points, and the dense
transmittance march that evaluated every sample. The kernel and the
skipping march must reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prtvol import field, transport

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


def dense_transmittance(scene, origins, dirs, steps, offset):
    """Every midpoint sample through field.density, summed step by step."""
    dtype = origins.dtype.type
    t_enter, t_exit = transport._exit_distance(scene, origins, dirs)
    t0 = np.maximum(t_enter, dtype(offset))
    dt = np.maximum(t_exit - t0, 0.0) / dtype(steps)
    tau = np.zeros(origins.shape[0], dtype=origins.dtype)
    for k in range(steps):
        t = t0 + (dtype(k) + dtype(0.5)) * dt
        tau += field.density(scene, origins + t[:, None] * dirs)
    return np.exp(-tau * dt)


# --------------------------------------------------------------- scenes

SPHERE = {"type": "sphere", "center": [0.3, -0.2, 0.4], "radius": 0.9,
          "density_scale": 6.0, "softness": 0.3, "albedo": [0.9, 0.1, 0.2], "tint": 0.3}
BOX = {"type": "box", "center": [-0.6, 0.5, 0.1], "extent": [1.1, 0.7, 1.4],
       "density_scale": 4.0, "softness": 0.25, "albedo": [0.1, 0.8, 0.3]}
SLAB = {"type": "slab", "axis": [0.0, 0.0, 1.0], "offset": -0.4, "thickness": 0.5,
        "density_scale": 3.0, "softness": 0.2, "albedo": [0.2, 0.3, 0.9], "tint": 0.1}
TILTED = dict(SLAB, axis=[0.3, -0.5, 0.8], offset=0.2)


def make_scene(*prims, radius=2.5):
    return field.scene_from_dict({
        "bounds": {"center": [0.1, 0.0, -0.1], "radius": radius},
        "march": {"secondary_steps": 24},
        "primitives": [dict(p) for p in prims]})


MIXED = make_scene(SPHERE, BOX, SLAB, dict(SPHERE, center=[-0.4, 0.1, -0.3], radius=0.5))


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


# ------------------------------------------------------- skipping march

def assert_march_matches_dense(scene, origins, dirs, dtype, steps=24, offset=0.05, chunk=7):
    o = np.asarray(origins, dtype=dtype)
    d = np.asarray(dirs, dtype=dtype)
    got = transport.transmittance(scene, o, d, steps=steps, offset=offset, chunk=chunk)
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
            got = transport.transmittance(MIXED, o, d, steps=6)
            want = dense_transmittance(MIXED, o, d, 6, 0.0)
        np.testing.assert_array_equal(got, want)

    def test_no_primitives(self, dtype):
        rng = np.random.default_rng(9)
        origins = rng.uniform(-1.0, 1.0, size=(12, 3))
        got = transport.transmittance(make_scene(), origins.astype(dtype),
                                      unit(rng.normal(size=(12, 3))).astype(dtype), steps=8)
        assert np.all(got == 1.0)
        assert_march_matches_dense(make_scene(), origins, unit(rng.normal(size=(12, 3))), dtype)


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
    # nonzero density; the padded interval must still contain them.
    scene = make_scene(prim, radius=6.0)
    rng = np.random.default_rng(11)
    o = rng.uniform(-3.0, 3.0, size=(4000, 3))
    d = unit(rng.normal(size=(4000, 3)))
    with np.errstate(invalid="ignore", divide="ignore"):
        t_edge = exact_support_entry(prim, o, d)
    keep = np.isfinite(t_edge) & (t_edge > 0.1) & (t_edge < 5.0)
    o, d, t_edge = o[keep].astype(dtype), d[keep].astype(dtype), t_edge[keep]
    lo, hi = field.support_interval(scene, o, d, np.full(len(o), 6.0, dtype=dtype))
    nonzero = 0
    for j in range(-40, 41):
        t = (t_edge * (1.0 + j * 2e-8)).astype(dtype)
        sigma = field.density(scene, o + t[:, None] * d)
        nonzero += np.count_nonzero(sigma)
        assert not np.any((sigma > 0.0) & ((t < lo) | (t > hi)))
    assert nonzero > 1000


def test_support_interval_brackets_every_nonzero_sample():
    rng = np.random.default_rng(10)
    origins = rng.uniform(-2.0, 2.0, size=(200, 3))
    dirs = unit(rng.normal(size=(200, 3)))
    t = np.linspace(0.0, 5.0, 801)
    lo, hi = field.support_interval(MIXED, origins, dirs, np.full(200, 5.0))
    sigma = field.density(MIXED, origins[:, None, :] + t[None, :, None] * dirs[:, None, :])
    outside = (t[None, :] < lo[:, None]) | (t[None, :] > hi[:, None])
    assert np.all(sigma[outside] == 0.0)
    assert np.count_nonzero(outside) > 0.5 * outside.size
    assert np.count_nonzero(sigma) > 0

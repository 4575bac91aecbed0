import functools
import json
import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtvol import field, sh, transport
from conftest import blocker_scene_dict, field_surface_point, random_unit_dirs

EXAMPLE_SCENE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "example_scene.json"


def half_space_scene(gap=0.5, sigma=50.0):
    """Dense slab filling x > gap inside the bounds, a one-sided blocker."""
    return field.scene_from_dict(
        {
            "bounds": {"center": [0.0, 0.0, 0.0], "radius": 6.0},
            "march": {"primary_steps": 128, "secondary_steps": 128,
                      "t_near": 0.0, "t_far": 12.0},
            "primitives": [
                {
                    "type": "slab", "axis": [1.0, 0.0, 0.0], "offset": gap + 25.0,
                    "thickness": 50.0, "density_scale": sigma, "softness": 0.04,
                    "albedo": [0.5, 0.5, 0.5], "tint": 0.0,
                }
            ],
        }
    )


class TestCosineTerm:
    """The clamped cosine inside visibility_map, in the empty scene where V = 1."""

    def cosine(self, scene, dirs):
        return transport.visibility_map(scene, [[0.3, -0.2, 0.1]], [[0.0, 0.0, 1.0]],
                                        np.atleast_2d(dirs))[0]

    def test_aligned(self, empty_scene):
        assert self.cosine(empty_scene, [0.0, 0.0, 1.0])[0] == 1.0

    def test_back_hemisphere_clamps(self, empty_scene):
        dirs = random_unit_dirs(100, seed=2)
        dirs[:, 2] = -np.abs(dirs[:, 2]) - 0.01
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.all(self.cosine(empty_scene, dirs) == 0.0)

    def test_sixty_degrees(self, empty_scene):
        d = np.array([math.sin(math.radians(60.0)), 0.0, math.cos(math.radians(60.0))])
        assert abs(self.cosine(empty_scene, d)[0] - 0.5) < 1e-12


class TestVisibility:
    def test_empty_scene_is_one(self, empty_scene):
        dirs = random_unit_dirs(20, seed=5)
        v = transport.transmittance(empty_scene, np.tile([0.3, -0.2, 0.1], (20, 1)), dirs,
                                    offset=2.0 * empty_scene.fd_step)
        assert np.all(v == 1.0)

    def test_slab_crossing_attenuates_to_quarter(self, slab_scene):
        v = transport.transmittance(field.with_steps(slab_scene, secondary_steps=256),
                                    np.array([[0.0, 0.0, 2.0]]), np.array([[0.0, 0.0, -1.0]]),
                                    offset=2.0 * slab_scene.fd_step)
        assert abs(v[0] - 0.25) < 1e-3

    def test_slab_oblique_crossing(self, slab_scene):
        # At incidence angle theta the path length grows by 1/cos(theta).
        c = math.cos(math.radians(40.0))
        d = np.array([math.sin(math.radians(40.0)), 0.0, -c])
        v = transport.transmittance(field.with_steps(slab_scene, secondary_steps=512),
                                    np.array([[0.0, 0.0, 2.0]]), d[None, :],
                                    offset=2.0 * slab_scene.fd_step)
        want = 0.25 ** (1.0 / c)
        assert abs(v[0] - want) < 1e-3

    def test_single_direction_returns_float(self, empty_scene):
        v = transport.transmittance(empty_scene, np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]))
        assert v.shape == (1,) and v.dtype == np.float64
        assert isinstance(v.item(), float)

    def test_monotone_under_added_density(self, sphere_scene, blocker_scene):
        # blocker_scene is sphere_scene plus one more primitive, so V can
        # only drop, for any point and direction.
        # Offset and step count are pinned so both scenes march the same
        # sample positions and only the density differs.
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.5, 1.5, size=(40, 3))
        dirs = random_unit_dirs(40, seed=13)
        va = transport.transmittance(field.with_steps(sphere_scene, secondary_steps=64),
                                     pts, dirs, offset=0.05)
        vb = transport.transmittance(field.with_steps(blocker_scene, secondary_steps=64),
                                     pts, dirs, offset=0.05)
        assert np.all(vb <= va + 1e-12)

    def test_range(self, blocker_scene):
        dirs = random_unit_dirs(200, seed=3)
        v = transport.transmittance(blocker_scene, np.tile([0.0, 0.0, 1.05], (200, 1)), dirs,
                                    offset=2.0 * blocker_scene.fd_step)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)


class TestBakeTransfer:
    def test_unoccluded_point_matches_clamped_cosine(self, empty_scene):
        t = transport.bake_transfer_batch(empty_scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])[0]
        assert t.shape == (25,)
        assert abs(t[0] - 0.8862269254527580) < 2e-3
        # Finer grids tighten toward the analytic zonal values.
        t_fine = transport.bake_transfer_batch(
            empty_scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], resolution=(128, 256)
        )[0]
        assert abs(t_fine[0] - 0.8862269254527580) < 2e-4
        assert abs(t_fine[2] - 1.0233267079464885) < 2e-4

    def test_bake_rotates_with_normal(self, empty_scene):
        # An unoccluded bake about +x must reproduce the same reconstruction
        # profile as about +z, just rotated.
        t = transport.bake_transfer_batch(empty_scene, [[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]],
                                          resolution=(128, 256))[0]
        at_pole = float(sh.reconstruct(t, np.array([1.0, 0.0, 0.0])))
        assert abs(at_pole - 0.96875) < 2e-3

    def test_enclosed_point_bakes_to_zero(self):
        scene = field.scene_from_dict(
            {
                "bounds": {"center": [0.0, 0.0, 0.0], "radius": 4.0},
                "primitives": [
                    {"type": "sphere", "center": [0.0, 0.0, 0.0], "radius": 2.0,
                     "density_scale": 10.0, "softness": 0.1},
                ],
            }
        )
        t = transport.bake_transfer_batch(scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])[0]
        assert np.linalg.norm(t) <= 1e-3

    def test_invalid_normal_row_bakes_to_zero(self, sphere_scene):
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        nrm = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        t = transport.bake_transfer_batch(sphere_scene, pos, nrm)
        assert np.linalg.norm(t[0]) > 0.1
        assert np.array_equal(t[1], np.zeros(25))

    def test_half_space_blocker_matches_mc_projection(self):
        # Dual route: the lat-long quadrature bake against a plain uniform
        # sphere Monte Carlo estimate of the same projection integral,
        # sharing only the visibility definition. 1e6 rays put the MC
        # standard error near 5e-4 per coefficient; the bake grid is made
        # fine enough that its own bias is far below that.
        scene = half_space_scene()  # 128 secondary steps
        pos = np.array([0.0, 0.0, 0.0])
        nrm = np.array([0.0, 0.0, 1.0])
        baked = transport.bake_transfer_batch(scene, [pos], [nrm], resolution=(128, 256))[0]
        rng = np.random.default_rng(99)
        n_mc = 1_000_000
        dirs = rng.normal(size=(n_mc, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        h = np.maximum(0.0, dirs @ nrm)
        vals = np.zeros(n_mc)
        front = h > 0.0
        vals[front] = transport.transmittance(
            scene, np.tile(pos, (int(front.sum()), 1)), dirs[front],
            offset=2.0 * scene.fd_step) * h[front]
        basis = sh.eval_basis(dirs, 4)
        integrand = vals[:, None] * basis  # (S, 25)
        mc = 4.0 * math.pi * np.mean(integrand, axis=0)
        stderr = 4.0 * math.pi * np.std(integrand, axis=0, ddof=1) / math.sqrt(n_mc)
        z = np.abs(baked - mc) / stderr
        assert np.max(z) < 3.0

    def test_truncation_error_non_increasing_in_degree(self, blocker_scene):
        # The degree-d transfer is the leading slice of the degree-4 bake,
        # so the quadrature L2 against the ray-traced map can only shrink
        # as bands are added.
        pos, nrm, _, _ = transport.sample_surface_points(blocker_scene, 6, seed=41)
        for x, n in zip(pos, nrm):
            t = transport.bake_transfer_batch(blocker_scene, [x], [n])[0]
            dirs, weights, basis = sh.basis_grid(4, *transport.BAKE_GRID)
            vals = transport.visibility_map(blocker_scene, [x], [n], dirs)[0]
            errs = []
            for degree in (2, 3, 4):
                n = sh.num_coeffs(degree)
                rec = basis[:, :n] @ t[:n]
                errs.append(float(np.sum(weights * (rec - vals) ** 2)))
            assert errs[0] >= errs[1] - 1e-12
            assert errs[1] >= errs[2] - 1e-12

    def test_reconstruct_integral_equals_dc(self, blocker_scene):
        # Integrating the reconstruction over the sphere leaves only the
        # DC term, sqrt(4 pi) * t_0, and transfers of real scenes keep it
        # non-negative.
        # The quadrature grid leaves an O(dtheta^2) leak into the even
        # zonal terms, so the match is to the grid's accuracy, not exact.
        pos, nrm, _, _ = transport.sample_surface_points(blocker_scene, 4, seed=55)
        dirs, weights, _ = sh.basis_grid(0, 128, 256)
        for x, n in zip(pos, nrm):
            t = transport.bake_transfer_batch(blocker_scene, [x], [n])[0]
            integral = float(np.sum(weights * sh.reconstruct(t, dirs)))
            assert abs(integral - math.sqrt(4.0 * math.pi) * t[0]) < 5e-4
            assert t[0] >= 0.0


class TestNrtRays:
    def test_contains_view_and_opposite_exactly(self):
        view = sh.normalize(np.array([0.3, -0.4, 0.85]))
        rays = transport.nrt_rays([0.0, 0.0, 1.0], view, seed=3)
        assert rays.shape == (10, 3)
        assert np.array_equal(rays[0], view)
        assert np.array_equal(rays[1], -view)

    def test_auxiliaries_in_negative_hemisphere(self):
        normal = sh.normalize(np.array([0.2, 0.7, 0.4]))
        for seed in range(5):
            rays = transport.nrt_rays(normal, [0.0, 0.0, 1.0], seed=seed)
            aux = rays[2:]
            assert aux.shape == (8, 3)
            assert np.all(aux @ normal < 0.0)
            assert np.allclose(np.linalg.norm(aux, axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = transport.nrt_rays([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], seed=7)
        b = transport.nrt_rays([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], seed=7)
        c = transport.nrt_rays([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_cardinality_is_ten(self):
        for seed in range(20):
            rays = transport.nrt_rays([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], seed=seed)
            assert rays.shape == (10, 3)


class TestNrtResidual:
    def test_negative_hemisphere_reference_is_zero(self, sphere_scene):
        # Reference V*H vanishes behind the surface, so the residual is
        # exactly the squared reconstruction there.
        x, n, _ = field_surface_point(sphere_scene, [1.0, 0.0, 0.0])
        t = transport.bake_transfer_batch(sphere_scene, [x], [n])[0]
        back_dir = sh.normalize(np.array([-1.0, 0.1, 0.0]))
        assert float(np.dot(n, back_dir)) < 0.0
        vh = transport.visibility_map(sphere_scene, [x], [n], [back_dir])[0]
        r = transport.nrt_residuals(t, [back_dir], vh)
        rec = float(sh.reconstruct(t, back_dir))
        assert r[0] == rec ** 2

    def test_band_limited_transfer_zero_residual(self, empty_scene):
        # In empty space V = 1 exactly and the reference on the front
        # hemisphere is the plain cosine, a pure band-1 function. A
        # transfer holding that band-1 projection reproduces it exactly,
        # so the residual is zero to rounding.
        n = np.array([0.0, 0.0, 1.0])
        t = np.zeros(25)
        t[2] = math.sqrt(4.0 * math.pi / 3.0)
        dirs = random_unit_dirs(50, seed=17)
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.05
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vh = transport.visibility_map(empty_scene, [np.zeros(3)], [n], dirs)[0]
        assert np.all(transport.nrt_residuals(t, dirs, vh) < 1e-10)

    def test_zero_transfer_back_hemisphere_residual_zero(self, empty_scene):
        d = sh.normalize(np.array([0.3, 0.3, -0.9]))
        vh = transport.visibility_map(empty_scene, [np.zeros(3)], [[0.0, 0.0, 1.0]], [d])[0]
        r = transport.nrt_residuals(np.zeros(25), [d], vh)
        assert r[0] == 0.0

    def test_residual_matches_direct_formula(self, blocker_scene):
        # Independent recomputation of the same quantity from the public
        # pieces: reconstruction, visibility, clamped cosine.
        x, n, _ = field_surface_point(blocker_scene, [0.0, 1.0, 0.0])
        t = transport.bake_transfer_batch(blocker_scene, [x], [n])[0]
        dirs = random_unit_dirs(20, seed=23)
        vh = transport.visibility_map(blocker_scene, [x], [n], dirs)[0]
        got_all = transport.nrt_residuals(t, dirs, vh)
        for d, got in zip(dirs, got_all):
            h = max(0.0, float(n @ d))
            v = transport.transmittance(blocker_scene, x[None, :], d[None, :],
                                        offset=2.0 * blocker_scene.fd_step)[0]
            ref = v * h if h > 0 else 0.0
            want = (float(sh.reconstruct(t, d)) - ref) ** 2
            assert abs(got - want) < 1e-15

    def test_mean_residual_small_on_sphere(self, sphere_scene):
        # Smaller rehearsal of the 500-point bound checked in acceptance.
        pos, nrm, _, views = transport.sample_surface_points(sphere_scene, 40, seed=2)
        total = []
        for i, (x, n, view) in enumerate(zip(pos, nrm, views)):
            t = transport.bake_transfer_batch(sphere_scene, [x], [n])[0]
            rays = transport.nrt_rays(n, view, seed=i)
            vh = transport.visibility_map(sphere_scene, [x], [n], rays)[0]
            total.append(np.mean(transport.nrt_residuals(t, rays, vh)))
        assert float(np.mean(total)) < 0.05


class TestSurfacePoints:
    def test_empty_ray_has_zero_density(self, sphere_scene):
        o, d = np.array([[0.0, -3.0, 2.5]]), np.array([[0.0, 1.0, 0.0]])
        sigma, t, dt = transport.primary_march(sphere_scene, o, d)
        assert t.shape == (192,) and sigma.shape == (1, 192)
        pts = transport.primary_points(o, d, t, np.zeros(192, dtype=int), np.arange(192))
        assert pts.tobytes() == (o + t[:, None] * d).tobytes()
        assert dt == (8.0 - 0.2) / 192
        assert np.array_equal(sigma, np.zeros((1, 192)))

    def test_hit_lands_on_shell(self, sphere_scene):
        pos, nrm, _, _ = transport.sample_surface_points(sphere_scene, 40, seed=3)
        for x, n in zip(pos, nrm):
            assert n.any()
            r = np.linalg.norm(x)
            assert 0.9 < r < 1.06
            assert float(np.dot(n, x / r)) > 0.8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_points_face_their_view(self, sphere_scene, seed):
        # A grazing probe can pass a soft shell's tangent point; its
        # dominant sample then has a normal facing away from the probe.
        # On the example scene this happened for 2, 6 and 6 of 500 points.
        example = field.load_scene(str(EXAMPLE_SCENE))
        for scene, count in ((example, 500), (sphere_scene, 40)):
            _, nrm, _, views = transport.sample_surface_points(scene, count, seed=seed)
            assert len(nrm) == count
            cos = np.array([float(n @ v) for n, v in zip(nrm, views)])
            assert np.all(cos > 0.0), cos.min()

    def test_sample_surface_points_contract(self, blocker_scene):
        out = transport.sample_surface_points(blocker_scene, 25, seed=11)
        assert len(out) == 4
        for a in out:
            assert a.shape == (25, 3) and a.dtype == np.float64
        _, nrm, _, views = out
        assert np.all(np.abs(np.linalg.norm(nrm, axis=1) - 1.0) < 1e-12)
        assert np.all(np.abs(np.linalg.norm(views, axis=1) - 1.0) < 1e-12)
        assert np.all(np.sum(nrm * views, axis=1) > 0.0)

    def test_sample_deterministic(self, sphere_scene):
        a = transport.sample_surface_points(sphere_scene, 10, seed=4)
        b = transport.sample_surface_points(sphere_scene, 10, seed=4)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)

    def test_empty_scene_raises(self, empty_scene):
        with pytest.raises(ValueError, match="no valid surface points"):
            transport.sample_surface_points(empty_scene, 5, seed=0, max_tries=50)


def brute_nearest(pos, query):
    """Lowest index of the least (q0-p0)^2 + (q1-p1)^2 + (q2-p2)^2 per query row."""
    return np.argmin(np.sum((query[:, None, :] - pos[None, :, :]) ** 2, axis=-1), axis=1)


def cache_of(pos):
    return transport.TransferCache(positions=pos, normals=np.zeros_like(pos),
                                   coeffs=np.zeros((pos.shape[0], 1)))


def surface_cloud(rng, n):
    """n points on a unit sphere, roughly like a surface cache."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestTransferCache:
    def _bake_samples(self, scene, count, seed):
        """(positions, normals, coeffs) of count sampled points, each baked alone."""
        positions, normals, _, _ = transport.sample_surface_points(scene, count, seed=seed)
        coeffs = np.array([transport.bake_transfer_batch(scene, [p], [n])[0]
                           for p, n in zip(positions, normals)])
        return positions, normals, coeffs

    def test_roundtrip(self, sphere_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 6, seed=31)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, *samples)
        cache = transport.load_transfer_cache(path, sphere_scene)
        assert cache.degree == 4
        assert cache.positions.shape == (6, 3)
        positions, _, coeffs = samples
        for i in range(6):
            assert np.array_equal(cache.positions[i], positions[i])
            assert np.array_equal(cache.coeffs[i], coeffs[i])

    @pytest.mark.parametrize("bad, value", [
        ("positions", np.zeros((2, 3))),
        ("normals", np.zeros((3, 2))),
        ("coeffs", np.zeros(25)),
        ("coeffs", np.zeros((3, 24))),  # not (degree + 1)^2 coefficients
    ], ids=["positions", "normals", "coeffs_1d", "coeffs_24"])
    def test_save_rejects_mismatched_arrays(self, sphere_scene, tmp_path, bad, value):
        arrays = {"positions": np.zeros((3, 3)), "normals": np.zeros((3, 3)),
                  "coeffs": np.zeros((3, 25)), bad: value}
        path = tmp_path / "cache.bin"
        with pytest.raises(ValueError, match=r"transfer cache needs|not \(degree\+1\)\^2"):
            transport.save_transfer_cache(str(path), sphere_scene, **arrays)
        assert not path.exists()

    def test_rejects_non_square_coefficient_width(self):
        with pytest.raises(ValueError, match=r"coefficient count 10 is not \(degree\+1\)\^2"):
            transport.TransferCache(positions=np.zeros((2, 3)), normals=np.zeros((2, 3)),
                                    coeffs=np.zeros((2, 10)))

    def test_nearest_lookup(self, sphere_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 6, seed=31)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, *samples)
        cache = transport.load_transfer_cache(path, sphere_scene)
        idx = cache.nearest(cache.positions[3][None, :] + 1e-6)
        assert idx[0] == 3

    def test_nearest_matches_brute_force(self):
        # A fixed-seed volume of points with duplicates and exact hits, at
        # the default cell edge and chunk size; the property test below
        # sweeps both.
        rng = np.random.default_rng(12)
        pos = rng.uniform(-1.0, 1.0, size=(300, 3))
        pos[[7, 150, 299]] = pos[40]  # duplicates: the lowest index wins
        query = rng.uniform(-1.2, 1.2, size=(1000, 3))
        query[:100] = pos[rng.integers(0, 300, 100)]  # exact hits
        query[100] = pos[150]
        brute = brute_nearest(pos, query)
        assert brute[100] == 7
        assert np.array_equal(pos[brute[:100]], query[:100])
        got = cache_of(pos).nearest(query)
        assert got.shape == (1000,) and np.array_equal(got, brute)

    @pytest.mark.parametrize("points", [500, 100_000])
    def test_nearest_peak_memory_is_bounded(self, points):
        # The largest temporaries hold NEAREST_CHUNK_ENTRIES (cell, point) or
        # (query, candidate) pairs, or one cell's pass over the cache once it
        # is larger, so the peak (2.8 MiB and 4.9 MiB here) stays far below
        # the 1.6 GB of all 2,000 x 100,000 distances.
        rng = np.random.default_rng(3)
        pos = surface_cloud(rng, points)
        query = surface_cloud(rng, 2000) * 1.01
        cache = cache_of(pos)
        tracemalloc.start()
        try:
            got = cache.nearest(query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        some = rng.choice(query.shape[0], 20, replace=False)
        assert np.array_equal(got[some], brute_nearest(pos, query[some]))

    @pytest.mark.parametrize("column", [1, 3, 9], ids=["position", "normal", "coeff"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_rejected(self, sphere_scene, tmp_path, column, bad):
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene,
                                      *self._bake_samples(sphere_scene, 3, seed=2))
        rows = np.fromfile(path, dtype="<f8").reshape(3, -1)
        rows[1, column] = bad
        rows.tofile(path)
        with pytest.raises(ValueError, match="transfer cache record 1 is not finite"):
            transport.load_transfer_cache(path, sphere_scene)

    def test_wrong_scene_rejected(self, sphere_scene, blocker_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 3, seed=2)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, *samples)
        with pytest.raises(ValueError, match="different scene"):
            transport.load_transfer_cache(path, blocker_scene)

    def test_missing_sidecar(self, sphere_scene, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(ValueError, match="sidecar missing"):
            transport.load_transfer_cache(str(path), sphere_scene)

    def test_truncated_payload(self, sphere_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 3, seed=2)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, *samples)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-8])
        with pytest.raises(ValueError, match="expected"):
            transport.load_transfer_cache(path, sphere_scene)

    @pytest.mark.parametrize("cut, extra", [(0, 3), (0, 8), (3, 0)],
                             ids=["trailing_3", "trailing_8", "missing_3"])
    def test_payload_size_must_match_sidecar(self, sphere_scene, tmp_path, cut, extra):
        # The file size is checked before any read, so bytes that do not
        # make up a whole float are not silently dropped.
        samples = self._bake_samples(sphere_scene, 3, seed=2)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, *samples)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:len(data) - cut] + b"\x00" * extra)
        with pytest.raises(ValueError, match=f"holds {len(data) - cut + extra} bytes, "
                                             f"expected {len(data)}"):
            transport.load_transfer_cache(path, sphere_scene)

    @pytest.mark.parametrize("change", [
        {"degree": None},                   # missing key
        {"count": None},
        {"scene_hash": None},
        {"degree": "4"},                    # non-integer or out of range
        {"degree": 4.0},
        {"degree": True},
        {"degree": -1},
        {"degree": 9},
        {"count": "3"},
        {"count": 3.5},
        {"count": 0},
        {"count": -3},
        {"scene_hash": 7},                  # wrong JSON type
    ], ids=lambda c: "-".join(f"{k}={v!r}" for k, v in c.items()))
    def test_malformed_sidecar_rejected(self, sphere_scene, tmp_path, change):
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene,
                                      *self._bake_samples(sphere_scene, 3, seed=2))
        with open(path + ".json") as f:
            sidecar = json.load(f)
        for key, value in change.items():
            if value is None:
                del sidecar[key]
            else:
                sidecar[key] = value
        with open(path + ".json", "w") as f:
            json.dump(sidecar, f)
        with pytest.raises(ValueError, match="sidecar|transfer cache"):
            transport.load_transfer_cache(path, sphere_scene)

    @pytest.mark.parametrize("text", ["[4, 3]", "\"cache\"", "{not json"])
    def test_sidecar_must_be_a_json_object(self, sphere_scene, tmp_path, text):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"\x00" * 8)
        (tmp_path / "cache.bin.json").write_text(text)
        with pytest.raises(ValueError):
            transport.load_transfer_cache(str(path), sphere_scene)


@st.composite
def lookup_cases(draw):
    """Cache positions and queries for the exact nearest lookup.

    Clouds fill a volume, lie on a sphere or a plane, sit on an integer
    lattice (so half-integer queries are equidistant from several points,
    and cells of edge 0.5 or 1 put them on cell faces), are coplanar,
    all identical or a single point. Duplicates are copied to later
    indices. Queries mix near misses, exact hits, lattice half-points,
    points far outside the bounds and rows with a non-finite coordinate.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["volume", "sphere", "plane", "lattice", "coplanar",
                                 "identical", "one"]))
    n = 1 if kind == "one" else draw(st.integers(1, 120))
    if kind == "volume":
        pos = rng.uniform(-1.0, 1.0, (n, 3))
    elif kind == "sphere":
        pos = surface_cloud(rng, n) * rng.uniform(0.1, 3.0) + rng.uniform(-1.0, 1.0, 3)
    elif kind == "plane":
        u, v = rng.uniform(-1.0, 1.0, (2, n, 1))
        pos = u * rng.normal(size=3) + v * rng.normal(size=3) + rng.normal(scale=1e-3,
                                                                            size=(n, 3))
    elif kind == "lattice":
        pos = rng.integers(-3, 4, (n, 3)).astype(np.float64)
    elif kind == "coplanar":
        pos = rng.uniform(-1.0, 1.0, (n, 3))
        pos[:, draw(st.integers(0, 2))] = rng.uniform(-1.0, 1.0)
    else:
        pos = np.tile(rng.uniform(-1.0, 1.0, 3), (n, 1))
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = np.sort(rng.choice(n, 2, replace=False))
        pos[j] = pos[i]
    parts = [np.zeros((0, 3))]
    for part in draw(st.lists(st.sampled_from(["near", "hit", "half", "far", "non-finite"]),
                              max_size=5)):
        m = draw(st.integers(1, 40))
        if part == "near":
            q = pos[rng.integers(0, n, m)] + rng.normal(scale=10.0 ** rng.uniform(-6, 0),
                                                        size=(m, 3))
        elif part == "hit":
            q = pos[rng.integers(0, n, m)]
        elif part == "half":
            q = rng.integers(-8, 9, (m, 3)) / 2.0
        elif part == "far":
            q = rng.uniform(-1.0, 1.0, (m, 3)) * 10.0 ** rng.integers(1, 7, (m, 1))
        else:
            q = rng.uniform(-1.0, 1.0, (m, 3))
            q[rng.integers(0, m), rng.integers(0, 3)] = rng.choice([np.nan, np.inf, -np.inf])
        parts.append(q)
    query = np.vstack(parts)
    return pos, query[rng.permutation(query.shape[0])]


def grid_with_edge(edge):
    """A _query_grid stand-in with a fixed cell edge over the cache bounds."""
    def grid(positions):
        lo = positions.min(axis=0)
        return lo, edge, ((positions.max(axis=0) - lo) // edge).astype(np.intp) + 1
    return grid


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=lookup_cases(), edge=st.sampled_from([None, 0.125, 0.5, 1.0, 3.0]),
       entries=st.sampled_from([1, 2, 7, 64, 1 << 16]))
def test_nearest_equals_brute_force(case, edge, entries):
    # Any cell edge and any chunk size give the brute-force indices: the
    # lowest index among the points at the least computed squared distance,
    # and 0 for a row with a non-finite coordinate.
    pos, query = case
    with mock.patch.object(transport, "NEAREST_CHUNK_ENTRIES", entries):
        if edge is None:
            cache = cache_of(pos)
        else:
            with mock.patch.object(transport, "_query_grid", grid_with_edge(edge)):
                cache = cache_of(pos)
        got = cache.nearest(query)
    assert got.shape == (query.shape[0],) and got.dtype == np.intp
    assert np.array_equal(got, brute_nearest(pos, query))


class TestVisibilityMap:
    def test_unoccluded_map_is_clamped_cosine(self, empty_scene):
        dirs, weights, _ = sh.basis_grid(0, *transport.BAKE_GRID)
        vals = transport.visibility_map(empty_scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]],
                                        dirs)[0]
        h = np.maximum(0.0, dirs[:, 2])
        assert np.max(np.abs(vals - h)) < 1e-12
        dc = float(np.sum(weights * vals * 0.28209479177387814))
        assert abs(dc - 0.8862269254527580) < 2e-3

    def test_back_hemisphere_zero(self, sphere_scene):
        dirs, _, _ = sh.basis_grid(0, *transport.BAKE_GRID)
        vals = transport.visibility_map(sphere_scene, [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]],
                                        dirs)[0]
        back = dirs[:, 0] < 0.0
        assert np.all(vals[back] == 0.0)
        assert np.all(vals >= 0.0)

    def test_batched_rows_match_single_points(self, blocker_scene):
        # Each row of a batched map is the map of its point alone, bit for
        # bit, and a zero normal gives a zero row.
        pos, nrm, _, _ = transport.sample_surface_points(blocker_scene, 3, seed=5)
        pos = np.vstack([pos, np.zeros(3)])
        nrm = np.vstack([nrm, np.zeros(3)])
        dirs, _, _ = sh.basis_grid(0, 16, 32)
        vals = transport.visibility_map(blocker_scene, pos, nrm, dirs)
        for i in range(4):
            one = transport.visibility_map(blocker_scene, pos[i:i + 1], nrm[i:i + 1], dirs)
            assert np.array_equal(vals[i], one[0])
        assert np.array_equal(vals[3], np.zeros_like(vals[3]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_point_blocks_do_not_change_the_map(self, monkeypatch, dtype):
        # The bake is project_map(visibility_map(...)) of the points in one
        # pass, row for row, whatever the point blocks it marches.
        scene = BATCH_SCENES["example"]
        pos, nrm = several_blocks()
        grid = (8, 16)
        dirs, _, _ = sh.basis_grid(4, *grid)
        pos = pos.astype(dtype)
        whole = transport.visibility_map(scene, pos, nrm, dirs)
        want = transport.project_map(whole, degree=4, resolution=grid)
        for block in (1, 3, transport.MAP_POINTS):
            monkeypatch.setattr(transport, "MAP_POINTS", block)
            got = transport.bake_transfer_batch(scene, pos, nrm, resolution=grid)
            assert got.tobytes() == want.tobytes(), block

    def test_bake_batch_peak(self):
        # One bake thread's batch: 32 points of the example scene (the first
        # 32 of the benchmark's seed-0 bake), float64, on the 32x64 grid. Its
        # peak was 8.73 MiB before the secondary march took (point,
        # direction) pairs; it may not rise by more than 5%.
        scene = field.load_scene(str(EXAMPLE_SCENE))
        pos, nrm, _, _ = transport.sample_surface_points(scene, 32, seed=0)
        transport.bake_transfer_batch(scene, pos[:1], nrm[:1])  # builds the SH grid
        tracemalloc.start()
        try:
            transport.bake_transfer_batch(scene, pos, nrm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.73 * 1.05 * 2**20, peak / 2**20


# ------------------------------------------- batch-independent transfer

BATCH_SCENES = {"example": field.load_scene(str(EXAMPLE_SCENE)),
                "blocker": field.scene_from_dict(blocker_scene_dict())}
BATCH_GRID = (16, 32)
BATCH_POINTS = 9  # eight sampled points and one with a zero normal


@functools.lru_cache(maxsize=None)
def batch_points(name):
    pos, nrm, _, _ = transport.sample_surface_points(BATCH_SCENES[name], BATCH_POINTS - 1,
                                                     seed=0)
    return np.vstack([pos, [0.1, 0.2, 0.3]]), np.vstack([nrm, np.zeros(3)])


@functools.lru_cache(maxsize=None)
def rows_alone(name, dtype):
    """Each point's visibility-map row and transfer row, baked on its own."""
    scene = BATCH_SCENES[name]
    pos, nrm = batch_points(name)
    dirs, _, _ = sh.basis_grid(4, *BATCH_GRID)
    maps = [transport.visibility_map(scene, p[None, :], n[None, :], dirs)[0]
            for p, n in zip(pos.astype(dtype), nrm)]
    transfers = [transport.bake_transfer_batch(scene, p[None, :], n[None, :],
                                               resolution=BATCH_GRID)[0]
                 for p, n in zip(pos.astype(dtype), nrm)]
    return np.array(maps), np.array(transfers)


def at_offset(a, offset):
    """a copied into a buffer and viewed from element offset on."""
    buf = np.zeros(a.size + offset, dtype=a.dtype)
    buf[offset:] = a.ravel()
    return buf[offset:].reshape(a.shape)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BATCH_SCENES)),
       dtype=st.sampled_from([np.float32, np.float64]),
       order=st.permutations(range(BATCH_POINTS)).flatmap(
           lambda p: st.integers(1, BATCH_POINTS).map(lambda k: p[:k])),
       map_points=st.sampled_from([1, 3, transport.MAP_POINTS]),
       offset=st.integers(0, 3))
def test_point_rows_do_not_depend_on_the_batch(name, dtype, order, map_points, offset):
    # Any subset of the points, in any order, marched in any point block
    # and read from a buffer at any element offset, gives each point the
    # map row and transfer row it has alone, bit for bit.
    scene = BATCH_SCENES[name]
    pos, nrm = batch_points(name)
    maps, transfers = rows_alone(name, dtype)
    idx = list(order)
    p, n = at_offset(pos[idx].astype(dtype), offset), at_offset(nrm[idx], offset)
    dirs, _, _ = sh.basis_grid(4, *BATCH_GRID)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "MAP_POINTS", map_points)
        vals = transport.visibility_map(scene, p, n, dirs)
        t = transport.bake_transfer_batch(scene, p, n, resolution=BATCH_GRID)
    assert vals.tobytes() == maps[idx].tobytes()
    assert t.tobytes() == transfers[idx].tobytes()


def test_projection_reduces_each_row_on_its_own():
    # Pins the projection's reduction order: values over twelve decades
    # make any regrouping of a row's sum show, and a matrix product
    # regroups rows by batch size, offset and order.
    rng = np.random.default_rng(8)
    res = (32, 64)
    values = rng.standard_normal((40, res[0] * res[1])) * 10.0 ** rng.uniform(-6, 6, (40, 1))
    whole = transport.project_map(values, degree=4, resolution=res)
    for idx in ([0], [39], [5, 2, 31], list(range(39, -1, -1)), list(range(1, 40, 3))):
        for offset in (0, 1, 3):
            got = transport.project_map(at_offset(values[idx], offset), degree=4,
                                        resolution=res)
            assert got.tobytes() == whole[idx].tobytes()


@functools.lru_cache(maxsize=None)
def several_blocks():
    """MAP_POINTS + 5 example-scene points, the last with a zero normal."""
    pos, nrm, _, _ = transport.sample_surface_points(BATCH_SCENES["example"],
                                                     transport.MAP_POINTS + 4, seed=1)
    pos, nrm = np.vstack([pos, [0.1, 0.2, 0.3]]), np.vstack([nrm, np.zeros(3)])
    assert pos.shape[0] == transport.MAP_POINTS + 5
    return pos, nrm


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bake_of_several_point_blocks_matches_points_alone(monkeypatch, dtype):
    # A bake of more points than MAP_POINTS projects them block by block;
    # in blocks of MAP_POINTS, 1 or 3 points, each point's transfer row is
    # the row it has baked alone, bit for bit.
    scene = BATCH_SCENES["example"]
    pos, nrm = several_blocks()
    pos = pos.astype(dtype)
    grid = (8, 16)
    alone = np.array([transport.bake_transfer_batch(scene, p[None, :], n[None, :],
                                                    resolution=grid)[0]
                      for p, n in zip(pos, nrm)])
    for block in (transport.MAP_POINTS, 1, 3):
        monkeypatch.setattr(transport, "MAP_POINTS", block)
        got = transport.bake_transfer_batch(scene, pos, nrm, resolution=grid)
        assert got.tobytes() == alone.tobytes(), block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_map_of_more_than_map_points_matches_points_alone(dtype):
    # visibility_map marches all the points it is given in one pass, more
    # than MAP_POINTS of them here; each row is its point's map alone.
    scene = BATCH_SCENES["example"]
    pos, nrm = several_blocks()
    pos = pos.astype(dtype)
    dirs, _, _ = sh.basis_grid(0, 8, 16)
    vals = transport.visibility_map(scene, pos, nrm, dirs)
    alone = np.array([transport.visibility_map(scene, p[None, :], n[None, :], dirs)[0]
                      for p, n in zip(pos, nrm)])
    assert vals.tobytes() == alone.tobytes()
    assert not vals[-1].any()


@pytest.mark.parametrize("name", sorted(BATCH_SCENES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_map_of_concatenated_directions_matches_separate_maps(name, dtype):
    # validate marches a point's bake grid and its residual rays in one
    # visibility_map call. Over the concatenated direction table each
    # point's row is its separate maps side by side, bit for bit, whether
    # the points are marched together or one at a time; the last point
    # has a zero normal.
    scene = BATCH_SCENES[name]
    pos, nrm = batch_points(name)
    pos = pos.astype(dtype)
    grid, _, _ = sh.basis_grid(0, 8, 16)
    rays = random_unit_dirs(10, seed=31)
    apart = np.concatenate([transport.visibility_map(scene, pos, nrm, grid),
                            transport.visibility_map(scene, pos, nrm, rays)], axis=1)
    both = np.concatenate([grid, rays])
    assert transport.visibility_map(scene, pos, nrm, both).tobytes() == apart.tobytes()
    for p, n, want in zip(pos, nrm, apart):
        got = transport.visibility_map(scene, p[None, :], n[None, :], both)[0]
        assert got.tobytes() == want.tobytes()
    assert not apart[-1].any()


@pytest.mark.parametrize("name", sorted(BATCH_SCENES))
@pytest.mark.parametrize("form, dtype", [
    ("float32", np.float32), ("float64", np.float64), ("list", np.float64),
    ("integer", np.float64), ("float16", np.float64)],
    ids=["float32", "float64", "list", "integer", "float16"])
def test_positions_march_in_their_own_precision(empty_scene, name, form, dtype):
    # visibility_map and the bake take field.density's rule: float32
    # positions march in float32, any others in float64. Each map is the
    # transmittance of the positions in that dtype times the clamped
    # cosine (the map of the empty scene, where V is exactly 1), bit for
    # bit, and differs from the march in the other dtype.
    scene = BATCH_SCENES[name]
    pos, nrm = batch_points(name)
    given = {"float32": pos.astype(np.float32), "float64": pos, "list": pos.tolist(),
             "integer": np.round(2.0 * pos).astype(np.int64),
             "float16": pos.astype(np.float16)}[form]
    dirs, _, _ = sh.basis_grid(4, *BATCH_GRID)
    cos = transport.visibility_map(empty_scene, given, nrm, dirs)
    p, q = np.nonzero(cos > 0.0)
    marched = {}
    for march in (np.float32, np.float64):
        v = transport.transmittance(scene, np.asarray(given).astype(march), dirs, pairs=(p, q),
                                    offset=2.0 * scene.fd_step)
        marched[march] = np.zeros_like(cos)
        marched[march][p, q] = v.astype(np.float64) * cos[p, q]
    other = np.float64 if dtype is np.float32 else np.float32
    vals = transport.visibility_map(scene, given, nrm, dirs)
    assert vals.tobytes() == marched[dtype].tobytes()
    assert vals.tobytes() != marched[other].tobytes()
    baked = transport.bake_transfer_batch(scene, given, nrm, resolution=BATCH_GRID)
    want = transport.project_map(marched[dtype], degree=4, resolution=BATCH_GRID)
    assert baked.tobytes() == want.tobytes()


def reference_cosine(n, d):
    """n0*d0 + n1*d1 + n2*d2 of broadcast (..., 3) arrays, the row form of the dot product."""
    return n[..., 0] * d[..., 0] + n[..., 1] * d[..., 1] + n[..., 2] * d[..., 2]


def test_sum3_takes_the_reference_cosine_decisions():
    # _sum3 adds a leading 0.0, which can only turn a -0.0 result into
    # +0.0; neither < 0.0 nor > 0.0 sees that sign, so the facing test of
    # the probes and the front test of the map decide as the reference.
    special = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf, np.nan]
    triples = np.array(np.meshgrid(special, special, special)).reshape(3, -1).T
    n = np.repeat(triples, len(triples), axis=0)
    d = np.tile(triples, (len(triples), 1))
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((2, 20000, 3))
    rows[:, :10000] = np.round(rows[:, :10000])  # exact cancellations, signed zeros
    n, d = np.vstack([n, rows[0]]), np.vstack([d, rows[1]])
    with np.errstate(all="ignore"):
        want = reference_cosine(n, d)
        got = transport._sum3(np.ascontiguousarray(n.T), np.ascontiguousarray(d.T))
        # The map's form: (3, P, 1) normal columns against (3, 1, D) directions.
        grid = transport._sum3(triples.T[:, :, None], triples.T[:, None, :]).reshape(-1)
    assert np.array_equal(got < 0.0, want < 0.0) and np.array_equal(got > 0.0, want > 0.0)
    m = len(triples) ** 2
    assert np.array_equal(grid < 0.0, want[:m] < 0.0)
    assert np.array_equal(grid > 0.0, want[:m] > 0.0)

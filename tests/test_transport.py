import math

import numpy as np
import pytest

from prtvol import field, sh, transport
from conftest import (SLAB_SIGMA, SLAB_THICKNESS, random_unit_dirs,
                      sphere_scene_dict)


def make_surface_point(position, normal, albedo=(0.5, 0.5, 0.5)):
    n = None if normal is None else sh.normalize(np.asarray(normal, dtype=np.float64))
    return field.SurfacePoint(
        position=np.asarray(position, dtype=np.float64),
        normal=n,
        albedo=np.asarray(albedo, dtype=np.float64),
        tint=np.zeros(3),
        valid=n is not None,
    )


def residuals_toward(scene, sample, dirs):
    """nrt_residuals over an arbitrary list of directions."""
    rays = transport.RaySet(directions=np.asarray(dirs, dtype=np.float64), tags=(), seed=0)
    return transport.nrt_residuals(scene, sample, rays)


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
    def test_aligned(self):
        assert transport.cosine_term([0.0, 0.0, 1.0], np.array([0.0, 0.0, 1.0])) == 1.0

    def test_back_hemisphere_clamps(self):
        dirs = random_unit_dirs(100, seed=2)
        dirs[:, 2] = -np.abs(dirs[:, 2]) - 0.01
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        h = transport.cosine_term([0.0, 0.0, 1.0], dirs)
        assert np.all(h == 0.0)

    def test_sixty_degrees(self):
        d = np.array([math.sin(math.radians(60.0)), 0.0, math.cos(math.radians(60.0))])
        assert abs(transport.cosine_term([0.0, 0.0, 1.0], d) - 0.5) < 1e-12


class TestVisibility:
    def test_empty_scene_is_one(self, empty_scene):
        dirs = random_unit_dirs(20, seed=5)
        v = transport.visibility(empty_scene, [0.3, -0.2, 0.1], dirs)
        assert np.all(v == 1.0)

    def test_slab_crossing_attenuates_to_quarter(self, slab_scene):
        v = transport.visibility(
            slab_scene, [0.0, 0.0, 2.0], np.array([0.0, 0.0, -1.0]), steps=256
        )
        assert abs(v - 0.25) < 1e-3

    def test_slab_oblique_crossing(self, slab_scene):
        # At incidence angle theta the path length grows by 1/cos(theta).
        c = math.cos(math.radians(40.0))
        d = np.array([math.sin(math.radians(40.0)), 0.0, -c])
        v = transport.visibility(slab_scene, [0.0, 0.0, 2.0], d, steps=512)
        want = 0.25 ** (1.0 / c)
        assert abs(v - want) < 1e-3

    def test_single_direction_returns_float(self, empty_scene):
        v = transport.visibility(empty_scene, [0.0, 0.0, 0.0], np.array([1.0, 0.0, 0.0]))
        assert isinstance(v, float)

    def test_monotone_under_added_density(self, sphere_scene, blocker_scene):
        # blocker_scene is sphere_scene plus one more primitive, so V can
        # only drop, for any point and direction.
        # Offset and step count are pinned so both scenes march the same
        # sample positions and only the density differs.
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.5, 1.5, size=(40, 3))
        dirs = random_unit_dirs(40, seed=13)
        for p, d in zip(pts, dirs):
            va = transport.visibility(sphere_scene, p, d, steps=64, offset=0.05)
            vb = transport.visibility(blocker_scene, p, d, steps=64, offset=0.05)
            assert vb <= va + 1e-12

    def test_range(self, blocker_scene):
        dirs = random_unit_dirs(200, seed=3)
        v = transport.visibility(blocker_scene, [0.0, 0.0, 1.05], dirs)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)


class TestBakeTransfer:
    def test_unoccluded_point_matches_clamped_cosine(self, empty_scene):
        t = transport.bake_transfer(empty_scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert t.shape == (25,)
        assert abs(t[0] - 0.8862269254527580) < 2e-3
        # Finer grids tighten toward the analytic zonal values.
        t_fine = transport.bake_transfer(
            empty_scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], resolution=(128, 256)
        )
        assert abs(t_fine[0] - 0.8862269254527580) < 2e-4
        assert abs(t_fine[2] - 1.0233267079464885) < 2e-4

    def test_bake_rotates_with_normal(self, empty_scene):
        # An unoccluded bake about +x must reproduce the same reconstruction
        # profile as about +z, just rotated.
        t = transport.bake_transfer(empty_scene, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                    resolution=(128, 256))
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
        t = transport.bake_transfer(scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
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
        scene = half_space_scene()
        pos = np.array([0.0, 0.0, 0.0])
        nrm = np.array([0.0, 0.0, 1.0])
        steps = 128
        baked = transport.bake_transfer(scene, pos, nrm, resolution=(128, 256),
                                        steps=steps)
        rng = np.random.default_rng(99)
        n_mc = 1_000_000
        dirs = rng.normal(size=(n_mc, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        h = transport.cosine_term(nrm, dirs)
        vals = np.zeros(n_mc)
        front = h > 0.0
        vals[front] = transport.visibility(scene, pos, dirs[front], steps=steps) * h[front]
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
        pts, _ = transport.sample_surface_points(blocker_scene, 6, seed=41)
        for sp in pts:
            t = transport.bake_transfer(blocker_scene, sp.position, sp.normal)
            vals, dirs, weights = transport.visibility_map(blocker_scene, [sp.position],
                                                           [sp.normal])
            vals = vals[0]
            basis = sh.eval_basis(dirs, 4)
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
        pts, _ = transport.sample_surface_points(blocker_scene, 4, seed=55)
        dirs, weights, _ = sh.basis_grid(0, 128, 256)
        for sp in pts:
            t = transport.bake_transfer(blocker_scene, sp.position, sp.normal)
            integral = float(np.sum(weights * sh.reconstruct(t, dirs)))
            assert abs(integral - math.sqrt(4.0 * math.pi) * t[0]) < 5e-4
            assert t[0] >= 0.0


class TestNrtRays:
    def test_contains_view_and_opposite_exactly(self):
        view = sh.normalize(np.array([0.3, -0.4, 0.85]))
        rays = transport.nrt_rays([0.0, 0.0, 1.0], view, seed=3)
        assert rays.directions.shape == (10, 3)
        assert np.array_equal(rays.directions[0], view)
        assert np.array_equal(rays.directions[1], -view)
        assert rays.tags[:2] == ("primary+", "primary-")

    def test_auxiliaries_in_negative_hemisphere(self):
        normal = sh.normalize(np.array([0.2, 0.7, 0.4]))
        for seed in range(5):
            rays = transport.nrt_rays(normal, [0.0, 0.0, 1.0], seed=seed)
            aux = rays.directions[2:]
            assert aux.shape == (8, 3)
            assert np.all(aux @ normal < 0.0)
            assert np.allclose(np.linalg.norm(aux, axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = transport.nrt_rays([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], seed=7)
        b = transport.nrt_rays([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], seed=7)
        c = transport.nrt_rays([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], seed=8)
        assert np.array_equal(a.directions, b.directions)
        assert not np.array_equal(a.directions, c.directions)

    def test_cardinality_is_ten(self):
        for seed in range(20):
            rays = transport.nrt_rays([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], seed=seed)
            assert rays.directions.shape[0] == 10
            assert len(rays.tags) == 10


class TestNrtResidual:
    def test_negative_hemisphere_reference_is_zero(self, sphere_scene):
        # Reference V*H vanishes behind the surface, so the residual is
        # exactly the squared reconstruction there.
        sp = field.surface_point_at(sphere_scene, [1.0, 0.0, 0.0])
        t = transport.bake_transfer(sphere_scene, sp.position, sp.normal)
        sample = transport.TransferSample(point=sp, transfer=t)
        back_dir = sh.normalize(np.array([-1.0, 0.1, 0.0]))
        assert float(np.dot(sp.normal, back_dir)) < 0.0
        r = residuals_toward(sphere_scene, sample, [back_dir])
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
        sp = make_surface_point([0.0, 0.0, 0.0], n)
        sample = transport.TransferSample(point=sp, transfer=t)
        dirs = random_unit_dirs(50, seed=17)
        dirs[:, 2] = np.abs(dirs[:, 2]) + 0.05
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert np.all(residuals_toward(empty_scene, sample, dirs) < 1e-10)

    def test_zero_transfer_back_hemisphere_residual_zero(self, empty_scene):
        sp = make_surface_point([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        sample = transport.TransferSample(point=sp, transfer=np.zeros(25))
        d = sh.normalize(np.array([0.3, 0.3, -0.9]))
        assert residuals_toward(empty_scene, sample, [d])[0] == 0.0

    def test_residual_matches_direct_formula(self, blocker_scene):
        # Independent recomputation of the same quantity from the public
        # pieces: reconstruction, visibility, clamped cosine.
        sp = field.surface_point_at(blocker_scene, [0.0, 1.0, 0.0])
        t = transport.bake_transfer(blocker_scene, sp.position, sp.normal)
        sample = transport.TransferSample(point=sp, transfer=t)
        dirs = random_unit_dirs(20, seed=23)
        for d, got in zip(dirs, residuals_toward(blocker_scene, sample, dirs)):
            h = float(transport.cosine_term(sp.normal, d))
            ref = transport.visibility(blocker_scene, sp.position, d) * h if h > 0 else 0.0
            want = (float(sh.reconstruct(t, d)) - ref) ** 2
            assert abs(got - want) < 1e-15

    def test_mean_residual_small_on_sphere(self, sphere_scene):
        # Smaller rehearsal of the 500-point bound checked in acceptance.
        pts, views = transport.sample_surface_points(sphere_scene, 40, seed=2)
        total = []
        for i, (sp, view) in enumerate(zip(pts, views)):
            t = transport.bake_transfer(sphere_scene, sp.position, sp.normal)
            sample = transport.TransferSample(point=sp, transfer=t)
            rays = transport.nrt_rays(sp.normal, view, seed=i)
            total.append(np.mean(transport.nrt_residuals(sphere_scene, sample, rays)))
        assert float(np.mean(total)) < 0.05


class TestSurfacePoints:
    def test_empty_ray_returns_none(self, sphere_scene):
        sp = transport.surface_point_along(
            sphere_scene, np.array([0.0, -3.0, 2.5]), np.array([0.0, 1.0, 0.0])
        )
        assert sp is None

    def test_hit_lands_on_shell(self, sphere_scene):
        sp = transport.surface_point_along(
            sphere_scene, np.array([0.0, -3.0, 0.0]), np.array([0.0, 1.0, 0.0])
        )
        assert sp is not None and sp.valid
        r = np.linalg.norm(sp.position)
        assert 0.9 < r < 1.06
        assert float(np.dot(sp.normal, [0.0, -1.0, 0.0])) > 0.9

    def test_sample_surface_points_contract(self, blocker_scene):
        pts, views = transport.sample_surface_points(blocker_scene, 25, seed=11)
        assert len(pts) == 25 and len(views) == 25
        for sp, view in zip(pts, views):
            assert sp.valid
            assert abs(np.linalg.norm(view) - 1.0) < 1e-12

    def test_sample_deterministic(self, sphere_scene):
        a, _ = transport.sample_surface_points(sphere_scene, 10, seed=4)
        b, _ = transport.sample_surface_points(sphere_scene, 10, seed=4)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.position, sb.position)

    def test_empty_scene_raises(self, empty_scene):
        with pytest.raises(ValueError, match="no valid surface points"):
            transport.sample_surface_points(empty_scene, 5, seed=0, max_tries=50)


class TestTransferCache:
    def _bake_samples(self, scene, count, seed):
        pts, _ = transport.sample_surface_points(scene, count, seed=seed)
        samples = []
        for sp in pts:
            t = transport.bake_transfer(scene, sp.position, sp.normal)
            samples.append(transport.TransferSample(point=sp, transfer=t))
        return samples

    def test_roundtrip(self, sphere_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 6, seed=31)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, samples)
        cache = transport.load_transfer_cache(path, scene=sphere_scene)
        assert cache.degree == 4
        assert cache.positions.shape == (6, 3)
        for i, s in enumerate(samples):
            assert np.array_equal(cache.positions[i], s.point.position)
            assert np.array_equal(cache.coeffs[i], s.transfer)

    def test_nearest_lookup(self, sphere_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 6, seed=31)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, samples)
        cache = transport.load_transfer_cache(path)
        idx = cache.nearest(cache.positions[3][None, :] + 1e-6)
        assert idx[0] == 3

    def test_wrong_scene_rejected(self, sphere_scene, blocker_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 3, seed=2)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, samples)
        with pytest.raises(ValueError, match="different scene"):
            transport.load_transfer_cache(path, scene=blocker_scene)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(ValueError, match="sidecar missing"):
            transport.load_transfer_cache(str(path))

    def test_truncated_payload(self, sphere_scene, tmp_path):
        samples = self._bake_samples(sphere_scene, 3, seed=2)
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, sphere_scene, samples)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-8])
        with pytest.raises(ValueError, match="expected"):
            transport.load_transfer_cache(path)


class TestVisibilityMap:
    def test_unoccluded_map_is_clamped_cosine(self, empty_scene):
        vals, dirs, weights = transport.visibility_map(
            empty_scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]
        )
        vals = vals[0]
        h = np.maximum(0.0, dirs[:, 2])
        assert np.max(np.abs(vals - h)) < 1e-12
        dc = float(np.sum(weights * vals * 0.28209479177387814))
        assert abs(dc - 0.8862269254527580) < 2e-3

    def test_back_hemisphere_zero(self, sphere_scene):
        vals, dirs, _ = transport.visibility_map(
            sphere_scene, [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]
        )
        vals = vals[0]
        back = dirs[:, 0] < 0.0
        assert np.all(vals[back] == 0.0)
        assert np.all(vals >= 0.0)

    def test_batched_rows_match_single_points(self, blocker_scene):
        # Each row of a batched map is the map of its point alone, and a zero
        # normal gives a zero row. Only to rounding: BLAS may order the
        # cosine dot products differently for one row than for several.
        pts, _ = transport.sample_surface_points(blocker_scene, 3, seed=5)
        pos = np.array([sp.position for sp in pts] + [[0.0, 0.0, 0.0]])
        nrm = np.array([sp.normal for sp in pts] + [[0.0, 0.0, 0.0]])
        vals, _, _ = transport.visibility_map(blocker_scene, pos, nrm, resolution=(16, 32))
        for i in range(4):
            one, _, _ = transport.visibility_map(blocker_scene, pos[i:i + 1], nrm[i:i + 1],
                                                 resolution=(16, 32))
            assert np.max(np.abs(vals[i] - one[0])) < 1e-15
        assert np.array_equal(vals[3], np.zeros_like(vals[3]))

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from prtvol import cli, field, render, shading, transport
from conftest import SLAB_SIGMA, SLAB_THICKNESS, WALL_ALBEDO, constant_sh_light, lobe_sh_light

EXAMPLE_SCENE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "example_scene.json"


def wall_camera(width=16, height=16):
    return render.Camera(
        position=np.array([0.0, 0.0, 3.0]),
        look_at=np.array([0.0, 0.0, 0.0]),
        up=np.array([0.0, 1.0, 0.0]),
        fov_y_deg=40.0,
        width=width,
        height=height,
    )


def sphere_camera(width=12, height=12):
    return render.Camera(
        position=np.array([0.0, -2.8, 0.9]),
        look_at=np.array([0.0, 0.0, 0.0]),
        fov_y_deg=42.0,
        width=width,
        height=height,
    )


class TestCamera:
    def test_rays_are_unit_and_centered(self):
        cam = wall_camera(9, 9)
        origins, dirs = cam.rays(0, 81)
        assert origins.shape == dirs.shape == (81, 3)
        assert np.array_equal(origins, np.broadcast_to(cam.position, (81, 3)))
        assert np.max(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0)) < 1e-12
        center = dirs[4 * 9 + 4]
        want = np.array([0.0, 0.0, -1.0])
        assert np.allclose(center, want, atol=1e-9)

    def test_any_pixel_range_gives_the_same_bits(self):
        cam = sphere_camera(7, 5)
        _, whole = cam.rays(0, 35)
        for lo, hi in [(0, 1), (3, 17), (20, 35), (34, 35)]:
            origins, dirs = cam.rays(lo, hi)
            assert origins.shape == (hi - lo, 3) and not origins.flags.writeable
            assert dirs.tobytes() == whole[lo:hi].tobytes()

    def test_parallel_up_rejected(self):
        # On construction, before any ray is formed.
        with pytest.raises(ValueError, match="up vector is parallel to the view direction"):
            render.Camera(position=np.array([0.0, 0.0, 3.0]),
                          look_at=np.array([0.0, 0.0, 0.0]),
                          up=np.array([0.0, 0.0, 1.0]))

    def test_position_at_look_at_rejected(self):
        with pytest.raises(ValueError, match="camera look_at must differ from its position"):
            render.Camera(position=np.array([0.0, 0.0, 3.0]), look_at=np.array([0.0, 0.0, 3.0]))


def trace_one(scene, light, origin, direction, mode="lit"):
    """_trace_batch on a one-row batch; returns (rgb (3,), alpha)."""
    rgb, alpha = render._trace_batch(scene, light, np.asarray(origin, dtype=np.float64)[None, :],
                                     np.asarray(direction, dtype=np.float64)[None, :], mode,
                                     render.TRANSFER_GRID, render.ANCHORS_PER_RAY, None)
    return rgb[0], float(alpha[0])


class TestTrace:
    def test_empty_scene_black_and_transparent(self, empty_scene, white_light):
        rgb, alpha = trace_one(
            empty_scene, white_light, np.array([0.0, 0.0, 3.0]),
            np.array([0.0, 0.0, -1.0]))
        assert np.array_equal(rgb, np.zeros(3))
        assert alpha == 0.0

    def test_slab_alpha_matches_analytic(self, slab_scene):
        rgb, alpha = trace_one(
            field.with_steps(slab_scene, 256), None, np.array([0.0, 0.0, 2.0]),
            np.array([0.0, 0.0, -1.0]), mode="visibility")
        want = 1.0 - math.exp(-SLAB_SIGMA * SLAB_THICKNESS)
        assert abs(alpha - want) < 1e-3

    def test_alpha_telescopes_to_total_depth(self, blocker_scene):
        # Independent midpoint resample of the density along the ray.
        origin = np.array([0.3, -2.5, 0.6])
        direction = np.array([0.0, 1.0, 0.0])
        steps = 128
        _, alpha = trace_one(field.with_steps(blocker_scene, steps), None, origin, direction,
                             mode="albedo")
        t0, t1 = blocker_scene.march.t_near, blocker_scene.march.t_far
        dt = (t1 - t0) / steps
        t = t0 + (np.arange(steps) + 0.5) * dt
        tau = float(np.sum(field.density(blocker_scene, origin + t[:, None] * direction)) * dt)
        assert abs(alpha - (1.0 - math.exp(-tau))) < 1e-9

    def test_unknown_mode(self, empty_scene):
        with pytest.raises(ValueError, match="unknown render mode"):
            render.render_image(empty_scene, None, sphere_camera(2, 2), mode="depth")

    def test_lit_requires_light(self, sphere_scene):
        with pytest.raises(ValueError, match="requires an SH light"):
            render.render_image(sphere_scene, None, sphere_camera(2, 2), mode="lit")


class TestImages:
    def test_diffuse_plus_specular_equals_lit(self, shiny_sphere_scene, sky_light):
        cam = sphere_camera()
        scene = field.with_steps(shiny_sphere_scene, 96, 24)
        lit, lit_alpha = render.render_image(scene, sky_light, cam, "lit")
        dif, dif_alpha = render.render_image(scene, sky_light, cam, "diffuse")
        spc, _ = render.render_image(scene, sky_light, cam, "specular")
        assert np.max(np.abs(dif + spc - lit)) < 1e-9
        assert np.max(np.abs(dif_alpha - lit_alpha)) == 0.0

    def test_specular_anchor_normals_are_field_normals(self, shiny_sphere_scene, sky_light,
                                                       monkeypatch):
        # The specular term shades each anchor with the normal its transfer
        # was baked with: field.normals at the anchor position, bit for bit.
        # Material and cached transfer are looked up only where an anchor
        # is shaded.
        calls = {}

        def spy(module, name):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.setdefault(name, []).append(args)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)
            return real

        normals = spy(field, "normals")
        spy(field, "material")
        spy(shading, "specular_radiance")
        scene = field.with_steps(shiny_sphere_scene, 96, 24)
        render.render_image(scene, sky_light, sphere_camera(6, 6), "specular")
        # One ray chunk: one normals call, at the anchors with weight, and
        # one material call, at those of them that have a normal.
        assert len(calls["material"]) == len(calls["normals"]) == 1
        weighted = calls["normals"][0][1]
        want, valid = normals(shiny_sphere_scene, weighted)
        assert calls["material"][0][1].tobytes() == weighted[valid].tobytes()
        # The specular term gets every anchor slot; the shaded ones are the
        # weighted anchors with a normal, in order, with that normal.
        got = calls["specular_radiance"][0][1]
        shaded = np.any(got != 0.0, axis=1)
        assert got.shape[0] > weighted.shape[0] and np.count_nonzero(shaded) > 10
        assert got[shaded].tobytes() == want[valid].tobytes()

        # A cached render queries the cache at exactly those anchors.
        spy(transport.TransferCache, "nearest")
        pos = np.random.default_rng(2).normal(size=(40, 3))
        cache = transport.TransferCache(positions=pos, normals=np.zeros_like(pos),
                                        coeffs=np.ones((40, sky_light.coeffs.shape[0])))
        calls.clear()
        render.render_image(scene, sky_light, sphere_camera(6, 6), "specular", cache=cache)
        assert len(calls["nearest"]) == len(calls["normals"]) == 1
        weighted = calls["normals"][0][1]
        _, valid = normals(shiny_sphere_scene, weighted)
        assert 10 < np.count_nonzero(valid) < weighted.shape[0]
        assert calls["nearest"][0][1].tobytes() == weighted[valid].tobytes()

    def test_irradiance_times_albedo_over_pi_is_diffuse(self, sphere_scene, sky_light):
        # One material everywhere, so the relation holds per pixel.
        cam = sphere_camera()
        scene = field.with_steps(sphere_scene, 96, 24)
        dif, _ = render.render_image(scene, sky_light, cam, "diffuse")
        irr, _ = render.render_image(scene, sky_light, cam, "irradiance")
        want = np.array([0.6, 0.5, 0.4]) / math.pi * irr
        assert np.max(np.abs(dif - want)) < 1e-12

    def test_render_twice_bit_identical(self, sphere_scene, sky_light):
        cam = sphere_camera()
        scene = field.with_steps(sphere_scene, 64, 16)
        a_pixels, a_alpha = render.render_image(scene, sky_light, cam, "lit")
        b_pixels, b_alpha = render.render_image(scene, sky_light, cam, "lit")
        assert np.array_equal(a_pixels, b_pixels)
        assert np.array_equal(a_alpha, b_alpha)

    def test_thread_count_does_not_change_pixels(self, sphere_scene, sky_light):
        cam = sphere_camera(16, 16)
        scene = field.with_steps(sphere_scene, 64, 16)
        one_pixels, one_alpha = render.render_image(scene, sky_light, cam, "lit", threads=1)
        for threads in (2, 5):
            pixels, alpha = render.render_image(scene, sky_light, cam, "lit", threads=threads)
            assert np.array_equal(one_pixels, pixels)
            assert np.array_equal(one_alpha, alpha)

    def test_step_doubling_converges(self, wall_scene, white_light):
        cam = wall_camera(8, 8)
        imgs = {}
        for steps in (64, 128, 256):
            imgs[steps], _ = render.render_image(field.with_steps(wall_scene, steps, 32),
                                                 white_light, cam, "lit")
        d_coarse = np.max(np.abs(imgs[64] - imgs[128]))
        d_fine = np.max(np.abs(imgs[128] - imgs[256]))
        assert d_fine <= d_coarse

    def test_wall_pixels_recover_albedo(self, wall_scene, white_light):
        cam = wall_camera(16, 16)
        pixels, alpha = render.render_image(wall_scene, white_light, cam, "lit", threads=2)
        assert np.all(alpha > 0.99)
        ratio = pixels / (alpha[:, :, None] * np.asarray(WALL_ALBEDO))
        assert np.max(np.abs(ratio - 1.0)) < 0.02

    def test_albedo_mode_shows_material(self, wall_scene):
        cam = wall_camera(8, 8)
        pixels, _ = render.render_image(field.with_steps(wall_scene, 256), None, cam, "albedo")
        ratio = pixels[4, 4] / np.asarray(WALL_ALBEDO)
        assert np.all(np.abs(ratio / ratio[0] - 1.0) < 1e-9)
        assert abs(ratio[0] - 1.0) < 0.03

    def test_normal_mode_encodes_up_axis(self, wall_scene):
        # The lit face of the wall points at the camera, +z, which encodes
        # to blue 1.0; the in-plane channels stay near 0.5.
        cam = wall_camera(8, 8)
        pixels, alpha = render.render_image(field.with_steps(wall_scene, 256), None, cam, "normal")
        px = pixels[4, 4] / alpha[4, 4]
        assert px[2] > 0.8
        assert abs(px[0] - 0.5 * px[2]) < 0.1 * px[2]

    def test_alpha_in_unit_range(self, blocker_scene, sky_light):
        cam = sphere_camera(10, 10)
        pixels, alpha = render.render_image(field.with_steps(blocker_scene, 64, 16), sky_light,
                                            cam, "lit")
        assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)
        assert np.all(np.isfinite(pixels))


class TestCacheRender:
    def _cache(self, scene, tmp_path, count=80):
        positions, normals, _, _ = transport.sample_surface_points(scene, count, seed=9)
        coeffs = transport.bake_transfer_batch(field.with_steps(scene, secondary_steps=24),
                                               positions, normals, resolution=(16, 32))
        path = str(tmp_path / "cache.bin")
        transport.save_transfer_cache(path, scene, positions, normals, coeffs)
        return transport.load_transfer_cache(path, scene)

    def test_cache_degree_checked_before_marching(self, sphere_scene, sky_light, tmp_path,
                                                  monkeypatch):
        # A degree-4 cache under a degree-2 light fails before any primary
        # ray is marched in the shaded modes; the debug channels use no
        # transfer and render as usual.
        cache = self._cache(sphere_scene, tmp_path, count=8)
        light = sky_light.truncated(2)
        scene = field.with_steps(sphere_scene, 32)
        march = transport.primary_march
        marched = []

        def spy(scene, origins, *args, **kwargs):
            marched.append(len(origins))
            return march(scene, origins, *args, **kwargs)

        monkeypatch.setattr(transport, "primary_march", spy)
        for mode in ("lit", "diffuse", "specular", "irradiance"):
            with pytest.raises(ValueError, match="cache degree 4 does not match light degree 2"):
                render.render_image(scene, light, sphere_camera(4, 4), mode, cache=cache)
        assert marched == []
        for mode in ("albedo", "normal", "visibility"):
            pixels, _ = render.render_image(scene, light, sphere_camera(4, 4), mode, cache=cache)
            assert np.all(np.isfinite(pixels))
        assert sum(marched) == 3 * 16

    def test_cached_render_close_to_direct(self, sphere_scene, sky_light, tmp_path):
        cam = sphere_camera()
        cache = self._cache(sphere_scene, tmp_path)
        scene = field.with_steps(sphere_scene, 96, 24)
        direct, direct_alpha = render.render_image(scene, sky_light, cam, "lit")
        cached, _ = render.render_image(scene, sky_light, cam, "lit", cache=cache)
        mask = direct_alpha > 0.5
        assert mask.any()
        rel = np.abs(cached - direct)[mask] / np.maximum(np.abs(direct[mask]), 1e-3)
        assert np.mean(rel) < 0.25

    def test_cache_degree_mismatch(self, sphere_scene, tmp_path):
        cache = self._cache(sphere_scene, tmp_path, count=10)
        light = constant_sh_light(1.0, degree=2)
        cam = sphere_camera(4, 4)
        with pytest.raises(ValueError, match="cache degree"):
            render.render_image(field.with_steps(sphere_scene, 32), light, cam, "lit",
                                cache=cache)


class TestPeakMemory:
    @pytest.fixture(scope="class")
    def example(self, tmp_path_factory):
        """The example scene, its embedded camera at 128x128, and a small cache of it."""
        cache = str(tmp_path_factory.mktemp("peak") / "cache.bin")
        assert cli.main(["bake", str(EXAMPLE_SCENE), "--points", "64", "--resolution", "8",
                         "16", "-o", cache]) == 0
        scene = field.load_scene(str(EXAMPLE_SCENE))
        camera = json.loads(EXAMPLE_SCENE.read_text())["camera"]
        return scene, camera, transport.load_transfer_cache(cache, scene)

    # Peaks before the compositing window: lit 19.2 MiB, normal 40.8 MiB and
    # visibility 15.3 MiB. Normal and visibility may not rise by more than
    # 5%; lit falls below 12 MiB (about 9 MiB here).
    @pytest.mark.parametrize("mode, limit", [("lit", 12.0), ("normal", 40.8 * 1.05),
                                             ("visibility", 15.3 * 1.05)],
                             ids=["lit", "normal", "visibility"])
    def test_cached_render_on_two_threads(self, example, mode, limit):
        scene, camera, cache = example
        light = lobe_sh_light()
        # A small render first, so lazily built state is not counted.
        render.render_image(scene, light, render.Camera(**dict(camera, width=4, height=4)),
                            mode, cache=cache, threads=2)
        tracemalloc.start()
        try:
            render.render_image(scene, light, render.Camera(**dict(camera, width=128,
                                                                   height=128)),
                                mode, cache=cache, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20, peak / 2**20

    def test_cached_peak_grows_only_by_the_image(self, example):
        # Camera rays are formed per chunk, so beside the image's own 32
        # bytes per pixel (rgb and alpha in float64) the peak does not grow
        # (full-image rays added 2.25 MiB from 128^2 to 256^2). One thread:
        # on two, how the threads' chunk peaks overlap moves the peak by
        # up to about 1 MiB from run to run.
        scene, camera, cache = example
        light = lobe_sh_light()
        render.render_image(scene, light, render.Camera(**dict(camera, width=4, height=4)),
                            "lit", cache=cache)
        rest = []
        for size in (128, 256):
            tracemalloc.start()
            try:
                render.render_image(scene, light, render.Camera(**dict(camera, width=size,
                                                                       height=size)),
                                    "lit", cache=cache)
                rest.append(tracemalloc.get_traced_memory()[1] - 32 * size * size)
            finally:
                tracemalloc.stop()
        assert rest[1] - rest[0] < 2**18, [r / 2**20 for r in rest]

    def _uncached_peak(self, example, **options):
        """Heap peak of the benchmark's uncached render (64x32, lit, one thread), MiB."""
        scene, camera, _ = example
        light = lobe_sh_light()
        render.render_image(scene, light, render.Camera(**dict(camera, width=4, height=4)),
                            "lit", **options)
        tracemalloc.start()
        try:
            render.render_image(scene, light, render.Camera(**dict(camera, width=64, height=32)),
                                "lit", **options)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_uncached_render_peak(self, example):
        # The render bakes float32 transfer at every anchor. Its peak was
        # 34.29 MiB while a bake held the whole map of a chunk's anchors,
        # 10.88 MiB once it held one block of MAP_POINTS anchors, and 9.40
        # MiB once a block's map was freed before the next was marched; it
        # may not rise by more than 5%.
        peak = self._uncached_peak(example)
        assert peak < 9.40 * 1.05, peak

    def test_uncached_peak_on_a_fine_transfer_grid(self, example):
        # Eight anchors per ray on the 32x64 grid: 261 MiB while a bake
        # held the whole map of a chunk's 8,192 anchors, 22.60 MiB with one
        # block of MAP_POINTS anchors, 18.43 MiB once a block's map was
        # freed before the next was marched; it may not rise by more than 5%.
        peak = self._uncached_peak(example, transfer_grid=(32, 64), anchors=8)
        assert peak < 18.43 * 1.05, peak


class TestSrgb:
    def test_endpoints(self):
        assert render.linear_to_srgb(np.array(0.0)) == 0.0
        assert abs(render.linear_to_srgb(np.array(1.0)) - 1.0) < 1e-12

    def test_piecewise_boundary(self):
        assert abs(render.linear_to_srgb(np.array(0.0031308)) - 0.04045) < 1e-6

    def test_clamps_above_one(self):
        assert render.linear_to_srgb(np.array(2.0)) == 1.0

    def test_monotone(self):
        v = np.linspace(0.0, 1.2, 200)
        out = render.linear_to_srgb(v)
        assert np.all(np.diff(out) >= 0.0)

    def test_u8_conversion(self):
        pixels = np.array([[[0.0, 0.5, 3.0]]])
        u8 = render.srgb_u8(pixels)
        assert u8.dtype == np.uint8
        assert u8[0, 0, 0] == 0 and u8[0, 0, 2] == 255

    def test_exposure_applied_in_linear_space(self):
        pixels = np.array([[[0.25, 0.25, 0.25]]])
        doubled = render.srgb_u8(pixels, exposure=2.0)
        straight = render.srgb_u8(np.array([[[0.5, 0.5, 0.5]]]))
        assert np.array_equal(doubled, straight)

    def test_alpha_u8(self):
        a = render.alpha_u8(np.array([[0.0, 0.5, 1.0]]))
        assert a.dtype == np.uint8
        assert a.tolist() == [[0, 128, 255]]

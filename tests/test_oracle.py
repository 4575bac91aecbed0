import json
import math

import numpy as np
import pytest

from prtvol import envlight, oracle, shading, transport
from conftest import constant_sh_light, field_surface_point, lobe_sh_light


class TestMcDiffuse:
    def test_empty_scene_recovers_albedo(self, empty_scene, white_light):
        albedo = np.array([0.6, 0.45, 0.3])
        value, stderr = oracle.mc_diffuse_radiance(
            empty_scene, white_light, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
            albedo, samples=20000, seed=1)
        z = np.abs(value - albedo) / stderr
        assert np.max(z) < 3.0

    def test_zero_light_is_zero(self, empty_scene):
        light = envlight.ShLight(coeffs=np.zeros((25, 3)))
        value, stderr = oracle.mc_diffuse_radiance(
            empty_scene, light, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5], samples=500, seed=2)
        assert np.array_equal(value, np.zeros(3))
        assert np.array_equal(stderr, np.zeros(3))

    def test_stderr_scaling(self, empty_scene, sky_light):
        # Quadrupling the sample count should halve the standard error.
        _, se_small = oracle.mc_diffuse_radiance(
            empty_scene, sky_light, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5], samples=4000, seed=3)
        _, se_big = oracle.mc_diffuse_radiance(
            empty_scene, sky_light, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5], samples=16000, seed=4)
        ratio = np.mean(se_small / se_big)
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_requires_at_least_one_sample(self, empty_scene, white_light):
        with pytest.raises(ValueError, match="samples"):
            oracle.mc_diffuse_radiance(empty_scene, white_light, [0.0, 0.0, 0.0],
                                       [0.0, 0.0, 1.0], [0.5, 0.5, 0.5], samples=0)

    def test_deterministic_per_seed(self, sphere_scene, sky_light):
        args = (sphere_scene, sky_light, [0.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                np.array([0.6, 0.5, 0.4]))
        a, _ = oracle.mc_diffuse_radiance(*args, samples=2000, seed=7)
        b, _ = oracle.mc_diffuse_radiance(*args, samples=2000, seed=7)
        c, _ = oracle.mc_diffuse_radiance(*args, samples=2000, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestVisibilityL2:
    def test_zeroed_transfer_measures_reference_rms(self, empty_scene):
        # With no occluders the reference map is the clamped cosine, whose
        # mean square over the sphere is 1/6.
        out = oracle.visibility_l2(empty_scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                   np.zeros(25))
        want = math.sqrt(1.0 / 6.0)
        for d in (2, 3, 4):
            assert abs(out[d] - want) < 1e-3

    def test_baked_transfer_shrinks_gap(self, empty_scene):
        t = transport.bake_transfer(empty_scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        out = oracle.visibility_l2(empty_scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], t)
        # Degree 3 adds only odd bands, which vanish for this pole-aligned
        # map, so compare the degrees that genuinely differ.
        assert out[4] < 0.05
        assert out[2] > out[4] + 1e-3

    def test_short_transfer_rejected(self, empty_scene):
        with pytest.raises(ValueError, match="needs"):
            oracle.visibility_l2(empty_scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                 np.zeros(9), degrees=(2, 3, 4))


@pytest.fixture(scope="module")
def blocker_report(blocker_scene):
    config = oracle.ValidationConfig(count=8, mc_samples=20000,
                                     resolution=(48, 96), seed=5)
    return oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), config=config)


class TestCompare:
    def test_entry_transfer_equals_bake_row(self, blocker_scene, sky_light, monkeypatch):
        # validate projects each point's map alone; bake projects the
        # points together. Both give the point the same transfer bits.
        config = oracle.ValidationConfig(count=6, mc_samples=200, resolution=(16, 32), seed=3)
        project = transport.project_map
        used = []
        monkeypatch.setattr(transport, "project_map",
                            lambda *a, **k: used.append(project(*a, **k)) or used[-1])
        report = oracle.compare_prt_vs_mc(blocker_scene, sky_light, config=config)
        monkeypatch.undo()
        pts, _ = transport.sample_surface_points(blocker_scene, config.count, seed=config.seed)
        baked = transport.bake_transfer_batch(
            blocker_scene, np.array([sp.position for sp in pts]),
            np.array([sp.normal for sp in pts]), resolution=config.resolution)
        assert len(used) == len(report.entries) == baked.shape[0]
        for got, row, sp, e in zip(used, baked, pts, report.entries):
            assert got[0].tobytes() == row.tobytes()
            want = shading.diffuse_radiance(sp.albedo, row, sky_light)
            assert e.sh_diffuse.tobytes() == want.tobytes()

    def test_band_limited_light_within_3_sigma(self, blocker_report):
        for e in blocker_report.entries:
            z = np.abs(e.sh_diffuse - e.mc_diffuse) / e.mc_stderr
            assert np.max(z) < 3.0

    def test_degree_errors_monotone(self, blocker_report):
        for e in blocker_report.entries:
            assert e.visibility_l2[2] >= e.visibility_l2[3] - 1e-12
            assert e.visibility_l2[3] >= e.visibility_l2[4] - 1e-12

    def test_aggregate_is_mean_of_entries(self, blocker_report):
        want = np.mean([e.nrt_residual_mean for e in blocker_report.entries])
        assert abs(blocker_report.mean_nrt_residual - want) < 1e-15
        for d in (2, 3, 4):
            want_d = np.mean([e.visibility_l2[d] for e in blocker_report.entries])
            assert abs(blocker_report.mean_visibility_l2[d] - want_d) < 1e-15

    def test_entries_match_standalone_bake_and_l2(self, blocker_scene, blocker_report):
        # compare_prt_vs_mc marches each point's map once and reuses it for
        # the transfer and the L2 scores; both must equal the standalone
        # routes bit for bit.
        config = blocker_report.config
        light = lobe_sh_light().truncated(config.degree)
        points, _ = transport.sample_surface_points(blocker_scene, config.count,
                                                    seed=config.seed)
        for sp, e in zip(points, blocker_report.entries):
            t = transport.bake_transfer(blocker_scene, sp.position, sp.normal,
                                        degree=config.degree, resolution=config.resolution)
            assert np.array_equal(e.sh_diffuse, shading.diffuse_radiance(sp.albedo, t, light))
            assert e.visibility_l2 == oracle.visibility_l2(
                blocker_scene, sp.position, sp.normal, t, degrees=config.degrees,
                resolution=config.resolution)

    def test_full_band_light_relative_rms(self, blocker_scene):
        # The MC side integrates the raw lobe; the SH side sees only its
        # degree-4 projection, so the gap is the truncation error of the
        # light, bounded at 5% relative RMS on this fixture.
        lobe = envlight.LobeLight(
            axis=np.array([0.15, -0.1, 0.98]) / np.linalg.norm([0.15, -0.1, 0.98]),
            sharpness=2.0, color=np.array([1.0, 0.8, 0.6]))
        config = oracle.ValidationConfig(count=6, mc_samples=20000,
                                         resolution=(48, 96), seed=9)
        report = oracle.compare_prt_vs_mc(blocker_scene, lobe, config=config)
        sh_vals = np.array([e.sh_diffuse for e in report.entries])
        mc_vals = np.array([e.mc_diffuse for e in report.entries])
        rel = np.sqrt(np.mean((sh_vals - mc_vals) ** 2) / np.mean(mc_vals ** 2))
        assert rel <= 0.05

    def test_report_bit_reproducible(self, blocker_scene):
        config = oracle.ValidationConfig(count=3, mc_samples=2000,
                                         resolution=(32, 64), seed=11)
        a = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), config=config)
        b = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), config=config)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_threads_do_not_change_report(self, blocker_scene):
        base = oracle.ValidationConfig(count=4, mc_samples=2000,
                                       resolution=(32, 64), seed=13)
        threaded = oracle.ValidationConfig(count=4, mc_samples=2000,
                                           resolution=(32, 64), seed=13, threads=3)
        a = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), config=base)
        b = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), config=threaded)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_negative_rate_in_aggregate(self, blocker_report):
        values = np.array([e.sh_diffuse for e in blocker_report.entries])
        want = float(np.mean(values < 0.0))
        assert blocker_report.to_dict()["aggregate"]["sh_negative_rate"] == want
        assert 0.0 <= want <= 1.0

    def test_negative_rate_zero_under_dc_light(self, sphere_scene, white_light):
        # A DC-only light dots a non-negative transfer DC term, so no
        # channel can ring below zero.
        config = oracle.ValidationConfig(count=3, mc_samples=100,
                                         resolution=(16, 32), seed=21)
        report = oracle.compare_prt_vs_mc(sphere_scene, white_light, config=config)
        assert report.sh_negative_rate == 0.0

    def test_runtime_not_in_json(self, blocker_report):
        assert blocker_report.runtime_seconds > 0.0
        text = json.dumps(blocker_report.to_dict())
        assert "runtime" not in text

    def test_views_must_pair_points(self, sphere_scene, white_light):
        pts, _ = transport.sample_surface_points(sphere_scene, 3, seed=1)
        with pytest.raises(ValueError, match="pair"):
            oracle.compare_prt_vs_mc(sphere_scene, white_light, points=pts,
                                     views=[np.array([0.0, 0.0, 1.0])])

    def test_invalid_normal_rejected(self, sphere_scene, white_light):
        bad = field_surface_point(sphere_scene, [0.0, 0.0, 0.0])
        assert bad.normal is None
        with pytest.raises(ValueError, match="no surface normal"):
            oracle.compare_prt_vs_mc(sphere_scene, white_light, points=[bad],
                                     views=[np.array([0.0, 0.0, 1.0])])

    def test_format_table(self, blocker_report):
        text = oracle.format_table(blocker_report)
        lines = text.splitlines()
        assert "nrt_residual" in lines[0]
        assert len(lines) == len(blocker_report.entries) + 2
        assert lines[-1].strip().startswith("mean")


class TestUnoccludedDiffuseExact:
    def test_sh_equals_analytic_for_constant_light(self, empty_scene):
        # Baked unoccluded transfer against a DC-only unit light must give
        # back the albedo: the SH route with no occlusion reduces to the
        # clamped-cosine integral, which the 1/pi normalizes away.
        albedo = np.array([0.6, 0.45, 0.3])
        t = transport.bake_transfer(empty_scene, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                    resolution=(128, 256))
        light = constant_sh_light(1.0)
        got = albedo / np.pi * (t @ light.coeffs)
        assert np.max(np.abs(got - albedo)) < 1e-3

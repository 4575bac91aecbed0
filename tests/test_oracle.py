import json
import math

import numpy as np
import pytest

from prtvol import cli, envlight, oracle, sh, shading, transport
from conftest import LobeLight, blocker_scene_dict, constant_sh_light, lobe_sh_light, \
    validate_args


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


def pole_map(scene):
    """visibility_map on the bake grid at the origin with a +z normal, (D,)."""
    dirs, _, _ = sh.basis_grid(0, *transport.BAKE_GRID)
    return transport.visibility_map(scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], dirs)[0]


class TestVisibilityL2:
    def test_zeroed_transfer_measures_reference_rms(self, empty_scene):
        # With no occluders the reference map is the clamped cosine, whose
        # mean square over the sphere is 1/6.
        out = oracle.visibility_l2(pole_map(empty_scene), np.zeros(25), (2, 3, 4),
                                   transport.BAKE_GRID)
        want = math.sqrt(1.0 / 6.0)
        for d in (2, 3, 4):
            assert abs(out[d] - want) < 1e-3

    def test_baked_transfer_shrinks_gap(self, empty_scene):
        t = transport.bake_transfer_batch(empty_scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])[0]
        out = oracle.visibility_l2(pole_map(empty_scene), t, (2, 3, 4), transport.BAKE_GRID)
        # Degree 3 adds only odd bands, which vanish for this pole-aligned
        # map, so compare the degrees that genuinely differ.
        assert out[4] < 0.05
        assert out[2] > out[4] + 1e-3

    def test_short_transfer_rejected(self, empty_scene):
        with pytest.raises(ValueError, match="needs"):
            oracle.visibility_l2(pole_map(empty_scene), np.zeros(9), (2, 3, 4),
                                 transport.BAKE_GRID)


BLOCKER_CONFIG = validate_args(points=8, mc_samples=20000, grid=(48, 96), seed=5)


@pytest.fixture(scope="module")
def blocker_report(blocker_scene):
    return oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), **BLOCKER_CONFIG)


class TestCompare:
    def test_entry_transfer_equals_bake_row(self, blocker_scene, sky_light, monkeypatch):
        # validate projects each point's map alone; bake projects the
        # points together. Both give the point the same transfer bits.
        config = validate_args(points=6, mc_samples=200, grid=(16, 32), seed=3)
        project = transport.project_map
        used = []
        monkeypatch.setattr(transport, "project_map",
                            lambda *a, **k: used.append(project(*a, **k)) or used[-1])
        report = oracle.compare_prt_vs_mc(blocker_scene, sky_light, **config)
        monkeypatch.undo()
        pos, nrm, albedo, _ = transport.sample_surface_points(blocker_scene, config["points"],
                                                             seed=config["seed"])
        baked = transport.bake_transfer_batch(blocker_scene, pos, nrm,
                                              resolution=config["grid"])
        assert len(used) == len(report["entries"]) == baked.shape[0]
        for got, row, a, e in zip(used, baked, albedo, report["entries"]):
            assert got[0].tobytes() == row.tobytes()
            want = shading.diffuse_radiance(a, row, sky_light)
            assert np.array(e["sh_diffuse"]).tobytes() == want.tobytes()

    def test_one_map_per_point_besides_the_mc_reference(self, blocker_scene, sky_light,
                                                         monkeypatch):
        # A point's grid directions and its 10 residual rays share one
        # visibility_map call; only mc_diffuse_radiance marches apart.
        config = validate_args(points=3, mc_samples=100, grid=(8, 16), seed=3)
        march = transport.visibility_map
        sizes = []
        monkeypatch.setattr(transport, "visibility_map",
                            lambda *a, **k: sizes.append(len(a[3])) or march(*a, **k))
        points = len(oracle.compare_prt_vs_mc(blocker_scene, sky_light, **config)["entries"])
        assert points == config["points"]
        assert sorted(sizes) == [100] * points + [8 * 16 + 10] * points

    def test_band_limited_light_within_3_sigma(self, blocker_report):
        for e in blocker_report["entries"]:
            z = np.abs(np.subtract(e["sh_diffuse"], e["mc_diffuse"])) / e["mc_stderr"]
            assert np.max(z) < 3.0

    def test_degree_errors_monotone(self, blocker_report):
        for e in blocker_report["entries"]:
            l2 = e["visibility_l2"]
            assert l2["2"] >= l2["3"] - 1e-12
            assert l2["3"] >= l2["4"] - 1e-12

    def test_aggregate_is_mean_of_entries(self, blocker_report):
        entries, aggregate = blocker_report["entries"], blocker_report["aggregate"]
        assert aggregate["points"] == len(entries)
        want = np.mean([e["nrt_residual_mean"] for e in entries])
        assert abs(aggregate["nrt_residual_mean"] - want) < 1e-15
        for d in ("2", "3", "4"):
            want_d = np.mean([e["visibility_l2"][d] for e in entries])
            assert abs(aggregate["visibility_l2"][d] - want_d) < 1e-15

    def test_entries_match_standalone_bake_and_l2(self, blocker_scene, blocker_report):
        # compare_prt_vs_mc marches each point's grid and residual rays in
        # one map and reuses it for the transfer, the L2 scores and the
        # residual; all three must equal the routes that march each map
        # on its own, bit for bit.
        config = BLOCKER_CONFIG
        light = lobe_sh_light().truncated(config["degree"])
        pos, nrm, albedo, views = transport.sample_surface_points(
            blocker_scene, config["points"], seed=config["seed"])
        dirs, _, _ = sh.basis_grid(0, *config["grid"])
        for i, (x, n, a, e) in enumerate(zip(pos, nrm, albedo, blocker_report["entries"])):
            t = transport.bake_transfer_batch(blocker_scene, [x], [n], degree=config["degree"],
                                              resolution=config["grid"])[0]
            assert np.array_equal(e["sh_diffuse"], shading.diffuse_radiance(a, t, light))
            vals = transport.visibility_map(blocker_scene, [x], [n], dirs)[0]
            l2 = oracle.visibility_l2(vals, t, (2, 3, 4), config["grid"])
            assert e["visibility_l2"] == {str(d): v for d, v in l2.items()}
            rays = transport.nrt_rays(n, views[i], seed=(config["seed"], i))
            vh = transport.visibility_map(blocker_scene, [x], [n], rays)[0]
            assert e["nrt_residual_mean"] == float(np.mean(transport.nrt_residuals(t, rays, vh)))

    def test_full_band_light_relative_rms(self, blocker_scene):
        # MC integrates the raw lobe at the report's points, with the
        # report's per-point seeds; the SH side sees only its degree-4
        # projection, so the gap is the truncation error of the light,
        # bounded at 5% relative RMS on this fixture.
        lobe = LobeLight(
            axis=np.array([0.15, -0.1, 0.98]) / np.linalg.norm([0.15, -0.1, 0.98]),
            sharpness=2.0, color=np.array([1.0, 0.8, 0.6]))
        config = validate_args(points=6, mc_samples=20000, grid=(48, 96), seed=9)
        report = oracle.compare_prt_vs_mc(
            blocker_scene, envlight.project_to_sh(lobe, degree=config["degree"]), **config)
        pos, nrm, albedo, _ = transport.sample_surface_points(blocker_scene, config["points"],
                                                             seed=config["seed"])
        sh_vals = np.array([e["sh_diffuse"] for e in report["entries"]])
        mc_vals = np.array([oracle.mc_diffuse_radiance(blocker_scene, lobe, x, n, a,
                                                       config["mc_samples"],
                                                       seed=(config["seed"], i))[0]
                            for i, (x, n, a) in enumerate(zip(pos, nrm, albedo))])
        rel = np.sqrt(np.mean((sh_vals - mc_vals) ** 2) / np.mean(mc_vals ** 2))
        assert rel <= 0.05

    def test_report_bit_reproducible(self, blocker_scene):
        config = validate_args(points=3, mc_samples=2000, grid=(32, 64), seed=11)
        a = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), **config)
        b = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), **config)
        assert json.dumps(a) == json.dumps(b)

    def test_threads_do_not_change_report(self, blocker_scene):
        base = validate_args(points=4, mc_samples=2000, grid=(32, 64), seed=13)
        threaded = dict(base, threads=3)
        a = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), **base)
        b = oracle.compare_prt_vs_mc(blocker_scene, lobe_sh_light(), **threaded)
        assert json.dumps(a) == json.dumps(b)

    def test_negative_rate_in_aggregate(self, blocker_report):
        values = np.array([e["sh_diffuse"] for e in blocker_report["entries"]])
        want = float(np.mean(values < 0.0))
        assert blocker_report["aggregate"]["sh_negative_rate"] == want
        assert 0.0 <= want <= 1.0

    def test_negative_rate_zero_under_dc_light(self, sphere_scene, white_light):
        # A DC-only light dots a non-negative transfer DC term, so no
        # channel can ring below zero.
        config = validate_args(points=3, mc_samples=100, grid=(16, 32), seed=21)
        report = oracle.compare_prt_vs_mc(sphere_scene, white_light, **config)
        assert report["aggregate"]["sh_negative_rate"] == 0.0

    def test_report_key_order_and_cli_file(self, blocker_report, tmp_path, capsys):
        # json.dumps keeps insertion order, so these key lists fix the
        # bytes of the report; none of the keys holds a timing.
        assert list(blocker_report) == ["config", "entries", "aggregate"]
        assert list(blocker_report["config"]) == [
            "mc_samples", "degree", "degrees", "resolution", "secondary_steps", "seed"]
        for e in blocker_report["entries"]:
            assert list(e) == ["position", "nrt_residual_mean", "visibility_l2",
                               "sh_diffuse", "mc_diffuse", "mc_stderr"]
            assert list(e["visibility_l2"]) == ["2", "3", "4"]
        aggregate = blocker_report["aggregate"]
        assert list(aggregate) == ["points", "nrt_residual_mean", "visibility_l2",
                                   "sh_negative_rate"]
        assert list(aggregate["visibility_l2"]) == ["2", "3", "4"]
        # The CLI writes the same dict: the scene and light go through
        # their JSON files and the flags carry BLOCKER_CONFIG.
        scene, light, out = tmp_path / "scene.json", tmp_path / "light.json", tmp_path / "r.json"
        scene.write_text(json.dumps(blocker_scene_dict()))
        envlight.save_sh_light(str(light), lobe_sh_light())
        assert cli.main(["validate", str(scene), "--env", str(light), "--points", "8",
                         "--mc-samples", "20000", "--grid", "48", "96", "--seed", "5",
                         "--threads", "1", "-o", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text()) == blocker_report

    def test_light_degree_checked_before_sampling(self, sphere_scene, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("probed surface points")
        monkeypatch.setattr(transport, "sample_surface_points", never)
        config = validate_args(points=3, mc_samples=100, degree=4)
        with pytest.raises(ValueError, match="cannot extend degree 2 light to 4"):
            oracle.compare_prt_vs_mc(sphere_scene, constant_sh_light(degree=2), **config)

    @pytest.mark.parametrize("degree, want", [
        (0, (0,)), (1, (1,)), (2, (2,)), (3, (2, 3)), (4, (2, 3, 4)), (8, (2, 3, 4))])
    def test_l2_degrees_stop_at_the_degree(self, sphere_scene, degree, want):
        config = validate_args(points=1, mc_samples=1, degree=degree, grid=(8, 16))
        report = oracle.compare_prt_vs_mc(sphere_scene, constant_sh_light(degree=degree),
                                          **config)
        assert tuple(report["config"]["degrees"]) == want

    def test_format_table(self, blocker_report):
        text = oracle.format_table(blocker_report)
        lines = text.splitlines()
        assert "nrt_residual" in lines[0]
        assert len(lines) == len(blocker_report["entries"]) + 2
        assert lines[-1].strip().startswith("mean")


class TestUnoccludedDiffuseExact:
    def test_sh_equals_analytic_for_constant_light(self, empty_scene):
        # Baked unoccluded transfer against a DC-only unit light must give
        # back the albedo: the SH route with no occlusion reduces to the
        # clamped-cosine integral, which the 1/pi normalizes away.
        albedo = np.array([0.6, 0.45, 0.3])
        t = transport.bake_transfer_batch(empty_scene, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]],
                                          resolution=(128, 256))[0]
        light = constant_sh_light(1.0)
        got = albedo / np.pi * (t @ light.coeffs)
        assert np.max(np.abs(got - albedo)) < 1e-3

import json
import math

import numpy as np
import pytest

from prtvol import envlight, imageio, sh
from conftest import random_unit_dirs


def make_equirect(tmp_path, pixels, name="env.pfm"):
    path = tmp_path / name
    imageio.write_pfm(path, np.asarray(pixels, dtype=np.float32))
    return path


class TestAnalyticLights:
    def test_constant_everywhere(self):
        light = envlight.ConstantLight(color=np.array([0.2, 0.5, 1.5]))
        dirs = random_unit_dirs(50, seed=1)
        vals = light.radiance(dirs)
        assert vals.shape == (50, 3)
        assert np.allclose(vals, [0.2, 0.5, 1.5], atol=1e-15)

    def test_lobe_peak_and_antipode(self):
        axis = np.array([0.0, 0.0, 1.0])
        light = envlight.LobeLight(axis=axis, sharpness=3.0, color=np.array([2.0, 1.0, 0.5]))
        at_peak = light.radiance(axis)
        at_back = light.radiance(-axis)
        assert np.allclose(at_peak, [2.0, 1.0, 0.5], atol=1e-12)
        assert np.allclose(at_back, math.exp(-6.0) * np.array([2.0, 1.0, 0.5]), atol=1e-12)

    def test_lobe_monotone_in_angle(self):
        light = envlight.LobeLight(
            axis=np.array([0.0, 0.0, 1.0]), sharpness=2.0, color=np.ones(3)
        )
        thetas = np.linspace(0.0, math.pi, 20)
        dirs = np.stack([np.sin(thetas), np.zeros(20), np.cos(thetas)], axis=1)
        vals = light.radiance(dirs)[:, 0]
        assert np.all(np.diff(vals) < 0.0)


class TestEquirect:
    def test_constant_map_constant_radiance(self, tmp_path):
        path = make_equirect(tmp_path, np.full((8, 16, 3), 0.75))
        light = envlight.load_envmap(path)
        probes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                           [0.3, -0.8, 0.52]])
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        assert np.allclose(light.radiance(probes), 0.75, atol=1e-12)

    def test_column_lookup_and_wraparound(self):
        # One row, two columns: +y sits exactly on column 0, -y on column 1,
        # and +x falls halfway between them across the longitude seam.
        pix = np.zeros((1, 2, 3))
        pix[0, 0] = [1.0, 0.0, 0.0]
        pix[0, 1] = [0.0, 1.0, 0.0]
        light = envlight.EquirectLight(pixels=pix)
        assert np.allclose(light.radiance(np.array([0.0, 1.0, 0.0])), [1.0, 0.0, 0.0])
        assert np.allclose(light.radiance(np.array([0.0, -1.0, 0.0])), [0.0, 1.0, 0.0])
        seam = light.radiance(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(seam, [0.5, 0.5, 0.0], atol=1e-12)

    def test_exposure_scales_pixels(self, tmp_path):
        path = make_equirect(tmp_path, np.full((8, 16, 3), 0.5))
        light = envlight.load_envmap(path, exposure=2.0)
        assert np.allclose(light.radiance(np.array([0.0, 0.0, 1.0])), 1.0, atol=1e-12)

    def test_gray_map_rejected(self, tmp_path):
        path = tmp_path / "g.pfm"
        imageio.write_pfm(path, np.ones((4, 8), dtype=np.float32))
        with pytest.raises(imageio.PfmError, match="color"):
            envlight.load_envmap(path)

    def test_nan_map_rejected(self, tmp_path):
        pix = np.ones((4, 8, 3), dtype=np.float32)
        pix[2, 3, 1] = np.nan
        path = make_equirect(tmp_path, pix)
        with pytest.raises(imageio.PfmError, match=r"x=3, y=2"):
            envlight.load_envmap(path)


class TestProjection:
    def test_constant_light_projects_to_dc(self):
        color = np.array([0.3, 0.7, 1.1])
        light = envlight.project_to_sh(envlight.ConstantLight(color=color), degree=4)
        assert light.coeffs.shape == (25, 3)
        assert np.allclose(light.coeffs[0], 2.0 * math.sqrt(math.pi) * color, atol=1e-12)
        assert np.max(np.abs(light.coeffs[1:])) < 1e-3

    def test_degree_four_has_25_coefficients(self, tmp_path):
        path = make_equirect(tmp_path, np.ones((16, 32, 3)))
        light = envlight.project_to_sh(envlight.load_envmap(path), degree=4)
        assert light.coeffs.shape == (25, 3)
        assert light.degree == 4

    def test_band_limited_roundtrip(self):
        rng = np.random.default_rng(21)
        ref = envlight.ShLight(coeffs=rng.normal(size=(25, 3)))
        got = envlight.project_to_sh(ref, degree=4)
        assert np.max(np.abs(got.coeffs - ref.coeffs)) < 1e-3

    def test_projection_is_linear(self, tmp_path):
        rng = np.random.default_rng(4)
        pix = rng.uniform(0.1, 2.0, size=(16, 32, 3))
        a = envlight.project_to_sh(envlight.EquirectLight(pixels=pix), degree=3)
        b = envlight.project_to_sh(envlight.EquirectLight(pixels=2.5 * pix), degree=3)
        assert np.max(np.abs(b.coeffs - 2.5 * a.coeffs)) < 1e-12 * np.max(np.abs(b.coeffs))

    def test_reconstruction_is_low_pass_identity(self):
        # For a light that is already band-limited the projection followed
        # by reconstruction must give back the same radiance pointwise.
        rng = np.random.default_rng(8)
        ref = envlight.ShLight(coeffs=rng.normal(size=(16, 3)))
        proj = envlight.project_to_sh(ref, degree=3)
        dirs = random_unit_dirs(200, seed=13)
        assert np.max(np.abs(proj.radiance(dirs) - ref.radiance(dirs))) < 1e-3


class TestShLight:
    def test_truncation_slices_bands(self):
        rng = np.random.default_rng(3)
        light = envlight.ShLight(coeffs=rng.normal(size=(25, 3)))
        low = light.truncated(2)
        assert low.degree == 2
        assert np.array_equal(low.coeffs, light.coeffs[:9])

    def test_truncation_cannot_extend(self):
        light = envlight.ShLight(coeffs=np.zeros((9, 3)))
        with pytest.raises(ValueError, match="cannot extend"):
            light.truncated(4)

    def test_radiance_matches_reconstruct(self):
        rng = np.random.default_rng(6)
        light = envlight.ShLight(coeffs=rng.normal(size=(25, 3)))
        dirs = random_unit_dirs(40, seed=2)
        want = sh.reconstruct(light.coeffs, dirs)
        assert np.array_equal(light.radiance(dirs), want)

    def test_json_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        light = envlight.ShLight(coeffs=rng.normal(size=(25, 3)))
        path = tmp_path / "light.json"
        envlight.save_sh_light(path, light)
        back = envlight.load_sh_light(path)
        assert np.array_equal(back.coeffs, light.coeffs)

    def test_json_records_convention(self, tmp_path):
        path = tmp_path / "light.json"
        envlight.save_sh_light(path, envlight.ShLight(coeffs=np.zeros((9, 3))))
        d = json.loads(path.read_text())
        assert d["degree"] == 2
        assert "convention" in d

    def test_from_dict_requires_three_channels(self):
        with pytest.raises(ValueError, match="3 channels"):
            envlight.ShLight.from_dict({"degree": 0, "channels": [[1.0], [1.0]]})

    def test_from_dict_checks_length_against_degree(self):
        with pytest.raises(ValueError, match="does not match degree"):
            envlight.ShLight.from_dict(
                {"degree": 2, "channels": [[1.0] * 4, [1.0] * 4, [1.0] * 4]}
            )

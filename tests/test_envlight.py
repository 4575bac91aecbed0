import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from prtvol import envlight, imageio, sh
from conftest import LobeLight, random_unit_dirs, write_raw_pfm


@dataclass(frozen=True)
class ConstantLight:
    """Same radiance in every direction."""

    color: np.ndarray

    def radiance(self, dirs):
        dirs = np.asarray(dirs, dtype=np.float64)
        out = np.empty(dirs.shape[:-1] + (3,), dtype=np.float64)
        out[:] = self.color
        return out


def make_equirect(tmp_path, pixels, name="env.pfm"):
    path = tmp_path / name
    imageio.write_pfm(path, np.asarray(pixels, dtype=np.float32))
    return path


class TestAnalyticLights:
    def test_constant_everywhere(self):
        light = ConstantLight(color=np.array([0.2, 0.5, 1.5]))
        dirs = random_unit_dirs(50, seed=1)
        vals = light.radiance(dirs)
        assert vals.shape == (50, 3)
        assert np.allclose(vals, [0.2, 0.5, 1.5], atol=1e-15)

    def test_lobe_peak_and_antipode(self):
        axis = np.array([0.0, 0.0, 1.0])
        light = LobeLight(axis=axis, sharpness=3.0, color=np.array([2.0, 1.0, 0.5]))
        at_peak = light.radiance(axis)
        at_back = light.radiance(-axis)
        assert np.allclose(at_peak, [2.0, 1.0, 0.5], atol=1e-12)
        assert np.allclose(at_back, math.exp(-6.0) * np.array([2.0, 1.0, 0.5]), atol=1e-12)

    def test_lobe_monotone_in_angle(self):
        light = LobeLight(
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
        path = tmp_path / "env.pfm"
        write_raw_pfm(path, pix)
        with pytest.raises(imageio.PfmError, match=r"x=3, y=2"):
            envlight.load_envmap(path)


class TestProjection:
    def test_constant_light_projects_to_dc(self):
        color = np.array([0.3, 0.7, 1.1])
        light = envlight.project_to_sh(ConstantLight(color=color), degree=4)
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

    @pytest.mark.parametrize("degree", range(sh.MAX_DEGREE + 1))
    @pytest.mark.parametrize("shape", [(8, 16), (64, 128), (128, 256)])
    def test_blocks_stay_close_to_the_full_basis_sum(self, degree, shape):
        # The projection adds one product per block of nodes. The reference
        # sums the terms of the whole direction-major basis exactly. One BLAS
        # product of that basis rounds farther from it than the blocks do:
        # 1.2e-14 of the largest coefficient against 2.6e-16 on the 128x256
        # map at degree 2.
        light = envlight.EquirectLight(pixels=np.random.default_rng(degree).random(shape + (3,)))
        got = envlight.project_to_sh(light, degree=degree).coeffs
        dirs, weights = sh.quadrature_nodes(*shape)
        basis = sh.eval_basis(dirs, degree)
        weighted = light.radiance(dirs) * weights[:, None]
        want = np.array([[math.fsum(terms) for terms in (basis.T * channel).tolist()]
                         for channel in weighted.T]).T
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_degree_eight_peak_memory(self):
        # The projection holds the node table and one block of basis rows,
        # not the 85 MiB degree-8 basis: 9.14 MiB here, against 96 MiB when
        # it multiplied the whole basis at once.
        env = envlight.EquirectLight(pixels=np.random.default_rng(0).random((256, 512, 3)))
        tracemalloc.start()
        try:
            envlight.project_to_sh(env, degree=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.14 * 1.05 * 2**20


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
        with pytest.raises(ValueError, match="ShLight must carry exactly 3 channels"):
            envlight.ShLight.from_dict({"degree": 0, "channels": [[1.0], [1.0]]})

    def test_from_dict_checks_length_against_degree(self):
        with pytest.raises(ValueError,
                           match="ShLight channel 0 must be a list of 9 numbers for degree 2"):
            envlight.ShLight.from_dict(
                {"degree": 2, "channels": [[1.0] * 4, [1.0] * 4, [1.0] * 4]}
            )

    @pytest.mark.parametrize("change", [
        {"degree": None},                   # missing key
        {"channels": None},                 # missing key
        {"degree": "1"},                    # non-integer degree
        {"degree": 1.0},
        {"degree": True},
        {"degree": -1},
        {"degree": 9, "channels": [[0.1] * 100 for _ in range(3)]},  # above sh.MAX_DEGREE
        {"channels": "abc"},                # wrong JSON type
        {"channels": {"r": [1.0]}},
        {"channels": [1.0, 2.0, 3.0]},
        {"channels": [[1.0] * 4, [1.0] * 4, [1.0] * 3]},
        {"coeff": "1.0"},                   # non-numeric coefficient
        {"coeff": None},
        {"coeff": True},
        {"coeff": [1.0]},
        {"coeff": float("nan")},            # non-finite coefficient
        {"coeff": float("inf")},
        {"coeff": -float("inf")},
        {"coeff": 10**400},
    ], ids=lambda c: "-".join(f"{k}={v!r}"[:24] for k, v in c.items()))
    def test_from_dict_rejects_malformed(self, change):
        d = {"degree": 1, "convention": envlight.SH_CONVENTION,
             "channels": [[0.5, 0.1, 0.2, 0.3] for _ in range(3)]}
        for key, value in change.items():
            if key == "coeff":
                d["channels"][1][2] = value
            elif value is None:
                del d[key]
            else:
                d[key] = value
        with pytest.raises(ValueError):
            envlight.ShLight.from_dict(d)

    @pytest.mark.parametrize("payload", [[], "light", 3.0, None])
    def test_from_dict_rejects_non_object(self, payload):
        with pytest.raises(ValueError, match="ShLight must be a JSON object"):
            envlight.ShLight.from_dict(payload)

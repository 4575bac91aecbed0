import math

import numpy as np
import pytest

from prtvol import envlight, sh, shading
from conftest import constant_sh_light, random_unit_dirs

# Analytic projection of max(0, cos theta) about +z through band 4; the
# only nonzero entries are zonal.
CLAMPED_COSINE_Z = np.zeros(25)
CLAMPED_COSINE_Z[0] = 0.8862269254527580
CLAMPED_COSINE_Z[2] = 1.0233267079464885
CLAMPED_COSINE_Z[6] = 0.4954159122007545
CLAMPED_COSINE_Z[20] = -0.1107783656817747


def random_light(seed, n=25):
    rng = np.random.default_rng(seed)
    return envlight.ShLight(coeffs=rng.normal(size=(n, 3)))


class TestReflect:
    def test_view_along_normal_reflects_to_itself(self):
        r = shading.reflect_direction([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        assert np.allclose(r, [0.0, 0.0, 1.0], atol=1e-15)

    def test_forty_five_degrees(self):
        s = 1.0 / math.sqrt(2.0)
        r = shading.reflect_direction([s, 0.0, s], [0.0, 0.0, 1.0])
        assert np.allclose(r, [-s, 0.0, s], atol=1e-15)

    def test_grazing_reverses(self):
        r = shading.reflect_direction([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert np.allclose(r, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_unit_length_preserved(self):
        views = random_unit_dirs(1000, seed=3)
        normals = random_unit_dirs(1000, seed=4)
        r = shading.reflect_direction(views, normals)
        assert np.max(np.abs(np.linalg.norm(r, axis=1) - 1.0)) < 1e-12

    def test_involution(self):
        # Reflecting twice about the same normal gives back the view.
        views = random_unit_dirs(50, seed=9)
        normals = random_unit_dirs(50, seed=10)
        r2 = shading.reflect_direction(shading.reflect_direction(views, normals), normals)
        assert np.max(np.abs(r2 - views)) < 1e-12


class TestDiffuse:
    def test_unit_light_recovers_albedo(self):
        # Clamped-cosine transfer against a constant unit light integrates
        # to pi, cancelling the 1/pi in the reflectance exactly.
        albedo = np.array([0.6, 0.45, 0.3])
        got = shading.diffuse_radiance(albedo, CLAMPED_COSINE_Z, constant_sh_light(1.0))
        assert np.max(np.abs(got - albedo)) < 1e-12

    def test_zero_light_is_black(self):
        light = envlight.ShLight(coeffs=np.zeros((25, 3)))
        got = shading.diffuse_radiance([0.5, 0.5, 0.5], CLAMPED_COSINE_Z, light)
        assert np.array_equal(got, np.zeros(3))

    def test_degree_mismatch_raises(self):
        light = constant_sh_light(1.0, degree=2)
        with pytest.raises(ValueError, match="coefficients"):
            shading.diffuse_radiance([0.5, 0.5, 0.5], CLAMPED_COSINE_Z, light)

    def test_batched_over_leading_axes(self):
        light = random_light(8)
        rng = np.random.default_rng(9)
        albedo = rng.uniform(size=(2, 3, 3))
        t = rng.normal(size=(2, 3, 25))
        got = shading.diffuse_radiance(albedo, t, light)
        assert got.shape == (2, 3, 3)
        for i in range(2):
            for j in range(3):
                want = shading.diffuse_radiance(albedo[i, j], t[i, j], light)
                assert np.max(np.abs(got[i, j] - want)) < 1e-12

    def test_linear_in_light(self):
        t = np.abs(np.random.default_rng(5).normal(size=25))
        la, lb = random_light(6), random_light(7)
        mix = envlight.ShLight(coeffs=2.0 * la.coeffs + 0.5 * lb.coeffs)
        want = (2.0 * shading.diffuse_radiance([1.0, 1.0, 1.0], t, la)
                + 0.5 * shading.diffuse_radiance([1.0, 1.0, 1.0], t, lb))
        got = shading.diffuse_radiance([1.0, 1.0, 1.0], t, mix)
        assert np.max(np.abs(got - want)) < 1e-9


class TestSpecular:
    def test_zero_tint_is_black(self):
        got = shading.specular_radiance(
            [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
            CLAMPED_COSINE_Z, random_light(1))
        assert np.array_equal(got, np.zeros(3))

    def test_head_on_unoccluded_value(self):
        # View along the normal reflects onto the normal. A constant unit
        # light reconstructs to exactly 1 there, and the degree-4 clamped
        # cosine reconstructs to 31/32 at its pole, so the product is
        # tint * 0.96875.
        tint = np.array([0.2, 0.3, 0.4])
        got = shading.specular_radiance(
            tint, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
            CLAMPED_COSINE_Z, constant_sh_light(1.0))
        assert np.max(np.abs(got - tint * 0.96875)) < 1e-10

    def test_scales_with_light(self):
        light = random_light(12)
        double = envlight.ShLight(coeffs=2.0 * light.coeffs)
        view = sh.normalize(np.array([0.3, 0.2, 0.9]))
        a = shading.specular_radiance([1.0, 1.0, 1.0], [0.0, 0.0, 1.0], view,
                                      CLAMPED_COSINE_Z, light)
        b = shading.specular_radiance([1.0, 1.0, 1.0], [0.0, 0.0, 1.0], view,
                                      CLAMPED_COSINE_Z, double)
        assert np.max(np.abs(b - 2.0 * a)) < 1e-12

    def test_batched_rows_and_zero_normal(self):
        # A zero normal marks a point without a surface normal; its row is
        # zero while the other rows match one-at-a-time evaluation.
        light = random_light(13)
        rng = np.random.default_rng(14)
        tint = rng.uniform(size=(5, 3))
        normals = random_unit_dirs(5, seed=15)
        normals[2] = 0.0
        views = random_unit_dirs(5, seed=16)
        t = rng.normal(size=(5, 25))
        got = shading.specular_radiance(tint, normals, views, t, light)
        assert np.array_equal(got[2], np.zeros(3))
        for i in (0, 1, 3, 4):
            want = shading.specular_radiance(tint[i], normals[i], views[i], t[i], light)
            assert np.max(np.abs(got[i] - want)) < 1e-12

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError, match="coefficients"):
            shading.specular_radiance([1.0, 1.0, 1.0], [0.0, 0.0, 1.0],
                                      [0.0, 0.0, 1.0], np.zeros(9),
                                      constant_sh_light(1.0, degree=4))


class TestOutgoing:
    def test_specular_does_depend_on_view(self):
        light = random_light(41)
        a = shading.specular_radiance([0.3, 0.3, 0.3], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
                                      CLAMPED_COSINE_Z, light)
        s = 1.0 / math.sqrt(2.0)
        b = shading.specular_radiance([0.3, 0.3, 0.3], [0.0, 0.0, 1.0], [s, 0.0, s],
                                      CLAMPED_COSINE_Z, light)
        assert not np.array_equal(a, b)

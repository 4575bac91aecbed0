import math

import numpy as np
import pytest

from prtvol import sh


# Closed-form polynomials for every basis function through band 4, written
# out term by term so they share nothing with the recurrence in sh.eval_basis.
SH_POLY = [
    lambda x, y, z: 0.28209479177387814 * np.ones_like(x),
    lambda x, y, z: 0.4886025119029199 * y,
    lambda x, y, z: 0.4886025119029199 * z,
    lambda x, y, z: 0.4886025119029199 * x,
    lambda x, y, z: 1.0925484305920792 * x * y,
    lambda x, y, z: 1.0925484305920792 * y * z,
    lambda x, y, z: 0.31539156525252005 * (3.0 * z * z - 1.0),
    lambda x, y, z: 1.0925484305920792 * x * z,
    lambda x, y, z: 0.5462742152960396 * (x * x - y * y),
    lambda x, y, z: 0.5900435899266435 * y * (3.0 * x * x - y * y),
    lambda x, y, z: 2.890611442640554 * x * y * z,
    lambda x, y, z: 0.4570457994644658 * y * (5.0 * z * z - 1.0),
    lambda x, y, z: 0.3731763325901154 * z * (5.0 * z * z - 3.0),
    lambda x, y, z: 0.4570457994644658 * x * (5.0 * z * z - 1.0),
    lambda x, y, z: 1.445305721320277 * z * (x * x - y * y),
    lambda x, y, z: 0.5900435899266435 * x * (x * x - 3.0 * y * y),
    lambda x, y, z: 2.5033429417967046 * x * y * (x * x - y * y),
    lambda x, y, z: 1.7701307697799304 * y * z * (3.0 * x * x - y * y),
    lambda x, y, z: 0.9461746957575601 * x * y * (7.0 * z * z - 1.0),
    lambda x, y, z: 0.6690465435572892 * y * z * (7.0 * z * z - 3.0),
    lambda x, y, z: 0.10578554691520431
    * (35.0 * z * z * z * z - 30.0 * z * z + 3.0),
    lambda x, y, z: 0.6690465435572892 * x * z * (7.0 * z * z - 3.0),
    lambda x, y, z: 0.47308734787878004 * (x * x - y * y) * (7.0 * z * z - 1.0),
    lambda x, y, z: 1.7701307697799304 * x * z * (x * x - 3.0 * y * y),
    lambda x, y, z: 0.6258357354491761
    * (x * x * x * x - 6.0 * x * x * y * y + y * y * y * y),
]


def eval_poly_basis(dirs):
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    return np.stack([f(x, y, z) for f in SH_POLY], axis=-1)


def random_unit_dirs(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def clamped_cosine_about_z(dirs):
    return np.maximum(0.0, dirs[..., 2])


class TestEvalBasis:
    """Basis values against the independent closed-form table."""

    def test_matches_polynomial_oracle(self):
        dirs = random_unit_dirs(500, seed=11)
        got = sh.eval_basis(dirs, degree=4)
        want = eval_poly_basis(dirs)
        assert got.shape == (500, 25)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_dc_is_constant(self):
        dirs = random_unit_dirs(64, seed=3)
        basis = sh.eval_basis(dirs, degree=0)
        assert np.allclose(basis[:, 0], 0.28209479177387814, atol=1e-12)

    def test_zonal_value_at_pole(self):
        basis = sh.eval_basis(np.array([0.0, 0.0, 1.0]), degree=1)
        assert abs(basis[2] - 0.4886025119029199) < 1e-9

    def test_renormalized_unit_dir_gives_same_values(self):
        dirs = random_unit_dirs(32, seed=7)
        a = sh.eval_basis(dirs, degree=4)
        b = sh.eval_basis(sh.normalize(dirs), degree=4)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sh.eval_basis(np.array([np.nan, 0.0, 1.0]))

    def test_rejects_unsupported_degree(self):
        with pytest.raises(ValueError):
            sh.eval_basis(np.array([0.0, 0.0, 1.0]), degree=9)

    def test_higher_degrees_extend_lower(self):
        dirs = random_unit_dirs(40, seed=19)
        b8 = sh.eval_basis(dirs, degree=8)
        b2 = sh.eval_basis(dirs, degree=2)
        assert b8.shape == (40, 81)
        assert np.max(np.abs(b8[:, :9] - b2)) < 1e-14


class TestOrthonormality:
    def test_gram_close_to_identity(self):
        g = sh.gram_matrix(degree=4, n_theta=128, n_phi=256)
        assert np.max(np.abs(g - np.eye(25))) < 1e-3

    def test_gram_degree_8(self):
        g = sh.gram_matrix(degree=8, n_theta=128, n_phi=256)
        assert np.max(np.abs(g - np.eye(81))) < 1e-3


class TestProjection:
    def test_constant_function_hits_dc_only(self):
        # Texel weights integrate the measure exactly, so DC is exact and
        # the phi sums kill every m != 0 term; even zonal bands keep the
        # O(dtheta^2) grid error, measured at 2.7e-4 for the default grid.
        coeffs = sh.project(lambda d: np.ones(d.shape[0]), degree=4)
        assert abs(coeffs[0] - 2.0 * math.sqrt(math.pi)) < 1e-12
        assert np.max(np.abs(coeffs[1:])) < 5e-4
        nonzonal = [i for i in range(1, 25) if i not in (2, 6, 12, 20)]
        assert np.max(np.abs(coeffs[nonzonal])) < 1e-12

    def test_pure_basis_roundtrip(self):
        # f = Y_7 (band 2, order 0) should project to a one-hot vector.
        coeffs = sh.project(lambda d: sh.eval_basis(d, 4)[:, 6], degree=4)
        want = np.zeros(25)
        want[6] = 1.0
        assert np.max(np.abs(coeffs - want)) < 1e-3

    def test_clamped_cosine_zonal_values(self):
        # Frozen values cross-checked against the dense quadrature below:
        # analytic band integrals of max(0, cos theta).
        want = {
            0: 0.8862269254527580,
            2: 1.0233267079464885,
            6: 0.4954159122007545,
            12: 0.0,
            20: -0.1107783656817747,
        }
        coeffs = sh.project(clamped_cosine_about_z, degree=4)
        dense = sh.project(clamped_cosine_about_z, degree=4, n_theta=512, n_phi=1024)
        for idx, val in want.items():
            assert abs(coeffs[idx] - val) < 1e-3
            assert abs(dense[idx] - val) < 5e-5
        # All non-zonal terms vanish for a function of z alone.
        mask = np.ones(25, dtype=bool)
        mask[list(want)] = False
        assert np.max(np.abs(coeffs[mask])) < 1e-6

    def test_projection_is_linear(self):
        f = lambda d: 0.3 + d[:, 0] * d[:, 2]
        a = sh.project(f, degree=3)
        b = sh.project(lambda d: 2.5 * f(d), degree=3)
        assert np.max(np.abs(b - 2.5 * a)) < 1e-12

    def test_multichannel_sampler(self):
        f = lambda d: np.stack([np.ones(len(d)), d[:, 2], d[:, 0] ** 2], axis=1)
        coeffs = sh.project(f, degree=2)
        assert coeffs.shape == (9, 3)
        assert abs(coeffs[0, 0] - 2.0 * math.sqrt(math.pi)) < 1e-9

    def test_rejects_nonfinite_sampler(self):
        def bad(d):
            v = np.ones(d.shape[0])
            v[17] = np.inf
            return v

        with pytest.raises(ValueError):
            sh.project(bad, degree=2)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            sh.quadrature_nodes(4, 8)


class TestReconstruct:
    def test_band_limited_roundtrip(self):
        rng = np.random.default_rng(42)
        coeffs = rng.normal(size=25)
        f = lambda d: sh.reconstruct(coeffs, d)
        back = sh.project(f, degree=4)
        assert np.max(np.abs(back - coeffs)) < 1e-3

    def test_clamped_cosine_truncation_at_pole(self):
        # Frozen: reconstruction of the degree-4 clamped cosine at the
        # pole equals 31/32 (dense-quadrature cross-check inline).
        coeffs = sh.project(clamped_cosine_about_z, degree=4, n_theta=512, n_phi=1024)
        val = sh.reconstruct(coeffs, np.array([0.0, 0.0, 1.0]))
        assert abs(val - 0.96875) < 1e-4

    def test_multichannel_reconstruct(self):
        coeffs = np.zeros((9, 3))
        coeffs[0, :] = [1.0, 2.0, 3.0]
        vals = sh.reconstruct(coeffs, random_unit_dirs(10, seed=1))
        assert vals.shape == (10, 3)
        assert np.allclose(vals[:, 1] / vals[:, 0], 2.0)


class TestInnerProduct:
    def test_parseval_against_quadrature(self):
        # <f, g> over the sphere equals the coefficient dot product for
        # band-limited f, g. The independent route integrates the pointwise
        # product with Gauss-Legendre nodes in cos(theta) and a uniform phi
        # grid, which is exact for band-limited integrands.
        rng = np.random.default_rng(5)
        u = rng.normal(size=16)
        v = rng.normal(size=16)
        gu, gw = np.polynomial.legendre.leggauss(32)
        n_phi = 64
        phi = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
        st = np.sqrt(1.0 - gu**2)
        dirs = np.stack(
            [
                st[:, None] * np.cos(phi)[None, :],
                st[:, None] * np.sin(phi)[None, :],
                np.broadcast_to(gu[:, None], (32, n_phi)),
            ],
            axis=-1,
        ).reshape(-1, 3)
        w = np.broadcast_to(gw[:, None] * (2.0 * math.pi / n_phi), (32, n_phi)).reshape(-1)
        quad = float(np.sum(w * sh.reconstruct(u, dirs) * sh.reconstruct(v, dirs)))
        assert abs(quad - float(np.dot(u, v))) < 1e-9


def test_degree_for_rejects_bad_count():
    assert sh.degree_for(25) == 4
    assert sh.degree_for(1) == 0
    with pytest.raises(ValueError):
        sh.degree_for(24)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        sh.normalize(np.zeros(3))

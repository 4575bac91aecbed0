import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prtvol import sh
from conftest import gram_matrix


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


class TestBlockedEvaluation:
    """eval_basis evaluates in blocks of sh._BASIS_BLOCK directions; no
    value may depend on the blocks or on the rest of the batch."""

    @pytest.mark.parametrize("block", [1, 3, 64])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_direction_alone_equals_any_batch(self, block, data, monkeypatch):
        monkeypatch.setattr(sh, "_BASIS_BLOCK", block)
        degree = data.draw(st.integers(0, sh.MAX_DEGREE), label="degree")
        size = data.draw(st.sampled_from([block - 1, block, block + 1, 2 * block + 7]),
                         label="size")
        # Any finite components; unit length does not matter to the bits.
        dirs = data.draw(arrays(np.float64, (size, 3), elements=st.floats(-1.0, 1.0)),
                         label="dirs")
        rows = data.draw(st.sampled_from([1] + [d for d in range(2, size + 1) if size % d == 0]),
                         label="rows")
        shape = data.draw(st.sampled_from([(size,), (rows, size // rows)]), label="shape")
        n = sh.num_coeffs(degree)
        batch = sh.eval_basis(dirs.reshape(shape + (3,)), degree)
        assert batch.shape == shape + (n,)
        flat = batch.reshape(size, n)
        for i in range(size):
            alone = sh.eval_basis(dirs[i], degree)
            assert alone.shape == (n,) and alone.tobytes() == flat[i].tobytes()
        pick = data.draw(st.permutations(range(size)), label="order")[: size // 2 + 1]
        assert sh.eval_basis(dirs[pick], degree).tobytes() == flat[pick].tobytes()

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3), (0, 3), (2, 0, 3)])
    @pytest.mark.parametrize("degree", [0, 4, 8])
    def test_result_is_c_contiguous_float64(self, shape, degree):
        # Projections multiply this layout with BLAS, whose bits depend on it.
        count = int(np.prod(shape[:-1]))
        dirs = np.asfortranarray(random_unit_dirs(count, seed=4).reshape(shape))
        for given_dirs in (dirs, dirs.astype(np.float32)):
            got = sh.eval_basis(given_dirs, degree)
            assert got.shape == shape[:-1] + (sh.num_coeffs(degree),)
            assert got.dtype == np.float64 and got.flags.c_contiguous


class TestBasisGridCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        sh.basis_grid.cache_clear()
        yield
        sh.basis_grid.cache_clear()

    @staticmethod
    def nbytes(grid):
        return sum(a.nbytes for a in grid)

    def test_keeps_recently_used_grids_up_to_bound(self, monkeypatch):
        keys = [(0, 8, 16), (0, 8, 17), (0, 9, 16)]
        sizes = [t * p * (3 + 1 + 1) * 8 for _, t, p in keys]  # dirs, weight, one column
        assert sizes[0] < sizes[1] < sizes[2]
        monkeypatch.setattr(sh, "_GRID_CACHE_BYTES", sizes[0] + sizes[2])
        a, b = sh.basis_grid(*keys[0]), sh.basis_grid(*keys[1])
        assert self.nbytes(a) == sizes[0] and self.nbytes(b) == sizes[1]
        assert sh.basis_grid(*keys[1]) is b
        assert sh.basis_grid(*keys[0]) is a  # a is now the most recently used
        c = sh.basis_grid(*keys[2])  # evicts b, the least recently used
        assert sh.basis_grid(*keys[0]) is a and sh.basis_grid(*keys[2]) is c
        rebuilt = sh.basis_grid(*keys[1])
        assert rebuilt is not b
        assert all(x.tobytes() == y.tobytes() for x, y in zip(rebuilt, b))

    def test_grid_above_bound_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(sh, "_GRID_CACHE_BYTES", 1000)
        a = sh.basis_grid(2, 8, 16)
        b = sh.basis_grid(2, 8, 16)
        assert a is not b and a[2].tobytes() == b[2].tobytes()

    def test_threads_share_the_cache_safely(self, monkeypatch):
        # Render and validate threads call basis_grid concurrently; with a
        # bound of about two grids every call inserts and evicts.
        keys = [(d, 8, 16) for d in range(4)]
        want = {k: sh.eval_basis(sh.quadrature_nodes(8, 16)[0], k[0]).tobytes() for k in keys}
        monkeypatch.setattr(sh, "_GRID_CACHE_BYTES", 2 * 128 * (3 + 1 + 9) * 8)
        errors = []

        def worker(seed):
            try:
                for i in range(500):
                    k = keys[(seed + i * (seed + 1)) % len(keys)]
                    if sh.basis_grid(*k)[2].tobytes() != want[k]:
                        errors.append(k)
            except Exception as e:  # reported below; a thread cannot fail the test itself
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        kept = sum(a.nbytes for g in sh._grids.values() for a in g)
        assert 0 < kept <= sh._GRID_CACHE_BYTES

    def test_concurrent_misses_build_the_grid_once(self, monkeypatch):
        # The first builder parks inside the build until a second thread
        # starts building the same grid too, or 0.5 s pass; the second
        # thread calls basis_grid only once the first is parked.
        nodes, evaluate = sh.quadrature_nodes, sh.eval_basis
        parked, other_built = threading.Event(), threading.Event()
        builds = []

        def parking_nodes(*args):
            if parked.is_set():
                other_built.set()
            else:
                parked.set()
                other_built.wait(0.5)
            return nodes(*args)

        def counting_eval(*args):
            builds.append(args)
            return evaluate(*args)

        monkeypatch.setattr(sh, "quadrature_nodes", parking_nodes)
        monkeypatch.setattr(sh, "eval_basis", counting_eval)
        grids = [None, None]

        def call(slot):
            grids[slot] = sh.basis_grid(2, 8, 16)

        first = threading.Thread(target=call, args=(0,))
        first.start()
        assert parked.wait(10)
        second = threading.Thread(target=call, args=(1,))
        second.start()
        first.join(10)
        second.join(10)
        assert len(builds) == 1
        assert grids[0] is grids[1]

    def test_cache_clear_through_alias(self):
        a = sh.basis_grid(1, 8, 16)
        assert sh.basis_grid(1, 8, 16) is a
        sh._cached_grid.cache_clear()
        assert sh.basis_grid(1, 8, 16) is not a


class TestOrthonormality:
    def test_gram_close_to_identity(self):
        g = gram_matrix(degree=4, n_theta=128, n_phi=256)
        assert np.max(np.abs(g - np.eye(25))) < 1e-3

    def test_gram_degree_8(self):
        g = gram_matrix(degree=8, n_theta=128, n_phi=256)
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


def blockwise_projection(fn, degree, n_theta, n_phi):
    """project's arithmetic written out: the in-order sum of the products of
    each _BASIS_BLOCK block's coefficient-major basis and weighted values."""
    dirs, weights = sh.quadrature_nodes(n_theta, n_phi)
    total = None
    for b in range(0, len(dirs), sh._BASIS_BLOCK):
        d, w = dirs[b:b + sh._BASIS_BLOCK], weights[b:b + sh._BASIS_BLOCK]
        vals = fn(d)
        rows = np.ascontiguousarray(sh.eval_basis(d, degree).T)
        part = rows @ (w * vals if vals.ndim == 1 else w[:, None] * vals)
        total = part if total is None else total + part
    return total


class TestBlockedProjection:
    """project samples, weights and multiplies one block of nodes at a time."""

    @pytest.mark.parametrize("channels", [None, 3], ids=["scalar", "rgb"])
    @pytest.mark.parametrize("degree, grid", [(0, (8, 16)), (4, (60, 100)), (8, (64, 128)),
                                              (3, (120, 100)), (8, (100, 250))])
    def test_equals_in_order_sum_of_block_products(self, degree, grid, channels):
        # 60x100 and 120x100 are one and two whole blocks; 8x16 is one
        # partial block, and 64x128 and 100x250 end in a partial block.
        rng = np.random.default_rng(degree)
        m = rng.normal(size=(3, 3 if channels is None else channels))

        def fn(d):
            v = np.exp(d @ m) - 0.5
            return v[:, 0] if channels is None else v

        got = sh.project(fn, degree, *grid)
        want = blockwise_projection(fn, degree, *grid)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [None, 1, 7], ids=["default", "1", "7"])
    def test_sampler_sees_each_block_once_in_node_order(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(sh, "_BASIS_BLOCK", block)
        seen = []

        def fn(d):
            seen.append(d.copy())
            return d[:, 2] + 1.0

        grid = (8, 16) if block else (96, 250)
        sh.project(fn, 3, *grid)
        assert max(len(d) for d in seen) <= sh._BASIS_BLOCK
        assert len(seen) == -(-grid[0] * grid[1] // sh._BASIS_BLOCK)
        assert np.array_equal(np.concatenate(seen), sh.quadrature_nodes(*grid)[0])

    def test_checks_each_block(self):
        calls = []

        def bad_second_block(d):
            calls.append(len(d))
            v = np.ones(len(d))
            if len(calls) == 2:
                v[-1] = np.nan
            return v

        with pytest.raises(ValueError, match="non-finite"):
            sh.project(bad_second_block, 2, 64, 128)
        with pytest.raises(ValueError, match="mismatch"):
            sh.project(lambda d: np.ones(min(len(d), 100)), 2, 64, 128)
        with pytest.raises(ValueError, match="shape"):
            sh.project(lambda d: np.ones((len(d), 2, 2)), 2, 8, 16)

    def test_overflow_gives_nonfinite_coefficients_without_warnings(self):
        # Two hemispheres, one block each: the z coefficient's halves
        # overflow to +inf and -inf, and their sum is NaN. The callers
        # check the result, and pytest fails the test on a RuntimeWarning.
        coeffs = sh.project(lambda d: np.full(len(d), 1.7e308), 2, 8, 1500)
        assert np.isposinf(coeffs[0]) and np.isnan(coeffs[2])


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

import math

import numpy as np
import pytest

from prtvol import imageio, metrics, render


def save_normal_map(path, nm, mask_path=None):
    imageio.write_pfm(path, nm.normals)
    if mask_path is not None:
        imageio.write_pfm(mask_path, nm.mask)


def from_render(pixels, alpha, alpha_floor=1e-3):
    """NormalMap from a rendered normal-mode image (values 0.5 * (n + 1)).

    The alpha channel becomes the mask; pixels whose decoded vector is
    too short to renormalize are masked out.
    """
    alpha = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, 1.0)
    pix = np.asarray(pixels, dtype=np.float64)
    safe = np.maximum(alpha, alpha_floor)[:, :, None]
    decoded = 2.0 * (pix / safe) - 1.0
    lengths = np.linalg.norm(decoded, axis=-1)
    ok = (alpha >= alpha_floor) & (lengths > 1e-6)
    normals = np.where(ok[:, :, None], decoded / np.maximum(lengths, 1e-6)[:, :, None], 0.0)
    return metrics.NormalMap(normals=normals, mask=np.where(ok, alpha, 0.0))


def smooth_map(h, w, phase=0.0):
    """Unit normal map with gentle spatial variation, full coverage."""
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    n = np.stack([np.sin(0.35 * xs + phase), np.cos(0.3 * ys),
                  np.full((h, w), 2.0)], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return metrics.NormalMap(normals=n, mask=np.ones((h, w)))


def jittered(nm, amplitude, seed):
    rng = np.random.default_rng(seed)
    n = nm.normals + amplitude * rng.normal(size=nm.normals.shape)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return metrics.NormalMap(normals=n, mask=nm.mask.copy())


def constant_map(h, w, direction, mask=None):
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    n = np.broadcast_to(d, (h, w, 3)).copy()
    if mask is None:
        mask = np.ones((h, w))
    return metrics.NormalMap(normals=n, mask=mask)


class TestNormalMap:
    def test_rejects_long_masked_normals(self):
        n = np.full((4, 4, 3), [0.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="unit length"):
            metrics.NormalMap(normals=n, mask=np.ones((4, 4)))

    def test_unmasked_pixels_unconstrained(self):
        n = np.full((4, 4, 3), [5.0, 5.0, 5.0])
        nm = metrics.NormalMap(normals=n, mask=np.zeros((4, 4)))
        assert nm.height == 4 and nm.width == 4

    def test_rejects_mask_outside_unit_interval(self):
        n = np.broadcast_to([0.0, 0.0, 1.0], (4, 4, 3)).copy()
        with pytest.raises(ValueError, match="mask values"):
            metrics.NormalMap(normals=n, mask=np.full((4, 4), 1.5))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="normals must be"):
            metrics.NormalMap(normals=np.zeros((4, 4, 2)), mask=np.ones((4, 4)))
        n = np.broadcast_to([0.0, 0.0, 1.0], (4, 4, 3)).copy()
        with pytest.raises(ValueError, match="mask shape"):
            metrics.NormalMap(normals=n, mask=np.ones((4, 5)))


class TestCosineSimilarity:
    def test_identical_maps_score_coverage(self):
        mask = np.zeros((8, 8))
        mask[:4] = 1.0
        a = constant_map(8, 8, [0.0, 0.0, 1.0], mask=mask)
        b = constant_map(8, 8, [0.0, 0.0, 1.0], mask=mask.copy())
        assert abs(metrics.normal_cosine_similarity(a, b) - 0.5) < 1e-12

    def test_mask_normalized_identical_is_one(self):
        mask = np.zeros((8, 8))
        mask[:, :3] = 1.0
        a = smooth_map(8, 8)
        a = metrics.NormalMap(normals=a.normals, mask=mask)
        got = metrics.normal_cosine_similarity(a, a, mask_normalized=True)
        assert abs(got - 1.0) < 1e-12

    def test_opposed_maps_score_minus_one(self):
        a = constant_map(6, 6, [0.0, 1.0, 0.0])
        b = constant_map(6, 6, [0.0, -1.0, 0.0])
        got = metrics.normal_cosine_similarity(a, b, mask_normalized=True)
        assert abs(got + 1.0) < 1e-12

    def test_zero_mask_returns_zero(self):
        a = constant_map(4, 4, [0.0, 0.0, 1.0], mask=np.zeros((4, 4)))
        assert metrics.normal_cosine_similarity(a, a, mask_normalized=True) == 0.0

    def test_dimension_mismatch_rejected(self):
        a = constant_map(4, 4, [0.0, 0.0, 1.0])
        b = constant_map(4, 5, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="dimensions differ"):
            metrics.normal_cosine_similarity(a, b)


class TestBlurAndLaplacian:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            metrics.gaussian_blur(np.ones((4, 4)), sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -math.inf])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            metrics.gaussian_blur(np.ones((4, 4)), sigma=sigma)

    def test_blur_preserves_constant(self):
        img = np.full((7, 9), 0.37)
        out = metrics.gaussian_blur(img)
        assert out.shape == img.shape
        assert np.max(np.abs(out - 0.37)) < 1e-12

    def test_laplacian_of_constant_is_zero(self):
        img = np.full((6, 6, 3), 2.5)
        assert np.max(np.abs(metrics.laplacian(img))) < 1e-12

    def test_laplacian_impulse_center(self):
        # An interior impulse is untouched by the reflect padding, so the
        # center response is one minus the squared center kernel weight.
        img = np.zeros((9, 9))
        img[4, 4] = 1.0
        k = np.exp(-0.5 * np.arange(-3, 4, dtype=np.float64) ** 2)
        k0 = k[3] / np.sum(k)
        lap = metrics.laplacian(img, blur_sigma=1.0)
        assert abs(lap[4, 4] - (1.0 - k0 ** 2)) < 1e-12

    def test_laplacian_l1_self_is_zero(self):
        a = smooth_map(10, 12)
        assert metrics.laplacian_l1(a, a) == 0.0

    def test_laplacian_l1_symmetry_and_sign(self):
        a = smooth_map(10, 12)
        b = jittered(a, 0.1, seed=3)
        ab = metrics.laplacian_l1(a, b)
        assert ab > 0.0
        assert ab == metrics.laplacian_l1(b, a)

    def test_two_constants_have_equal_laplacians(self):
        # Distinct flat maps disagree in orientation but both have zero
        # detail, so the Laplacian distance ignores the offset.
        a = constant_map(8, 8, [0.0, 0.0, 1.0])
        b = constant_map(8, 8, [1.0, 0.0, 1.0])
        assert metrics.laplacian_l1(a, b) < 1e-12
        assert metrics.normal_cosine_similarity(a, b) < 0.99

    def test_noise_increases_laplacian_distance(self):
        a = smooth_map(16, 16)
        small = metrics.laplacian_l1(a, jittered(a, 0.03, seed=5))
        big = metrics.laplacian_l1(a, jittered(a, 0.3, seed=5))
        assert 0.0 < small < big

    def test_far_unmasked_pixels_cannot_leak(self):
        # sigma 1 blurs over a 3-pixel radius, so differences nine
        # columns away from the masked strip change nothing.
        mask = np.zeros((16, 16))
        mask[:, :4] = 1.0
        base = smooth_map(16, 16)
        other = base.normals.copy()
        other[:, 12:] = [0.0, 0.0, -1.0]
        a = metrics.NormalMap(normals=base.normals, mask=mask)
        b = metrics.NormalMap(normals=other, mask=mask.copy())
        assert metrics.laplacian_l1(a, b) == 0.0
        assert metrics.normal_cosine_similarity(a, b, mask_normalized=True) == 1.0


class TestFaceCrop:
    def test_empty_box_rejected(self):
        nm = constant_map(8, 8, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="empty after clamping"):
            metrics.face_crop(nm, (10, 10, 20, 20))

    def test_square_crop_same_size_is_identity(self):
        nm = smooth_map(8, 8)
        out = metrics.face_crop(nm, (2, 2, 6, 6), size=4)
        assert np.max(np.abs(out.normals - nm.normals[2:6, 2:6])) < 1e-12
        assert np.array_equal(out.mask, np.ones((4, 4)))

    def test_wide_box_pads_with_empty_rows(self):
        nm = constant_map(8, 8, [0.0, 0.0, 1.0])
        out = metrics.face_crop(nm, (0, 2, 8, 6), size=8)
        assert np.all(out.mask[2:6] == 1.0)
        assert np.all(out.mask[:2] == 0.0)
        assert np.all(out.mask[6:] == 0.0)
        assert np.all(out.normals[:2] == 0.0)

    def test_resampled_normals_are_renormalized(self):
        n = np.zeros((8, 8, 3))
        n[:, :4] = [1.0, 0.0, 0.0]
        n[:, 4:] = [-1.0, 0.0, 0.0]
        nm = metrics.NormalMap(normals=n, mask=np.ones((8, 8)))
        out = metrics.face_crop(nm, (0, 0, 8, 8), size=16)
        lengths = np.linalg.norm(out.normals, axis=-1)
        assert np.max(np.abs(lengths[out.mask > 0.0] - 1.0)) < 1e-12
        assert out.normals[8, 7, 0] > 0.99
        assert out.normals[8, 8, 0] < -0.99

    def test_cancelled_pixels_are_masked_out(self):
        # Downsampling alternating opposite columns mixes them equally,
        # so every output vector vanishes and is dropped from the mask.
        n = np.zeros((8, 8, 3))
        n[:, 0::2] = [1.0, 0.0, 0.0]
        n[:, 1::2] = [-1.0, 0.0, 0.0]
        nm = metrics.NormalMap(normals=n, mask=np.ones((8, 8)))
        out = metrics.face_crop(nm, (0, 0, 8, 8), size=4)
        assert np.all(out.mask == 0.0)
        assert np.all(out.normals == 0.0)


class TestFromRender:
    def test_decodes_encoded_normals(self):
        n = np.array([0.6, -0.48, 0.64])
        n /= np.linalg.norm(n)
        alpha = np.full((3, 3), 0.6)
        alpha[0, 0] = 1e-5
        pixels = alpha[:, :, None] * 0.5 * (n + 1.0)
        nm = from_render(pixels, alpha)
        assert np.max(np.abs(nm.normals[1, 1] - n)) < 1e-12
        assert nm.mask[1, 1] == 0.6
        assert nm.mask[0, 0] == 0.0

    def test_rendered_sphere_decodes_radial_normal(self, sphere_scene):
        cam = render.Camera(position=(0.0, -2.8, 0.9), look_at=(0.0, 0.0, 0.0),
                            fov_y_deg=42.0, width=13, height=13)
        nm = from_render(*render.render_image(sphere_scene, None, cam, mode="normal"))
        # The center ray passes through the sphere's center, so the
        # contributing samples all look straight back at the camera.
        # Finite-difference probes span half the density ramp here, which
        # costs a few degrees per sample, hence the loose gate.
        toward_cam = np.asarray(cam.position, dtype=np.float64)
        toward_cam /= np.linalg.norm(toward_cam)
        assert nm.mask[6, 6] > 0.5
        assert float(nm.normals[6, 6] @ toward_cam) > 0.99
        assert nm.mask[0, 0] == 0.0


class TestIO:
    def test_roundtrip_with_mask(self, tmp_path):
        nm = smooth_map(6, 8)
        grad = np.linspace(0.0, 1.0, 48).reshape(6, 8)
        nm = metrics.NormalMap(normals=nm.normals, mask=grad)
        npath = tmp_path / "n.pfm"
        mpath = tmp_path / "m.pfm"
        save_normal_map(npath, nm, mask_path=mpath)
        back = metrics.load_normal_map(npath, mask_path=mpath)
        assert np.max(np.abs(back.normals - nm.normals)) < 1e-6
        assert np.max(np.abs(back.mask - nm.mask)) < 1e-6

    def test_missing_mask_defaults_to_full(self, tmp_path):
        nm = smooth_map(4, 4)
        path = tmp_path / "n.pfm"
        save_normal_map(path, nm)
        back = metrics.load_normal_map(path)
        assert np.array_equal(back.mask, np.ones((4, 4)))

    def test_grayscale_normals_rejected(self, tmp_path):
        path = tmp_path / "gray.pfm"
        imageio.write_pfm(path, np.ones((4, 4)))
        with pytest.raises(ValueError, match="grayscale"):
            metrics.load_normal_map(path)

    def test_color_mask_rejected(self, tmp_path):
        npath = tmp_path / "n.pfm"
        mpath = tmp_path / "m.pfm"
        save_normal_map(npath, smooth_map(4, 4))
        imageio.write_pfm(mpath, np.ones((4, 4, 3)))
        with pytest.raises(ValueError, match="grayscale"):
            metrics.load_normal_map(npath, mask_path=mpath)

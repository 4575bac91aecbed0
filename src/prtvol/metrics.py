"""Image-space accuracy metrics for normal maps.

A NormalMap pairs per-pixel unit vectors with a soft coverage mask.
The two scores are the masked cosine similarity between maps and the
masked L1 distance between their Laplacians, where the Laplacian is
the image minus a Gaussian-blurred copy of itself. Both divide by the
total pixel count; a mask-normalized variant divides by mask mass
instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import imageio

DEFAULT_BLUR_SIGMA = 1.0
UNIT_TOLERANCE = 1e-3


@dataclass(frozen=True)
class NormalMap:
    normals: np.ndarray  # (H, W, 3), unit length where mask > 0
    mask: np.ndarray     # (H, W) in [0, 1]

    def __post_init__(self):
        n = self.normals
        m = self.mask
        if n.ndim != 3 or n.shape[2] != 3:
            raise ValueError(f"normals must be (H, W, 3), got {n.shape}")
        if m.shape != n.shape[:2]:
            raise ValueError(f"mask shape {m.shape} does not match image {n.shape[:2]}")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise ValueError("mask values must lie in [0, 1]")
        covered = m > 0.0
        if np.any(covered):
            lengths = np.linalg.norm(n[covered], axis=-1)
            worst = np.max(np.abs(lengths - 1.0))
            if worst > UNIT_TOLERANCE:
                raise ValueError(
                    f"masked normals must be unit length within {UNIT_TOLERANCE}; "
                    f"worst deviation {worst:.2e}")

    @property
    def width(self):
        return self.normals.shape[1]

    @property
    def height(self):
        return self.normals.shape[0]


def load_normal_map(path, mask_path=None):
    """Read a 3-channel PFM of raw [-1, 1] normals, optional gray mask."""
    normals = imageio.read_pfm(path)
    if normals.ndim != 3:
        raise ValueError(f"{path} is grayscale; a normal map needs 3 channels")
    if mask_path is not None:
        mask = imageio.read_pfm(mask_path)
        if mask.ndim == 3:
            raise ValueError(f"{mask_path} has 3 channels; the mask must be grayscale")
        mask = np.clip(mask, 0.0, 1.0)
    else:
        mask = np.ones(normals.shape[:2], dtype=np.float64)
    return NormalMap(normals=np.asarray(normals, dtype=np.float64), mask=mask)


def _check_dims(a, b):
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"normal map dimensions differ: {a.height}x{a.width} vs {b.height}x{b.width}")


def normal_cosine_similarity(a, b, mask_normalized=False):
    """Masked mean cosine between two same-size normal maps.

    The masks multiply elementwise; the sum divides by the total pixel
    count, so identical maps score the mask coverage fraction. With
    mask_normalized the divisor is the mask mass instead (0 mask -> 0).
    """
    _check_dims(a, b)
    m = a.mask * b.mask
    dots = np.sum(a.normals * b.normals, axis=-1) * m
    denom = np.sum(m) if mask_normalized else a.mask.size
    if denom == 0.0:
        return 0.0
    return float(np.sum(dots) / denom)


def checked_sigma(sigma, name="sigma"):
    """sigma itself if it is a positive finite number: the blur's rule."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {sigma}")
    return sigma


def gaussian_blur(img, sigma=DEFAULT_BLUR_SIGMA):
    """Separable Gaussian blur with reflect padding, radius ceil(3 sigma)."""
    checked_sigma(sigma)
    img = np.asarray(img, dtype=np.float64)
    radius = int(math.ceil(3.0 * sigma))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (k / sigma) ** 2)
    kernel /= np.sum(kernel)
    spatial = img if img.ndim == 3 else img[:, :, None]
    pad = np.pad(spatial, ((radius, radius), (0, 0), (0, 0)), mode="reflect")
    rows = np.zeros_like(spatial)
    for i, w in enumerate(kernel):
        rows += w * pad[i:i + spatial.shape[0]]
    pad = np.pad(rows, ((0, 0), (radius, radius), (0, 0)), mode="reflect")
    out = np.zeros_like(spatial)
    for j, w in enumerate(kernel):
        out += w * pad[:, j:j + spatial.shape[1]]
    return out if img.ndim == 3 else out[:, :, 0]


def laplacian(img, blur_sigma=DEFAULT_BLUR_SIGMA):
    """Difference of an image and its Gaussian-blurred copy."""
    img = np.asarray(img, dtype=np.float64)
    return img - gaussian_blur(img, blur_sigma)


def laplacian_l1(a, b, blur_sigma=DEFAULT_BLUR_SIGMA, mask_normalized=False):
    """Masked mean L1 distance between per-map Laplacians.

    Component absolute differences are summed per pixel before masking;
    the divisor matches normal_cosine_similarity.
    """
    _check_dims(a, b)
    la = laplacian(a.normals, blur_sigma)
    lb = laplacian(b.normals, blur_sigma)
    m = a.mask * b.mask
    per_pixel = np.sum(np.abs(la - lb), axis=-1) * m
    denom = np.sum(m) if mask_normalized else a.mask.size
    if denom == 0.0:
        return 0.0
    return float(np.sum(per_pixel) / denom)


def _resize_bilinear(img, out_h, out_w):
    img = np.asarray(img, dtype=np.float64)
    in_h, in_w = img.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    if img.ndim == 3:
        fy = fy[:, :, None]
        fx = fx[:, :, None]
    top = img[y0][:, x0] * (1.0 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1.0 - fx) + img[y1][:, x1] * fx
    return top * (1.0 - fy) + bot * fy


def face_crop(nm, box, size=256):
    """Crop to a bounding box, pad to square, resize, renormalize.

    box is (x0, y0, x1, y1) in pixels, exclusive on the high edge and
    clamped to the image. Padding is empty (zero mask); resampled
    normals are renormalized and pixels too mixed to renormalize are
    masked out.
    """
    x0, y0, x1, y1 = (int(v) for v in box)
    x0 = max(0, x0)
    y0 = max(0, y0)
    x1 = min(nm.width, x1)
    y1 = min(nm.height, y1)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"crop box {box} is empty after clamping")
    crop_n = nm.normals[y0:y1, x0:x1]
    crop_m = nm.mask[y0:y1, x0:x1]
    h, w = crop_n.shape[:2]
    side = max(h, w)
    pad_n = np.zeros((side, side, 3), dtype=np.float64)
    pad_m = np.zeros((side, side), dtype=np.float64)
    oy = (side - h) // 2
    ox = (side - w) // 2
    pad_n[oy:oy + h, ox:ox + w] = crop_n
    pad_m[oy:oy + h, ox:ox + w] = crop_m
    res_n = _resize_bilinear(pad_n, size, size)
    res_m = np.clip(_resize_bilinear(pad_m, size, size), 0.0, 1.0)
    lengths = np.linalg.norm(res_n, axis=-1)
    ok = (res_m > 0.0) & (lengths > 1e-6)
    res_n = np.where(ok[:, :, None], res_n / np.maximum(lengths, 1e-6)[:, :, None], 0.0)
    res_m = np.where(ok, res_m, 0.0)
    return NormalMap(normals=res_n, mask=res_m)

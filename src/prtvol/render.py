"""Volume renderer: emission-style compositing of shaded samples.

A primary ray marches [t_near, t_far] in fixed steps; the pixel value is
sum_k T_k * density_k * value_k * dt with T_k the transmittance of all
strictly earlier samples, accumulated in log space so alpha telescopes to
1 - exp(-total optical depth) exactly. transport.primary_march evaluates
density only where a dense march could find any; every mode composites a
chunk on its live window (transport._march_weights), outside which each
weight is exactly 0, and forms positions only where a channel shades them.

Shaded modes (lit, diffuse, specular, irradiance) are amortized: each
ray bakes transfer only at its top weighted samples (or looks them up
in a cache) and the pixel is the weight-normalized average of those
anchor radiances, scaled by the ray's alpha. Anchors with no recoverable
surface normal (a flat stretch of the medium) are dropped from the
average; a ray with no usable anchor shades black. Debug channels that
need no transfer follow suit: albedo and visibility composite every
nonzero sample exactly, and the normal channel averages the encoded
normal over the samples that have one, scaled by alpha for decoding.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import chunks, field, sh, shading, transport

MODES = ("lit", "diffuse", "specular", "albedo", "normal", "irradiance", "visibility")
SHADED_MODES = ("lit", "diffuse", "specular", "irradiance")  # modes that need an SH light
DEFAULT_RESOLUTION = 64
RAY_CHUNK = 1024  # rays per batch; fixed so thread count cannot affect results


@dataclass(frozen=True)
class Camera:
    position: np.ndarray
    look_at: np.ndarray
    up: np.ndarray = (0.0, 0.0, 1.0)
    fov_y_deg: float = 45.0
    width: int = DEFAULT_RESOLUTION
    height: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        """Reject what would render an empty, blank or mirrored image."""
        for name in ("width", "height"):
            field._count(getattr(self, name), f"camera {name}")
        fov = field._finite(self.fov_y_deg, "camera fov_y_deg")
        if not 0.0 < fov < 180.0:
            raise ValueError(f"camera fov_y_deg must lie in (0, 180), got {fov}")
        for name in ("position", "look_at", "up"):
            field._as_vec3(getattr(self, name), f"camera {name}")

    def rays(self):
        """Pixel-center primary rays, origins and unit directions (H, W, 3)."""
        pos = np.asarray(self.position, dtype=np.float64)
        fwd = sh.normalize(np.asarray(self.look_at, dtype=np.float64) - pos)
        up_hint = np.asarray(self.up, dtype=np.float64)
        right = np.cross(fwd, up_hint)
        if np.linalg.norm(right) < 1e-9:
            raise ValueError("camera up vector is parallel to the view direction")
        right = sh.normalize(right)
        upv = np.cross(right, fwd)
        tan_half = math.tan(math.radians(self.fov_y_deg) * 0.5)
        aspect = self.width / self.height
        xs = ((np.arange(self.width) + 0.5) / self.width * 2.0 - 1.0) * tan_half * aspect
        ys = (1.0 - (np.arange(self.height) + 0.5) / self.height * 2.0) * tan_half
        d = (fwd[None, None, :]
             + xs[None, :, None] * right[None, None, :]
             + ys[:, None, None] * upv[None, None, :])
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        origins = np.broadcast_to(pos, d.shape).copy()
        return origins, d


@dataclass(frozen=True)
class LinearImage:
    pixels: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class RenderSettings:
    """Shading settings; march step counts come from the scene's march block."""

    transfer_grid: tuple = (16, 32)   # on-the-fly bake grid per anchor
    anchors_per_ray: int = 4
    transfer_cache: object = None     # TransferCache for lookup shading


def linear_to_srgb(values):
    """Linear [0, 1] to sRGB transfer; input is clipped first.

    The gamma branch is written as 1 + 1.055 * (v^(1/2.4) - 1) so the
    top endpoint maps to exactly 1.0; the textbook 1.055 * x - 0.055
    form misses it by one ulp.
    """
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    gamma = 1.0 + 1.055 * (np.power(v, 1.0 / 2.4) - 1.0)
    return np.where(v <= 0.0031308, 12.92 * v, gamma)


def srgb_u8(pixels, exposure=1.0):
    """Linear pixels to 8-bit sRGB with an exposure multiplier."""
    return np.round(255.0 * linear_to_srgb(np.asarray(pixels) * exposure)).astype(np.uint8)


def alpha_u8(alpha):
    return np.round(255.0 * np.clip(np.asarray(alpha), 0.0, 1.0)).astype(np.uint8)


def render_image(scene, light, camera, mode="lit", settings=None, threads=1):
    """Render the camera's view; returns a LinearImage.

    Work is split into fixed-size ray chunks; the thread count only
    schedules those chunks, so output is independent of it.
    """
    settings = settings or RenderSettings()
    if mode not in MODES:
        raise ValueError(f"unknown render mode {mode!r}; expected one of {MODES}")
    if mode in SHADED_MODES:
        if light is None:
            raise ValueError(f"mode {mode!r} requires an SH light")
        cache = settings.transfer_cache
        if cache is not None and cache.degree != light.degree:
            raise ValueError(f"transfer cache degree {cache.degree} does not match light "
                             f"degree {light.degree}")
    origins, dirs = camera.rays()
    flat_o = origins.reshape(-1, 3)
    flat_d = dirs.reshape(-1, 3)
    n = flat_o.shape[0]
    rgb = np.zeros((n, 3), dtype=np.float64)
    alpha = np.zeros(n, dtype=np.float64)

    def run(lo, hi):
        rgb[lo:hi], alpha[lo:hi] = _trace_batch(scene, light, flat_o[lo:hi], flat_d[lo:hi],
                                                mode, settings)

    chunks.map_chunks(run, n, RAY_CHUNK, threads)
    return LinearImage(pixels=rgb.reshape(camera.height, camera.width, 3),
                       alpha=alpha.reshape(camera.height, camera.width))


def _trace_batch(scene, light, origins, dirs, mode, settings):
    n_rays = origins.shape[0]
    sigma, t, dt = transport.primary_march(scene, origins, dirs)
    tau, live, c0, trans, weight = transport._march_weights(sigma, dt, settings.anchors_per_ray)
    alpha = 1.0 - np.exp(-tau)

    if not np.any(live):
        return np.zeros((n_rays, 3)), alpha

    if mode == "visibility":
        dense = np.zeros_like(sigma)  # zero-padded, so the sum groups terms as before
        dense[:, c0:c0 + weight.shape[1]] = weight * trans
        return np.sum(dense[:, :, None], axis=1) * np.ones((1, 3)), alpha

    # (ray, window column, weight) to shade: all live samples, or each ray's top m.
    if mode in ("albedo", "normal"):
        ray_idx, col = np.nonzero(live)
        w = weight[ray_idx, col]
    else:
        m = min(settings.anchors_per_ray, weight.shape[1])
        col = np.sort(np.argpartition(weight, -m, axis=1)[:, -m:], axis=1)
        w = np.take_along_axis(weight, col, axis=1).ravel()
        ray_idx, col = np.repeat(np.arange(n_rays), m), col.ravel()
    del sigma, live, trans, weight  # free the march's arrays: shading reads only these
    pts = transport.primary_points(origins, dirs, t, ray_idx, col + c0)

    if mode == "albedo":
        value, _ = field.material(scene, pts)
        return _splat(ray_idx, w[:, None] * value, n_rays), alpha
    if mode == "normal":
        # Encoded normals exist only where the gradient does, so the pixel
        # is their weight-normalized average scaled by alpha; dividing by
        # alpha on decode then recovers 0.5 * (n + 1) directly.
        nrm, valid = field.normals(scene, pts)
        w = w * valid
        den = np.bincount(ray_idx, weights=w, minlength=n_rays)
        scale = np.divide(alpha, den, out=np.zeros_like(den), where=den > 0.0)
        return _splat(ray_idx, w[:, None] * 0.5 * (nrm + 1.0), n_rays) * scale[:, None], alpha

    avalid, anrm, coeffs = _anchor_transfers(scene, light, pts, w, settings)
    aw = (w * avalid).reshape(n_rays, m)
    coeffs = coeffs.reshape(n_rays, m, -1)
    wsum = np.sum(aw, axis=1)
    scale = np.divide(alpha, wsum, out=np.zeros_like(wsum), where=wsum > 0.0)

    if mode == "irradiance":
        value = shading.irradiance(coeffs, light).reshape(-1, 3)
    else:
        # Only valid anchors carry weight; the rest keep a zero material.
        ok = np.flatnonzero(avalid)
        albedo, tint = np.zeros_like(pts), np.zeros_like(pts)
        albedo[ok], tint[ok] = field.material(scene, pts[ok])
        diffuse = shading.diffuse_radiance(albedo.reshape(n_rays, m, 3), coeffs,
                                           light).reshape(-1, 3)
        if mode != "diffuse" and np.any(tint > 0.0):
            specular = shading.specular_radiance(
                tint, anrm, np.repeat(-dirs, m, axis=0), coeffs.reshape(n_rays * m, -1), light)
        else:
            specular = np.zeros_like(diffuse)
        if mode == "diffuse":
            value = diffuse
        elif mode == "specular":
            value = specular
        else:
            value = diffuse + specular

    rgb = np.sum(aw[:, :, None] * value.reshape(n_rays, m, 3), axis=1) * scale[:, None]
    return rgb, alpha


def _splat(ray_idx, values, n_rays):
    """Per-ray sums of (N, 3) sample values, (n_rays, 3)."""
    return np.stack([np.bincount(ray_idx, weights=values[:, c], minlength=n_rays)
                     for c in range(3)], axis=1)


def _anchor_transfers(scene, light, apos, aw, settings):
    """Bake or look up transfer at anchor positions apos (N, 3) of weights aw.

    Returns (valid (N,), normals (N, 3), coeffs (N, n)); anchors without
    weight or without a recoverable surface normal (flat interior of the
    medium) are invalid and hold zero normals and coefficients.
    """
    degree = light.degree
    avalid = aw > 0.0
    anrm = np.zeros_like(apos)
    coeffs = np.zeros((apos.shape[0], sh.num_coeffs(degree)))
    sel = np.flatnonzero(avalid)
    if sel.size == 0:
        return avalid, anrm, coeffs
    pos = apos[sel]
    anrm[sel], avalid[sel] = field.normals(scene, pos)
    cache = settings.transfer_cache
    if cache is not None:
        sel = sel[avalid[sel]]
        coeffs[sel] = cache.coeffs[cache.nearest(apos[sel])]
    else:
        coeffs[sel] = transport.bake_transfer_batch(
            scene, pos, anrm[sel], degree=degree, resolution=settings.transfer_grid,
            dtype=np.float32)
    return avalid, anrm, coeffs

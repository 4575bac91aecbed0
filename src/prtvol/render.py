"""Volume renderer: emission-style compositing of shaded samples.

A primary ray marches [t_near, t_far] in fixed steps; the pixel value is
sum_k T_k * density_k * value_k * dt with T_k the transmittance of all
strictly earlier samples, accumulated in log space so alpha telescopes to
1 - exp(-total optical depth) exactly. The march (transport.primary_march)
skips the samples outside every primitive's support, which hold the exact
0.0 a dense march would compute there, so no pixel depends on the skip.

Shaded modes (lit, diffuse, specular, irradiance) are amortized: each
ray bakes transfer only at its top weighted samples (or looks them up
in a cache) and the pixel is the weight-normalized average of those
anchor radiances, scaled by the ray's alpha. Anchors inside a flat
stretch of the medium have no recoverable surface normal and are
dropped from the average; a ray with no usable anchor shades black.
Debug channels that need no transfer follow suit: albedo and visibility
composite every nonzero sample exactly, while the normal channel
averages the encoded normal over the samples that have one, scaled by
alpha, so a decoder can divide the alpha back out.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import chunks, field, sh, shading, transport

MODES = ("lit", "diffuse", "specular", "albedo", "normal", "irradiance", "visibility")
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
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"camera {name} must be a positive integer, got {v!r}")
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

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def height(self):
        return self.pixels.shape[0]


@dataclass(frozen=True)
class RenderSettings:
    steps: int | None = None          # primary steps; scene value if None
    secondary_steps: int | None = None
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
    if mode not in MODES:
        raise ValueError(f"unknown render mode {mode!r}; expected one of {MODES}")
    needs_light = mode in ("lit", "diffuse", "specular", "irradiance")
    if needs_light and light is None:
        raise ValueError(f"mode {mode!r} requires an SH light")

    n_rays = origins.shape[0]
    pts, sigma, dt = transport.primary_march(scene, origins, dirs, steps=settings.steps)
    depth = sigma * dt
    tau_before = np.cumsum(depth, axis=1) - depth  # exclusive prefix
    trans = np.exp(-tau_before)
    weight = trans * depth  # T_k * sigma_k * dt
    alpha = 1.0 - np.exp(-np.sum(depth, axis=1))

    rgb = np.zeros((n_rays, 3), dtype=np.float64)
    active = sigma > 0.0
    if not np.any(active):
        return rgb, alpha

    if mode == "visibility":
        rgb = np.sum((weight * trans)[:, :, None], axis=1) * np.ones((1, 3))
        return rgb, alpha

    if mode == "albedo":
        ray_idx, k_idx = np.nonzero(active)
        value, _ = field.material(scene, pts[ray_idx, k_idx])
        return _composite(rgb, weight, ray_idx, k_idx, value), alpha

    if mode == "normal":
        # Encoded normals exist only where the gradient does, so the pixel
        # is their weight-normalized average scaled by alpha; dividing by
        # alpha on decode then recovers 0.5 * (n + 1) directly.
        ray_idx, k_idx = np.nonzero(active)
        nrm, valid = field.normals(scene, pts[ray_idx, k_idx])
        w = weight[ray_idx, k_idx] * valid
        den = np.bincount(ray_idx, weights=w, minlength=n_rays)
        scale = np.divide(alpha, den, out=np.zeros_like(den), where=den > 0.0)
        enc = w[:, None] * 0.5 * (nrm + 1.0)
        for c in range(3):
            rgb[:, c] = np.bincount(ray_idx, weights=enc[:, c], minlength=n_rays)
        return rgb * scale[:, None], alpha

    anchors, avalid, coeffs = _anchor_transfers(scene, light, pts, weight, settings)
    aw = np.take_along_axis(weight, anchors, axis=1) * avalid  # (R, M)
    wsum = np.sum(aw, axis=1)
    scale = np.divide(alpha, wsum, out=np.zeros_like(wsum), where=wsum > 0.0)

    m = anchors.shape[1]
    apos = np.take_along_axis(pts, anchors[:, :, None], axis=1).reshape(-1, 3)
    if mode == "irradiance":
        value = shading.irradiance(coeffs, light).reshape(-1, 3)
    else:
        albedo, tint = field.material(scene, apos)
        diffuse = shading.diffuse_radiance(albedo.reshape(n_rays, m, 3), coeffs,
                                           light).reshape(-1, 3)
        if mode != "diffuse" and np.any(tint > 0.0):
            nrm, _ = field.normals(scene, apos)
            specular = shading.specular_radiance(
                tint, nrm, np.repeat(-dirs, m, axis=0), coeffs.reshape(n_rays * m, -1), light)
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


def _composite(rgb, weight, ray_idx, k_idx, values):
    w = weight[ray_idx, k_idx][:, None] * values
    for c in range(3):
        rgb[:, c] += np.bincount(ray_idx, weights=w[:, c], minlength=rgb.shape[0])
    return rgb


def _anchor_transfers(scene, light, pts, weight, settings):
    """Bake or look up transfer at the top weighted samples per ray.

    Returns (anchors (R, M) sample indices, avalid (R, M), coeffs
    (R, M, n)); slots with zero sample weight or no recoverable
    surface normal (flat interior of the medium) are invalid.
    """
    n_rays, steps = weight.shape
    m = min(settings.anchors_per_ray, steps)
    degree = light.degree
    part = np.argpartition(weight, steps - m, axis=1)[:, steps - m:]
    anchors = np.sort(part, axis=1)  # (R, M) sample indices
    avalid = np.take_along_axis(weight, anchors, axis=1) > 0.0

    coeffs = np.zeros((n_rays, m, sh.num_coeffs(degree)), dtype=np.float64)
    rsel, msel = np.nonzero(avalid)
    if rsel.size == 0:
        return anchors, avalid, coeffs
    apos = pts[rsel, anchors[rsel, msel]]
    anrm, nvalid = field.normals(scene, apos)
    avalid = avalid.copy()
    avalid[rsel, msel] = nvalid

    cache = settings.transfer_cache
    if cache is not None:
        if cache.degree != degree:
            raise ValueError(
                f"transfer cache degree {cache.degree} does not match light degree {degree}")
        baked = cache.coeffs[cache.nearest(apos)]
        baked = np.where(nvalid[:, None], baked, 0.0)
    else:
        sec = (settings.secondary_steps if settings.secondary_steps is not None
               else scene.march.secondary_steps)
        baked = transport.bake_transfer_batch(
            scene, apos, anrm, degree=degree, resolution=settings.transfer_grid,
            steps=sec, dtype=np.float32)
    coeffs[rsel, msel] = baked
    return anchors, avalid, coeffs

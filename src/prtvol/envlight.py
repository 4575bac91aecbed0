"""Environment lights and their spherical-harmonics projections.

Equirectangular maps use the convention row 0 = theta 0 (straight up,
+z), bottom row theta pi, and columns phi in [0, 2 pi) measured from +x
toward +y. Radiance lookups are bilinear with longitude wrap-around.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import field, imageio, sh

SH_CONVENTION = "real-sh z-up, j=l*l+l+m+1, cos for m>0 / sin for m<0"


@dataclass(frozen=True)
class EquirectLight:
    """Pixel-backed environment, pixels (H, W, 3) linear radiance."""

    pixels: np.ndarray

    def radiance(self, dirs):
        dirs = np.asarray(dirs, dtype=np.float64)
        h, w = self.pixels.shape[0], self.pixels.shape[1]
        z = np.clip(dirs[..., 2], -1.0, 1.0)
        theta = np.arccos(z)
        phi = np.arctan2(dirs[..., 1], dirs[..., 0]) % (2.0 * math.pi)
        row = theta / math.pi * h - 0.5
        col = phi / (2.0 * math.pi) * w - 0.5
        r0 = np.floor(row).astype(np.int64)
        c0 = np.floor(col).astype(np.int64)
        fr = row - r0
        fc = col - c0
        r0c = np.clip(r0, 0, h - 1)
        r1c = np.clip(r0 + 1, 0, h - 1)
        c0w = c0 % w
        c1w = (c0 + 1) % w
        p = self.pixels
        top = p[r0c, c0w] * (1.0 - fc)[..., None] + p[r0c, c1w] * fc[..., None]
        bot = p[r1c, c0w] * (1.0 - fc)[..., None] + p[r1c, c1w] * fc[..., None]
        return top * (1.0 - fr)[..., None] + bot * fr[..., None]


def load_envmap(path, exposure=1.0):
    """Load a color PFM as an equirectangular light.

    The exposure multiplier is applied to the pixels at load time.
    Rejects single-channel maps, non-finite samples, and an exposure
    that takes a sample past float64's range.
    """
    img = imageio.read_pfm(path)
    if img.ndim != 3:
        raise imageio.PfmError(f"{path}: environment map must be a color 'PF' file")
    with np.errstate(over="ignore"):
        pixels = img * float(exposure)
    if not np.isfinite(pixels).all():
        raise ValueError(f"{path}: the map times exposure {float(exposure)!r} overflows")
    return EquirectLight(pixels=pixels)


@dataclass(frozen=True)
class ShLight:
    """Per-channel SH coefficients of an environment, coeffs (n, 3)."""

    coeffs: np.ndarray

    @property
    def degree(self):
        return sh.degree_for(self.coeffs.shape[0])

    def truncated(self, degree):
        """Keep bands 0..degree; degree may not exceed the stored one."""
        n = sh.num_coeffs(degree)
        if n > self.coeffs.shape[0]:
            raise ValueError(f"cannot extend degree {self.degree} light to {degree}")
        return ShLight(coeffs=self.coeffs[:n].copy())

    def radiance(self, dirs):
        """Band-limited radiance reconstruction, shape (..., 3)."""
        return sh.reconstruct(self.coeffs, dirs)

    def to_dict(self):
        return {
            "degree": self.degree,
            "convention": SH_CONVENTION,
            "channels": [self.coeffs[:, c].tolist() for c in range(3)],
        }

    @classmethod
    def from_dict(cls, d):
        """ShLight from its JSON form; malformed input raises ValueError."""
        field._object(d, "ShLight", ("degree", "channels"))
        n = sh.num_coeffs(sh.checked_degree(d["degree"], "ShLight degree"))
        channels = d["channels"]
        if not isinstance(channels, list) or len(channels) != 3:
            raise ValueError("ShLight must carry exactly 3 channels")
        for c, channel in enumerate(channels):
            if not isinstance(channel, list) or len(channel) != n:
                raise ValueError(f"ShLight channel {c} must be a list of {n} numbers for "
                                 f"degree {d['degree']}")
        return cls(coeffs=np.array([[field._finite(v, f"ShLight channel {c}") for v in channel]
                                    for c, channel in enumerate(channels)]).T)


def save_sh_light(path, light):
    field.write_json(path, light.to_dict())


def load_sh_light(path):
    return field.read_json(path, ShLight.from_dict)


def project_to_sh(env, degree=4, resolution=None):
    """Project an environment light onto the SH basis.

    Args:
        env: any light with a .radiance(dirs) method.
        degree: highest band, 0..8.
        resolution: (n_theta, n_phi) quadrature grid. Defaults to the
            map's own pixel grid for equirectangular lights (so nodes hit
            texel centers exactly) and to 128 x 256 otherwise.

    Returns:
        ShLight with (degree+1)**2 coefficients per channel.
    """
    if resolution is None:
        if (isinstance(env, EquirectLight) and env.pixels.shape[0] >= sh.MIN_GRID[0]
                and env.pixels.shape[1] >= sh.MIN_GRID[1]):
            resolution = env.pixels.shape[:2]
        else:
            resolution = (128, 256)
    coeffs = sh.project(env.radiance, degree=degree, n_theta=resolution[0], n_phi=resolution[1])
    return ShLight(coeffs=coeffs)

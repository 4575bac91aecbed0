"""Environment lights and their spherical-harmonics projections.

Equirectangular maps use the convention row 0 = theta 0 (straight up,
+z), bottom row theta pi, and columns phi in [0, 2 pi) measured from +x
toward +y. Radiance lookups are bilinear with longitude wrap-around.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import imageio, sh

SH_CONVENTION = "real-sh z-up, j=l*l+l+m+1, cos for m>0 / sin for m<0"


@dataclass(frozen=True)
class ConstantLight:
    """Same radiance in every direction."""

    color: np.ndarray

    kind = "constant"

    def radiance(self, dirs):
        dirs = np.asarray(dirs, dtype=np.float64)
        out = np.empty(dirs.shape[:-1] + (3,), dtype=np.float64)
        out[:] = self.color
        return out


@dataclass(frozen=True)
class LobeLight:
    """Smooth monotone lobe exp(sharpness * (dot(axis, d) - 1)) * color.

    Peaks at the axis, falls to exp(-2 * sharpness) at the antipode.
    """

    axis: np.ndarray
    sharpness: float
    color: np.ndarray

    kind = "lobe"

    def radiance(self, dirs):
        dirs = np.asarray(dirs, dtype=np.float64)
        mu = dirs @ np.asarray(self.axis, dtype=np.float64)
        f = np.exp(self.sharpness * (mu - 1.0))
        return f[..., None] * np.asarray(self.color, dtype=np.float64)


@dataclass(frozen=True)
class EquirectLight:
    """Pixel-backed environment, pixels (H, W, 3) linear radiance."""

    pixels: np.ndarray

    kind = "equirect"

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
    Rejects single-channel maps and non-finite samples.
    """
    img = imageio.read_pfm(path, require_finite=True)
    if img.ndim != 3:
        raise imageio.PfmError(f"{path}: environment map must be a color 'PF' file")
    pixels = img * float(exposure)
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
        channels = d["channels"]
        if len(channels) != 3:
            raise ValueError("ShLight JSON must carry exactly 3 channels")
        coeffs = np.asarray(channels, dtype=np.float64).T
        expect = sh.num_coeffs(int(d["degree"]))
        if coeffs.shape[0] != expect:
            raise ValueError(
                f"channel length {coeffs.shape[0]} does not match degree {d['degree']}"
            )
        return cls(coeffs=coeffs)


def save_sh_light(path, light):
    with open(path, "w") as f:
        json.dump(light.to_dict(), f, indent=2)
        f.write("\n")


def load_sh_light(path):
    with open(path) as f:
        return ShLight.from_dict(json.load(f))


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
        if getattr(env, "kind", None) == "equirect" and env.pixels.shape[0] >= 8 and env.pixels.shape[1] >= 16:
            resolution = (env.pixels.shape[0], env.pixels.shape[1])
        else:
            resolution = (128, 256)
    coeffs = sh.project(env.radiance, degree=degree, n_theta=resolution[0], n_phi=resolution[1])
    return ShLight(coeffs=coeffs)

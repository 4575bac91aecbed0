import math
from dataclasses import dataclass

import numpy as np
import pytest

from prtvol import envlight, field, sh

# Albedo of the flat-wall fixture, shared by the recovery tests and the
# acceptance gate.
WALL_ALBEDO = (0.6, 0.45, 0.3)

# Optical depth of the homogeneous slab fixture is ln 4, so a ray crossing
# it square-on attenuates to exactly 0.25.
SLAB_SIGMA = 2.0
SLAB_THICKNESS = math.log(4.0) / SLAB_SIGMA


def wall_scene_dict():
    """Thin dense wall seen face-on; every camera ray should recover albedo.

    The slab is kept thin and hard-edged so the shading anchors sit right at
    the lit face, and t_far reaches past the far side so nothing leaks.
    """
    return {
        "bounds": {"center": [0.0, 0.0, 0.0], "radius": 6.0},
        "march": {
            "primary_steps": 512,
            "secondary_steps": 32,
            "t_near": 2.5,
            "t_far": 5.2,
        },
        "primitives": [
            {
                "type": "slab",
                "axis": [0.0, 0.0, 1.0],
                "offset": -1.0,
                "thickness": 2.0,
                "density_scale": 4.0,
                "softness": 0.015,
                "albedo": list(WALL_ALBEDO),
                "tint": 0.0,
            }
        ],
    }


def slab_scene_dict():
    """Homogeneous slab with optical depth ln 4 across its thickness."""
    return {
        "bounds": {"center": [0.0, 0.0, 0.0], "radius": 4.0},
        "march": {
            "primary_steps": 256,
            "secondary_steps": 256,
            "t_near": 0.05,
            "t_far": 8.0,
        },
        "primitives": [
            {
                "type": "slab",
                "axis": [0.0, 0.0, 1.0],
                "offset": 0.0,
                "thickness": SLAB_THICKNESS,
                "density_scale": SLAB_SIGMA,
                "softness": 0.08,
                "albedo": [0.5, 0.5, 0.5],
                "tint": 0.0,
            }
        ],
    }


def sphere_scene_dict(tint=0.0):
    """Single soft sphere, the workhorse probe target."""
    return {
        "bounds": {"center": [0.0, 0.0, 0.0], "radius": 4.0},
        "march": {
            "primary_steps": 192,
            "secondary_steps": 64,
            "t_near": 0.2,
            "t_far": 8.0,
        },
        "primitives": [
            {
                "type": "sphere",
                "center": [0.0, 0.0, 0.0],
                "radius": 1.0,
                "density_scale": 6.0,
                "softness": 0.1,
                "albedo": [0.6, 0.5, 0.4],
                "tint": tint,
            }
        ],
    }


def blocker_scene_dict():
    """Sphere with a box floating above it, so upper points sit in shadow."""
    d = sphere_scene_dict()
    d["primitives"].append(
        {
            "type": "box",
            "center": [0.0, 0.0, 1.8],
            "extent": [1.6, 1.6, 0.3],
            "density_scale": 8.0,
            "softness": 0.08,
            "albedo": [0.7, 0.7, 0.7],
            "tint": 0.0,
        }
    )
    return d


@dataclass(frozen=True)
class LobeLight:
    """Smooth monotone lobe exp(sharpness * (dot(axis, d) - 1)) * color.

    Peaks at the axis, falls to exp(-2 * sharpness) at the antipode.
    """

    axis: np.ndarray
    sharpness: float
    color: np.ndarray

    def radiance(self, dirs):
        dirs = np.asarray(dirs, dtype=np.float64)
        mu = dirs @ np.asarray(self.axis, dtype=np.float64)
        f = np.exp(self.sharpness * (mu - 1.0))
        return f[..., None] * np.asarray(self.color, dtype=np.float64)


def constant_sh_light(value=1.0, degree=4):
    """DC-only light whose reconstruction is exactly `value` everywhere."""
    n = sh.num_coeffs(degree)
    coeffs = np.zeros((n, 3))
    coeffs[0] = 2.0 * math.sqrt(math.pi) * np.asarray(value, dtype=np.float64)
    return envlight.ShLight(coeffs=coeffs)


def validate_args(**overrides):
    """oracle.compare_prt_vs_mc keyword arguments: the validate command's defaults, overridden."""
    return dict(points=100, mc_samples=10000, degree=4, grid=(64, 128), secondary_steps=None,
                seed=0, threads=1) | overrides


def lobe_sh_light(degree=4):
    """Band-limited sky: a soft lobe from above, projected onto SH."""
    lobe = LobeLight(
        axis=np.array([0.15, -0.1, 0.98]) / np.linalg.norm([0.15, -0.1, 0.98]),
        sharpness=2.0,
        color=np.array([1.0, 0.8, 0.6]),
    )
    return envlight.project_to_sh(lobe, degree=degree)


@pytest.fixture(scope="session")
def wall_scene():
    return field.scene_from_dict(wall_scene_dict())


@pytest.fixture(scope="session")
def slab_scene():
    return field.scene_from_dict(slab_scene_dict())


@pytest.fixture(scope="session")
def sphere_scene():
    return field.scene_from_dict(sphere_scene_dict())


@pytest.fixture(scope="session")
def shiny_sphere_scene():
    return field.scene_from_dict(sphere_scene_dict(tint=0.25))


@pytest.fixture(scope="session")
def blocker_scene():
    return field.scene_from_dict(blocker_scene_dict())


@pytest.fixture(scope="session")
def empty_scene():
    return field.scene_from_dict(
        {
            "bounds": {"center": [0.0, 0.0, 0.0], "radius": 4.0},
            "march": {"primary_steps": 64, "secondary_steps": 64},
            "primitives": [],
        }
    )


@pytest.fixture(scope="session")
def white_light():
    return constant_sh_light(1.0)


@pytest.fixture(scope="session")
def sky_light():
    return lobe_sh_light()


def field_surface_point(scene, x):
    """(x, normal, albedo) at x from one field.normals and one field.material
    call; the normal is a zero vector where it is invalid."""
    x = np.asarray(x, dtype=np.float64)
    n, _ = field.normals(scene, x[None, :])
    albedo, _ = field.material(scene, x)
    return x, n[0], albedo


def gram_matrix(degree=sh.DEFAULT_DEGREE, n_theta=128, n_phi=256):
    """Quadrature Gram matrix of the basis; identity up to grid error."""
    _, weights, basis = sh.basis_grid(degree, n_theta, n_phi)
    return basis.T @ (basis * weights[:, None])


def random_unit_dirs(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def write_raw_pfm(path, img):
    """img as a little-endian PFM, non-finite samples included, which
    imageio.write_pfm refuses to write."""
    img = np.asarray(img, dtype="<f4")
    with open(path, "wb") as f:
        f.write(f"{'PF' if img.ndim == 3 else 'Pf'}\n{img.shape[1]} {img.shape[0]}\n-1.0\n"
                .encode("ascii"))
        f.write(np.ascontiguousarray(img[::-1]).tobytes())

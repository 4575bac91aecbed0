import math

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


def constant_sh_light(value=1.0, degree=4):
    """DC-only light whose reconstruction is exactly `value` everywhere."""
    n = sh.num_coeffs(degree)
    coeffs = np.zeros((n, 3))
    coeffs[0] = 2.0 * math.sqrt(math.pi) * np.asarray(value, dtype=np.float64)
    return envlight.ShLight(coeffs=coeffs)


def lobe_sh_light(degree=4):
    """Band-limited sky: a soft lobe from above, projected onto SH."""
    lobe = envlight.LobeLight(
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
    """SurfacePoint at x from one field.normals and one field.material call."""
    x = np.asarray(x, dtype=np.float64)
    n, valid = field.normals(scene, x[None, :])
    albedo, tint = field.material(scene, x)
    return field.SurfacePoint(position=x, normal=n[0] if valid[0] else None,
                              albedo=albedo, tint=tint)


def random_unit_dirs(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)

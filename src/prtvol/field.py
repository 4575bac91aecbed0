"""Analytic density fields: primitives, materials, gradient normals.

A scene is a list of soft primitives inside a bounding sphere. Each
primitive contributes density_scale * falloff(signed_distance), where the
falloff is a smoothstep ramp from 1 to 0 over a shell of width softness
centered on the primitive surface. Density is clamped to zero outside the
bounding sphere. Densities add; materials blend density-weighted.

Surface normals come from the density gradient, n = -grad / |grad|,
estimated by central differences with step h = min(softness) / 4. A
gradient magnitude under 1e-6 (constant-density cores, empty space) makes
the normal invalid; invalid is a value, not an error.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

EPS_GRAD = 1e-6


def _as_vec3(v, name):
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _as_rgb01(v, name):
    a = _as_vec3(v, name)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise ValueError(f"{name} components must lie in [0, 1]")
    return a


def _as_tint(v):
    if np.ndim(v) == 0:
        v = [v, v, v]
    return _as_rgb01(v, "tint")


@dataclass(frozen=True)
class Material:
    albedo: np.ndarray
    tint: np.ndarray


@dataclass(frozen=True)
class Bounds:
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class MarchParams:
    primary_steps: int = 256
    secondary_steps: int = 64
    t_near: float = 0.0
    t_far: float = 10.0


@dataclass(frozen=True)
class SurfacePoint:
    position: np.ndarray
    normal: np.ndarray | None
    albedo: np.ndarray
    tint: np.ndarray
    valid: bool


class _Primitive:
    def signed_distance(self, pts):
        raise NotImplementedError

    def density(self, pts):
        d = self.signed_distance(pts)
        w = self.softness
        t = np.clip((d + 0.5 * w) / w, 0.0, 1.0)
        return self.density_scale * (1.0 - t * t * (3.0 - 2.0 * t))


@dataclass(frozen=True)
class SpherePrimitive(_Primitive):
    center: np.ndarray
    radius: float
    density_scale: float
    softness: float
    albedo: np.ndarray
    tint: np.ndarray

    kind = "sphere"

    def signed_distance(self, pts):
        c = self.center.astype(pts.dtype, copy=False)
        d = pts - c
        return np.sqrt(np.sum(d * d, axis=-1)) - pts.dtype.type(self.radius)


@dataclass(frozen=True)
class BoxPrimitive(_Primitive):
    center: np.ndarray
    extent: np.ndarray
    density_scale: float
    softness: float
    albedo: np.ndarray
    tint: np.ndarray

    kind = "box"

    def signed_distance(self, pts):
        c = self.center.astype(pts.dtype, copy=False)
        half = (0.5 * self.extent).astype(pts.dtype, copy=False)
        q = np.abs(pts - c) - half
        outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=-1))
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside


@dataclass(frozen=True)
class SlabPrimitive(_Primitive):
    """Region between two parallel planes normal to axis."""

    axis: np.ndarray
    offset: float
    thickness: float
    density_scale: float
    softness: float
    albedo: np.ndarray
    tint: np.ndarray

    kind = "slab"

    def signed_distance(self, pts):
        a = self.axis.astype(pts.dtype, copy=False)
        u = pts @ a - pts.dtype.type(self.offset)
        return np.abs(u) - pts.dtype.type(0.5 * self.thickness)


@dataclass(frozen=True)
class VolumeScene:
    bounds: Bounds
    default_material: Material
    march: MarchParams
    primitives: tuple

    @property
    def fd_step(self):
        """Central-difference step for gradient normals."""
        if not self.primitives:
            return 0.01 * self.bounds.radius
        return min(p.softness for p in self.primitives) / 4.0

    def to_dict(self):
        prims = []
        for p in self.primitives:
            d = {
                "type": p.kind,
                "density_scale": p.density_scale,
                "softness": p.softness,
                "albedo": p.albedo.tolist(),
                "tint": p.tint.tolist(),
            }
            if p.kind == "sphere":
                d["center"] = p.center.tolist()
                d["radius"] = p.radius
            elif p.kind == "box":
                d["center"] = p.center.tolist()
                d["extent"] = p.extent.tolist()
            else:
                d["axis"] = p.axis.tolist()
                d["offset"] = p.offset
                d["thickness"] = p.thickness
            prims.append(d)
        return {
            "bounds": {"center": self.bounds.center.tolist(), "radius": self.bounds.radius},
            "default_material": {
                "albedo": self.default_material.albedo.tolist(),
                "tint": self.default_material.tint.tolist(),
            },
            "march": {
                "primary_steps": self.march.primary_steps,
                "secondary_steps": self.march.secondary_steps,
                "t_near": self.march.t_near,
                "t_far": self.march.t_far,
            },
            "primitives": prims,
        }


def scene_hash(scene):
    """Stable content hash of a scene's canonical JSON form."""
    text = json.dumps(scene.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def scene_from_dict(d):
    try:
        b = d["bounds"]
        bounds = Bounds(center=_as_vec3(b["center"], "bounds.center"), radius=float(b["radius"]))
    except KeyError as e:
        raise ValueError(f"scene missing bounds field: {e}") from e
    if bounds.radius <= 0.0:
        raise ValueError("bounds.radius must be positive")

    dm = d.get("default_material", {"albedo": [0.5, 0.5, 0.5], "tint": 0.0})
    default_material = Material(
        albedo=_as_rgb01(dm.get("albedo", [0.5, 0.5, 0.5]), "default_material.albedo"),
        tint=_as_tint(dm.get("tint", 0.0)),
    )

    m = d.get("march", {})
    march = MarchParams(
        primary_steps=int(m.get("primary_steps", 256)),
        secondary_steps=int(m.get("secondary_steps", 64)),
        t_near=float(m.get("t_near", 0.0)),
        t_far=float(m.get("t_far", 10.0)),
    )
    if march.primary_steps < 1 or march.secondary_steps < 1:
        raise ValueError("march step counts must be at least 1")
    if not 0.0 <= march.t_near < march.t_far:
        raise ValueError("march range requires 0 <= t_near < t_far")

    prims = []
    for i, p in enumerate(d.get("primitives", [])):
        kind = p.get("type")
        try:
            scale = float(p["density_scale"])
            softness = float(p["softness"])
            albedo = _as_rgb01(p.get("albedo", dm.get("albedo", [0.5, 0.5, 0.5])), f"primitives[{i}].albedo")
            tint = _as_tint(p.get("tint", dm.get("tint", 0.0)))
        except KeyError as e:
            raise ValueError(f"primitives[{i}] missing field {e}") from e
        if scale < 0.0:
            raise ValueError(f"primitives[{i}].density_scale must be non-negative")
        if softness <= 0.0:
            raise ValueError(f"primitives[{i}].softness must be positive")
        if kind == "sphere":
            radius = float(p["radius"])
            if radius <= 0.0:
                raise ValueError(f"primitives[{i}].radius must be positive")
            prims.append(SpherePrimitive(
                center=_as_vec3(p["center"], f"primitives[{i}].center"), radius=radius,
                density_scale=scale, softness=softness, albedo=albedo, tint=tint))
        elif kind == "box":
            extent = _as_vec3(p["extent"], f"primitives[{i}].extent")
            if np.any(extent <= 0.0):
                raise ValueError(f"primitives[{i}].extent must be positive")
            prims.append(BoxPrimitive(
                center=_as_vec3(p["center"], f"primitives[{i}].center"), extent=extent,
                density_scale=scale, softness=softness, albedo=albedo, tint=tint))
        elif kind == "slab":
            axis = _as_vec3(p["axis"], f"primitives[{i}].axis")
            n = np.linalg.norm(axis)
            if n < 1e-12:
                raise ValueError(f"primitives[{i}].axis must be non-zero")
            thickness = float(p["thickness"])
            if thickness <= 0.0:
                raise ValueError(f"primitives[{i}].thickness must be positive")
            prims.append(SlabPrimitive(
                axis=axis / n, offset=float(p.get("offset", 0.0)), thickness=thickness,
                density_scale=scale, softness=softness, albedo=albedo, tint=tint))
        else:
            raise ValueError(f"primitives[{i}].type must be sphere, box, or slab, got {kind!r}")

    return VolumeScene(bounds=bounds, default_material=default_material,
                       march=march, primitives=tuple(prims))


def load_scene(path):
    with open(path) as f:
        return scene_from_dict(json.load(f))


def _bounds_mask(scene, pts):
    c = scene.bounds.center.astype(pts.dtype, copy=False)
    d = pts - c
    return np.sum(d * d, axis=-1) <= pts.dtype.type(scene.bounds.radius**2)


def density(scene, pts):
    """Total density at pts (..., 3), computed in the dtype of pts."""
    pts = np.asarray(pts)
    if pts.dtype not in (np.float32, np.float64):
        pts = pts.astype(np.float64)
    total = np.zeros(pts.shape[:-1], dtype=pts.dtype)
    for p in scene.primitives:
        total += p.density(pts)
    if scene.primitives:
        total *= _bounds_mask(scene, pts)
    return total


def material(scene, pts):
    """Density-weighted material blend at pts.

    Returns (albedo, tint) with shapes (..., 3). Points with zero total
    density take the scene default material.
    """
    pts = np.asarray(pts, dtype=np.float64)
    shape = pts.shape[:-1]
    weights = [p.density(pts) for p in scene.primitives]
    total = np.zeros(shape, dtype=np.float64)
    for w in weights:
        total += w
    if scene.primitives:
        total *= _bounds_mask(scene, pts)
    hit = total > 0.0
    safe = np.where(hit, total, 1.0)
    albedo = np.zeros(shape + (3,), dtype=np.float64)
    tint = np.zeros(shape + (3,), dtype=np.float64)
    # Normalizing each weight before the blend keeps a lone covering
    # primitive's material bit-exact (w / w is 1.0), so constant albedo
    # fields stay constant under the query.
    for p, w in zip(scene.primitives, weights):
        f = (w / safe)[..., None]
        albedo += f * p.albedo
        tint += f * p.tint
    albedo = np.where(hit[..., None], albedo, scene.default_material.albedo)
    tint = np.where(hit[..., None], tint, scene.default_material.tint)
    return albedo, tint


def normals(scene, pts):
    """Gradient-descent normals at pts, batched.

    Returns (normal, valid) of shapes (..., 3) and (...,). Invalid
    entries hold a zero vector.
    """
    pts = np.asarray(pts, dtype=np.float64)
    shape = pts.shape[:-1]
    flat = pts.reshape(-1, 3)
    h = scene.fd_step
    grad = np.empty_like(flat)
    offset = np.zeros_like(flat)
    for axis in range(3):
        offset[...] = 0.0
        offset[:, axis] = h
        grad[:, axis] = (density(scene, flat + offset) - density(scene, flat - offset)) / (2.0 * h)
    mag = np.linalg.norm(grad, axis=-1)
    valid = mag >= EPS_GRAD
    safe = np.where(valid, mag, 1.0)
    n = -grad / safe[:, None]
    n[~valid] = 0.0
    return n.reshape(shape + (3,)), valid.reshape(shape)


def normal_at(scene, x):
    """Normal at a single point, or None where the gradient vanishes."""
    n, valid = normals(scene, np.asarray(x, dtype=np.float64)[None, :])
    if not valid[0]:
        return None
    return n[0]


def surface_point_at(scene, x):
    """Assemble a SurfacePoint by evaluating normal and material at x."""
    x = np.asarray(x, dtype=np.float64)
    n = normal_at(scene, x)
    a, t = material(scene, x)
    return SurfacePoint(position=x, normal=n, albedo=a, tint=t, valid=n is not None)


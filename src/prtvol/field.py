"""Analytic density fields: primitives, materials, gradient normals.

A scene is a list of soft primitives inside a bounding sphere. Each
primitive contributes density_scale * falloff(signed_distance), where the
falloff is a smoothstep ramp from 1 to 0 over a shell of width softness
centered on the primitive surface. Density is clamped to zero outside the
bounding sphere. Densities add; materials blend density-weighted.

Each scene is compiled once, when it is built, into packed per-kind
parameter rows. density and material evaluate that kernel on separate x,
y and z arrays and sum the primitives in scene order, rounding exactly as
the per-point formulas do; each point's value is independent of the
other points in the batch. support_interval gives, per ray, the span
outside which every sample's density is exactly 0.0, so a march may skip
those samples without changing a bit of its sum.

Surface normals come from the density gradient, n = -grad / |grad|,
estimated by central differences with step h = min(softness) / 4. A
gradient magnitude under 1e-6 (constant-density cores, empty space) makes
the normal invalid; invalid is a value, not an error.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

EPS_GRAD = 1e-6


def _finite(v, name):
    """float(v), rejecting values that are not numbers or not finite."""
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {v!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _object(v, name):
    if not isinstance(v, dict):
        raise ValueError(f"{name} must be a JSON object")
    return v


def _as_vec3(v, name):
    try:
        a = np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a 3-vector of numbers") from None
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


@dataclass(frozen=True)
class SpherePrimitive:
    center: np.ndarray
    radius: float
    density_scale: float
    softness: float
    albedo: np.ndarray
    tint: np.ndarray

    kind = "sphere"


@dataclass(frozen=True)
class BoxPrimitive:
    center: np.ndarray
    extent: np.ndarray
    density_scale: float
    softness: float
    albedo: np.ndarray
    tint: np.ndarray

    kind = "box"


@dataclass(frozen=True)
class SlabPrimitive:
    """Region between two parallel planes normal to axis."""

    axis: np.ndarray
    offset: float
    thickness: float
    density_scale: float
    softness: float
    albedo: np.ndarray
    tint: np.ndarray

    kind = "slab"


@dataclass(frozen=True)
class VolumeScene:
    bounds: Bounds
    default_material: Material
    march: MarchParams
    primitives: tuple

    def __post_init__(self):
        object.__setattr__(self, "_kernel", _compile(self.primitives))

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


def _primitive(p, name, albedo, tint):
    """One primitive from its dict; a missing key raises KeyError."""
    kind = p.get("type")
    scale = _finite(p["density_scale"], f"{name}.density_scale")
    softness = _finite(p["softness"], f"{name}.softness")
    common = dict(
        density_scale=scale, softness=softness,
        albedo=_as_rgb01(p.get("albedo", albedo), f"{name}.albedo"),
        tint=_as_tint(p.get("tint", tint)))
    if scale < 0.0:
        raise ValueError(f"{name}.density_scale must be non-negative")
    if softness <= 0.0:
        raise ValueError(f"{name}.softness must be positive")
    if kind == "sphere":
        radius = _finite(p["radius"], f"{name}.radius")
        if radius <= 0.0:
            raise ValueError(f"{name}.radius must be positive")
        return SpherePrimitive(center=_as_vec3(p["center"], f"{name}.center"), radius=radius,
                               **common)
    if kind == "box":
        extent = _as_vec3(p["extent"], f"{name}.extent")
        if np.any(extent <= 0.0):
            raise ValueError(f"{name}.extent must be positive")
        return BoxPrimitive(center=_as_vec3(p["center"], f"{name}.center"), extent=extent,
                            **common)
    if kind == "slab":
        axis = _as_vec3(p["axis"], f"{name}.axis")
        n = np.linalg.norm(axis)
        if n < 1e-12:
            raise ValueError(f"{name}.axis must be non-zero")
        thickness = _finite(p["thickness"], f"{name}.thickness")
        if thickness <= 0.0:
            raise ValueError(f"{name}.thickness must be positive")
        return SlabPrimitive(axis=axis / n, offset=_finite(p.get("offset", 0.0), f"{name}.offset"),
                             thickness=thickness, **common)
    raise ValueError(f"{name}.type must be sphere, box, or slab, got {kind!r}")


def scene_from_dict(d):
    _object(d, "scene")
    try:
        b = _object(d["bounds"], "bounds")
        bounds = Bounds(center=_as_vec3(b["center"], "bounds.center"),
                        radius=_finite(b["radius"], "bounds.radius"))
    except KeyError as e:
        raise ValueError(f"scene missing bounds field: {e}") from e
    if bounds.radius <= 0.0:
        raise ValueError("bounds.radius must be positive")

    dm = _object(d.get("default_material", {"albedo": [0.5, 0.5, 0.5], "tint": 0.0}),
                 "default_material")
    default_material = Material(
        albedo=_as_rgb01(dm.get("albedo", [0.5, 0.5, 0.5]), "default_material.albedo"),
        tint=_as_tint(dm.get("tint", 0.0)),
    )

    m = _object(d.get("march", {}), "march")
    march = MarchParams(
        primary_steps=int(_finite(m.get("primary_steps", 256), "march.primary_steps")),
        secondary_steps=int(_finite(m.get("secondary_steps", 64), "march.secondary_steps")),
        t_near=_finite(m.get("t_near", 0.0), "march.t_near"),
        t_far=_finite(m.get("t_far", 10.0), "march.t_far"),
    )
    if march.primary_steps < 1 or march.secondary_steps < 1:
        raise ValueError("march step counts must be at least 1")
    if not 0.0 <= march.t_near < march.t_far:
        raise ValueError("march range requires 0 <= t_near < t_far")

    entries = d.get("primitives", [])
    if not isinstance(entries, list):
        raise ValueError("primitives must be a JSON list")
    prims = []
    for i, p in enumerate(entries):
        name = f"primitives[{i}]"
        try:
            prims.append(_primitive(_object(p, name), name, dm.get("albedo", [0.5, 0.5, 0.5]),
                                    dm.get("tint", 0.0)))
        except KeyError as e:
            raise ValueError(f"{name} missing field {e}") from e

    return VolumeScene(bounds=bounds, default_material=default_material,
                       march=march, primitives=tuple(prims))


def load_scene(path):
    with open(path) as f:
        return scene_from_dict(json.load(f))


# The compiled kernel. Each kind's primitives are packed into float64
# rows (sphere: center, radius; box: center, half extent; slab: unit axis,
# offset, half thickness). Evaluation splits points into x, y and z
# arrays, casts each row to the dtype of the points and sums densities in
# scene order, so every formula rounds exactly as the per-point
# expression it spells out.

# Relative margin added to every support by support_interval. Sample
# positions and the kernel round to a few units of the dtype's epsilon
# (2**-23 for float32) times the magnitudes involved; this is 2**11 times
# that.
_SUPPORT_PAD = 2.0**-12


def _row(p):
    if p.kind == "sphere":
        return [*p.center, p.radius]
    if p.kind == "box":
        return [*p.center, *(0.5 * p.extent)]
    return [*p.axis, p.offset, 0.5 * p.thickness]


@dataclass(frozen=True)
class _Packed:
    """One kind's primitives: parameter rows and smoothstep profiles."""

    rows: np.ndarray      # (n, width) float64
    scale: np.ndarray     # (n,) density_scale
    softness: np.ndarray  # (n,)


def _compile(primitives):
    """Packed parameters of the kinds present, and (kind, row) in scene order."""
    kinds = {}
    order = [None] * len(primitives)
    for kind in _DISTANCE:
        slots = [i for i, p in enumerate(primitives) if p.kind == kind]
        if not slots:
            continue
        for r, i in enumerate(slots):
            order[i] = (kind, r)
        kinds[kind] = _Packed(
            rows=np.array([_row(primitives[i]) for i in slots], dtype=np.float64),
            scale=np.array([primitives[i].density_scale for i in slots], dtype=np.float64),
            softness=np.array([primitives[i].softness for i in slots], dtype=np.float64))
    return kinds, tuple(order)


def _squared_distance(x, y, z, c):
    d = x - c[0]
    d *= d
    e = y - c[1]
    e *= e
    d += e
    e = z - c[2]
    e *= e
    d += e
    return d


def _sphere_distance(x, y, z, g):
    d = _squared_distance(x, y, z, g)
    np.sqrt(d, out=d)
    d -= g[3]
    return d


def _box_distance(x, y, z, g):
    qx = np.abs(x - g[0]) - g[3]
    qy = np.abs(y - g[1]) - g[4]
    qz = np.abs(z - g[2]) - g[5]
    inside = np.maximum(np.maximum(qx, qy), qz)
    np.minimum(inside, 0.0, out=inside)
    out = np.maximum(qx, 0.0)
    out *= out
    for q in (qy, qz):
        np.maximum(q, 0.0, out=q)
        q *= q
        out += q
    np.sqrt(out, out=out)
    out += inside
    return out


def _slab_distance(x, y, z, g):
    # The projection is written per axis rather than as pts @ axis: a
    # matrix-vector product rounds a row differently depending on where it
    # sits in the batch, and the skipping march evaluates subsets.
    u = x * g[0]
    u += y * g[1]
    u += z * g[2]
    u -= g[3]
    np.abs(u, out=u)
    u -= g[4]
    return u


_DISTANCE = {"sphere": _sphere_distance, "box": _box_distance, "slab": _slab_distance}


def _columns(pts):
    """pts (..., 3) as contiguous x, y and z arrays of shape (N,)."""
    return pts.reshape(-1, 3).T.copy()


def _densities(scene, x, y, z):
    """Each primitive's density at the points, in scene order."""
    kinds, order = scene._kernel
    for kind, r in order:
        packed = kinds[kind]
        w = float(packed.softness[r])
        d = _DISTANCE[kind](x, y, z, packed.rows[r].astype(x.dtype))
        t = (d + 0.5 * w) / w
        np.clip(t, 0.0, 1.0, out=t)
        yield float(packed.scale[r]) * (1.0 - t * t * (3.0 - 2.0 * t))


def _total_density(scene, x, y, z):
    """Summed density times the bounds mask; also returns each primitive's."""
    weights = list(_densities(scene, x, y, z))
    total = np.zeros(x.shape, dtype=x.dtype)
    for w in weights:
        total += w
    if weights:
        c = scene.bounds.center.astype(x.dtype)
        total *= _squared_distance(x, y, z, c) <= x.dtype.type(scene.bounds.radius**2)
    return total, weights


def _sphere_support(rows, grow, o, d):
    oc = [o[i] - rows[:, i, None] for i in range(3)]
    a = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    b = oc[0] * d[0] + oc[1] * d[1] + oc[2] * d[2]
    rho = rows[:, 3, None] + grow
    disc = b * b - a * (oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - rho * rho)
    root = np.sqrt(disc)
    miss = disc < 0.0
    return np.where(miss, np.inf, (-b - root) / a), np.where(miss, -np.inf, (-b + root) / a)


def _band(u0, slope, half):
    """t where |u0 + t * slope| <= half; a zero slope gives all t or none."""
    inv = 1.0 / slope
    t1 = (-half - u0) * inv
    t2 = (half - u0) * inv
    return np.minimum(t1, t2), np.maximum(t1, t2)


def _box_support(rows, grow, o, d):
    lo, hi = -np.inf, np.inf
    for i in range(3):
        lo_i, hi_i = _band(o[i] - rows[:, i, None], d[i], rows[:, 3 + i, None] + grow)
        lo, hi = np.maximum(lo, lo_i), np.minimum(hi, hi_i)
    return lo, hi


def _slab_support(rows, grow, o, d):
    u0 = o[0] * rows[:, 0, None] + o[1] * rows[:, 1, None] + o[2] * rows[:, 2, None]
    slope = d[0] * rows[:, 0, None] + d[1] * rows[:, 1, None] + d[2] * rows[:, 2, None]
    return _band(u0 - rows[:, 3, None], slope, rows[:, 4, None] + grow)


_SUPPORT = {"sphere": _sphere_support, "box": _box_support, "slab": _slab_support}


def support_interval(scene, origins, dirs, t_max):
    """[lo, hi] along each ray outside which the density is exactly zero.

    For rays origins + t * dirs ((R, 3) each) sampled at 0 <= t <= t_max
    (R,), returns float64 (lo, hi) of shape (R,): a point whose t lies
    outside [lo, hi] has density exactly 0.0 when computed in the dtype of
    origins. A primitive is zero once its signed distance reaches
    softness / 2 (a sphere of radius + softness / 2, a box grown by
    softness / 2, a band of half thickness + softness / 2); each support
    is grown further by 2**-12 times the magnitudes of the ray and the
    primitive to cover rounding, and [lo, hi] spans the supports the ray
    meets at t >= 0. lo > hi when it meets none. Where a ray's interval
    cannot be computed (non-finite or zero-length input, a ray on a
    support's edge) it spans all t.
    """
    o = np.asarray(origins, dtype=np.float64).T.copy()
    d = np.asarray(dirs, dtype=np.float64).T.copy()
    size = np.abs(o[0]) + np.abs(o[1]) + np.abs(o[2])
    size += (np.abs(d[0]) + np.abs(d[1]) + np.abs(d[2])) * t_max
    lo = np.full(o.shape[1], np.inf)
    hi = np.full(o.shape[1], -np.inf)
    kinds, _ = scene._kernel
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for kind, packed in kinds.items():
            own = np.sum(np.abs(packed.rows), axis=1) + packed.softness
            grow = ((0.5 * packed.softness + _SUPPORT_PAD * own)[:, None]
                    + _SUPPORT_PAD * size)
            k_lo, k_hi = _SUPPORT[kind](packed.rows, grow, o, d)
            # NaN (unknown) passes both tests and the reductions below.
            meets = ~(k_hi < np.maximum(k_lo, 0.0))
            lo = np.minimum(lo, np.min(np.where(meets, k_lo, np.inf), axis=0))
            hi = np.maximum(hi, np.max(np.where(meets, k_hi, -np.inf), axis=0))
    lo[np.isnan(lo)] = -np.inf
    hi[np.isnan(hi)] = np.inf
    return lo, hi


def density(scene, pts):
    """Total density at pts (..., 3), computed in the dtype of pts."""
    pts = np.asarray(pts)
    if pts.dtype not in (np.float32, np.float64):
        pts = pts.astype(np.float64)
    total, _ = _total_density(scene, *_columns(pts))
    return total.reshape(pts.shape[:-1])


def material(scene, pts):
    """Density-weighted material blend at pts.

    Returns (albedo, tint) with shapes (..., 3). Points with zero total
    density take the scene default material.
    """
    pts = np.asarray(pts, dtype=np.float64)
    shape = pts.shape[:-1]
    total, weights = _total_density(scene, *_columns(pts))
    hit = total > 0.0
    safe = np.where(hit, total, 1.0)
    albedo = np.zeros(hit.shape + (3,), dtype=np.float64)
    tint = np.zeros(hit.shape + (3,), dtype=np.float64)
    # Normalizing each weight before the blend keeps a lone covering
    # primitive's material bit-exact (w / w is 1.0), so constant albedo
    # fields stay constant under the query.
    for p, w in zip(scene.primitives, weights):
        f = (w / safe)[..., None]
        albedo += f * p.albedo
        tint += f * p.tint
    albedo = np.where(hit[..., None], albedo, scene.default_material.albedo)
    tint = np.where(hit[..., None], tint, scene.default_material.tint)
    return albedo.reshape(shape + (3,)), tint.reshape(shape + (3,))


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


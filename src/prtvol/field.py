"""Analytic density fields: primitives, materials, gradient normals.

A scene is a list of soft primitives inside a bounding sphere. Each
primitive contributes density_scale * falloff(signed_distance), where the
falloff is a smoothstep ramp from 1 to 0 over a shell of width softness
centered on the primitive surface. Density is clamped to zero outside the
bounding sphere. Densities add; materials blend density-weighted.

Each scene is compiled once, when it is built, into one parameter row
per primitive, in scene order. density and material evaluate that kernel
on separate x, y and z arrays and sum the primitives in scene order,
rounding exactly as the per-point formulas do; each point's value is
independent of the other points in the batch. supports tabulates, for
rays held as (3, N) columns, each primitive's span on each ray as (S, N)
arrays; outside its span a primitive is exactly +0.0, so a march may
evaluate it only there without changing a bit of its sum.

Surface normals come from the density gradient, n = -grad / |grad|,
estimated by central differences with step h = min(softness) / 4. A
gradient magnitude under 1e-6 (constant-density cores, empty space) or a
gradient that overflows makes the normal invalid; invalid is a value, not
an error.
"""

import hashlib
import json
import math
import reprlib
from dataclasses import dataclass, fields, replace

import numpy as np

EPS_GRAD = 1e-6


def _numeric(v):
    """True for ints and floats, numpy's scalars and arrays included; bools and strings are not."""
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "iuf"
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _finite(v, name):
    """float(v), rejecting values that are not numbers or not finite."""
    try:
        if not _numeric(v):
            raise TypeError
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {reprlib.repr(v)}") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


# Largest count (march steps, image sizes, cache records, count flags): the marches'
# int64 indices ray * steps + step and lo + width cannot overflow below 2**31.
MAX_COUNT = 2**31 - 1


def _count(v, name):
    """v itself if it is an integer in [1, MAX_COUNT] (bools and floats are not)."""
    if not isinstance(v, (bool, int, np.integer)):
        _finite(v, name)  # names a non-number or a non-finite value as such
    elif not isinstance(v, bool) and 1 <= v <= MAX_COUNT:
        return v
    raise ValueError(f"{name} must be a positive integer up to {MAX_COUNT}, got {reprlib.repr(v)}")


def _object(v, name, keys=()):
    """v itself if it is a JSON object holding every key of keys."""
    if not isinstance(v, dict):
        raise ValueError(f"{name} must be a JSON object")
    for key in keys:
        if key not in v:
            raise ValueError(f"{name} missing field '{key}'")
    return v


def _as_vec3(v, name):
    try:
        if not (_numeric(v) or isinstance(v, (list, tuple)) and all(map(_numeric, v))):
            raise TypeError
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

    def __post_init__(self):
        # radius2 is squared once, as a float power: radius * radius rounds
        # differently about once in a thousand.
        try:
            object.__setattr__(self, "radius2", self.radius**2)
        except OverflowError:
            raise ValueError(f"bounds.radius must have a finite square, got {self.radius}")


@dataclass(frozen=True)
class MarchParams:
    primary_steps: int = 256
    secondary_steps: int = 64
    t_near: float = 0.0
    t_far: float = 10.0


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
        """JSON form: each record's fields, arrays as lists; primitives carry their type."""
        d = {name: _fields(getattr(self, name)) for name in ("bounds", "default_material", "march")}
        d["primitives"] = [{"type": p.kind, **_fields(p)} for p in self.primitives]
        return d


def _fields(record):
    """A dataclass record's fields by name, arrays as lists."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def scene_hash(scene):
    """Stable content hash of a scene's canonical JSON form."""
    text = json.dumps(scene.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _primitive(p, name, albedo, tint):
    """One primitive from its JSON object."""
    kind = _object(p, name, ("density_scale", "softness")).get("type")
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
        _object(p, name, ("radius", "center"))
        radius = _finite(p["radius"], f"{name}.radius")
        if radius <= 0.0:
            raise ValueError(f"{name}.radius must be positive")
        return SpherePrimitive(center=_as_vec3(p["center"], f"{name}.center"), radius=radius,
                               **common)
    if kind == "box":
        _object(p, name, ("extent", "center"))
        extent = _as_vec3(p["extent"], f"{name}.extent")
        if np.any(extent <= 0.0):
            raise ValueError(f"{name}.extent must be positive")
        return BoxPrimitive(center=_as_vec3(p["center"], f"{name}.center"), extent=extent,
                            **common)
    if kind == "slab":
        _object(p, name, ("axis", "thickness"))
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
    b = _object(_object(d, "scene", ("bounds",))["bounds"], "bounds", ("center", "radius"))
    bounds = Bounds(center=_as_vec3(b["center"], "bounds.center"),
                    radius=_finite(b["radius"], "bounds.radius"))
    if bounds.radius <= 0.0:
        raise ValueError("bounds.radius must be positive")

    dm = {"albedo": [0.5, 0.5, 0.5], "tint": 0.0,
          **_object(d.get("default_material", {}), "default_material")}
    default_material = Material(albedo=_as_rgb01(dm["albedo"], "default_material.albedo"),
                                tint=_as_tint(dm["tint"]))

    m = _object(d.get("march", {}), "march")
    march = MarchParams(
        primary_steps=_count(m.get("primary_steps", MarchParams.primary_steps),
                             "march.primary_steps"),
        secondary_steps=_count(m.get("secondary_steps", MarchParams.secondary_steps),
                               "march.secondary_steps"),
        t_near=_finite(m.get("t_near", MarchParams.t_near), "march.t_near"),
        t_far=_finite(m.get("t_far", MarchParams.t_far), "march.t_far"),
    )
    if not 0.0 <= march.t_near < march.t_far:
        raise ValueError("march range requires 0 <= t_near < t_far")

    entries = d.get("primitives", [])
    if not isinstance(entries, list):
        raise ValueError("primitives must be a JSON list")
    prims = []
    for i, p in enumerate(entries):
        name = f"primitives[{i}]"
        prims.append(_primitive(p, name, dm["albedo"], dm["tint"]))

    return VolumeScene(bounds=bounds, default_material=default_material,
                       march=march, primitives=tuple(prims))


def read_json(path, parse):
    """parse(the JSON value in the file at path), with path in front of any ValueError.

    A JSON syntax error is a ValueError too, so a truncated file names itself.
    """
    with open(path) as f:
        try:
            return parse(json.load(f))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


def write_json(path, value):
    """Write value to path as JSON indented by 2; NaN or inf raises before the file opens."""
    text = json.dumps(value, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as f:
        f.write(text)


def load_scene(path):
    return read_json(path, scene_from_dict)


def with_steps(scene, primary_steps=None, secondary_steps=None):
    """scene with the march step counts given (not None) replaced; scene itself if none is."""
    steps = {k: v for k, v in (("primary_steps", primary_steps),
                               ("secondary_steps", secondary_steps)) if v is not None}
    return replace(scene, march=replace(scene.march, **steps)) if steps else scene


# The compiled kernel: one entry per primitive, in scene order, holding
# its distance and support functions and its float64 row (sphere: center,
# radius; box: center, half extent; slab: unit axis, offset, half
# thickness). Evaluation splits points into x, y and z arrays, casts each
# row to the dtype of the points and sums densities in scene order, so
# every formula rounds exactly as the per-point expression it spells out.

# Relative margin added to each primitive's support by supports.
# Sample positions and the kernel round to a few units of the dtype's
# epsilon (2**-23 for float32) times the magnitudes involved; this is
# 2**11 times that.
_SUPPORT_PAD = 2.0**-12


def _row(p):
    if p.kind == "sphere":
        return [*p.center, p.radius]
    if p.kind == "box":
        return [*p.center, *(0.5 * p.extent)]
    return [*p.axis, p.offset, 0.5 * p.thickness]


def _compile(primitives):
    """(distance, support, row, density_scale, softness) of each primitive, in scene order."""
    return tuple((_DISTANCE[p.kind], _SUPPORT[p.kind], np.array(_row(p), dtype=np.float64),
                  float(p.density_scale), float(p.softness)) for p in primitives)


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


def _primitive_density(scene, i, x, y, z):
    """Primitive i's density at the points."""
    distance, _, row, scale, w = scene._kernel[i]
    d = distance(x, y, z, row.astype(x.dtype))
    t = (d + 0.5 * w) / w
    np.clip(t, 0.0, 1.0, out=t)
    return scale * (1.0 - t * t * (3.0 - 2.0 * t))


def _in_bounds(scene, x, y, z):
    c = scene.bounds.center.astype(x.dtype)
    return _squared_distance(x, y, z, c) <= x.dtype.type(scene.bounds.radius2)


def _total_density(scene, x, y, z):
    """Summed density times the bounds mask; also returns each primitive's."""
    weights = [_primitive_density(scene, i, x, y, z) for i in range(len(scene._kernel))]
    total = np.zeros(x.shape, dtype=x.dtype)
    for w in weights:
        total += w
    if weights:
        total *= _in_bounds(scene, x, y, z)
    return total, weights


def _sphere_support(row, grow, o, d):
    oc = [o[i] - row[i] for i in range(3)]
    a = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    b = oc[0] * d[0] + oc[1] * d[1] + oc[2] * d[2]
    rho = row[3] + grow
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


def _box_support(row, grow, o, d):
    lo, hi = -np.inf, np.inf
    for i in range(3):
        lo_i, hi_i = _band(o[i] - row[i], d[i], row[3 + i] + grow)
        lo, hi = np.maximum(lo, lo_i), np.minimum(hi, hi_i)
    return lo, hi


def _slab_support(row, grow, o, d):
    u0 = o[0] * row[0] + o[1] * row[1] + o[2] * row[2]
    slope = d[0] * row[0] + d[1] * row[1] + d[2] * row[2]
    return _band(u0 - row[3], slope, row[4] + grow)


_SUPPORT = {"sphere": _sphere_support, "box": _box_support, "slab": _slab_support}


def supports(scene, o, d, t_max):
    """Each primitive's float64 (lo, hi) along each ray, as (S, N) arrays in scene order.

    For rays o + t * d ((3, N) columns each) sampled at 0 <= t <= t_max
    (scalar or (N,)), a point whose t lies outside [lo, hi] gets exactly
    +0.0 from the primitive, computed in the dtype of o. A primitive
    is zero once its signed distance reaches softness / 2 (a sphere of
    radius + softness / 2, a box grown by softness / 2, a band of half
    thickness + softness / 2); each support is grown further by 2**-12
    times the magnitudes of the ray and the primitive to cover rounding.
    lo > hi when the ray meets the support at no t >= 0; where an interval
    cannot be computed (non-finite or zero-length input, a ray on the
    support's edge) it spans all t.
    """
    o = np.ascontiguousarray(o, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    size = np.abs(o[0]) + np.abs(o[1]) + np.abs(o[2])
    size += (np.abs(d[0]) + np.abs(d[1]) + np.abs(d[2])) * t_max
    lo, hi = [], []
    for _, support, row, _, softness in scene._kernel:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            own = np.sum(np.abs(row)) + softness
            grow = (0.5 * softness + _SUPPORT_PAD * own) + _SUPPORT_PAD * size
            a, b = support(row, grow, o, d)
            # NaN (unknown) passes this test, and then spans all t.
            meets = ~(b < np.maximum(a, 0.0))
        lo.append(np.where(meets, np.fmax(a, -np.inf), np.inf))
        hi.append(np.where(meets, np.fmin(b, np.inf), -np.inf))
    return np.reshape(lo, (len(lo), o.shape[1])), np.reshape(hi, (len(hi), o.shape[1]))


def _points(pts):
    """pts as an array in the dtype it is marched in: float32 stays, all else is float64."""
    pts = np.asarray(pts)
    return pts if pts.dtype == np.float32 else pts.astype(np.float64, copy=False)


def density(scene, pts):
    """Total density at pts (..., 3), computed in float32 for float32 pts, else in float64."""
    pts = _points(pts)
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
    entries hold a zero vector. A block's six taps x + h e_axis and
    x + -h e_axis (the bits of x +- offset) share one density call.
    """
    pts = np.asarray(pts, dtype=np.float64)
    shape = pts.shape[:-1]
    flat = pts.reshape(-1, 3)
    h = scene.fd_step
    grad = np.empty_like(flat)
    taps = np.stack([np.eye(3) * h, np.eye(3) * -h], axis=1).reshape(6, 1, 3)
    # A gradient or its squared length may overflow. A row whose squared
    # length alone does (a grad past about 1e154) is normalised as grad
    # over its largest |component|; a non-finite grad has no normal.
    with np.errstate(over="ignore"):
        # Blocks of 4096 points, a render chunk's anchors at 4 per ray, bound the call.
        for lo in range(0, flat.shape[0], 4096):
            d = density(scene, flat[lo:lo + 4096] + taps)  # taps +x, -x, +y, -y, +z, -z
            grad[lo:lo + 4096] = ((d[0::2] - d[1::2]) / (2.0 * h)).T
        mag = np.linalg.norm(grad, axis=-1)
    big = np.flatnonzero(np.isinf(mag))
    big = big[np.isfinite(grad[big]).all(axis=-1)]
    grad[big] /= np.abs(grad[big]).max(axis=-1)[:, None]
    mag[big] = np.linalg.norm(grad[big], axis=-1)
    valid = (mag >= EPS_GRAD) & np.isfinite(mag)
    safe = np.where(valid, mag, 1.0)
    n = -grad / safe[:, None]
    n[~valid] = 0.0
    return n.reshape(shape + (3,)), valid.reshape(shape)


"""Radiance transfer: visibility marching, transfer baking, residuals.

Visibility is the transmittance exp(-integral of density) along a
secondary ray, marched with fixed-step midpoint quadrature from a small
self-occlusion offset (twice the normal finite-difference step) out to
the bounding sphere. Transfer coefficients are the SH projection of
visibility times the clamped cosine about the surface normal, so a
transfer dotted with light coefficients gives occluded irradiance.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import field, sh

BAKE_GRID = (32, 64)


@dataclass(frozen=True)
class TransferSample:
    point: field.SurfacePoint
    transfer: np.ndarray


@dataclass(frozen=True)
class RaySet:
    """Evaluation rays for one surface point: 2 primary + 8 auxiliary."""

    directions: np.ndarray
    tags: tuple
    seed: int


def cosine_term(normal, dirs):
    """max(0, dot(normal, d)) for one normal against many directions."""
    normal = np.asarray(normal, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    return np.maximum(0.0, dirs @ normal)


def _exit_distance(scene, origins, dirs):
    """Per-ray [t0, t_exit] clipped to the bounding sphere, 0-length if missed."""
    c = scene.bounds.center.astype(origins.dtype, copy=False)
    r2 = origins.dtype.type(scene.bounds.radius**2)
    oc = origins - c
    b = np.sum(oc * dirs, axis=-1)
    disc = b * b - (np.sum(oc * oc, axis=-1) - r2)
    hit = disc > 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    t_enter = np.where(hit, -b - root, 0.0)
    t_exit = np.where(hit, -b + root, 0.0)
    return np.maximum(t_enter, 0.0), np.maximum(t_exit, 0.0)


def transmittance(scene, origins, dirs, steps=None, offset=0.0, chunk=262144):
    """exp(-optical depth) from origins along dirs out of the bounds.

    Args:
        scene: volume scene.
        origins, dirs: (N, 3) arrays of matching dtype; dirs unit length.
        steps: midpoint samples per ray; scene secondary_steps if None.
        offset: march start distance (self-occlusion offset).
        chunk: rays per internal batch, bounds peak memory.

    Returns:
        (N,) transmittance in the dtype of the inputs.
    """
    origins = np.asarray(origins)
    dirs = np.asarray(dirs, dtype=origins.dtype)
    if steps is None:
        steps = scene.march.secondary_steps
    n = origins.shape[0]
    out = np.empty(n, dtype=origins.dtype)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        o = origins[lo:hi]
        d = dirs[lo:hi]
        t_enter, t_exit = _exit_distance(scene, o, d)
        t0 = np.maximum(t_enter, origins.dtype.type(offset))
        span = np.maximum(t_exit - t0, 0.0)
        dt = span / origins.dtype.type(steps)
        tau = np.zeros(hi - lo, dtype=origins.dtype)
        for k in range(steps):
            t = t0 + (origins.dtype.type(k) + origins.dtype.type(0.5)) * dt
            tau += field.density(scene, o + t[:, None] * d)
        out[lo:hi] = np.exp(-tau * dt)
    return out


def visibility(scene, x, dirs, steps=None, offset=None):
    """Visibility of the environment from x toward dirs, shape (N,).

    offset defaults to twice the scene's finite-difference step so the
    march starts outside the shading point's own density sample.
    """
    x = np.asarray(x, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    single = dirs.ndim == 1
    if single:
        dirs = dirs[None, :]
    if offset is None:
        offset = 2.0 * scene.fd_step
    origins = np.broadcast_to(x, dirs.shape).copy()
    v = transmittance(scene, origins, dirs, steps=steps, offset=offset)
    return float(v[0]) if single else v


def bake_transfer(scene, position, normal, degree=4, resolution=BAKE_GRID,
                  steps=None, dtype=np.float64):
    """Transfer coefficients at one surface point.

    Projects visibility(x, w) * max(0, dot(n, w)) onto the SH basis over
    a latitude-longitude direction grid. Directions on the back side of
    the normal contribute exactly zero and are skipped.
    """
    t = bake_transfer_batch(scene, np.asarray(position, dtype=np.float64)[None, :],
                            np.asarray(normal, dtype=np.float64)[None, :],
                            degree=degree, resolution=resolution, steps=steps,
                            dtype=dtype)
    return t[0]


def bake_transfer_batch(scene, positions, normals, degree=4, resolution=BAKE_GRID,
                        steps=None, dtype=np.float64):
    """Transfer coefficients for (P, 3) positions with matching normals.

    Rows whose normal is a zero vector (invalid gradient) bake to zero.
    """
    vals, _, _ = visibility_map(scene, positions, normals, resolution=resolution,
                                steps=steps, dtype=dtype)
    return project_map(vals, degree=degree, resolution=resolution)


def visibility_map(scene, positions, normals, resolution=BAKE_GRID, steps=None,
                   dtype=np.float64):
    """Ray-traced visibility * clamped cosine on the bake direction grid.

    positions and normals are (P, 3). Only directions in front of each
    normal are marched (in dtype); the rest, and every direction of a
    zero normal, hold exactly zero. Returns (values (P, D), dirs (D, 3),
    weights (D,)): what transfer projects, and the reference against
    which reconstructed transfer is compared.
    """
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    dirs, weights, _ = sh.basis_grid(0, resolution[0], resolution[1])
    h = np.maximum(0.0, normals @ dirs.T)  # (P, D) clamped cosines
    pt_idx, dir_idx = np.nonzero(h > 0.0)
    v = transmittance(scene, positions[pt_idx].astype(dtype), dirs[dir_idx].astype(dtype),
                      steps=steps, offset=2.0 * scene.fd_step).astype(np.float64)
    vals = np.zeros(h.shape, dtype=np.float64)
    vals[pt_idx, dir_idx] = v * h[pt_idx, dir_idx]
    return vals, dirs, weights


def project_map(values, degree=4, resolution=BAKE_GRID):
    """SH projection of (P, D) visibility maps on the bake grid, (P, n)."""
    _, weights, basis = sh.basis_grid(degree, resolution[0], resolution[1])
    return (values * weights) @ basis


def nrt_rays(normal, view, seed=0):
    """The 10-ray evaluation set for one surface point.

    Two primary rays (the view direction and its opposite) plus eight
    auxiliary rays drawn uniformly from the hemisphere opposite the
    normal, where the reference transfer response is identically zero.
    """
    normal = sh.normalize(np.asarray(normal, dtype=np.float64))
    # The view is kept bit-for-bit so the returned primary rays equal the
    # caller's direction exactly; renormalizing would shift the last ulp.
    view = np.asarray(view, dtype=np.float64)
    if abs(np.linalg.norm(view) - 1.0) > 1e-6:
        raise ValueError("view direction must be unit length")
    rng = np.random.default_rng(seed)
    aux = np.empty((8, 3), dtype=np.float64)
    got = 0
    while got < 8:
        v = rng.normal(size=(16, 3))
        norms = np.linalg.norm(v, axis=1)
        v = v[norms > 1e-12] / norms[norms > 1e-12, None]
        dots = v @ normal
        v = v[dots != 0.0]
        dots = dots[dots != 0.0]
        v[dots > 0.0] *= -1.0
        take = min(8 - got, v.shape[0])
        aux[got:got + take] = v[:take]
        got += take
    directions = np.vstack([view[None, :], -view[None, :], aux])
    tags = ("primary+", "primary-") + ("auxiliary",) * 8
    return RaySet(directions=directions, tags=tags, seed=seed)


def nrt_residuals(scene, sample, rays, steps=None):
    """Squared error between reconstructed transfer and ray-traced V*H.

    One entry per direction of the RaySet; the front-facing directions
    are marched together.
    """
    dirs = np.asarray(rays.directions, dtype=np.float64)
    t = np.asarray(sample.transfer, dtype=np.float64)
    point = sample.point
    # Cosines and reconstructions are one dot product per direction, and
    # squares are Python float powers: a matrix-vector product or a numpy
    # square can round differently in the last bit.
    ref = np.zeros(dirs.shape[0], dtype=np.float64)
    if point.normal is not None:
        h = np.array([cosine_term(point.normal, d) for d in dirs])
        front = h > 0.0
        if np.any(front):
            ref[front] = visibility(scene, point.position, dirs[front], steps=steps) * h[front]
    basis = sh.eval_basis(dirs, sh.degree_for(t.shape[0]))
    return np.array([(float(row @ t) - r) ** 2 for row, r in zip(basis, ref.tolist())])


def surface_point_along(scene, origin, direction, steps=None):
    """Extract the dominant surface point along a primary ray.

    Marches [t_near, t_far] and takes the sample with the largest volume
    rendering weight T * density * dt. Returns None when the ray only
    crosses empty space.
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if steps is None:
        steps = scene.march.primary_steps
    t0, t1 = scene.march.t_near, scene.march.t_far
    dt = (t1 - t0) / steps
    t = t0 + (np.arange(steps) + 0.5) * dt
    pts = origin[None, :] + t[:, None] * direction[None, :]
    sigma = field.density(scene, pts)
    if not np.any(sigma > 0.0):
        return None
    tau = np.concatenate([[0.0], np.cumsum(sigma * dt)])[:-1]
    weight = np.exp(-tau) * sigma * dt
    k = int(np.argmax(weight))
    return field.surface_point_at(scene, pts[k])


def sample_surface_points(scene, count, seed=0, steps=None, max_tries=None):
    """Deterministic surface-point sampling by probing random rays.

    Rays start on the bounding sphere and aim at a jittered point near
    the center. Returns (points, views) with views the unit directions
    from each point back toward its ray origin. Raises when no probe ray
    finds a valid surface point.
    """
    rng = np.random.default_rng(seed)
    if max_tries is None:
        max_tries = 40 * count
    points = []
    views = []
    tries = 0
    while len(points) < count and tries < max_tries:
        tries += 1
        u = rng.normal(size=3)
        n = np.linalg.norm(u)
        if n < 1e-12:
            continue
        origin = scene.bounds.center + scene.bounds.radius * (u / n)
        target = scene.bounds.center + rng.uniform(-0.3, 0.3, size=3) * scene.bounds.radius
        d = target - origin
        dn = np.linalg.norm(d)
        if dn < 1e-12:
            continue
        d = d / dn
        sp = surface_point_along(scene, origin, d, steps=steps)
        if sp is None or not sp.valid:
            continue
        points.append(sp)
        views.append(-d)
    if not points:
        raise ValueError("no valid surface points found on any probe ray")
    return points, views


CACHE_RECORD_FLOATS = 6  # position + normal; transfer coeffs follow


def save_transfer_cache(path, scene, samples, degree=4):
    """Write baked transfer records plus a JSON sidecar.

    Each record is little-endian float64: position (3), normal (3), then
    the transfer coefficients. The sidecar (path + '.json') carries the
    degree, record count, and scene hash for validation on load.
    """
    n_coeff = sh.num_coeffs(degree)
    rows = np.empty((len(samples), CACHE_RECORD_FLOATS + n_coeff), dtype="<f8")
    for i, s in enumerate(samples):
        normal = s.point.normal if s.point.normal is not None else np.zeros(3)
        rows[i, 0:3] = s.point.position
        rows[i, 3:6] = normal
        if s.transfer.shape[0] != n_coeff:
            raise ValueError(
                f"sample {i} has {s.transfer.shape[0]} coefficients, expected {n_coeff}")
        rows[i, 6:] = s.transfer
    with open(path, "wb") as f:
        f.write(rows.tobytes())
    sidecar = {"degree": degree, "count": len(samples), "scene_hash": field.scene_hash(scene)}
    with open(path + ".json", "w") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")


@dataclass(frozen=True)
class TransferCache:
    positions: np.ndarray
    normals: np.ndarray
    coeffs: np.ndarray
    degree: int

    def nearest(self, query):
        """Indices of the nearest cached point for each query row."""
        query = np.asarray(query, dtype=np.float64)
        d2 = np.sum((query[:, None, :] - self.positions[None, :, :]) ** 2, axis=-1)
        return np.argmin(d2, axis=1)


def load_transfer_cache(path, scene=None):
    """Load a baked cache; verifies the sidecar against scene if given."""
    sidecar_path = path + ".json"
    if not os.path.exists(sidecar_path):
        raise ValueError(f"transfer cache sidecar missing: {sidecar_path}")
    with open(sidecar_path) as f:
        sidecar = json.load(f)
    degree = int(sidecar["degree"])
    count = int(sidecar["count"])
    if scene is not None and sidecar.get("scene_hash") != field.scene_hash(scene):
        raise ValueError("transfer cache was baked for a different scene")
    n_coeff = sh.num_coeffs(degree)
    width = CACHE_RECORD_FLOATS + n_coeff
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != count * width:
        raise ValueError(
            f"transfer cache holds {raw.size} floats, expected {count * width}")
    rows = raw.reshape(count, width)
    return TransferCache(positions=rows[:, 0:3].copy(), normals=rows[:, 3:6].copy(),
                         coeffs=rows[:, 6:].copy(), degree=degree)

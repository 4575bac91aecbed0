"""Radiance transfer: visibility marching, transfer baking, residuals.

Visibility is the transmittance exp(-integral of density) along a
secondary ray, marched with fixed-step midpoint quadrature from a small
self-occlusion offset (twice the normal finite-difference step) out to
the bounding sphere. All secondary rays (bakes, visibility maps, the
oracle's Monte Carlo rays and the residual rays) go through transmittance.
Its sample positions grow with the step index, so the samples inside a
ray's field.support_interval form one run of steps; transmittance finds
each run by counting, bit by bit, the steps before and inside the support
against the sample positions themselves, evaluates density only on the
run, in fixed-size blocks of samples taken ray after ray, and adds each
ray's samples in step order. Every skipped sample would
have been an exact 0.0, so the optical depth equals the dense march's
bit for bit. Its chunk argument bounds the per-ray arrays; MARCH_BLOCK
bounds the per-sample ones.

Primary rays, the renderer's and the probes that find surface points,
are marched by primary_march over [t_near, t_far] with the same skipping.
Probing is batched: each try draws its ray from the RNG in turn, but the
probes of up to PROBE_BLOCK tries are marched together, and the hits of a
block share one field.normals and one field.material call.

Transfer coefficients are the SH projection of visibility times the
clamped cosine about the surface normal, so a transfer dotted with light
coefficients gives occluded irradiance.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import field, sh

BAKE_GRID = (32, 64)
MAP_POINTS = 256  # points whose visibility maps are marched together
PROBE_BLOCK = 256  # probe rays of sample_surface_points marched together
MARCH_BLOCK = 1 << 13  # samples per field.density call in transmittance


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


def _steps_before(t0, dt, steps, before):
    """Per ray, how many leading samples k < steps satisfy before(t_k).

    t_k = t0 + (k + 0.5) * dt is computed in the march dtype exactly as the
    march computes it. It never decreases with k (dt >= 0 and rounding is
    monotone) and before is true then false along t, so the count is
    built bit by bit from the highest power of two down: bit_length(steps)
    rounds. NaN t counts as not before.
    """
    half = t0.dtype.type(0.5)
    n = np.zeros(t0.shape, dtype=np.intp)
    for p in reversed(range(int(steps).bit_length())):
        k = n + (1 << p)
        # The sample at k - 1 may lie past the last step; t keeps growing
        # there, so the count is only clipped at the end.
        n = np.where(before(t0 + ((k - 1).astype(t0.dtype) + half) * dt), k, n)
    return np.minimum(n, steps)


def transmittance(scene, origins, dirs, steps=None, offset=0.0, chunk=65536):
    """exp(-optical depth) from origins along dirs out of the bounds.

    Each ray's samples t inside its field.support_interval form one run of
    steps, found against t itself; density is evaluated only there, in
    blocks of MARCH_BLOCK samples, and each ray's samples are added in step
    order. Every skipped sample would have added an exact 0.0, so the
    result equals the dense march's bit for bit.

    Args:
        scene: volume scene.
        origins, dirs: (N, 3) arrays of matching dtype; dirs unit length.
        steps: midpoint samples per ray; scene secondary_steps if None.
        offset: march start distance (self-occlusion offset).
        chunk: rays per internal batch; bounds the per-ray arrays, while
            MARCH_BLOCK bounds the per-sample ones.

    Returns:
        (N,) transmittance in the dtype of the inputs.
    """
    origins = np.asarray(origins)
    dirs = np.asarray(dirs, dtype=origins.dtype)
    dtype = origins.dtype.type
    if steps is None:
        steps = scene.march.secondary_steps
    n = origins.shape[0]
    out = np.empty(n, dtype=origins.dtype)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        o = origins[lo:hi]
        d = dirs[lo:hi]
        t_enter, t_exit = _exit_distance(scene, o, d)
        t0 = np.maximum(t_enter, dtype(offset))
        span = np.maximum(t_exit - t0, 0.0)
        dt = span / dtype(steps)
        # Ray r's live steps are first[r] <= k < first[r] + count[r]. They
        # are laid out ray after ray; flat position i of ray r is step i - shift[r].
        s_lo, s_hi = field.support_interval(scene, o, d, t_exit)
        first = _steps_before(t0, dt, steps, lambda t: t < s_lo)
        count = np.maximum(_steps_before(t0, dt, steps, lambda t: t <= s_hi) - first, 0)
        end = np.cumsum(count)
        shift = end - count - first
        total = int(end[-1])
        # One row per quantity (origin, direction, t0, dt), so a block's
        # samples copy them with one repeat into contiguous rows.
        rows = np.vstack([o.T, d.T, t0, dt])
        tau = np.zeros(hi - lo, dtype=origins.dtype)
        for b in range(0, total, MARCH_BLOCK):
            e = min(b + MARCH_BLOCK, total)
            r0, r1 = np.searchsorted(end, (b, e - 1), side="right")
            rays = slice(r0, r1 + 1)
            per = np.minimum(end[rays], e) - np.maximum(end[rays] - count[rays], b)
            ray = np.repeat(rows[:, rays], per, axis=1)
            k = np.arange(b, e) - np.repeat(shift[rays], per)
            t = ray[6] + (k.astype(origins.dtype) + dtype(0.5)) * ray[7]
            pts = ray[3:6] * t
            pts += ray[0:3]
            # add.at applies the additions in index order: step order per ray.
            np.add.at(tau, np.repeat(np.arange(r0, r1 + 1), per), field.density(scene, pts.T))
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
    vals = np.zeros(h.shape, dtype=np.float64)
    # Rays are cast before they are gathered and marched MAP_POINTS points
    # at a time, which gives the same values with small per-ray arrays.
    origins, rays = positions.astype(dtype), dirs.astype(dtype)
    for lo in range(0, h.shape[0], MAP_POINTS):
        front = h[lo:lo + MAP_POINTS]
        pt_idx, dir_idx = np.nonzero(front > 0.0)
        v = transmittance(scene, origins[lo + pt_idx], rays[dir_idx], steps=steps,
                          offset=2.0 * scene.fd_step)
        vals[lo + pt_idx, dir_idx] = v.astype(np.float64) * front[pt_idx, dir_idx]
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


def primary_march(scene, origins, dirs, steps=None):
    """Density at the midpoint samples of primary rays over [t_near, t_far].

    origins and dirs are (R, 3). Returns (pts (R, K, 3), sigma (R, K),
    dt) for K = steps, the scene's primary_steps if None. Density is
    evaluated only at samples inside each ray's field.support_interval
    (exact because t_near >= 0); the others hold the exact 0.0 that
    field.density gives there, so sigma equals a dense evaluation bit for
    bit.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if steps is None:
        steps = scene.march.primary_steps
    t0, t1 = scene.march.t_near, scene.march.t_far
    dt = (t1 - t0) / steps
    t = t0 + (np.arange(steps) + 0.5) * dt
    pts = origins[:, None, :] + t[None, :, None] * dirs[:, None, :]
    sigma = np.zeros(pts.shape[:-1], dtype=pts.dtype)
    lo, hi = field.support_interval(scene, origins, dirs, t1)
    live = (lo[:, None] <= t) & (t <= hi[:, None])
    if np.any(live):
        sigma[live] = field.density(scene, pts[live])
    return pts, sigma, dt


def _probe(scene, origins, dirs, steps):
    """Dominant surface point of each probe ray, or None.

    The dominant sample has the largest volume rendering weight
    T * density * dt; a ray crossing only empty space, or whose dominant
    sample has no gradient normal or one facing away from the probe's
    origin (a grazing probe past a soft shell's tangent point), gives None.
    """
    pts, sigma, dt = primary_march(scene, origins, dirs, steps)
    tau = np.zeros_like(sigma)
    tau[:, 1:] = np.cumsum(sigma * dt, axis=1)[:, :-1]
    weight = np.exp(-tau) * sigma * dt
    rows = np.flatnonzero(np.any(sigma > 0.0, axis=1))
    found = [None] * origins.shape[0]
    if rows.size == 0:
        return found
    x = pts[rows, np.argmax(weight[rows], axis=1)]
    nrm, valid = field.normals(scene, x)
    d = dirs[rows]
    facing = nrm[:, 0] * d[:, 0] + nrm[:, 1] * d[:, 1] + nrm[:, 2] * d[:, 2] < 0.0
    albedo, tint = field.material(scene, x)
    for j in np.flatnonzero(valid & facing):
        found[rows[j]] = field.SurfacePoint(position=x[j], normal=nrm[j], albedo=albedo[j],
                                            tint=tint[j], valid=True)
    return found


def sample_surface_points(scene, count, seed=0, steps=None, max_tries=None):
    """Deterministic surface-point sampling by probing random rays.

    Rays start on the bounding sphere and aim at a jittered point near
    the center. Each try draws its ray from the RNG in turn; the probes
    of up to PROBE_BLOCK tries are marched together and accepted in try
    order until count points are found or max_tries tries are spent.
    Returns (points, views) with views the unit directions from each
    point back toward its ray origin; there may be fewer than count.
    Raises when no probe ray finds a valid surface point.
    """
    rng = np.random.default_rng(seed)
    if max_tries is None:
        max_tries = 40 * count
    points = []
    views = []
    tries = 0
    while len(points) < count and tries < max_tries:
        # Twice the points still missing: most probes hit, so a block seldom
        # has to be followed by another, and few probes are marched in vain.
        block = min(PROBE_BLOCK, max_tries - tries, 2 * (count - len(points)))
        tries += block
        origins, dirs = [], []
        for _ in range(block):
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
            origins.append(origin)
            dirs.append(d / dn)
        if not origins:
            continue
        for sp, d in zip(_probe(scene, np.array(origins), np.array(dirs), steps), dirs):
            if sp is not None and len(points) < count:
                points.append(sp)
                views.append(-d)
    if not points:
        raise ValueError("no valid surface points found on any probe ray")
    return points, views


CACHE_RECORD_FLOATS = 6  # position + normal; transfer coeffs follow
NEAREST_CHUNK_ENTRIES = 1 << 18  # query-point distances held at once by nearest


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
        """Indices of the nearest cached point for each query row.

        Ties go to the lowest index. Queries are matched in chunks of
        NEAREST_CHUNK_ENTRIES query-point distances (one query per chunk
        once the cache is larger), so the temporaries do not grow with the
        query count.
        """
        query = np.asarray(query, dtype=np.float64)
        cols = self.positions.T.copy()
        rows = max(1, NEAREST_CHUNK_ENTRIES // max(1, cols.shape[1]))
        out = np.empty(query.shape[0], dtype=np.intp)
        for lo in range(0, query.shape[0], rows):
            q = query[lo:lo + rows]
            d2 = np.subtract.outer(q[:, 0], cols[0])
            d2 *= d2
            for axis in (1, 2):
                e = np.subtract.outer(q[:, axis], cols[axis])
                e *= e
                d2 += e
            out[lo:lo + rows] = np.argmin(d2, axis=1)
        return out


def load_transfer_cache(path, scene=None):
    """Load a baked cache; verifies the sidecar against scene if given."""
    sidecar_path = path + ".json"
    if not os.path.exists(sidecar_path):
        raise ValueError(f"transfer cache sidecar missing: {sidecar_path}")
    with open(sidecar_path) as f:
        sidecar = json.load(f)
    if not isinstance(sidecar, dict):
        raise ValueError("transfer cache sidecar must be a JSON object")
    for key in ("degree", "count", "scene_hash"):
        if key not in sidecar:
            raise ValueError(f"transfer cache sidecar missing field '{key}'")
    degree, count = sidecar["degree"], sidecar["count"]
    if type(degree) is not int or not 0 <= degree <= sh.MAX_DEGREE:
        raise ValueError(
            f"transfer cache degree must be an integer in [0, {sh.MAX_DEGREE}], got {degree!r}")
    if type(count) is not int or count < 1:
        raise ValueError(f"transfer cache count must be a positive integer, got {count!r}")
    if not isinstance(sidecar["scene_hash"], str):
        raise ValueError("transfer cache sidecar scene_hash must be a string")
    if scene is not None and sidecar["scene_hash"] != field.scene_hash(scene):
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

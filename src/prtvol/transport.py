"""Radiance transfer: visibility marching, transfer baking, residuals.

Visibility is the transmittance exp(-integral of density) along a
secondary ray, marched by transmittance in scene.march.secondary_steps
midpoint steps from a small self-occlusion offset (twice the normal
finite-difference step) out to the bounding sphere. primary_march
marches the renderer's and the probes' rays in scene.march.primary_steps
over [t_near, t_far]; _march_weights composites both on the live window.
Both list each primitive's run of steps on each ray that meets its span
in field.supports' table (_runs), and _add_terms evaluates each term
there alone and adds it into the march's buffer, in scene order: every
skipped term is an exact +0.0, so both equal a dense march bit for bit.
transmittance's buffer holds each ray's steps from its first live one to
its last, summed in step order; primary_march's is its (R, K) densities.
transmittance is point-major: it marches the rays (origins[p], dirs[q])
of index pairs into a table of points and a table of directions, so
visibility_map hands it each point once and the directions in front of
its normal as pairs. A chunk's rays are held as (3, N) columns, and the
per-ray setup works on flat indices. Each expression keeps the bits of
the row-major formula it replaced: a length-3 dot product is summed as
((0.0 + p0) + p1) + p2, which is np.sum's order over a row of three.
Primary samples are returned as distances, and primary_points forms a
position only where one is needed, in the bits the march evaluated. The
probes of up to PROBE_BLOCK tries are marched together, and their hits
share one field.normals and one field.material call; sample_surface_points
returns the points as (P, 3) positions, normals, albedo and views.

visibility_map is the one implementation of V * max(0, n . d), and marches
the points it is given in one pass; project_map is the one SH projection;
the bake (bake_transfer_batch) is project_map(visibility_map(block)) for
each block of MAP_POINTS points, and the 10-ray residual (nrt_rays,
nrt_residuals) compares a transfer with the V * H its caller marched
along the rays. A bake never holds a map of more than MAP_POINTS rows,
so an uncached render's memory is bounded by threads x MAP_POINTS x
transfer-grid directions, whatever its anchor count. Every step works per
point, so a point's transfer is the same bits whatever batch it is baked
in.
Callers pass points as (P, 3) positions and normals (a zero normal for a
point without one) and transfers as (P, n) coefficient arrays; the
positions' dtype sets the march's precision by field.density's rule
(float32 stays float32, anything else is float64).

A TransferCache rejects non-finite records and sizes a grid over its
points once. TransferCache.nearest returns exactly the indices a
brute-force nearest scan would, ties to the lowest index, but scans each
grid cell of queries only against the points that can be nearest to it,
with temporaries bounded whatever the cache size.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import field, sh

BAKE_GRID = (32, 64)
MAP_POINTS = 256  # points whose visibility maps are marched together
PROBE_BLOCK = 256  # probe rays of sample_surface_points marched together
MARCH_CHUNK = 16384  # rays per internal batch of transmittance
MARCH_BLOCK = 1 << 13  # samples per primitive kernel call of either march


def _sum3(a, b):
    """((0.0 + a0*b0) + a1*b1) + a2*b2 of (3, ...) columns: np.sum's bits over rows of 3."""
    s = 0.0 + a[0] * b[0]
    s += a[1] * b[1]
    s += a[2] * b[2]
    return s


def _exit_distance(scene, o, d):
    """Per-ray [t0, t_exit] clipped to the bounding sphere, 0-length if missed.

    o and d are (3, N) columns of origins and directions.
    """
    c = scene.bounds.center.astype(o.dtype, copy=False)
    r2 = o.dtype.type(scene.bounds.radius2)
    oc = o - c[:, None]
    b = _sum3(oc, d)
    disc = b * b - (_sum3(oc, oc) - r2)
    hit = disc > 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    t_enter = np.where(hit, -b - root, 0.0)
    t_exit = np.where(hit, -b + root, 0.0)
    return np.maximum(t_enter, 0.0), np.maximum(t_exit, 0.0)


def _count_before(t0, dt, s, steps, before):
    """How many of each ray's samples t0 + (k + 0.5) * dt, k < steps, lead with before(t, s).

    t0 and dt are (N,) in the samples' dtype, dt >= 0 or NaN, so t never
    decreases with k; before (np.less or np.less_equal) is false for NaN
    t. Each pass tests one step per ray, as the march computes its t: the
    guess ceil((s - t0) / dt - 0.5), then the step beside it, both over all
    rays, then bisection over the few rays left, so any guess costs at most
    2 + steps.bit_length() passes.
    """
    dtype = t0.dtype.type
    # The guess is formed in one array: a chain of fresh temporaries here
    # measurably raised the process's peak RSS.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = s - t0
        g /= dt
    g -= 0.5
    np.ceil(g, out=g)
    np.clip(np.nan_to_num(g, copy=False), 0, steps - 1, out=g)
    k = g.astype(np.intp)
    del g
    # Each ray's count lies in [lo, hi]; k is the step it tests next.
    yes = before(t0 + (k.astype(dtype) + dtype(0.5)) * dt, s)
    lo, hi = np.where(yes, k + 1, 0), np.where(yes, steps, k)
    k = np.where(yes, lo, hi - 1)
    yes = before(t0 + (k.astype(dtype) + dtype(0.5)) * dt, s)
    lo, hi = np.where(yes & (lo < hi), k + 1, lo), np.where(~yes & (lo < hi), k, hi)
    rays = np.flatnonzero(lo < hi)
    while rays.size:
        k = (lo[rays] + hi[rays]) // 2
        yes = before(t0[rays] + (k.astype(dtype) + dtype(0.5)) * dt[rays], s[rays])
        lo[rays[yes]], hi[rays[~yes]] = k[yes] + 1, k[~yes]
        rays = rays[lo[rays] < hi[rays]]
    return lo


def _runs(t0, dt, steps, lo, hi):
    """The non-empty per-ray runs of steps of every support, as (ends, ray, first, count).

    Sample k < steps of ray r lies at t0[r] + (k + 0.5) * dt[r] ((N,)
    arrays in the samples' dtype). Support i's samples with lo[i, r] <= t
    <= hi[i, r] ((S, N) float64, from field.supports) are steps first <= k
    < first + count (_count_before), counted only where lo <= hi. The runs
    with count > 0 are listed support after support, each with the flat
    index of its ray; those of support i are [ends[i - 1], ends[i]).
    """
    # Pair i * N + r is support i on ray r, so the pairs come support after support.
    pair = np.flatnonzero(lo <= hi)
    support, ray = np.divmod(pair, t0.shape[0])
    a, b = t0[ray], dt[ray]
    first = _count_before(a, b, lo.reshape(-1)[pair], steps, np.less)
    count = _count_before(a, b, hi.reshape(-1)[pair], steps, np.less_equal)
    count -= first
    keep = np.flatnonzero(count > 0)
    ends = np.searchsorted(support[keep], np.arange(lo.shape[0]), side="right")
    return ends, ray[keep], first[keep], count[keep]


def _add_terms(scene, o, d, t0, dt, runs, out, base):
    """Add each primitive's density times the bounds mask on its runs of _runs into out.

    Sample k of ray r lies at t = t0[r] + (k + 0.5) * dt[r], computed in
    the dtype of the (3, N) columns o and d, so at d[:, r] * t + o[:, r];
    its term is added into out[base[r] + k], support after support in
    scene order. Each support's runs are laid out run after run and cut
    into blocks of MARCH_BLOCK samples.
    """
    ends, ray, first, count = runs
    half = o.dtype.type(0.5)
    # One row per quantity (origin, direction, t0, dt), so a block's
    # samples gather them with one take into contiguous rows.
    rows = np.vstack([o, d, t0, dt])
    # Flat position f of run j is step f - shift[j]; the samples of
    # support i are at flat positions [edge[i], edge[i + 1]).
    end = np.cumsum(count)
    shift = end - count - first
    edge = [0] + np.r_[0, end][ends].tolist()
    for i in range(len(ends)):
        for b in range(edge[i], edge[i + 1], MARCH_BLOCK):
            e = min(b + MARCH_BLOCK, edge[i + 1])
            # Runs r0 to r1 hold the block, which starts inside run r0.
            # Only arrays of the block's size are made: arrays the size of
            # its run count would leave many odd sizes in numpy's cache of
            # small buffers, and with them a more fragmented heap.
            r0, r1 = np.searchsorted(end, (b, e - 1), side="right")
            j = np.repeat(np.arange(r0, r1 + 1), count[r0:r1 + 1])[b - end[r0] + count[r0]:][:e - b]
            k = np.arange(b, e) - shift[j]
            r = ray[j]
            g = np.take(rows, r, axis=1)
            t = k.astype(o.dtype)
            t += half
            t *= g[7]
            np.add(g[6], t, out=t)
            pts = np.multiply(g[3:6], t, out=g[3:6])
            pts += g[0:3]
            term = field._primitive_density(scene, i, *pts) * field._in_bounds(scene, *pts)
            # A (ray, step) occurs once per run, so += adds each term once.
            out[base[r] + k] += term


def transmittance(scene, origins, dirs, *, pairs=None, offset=0.0):
    """exp(-optical depth) along the rays (origins[p], dirs[q]) of pairs = (p, q), out of the bounds.

    Each ray takes scene.march.secondary_steps midpoint samples from
    offset, and its live samples are added in step order, as a dense
    march would. A point's rays share its origin row, and the rays are
    marched MARCH_CHUNK at a time as (3, N) columns taken from the
    origin and direction tables.

    Args:
        scene: volume scene.
        origins: (P, 3) ray origins; dirs: (D, 3) unit directions, cast
            to the dtype of origins.
        pairs: (p, q) index arrays of equal length; None pairs row i of
            origins with row i of dirs.
        offset: march start distance (self-occlusion offset).

    Returns:
        (N,) transmittance of the N pairs, in the dtype of origins.
    """
    origins, dirs = np.asarray(origins), np.asarray(dirs)
    if pairs is None:
        if origins.shape[0] != dirs.shape[0]:
            raise ValueError("origins and dirs must pair row by row when pairs is None")
        pairs = (np.arange(origins.shape[0]),) * 2
    p, q = pairs
    o_cols = np.ascontiguousarray(origins.T)
    d_cols = np.ascontiguousarray(dirs.T, dtype=origins.dtype)
    dtype, steps = origins.dtype.type, scene.march.secondary_steps
    n = len(p)
    out = np.empty(n, dtype=origins.dtype)
    for lo in range(0, n, MARCH_CHUNK):
        hi = min(lo + MARCH_CHUNK, n)
        o, d = np.take(o_cols, p[lo:hi], axis=1), np.take(d_cols, q[lo:hi], axis=1)
        t_enter, t_exit = _exit_distance(scene, o, d)
        t0 = np.maximum(t_enter, dtype(offset))
        dt = np.maximum(t_exit - t0, 0.0) / dtype(steps)
        runs = _runs(t0, dt, steps, *field.supports(scene, o, d, t_exit))
        _, ray, first, count = runs
        # Each ray's steps from its first live one to its last lie ray after
        # ray in one zeroed buffer; step k of ray r is at base[r] + k.
        start = np.full(hi - lo, steps, dtype=np.intp)
        np.minimum.at(start, ray, first)
        size = np.zeros(hi - lo, dtype=np.intp)
        np.maximum.at(size, ray, first + count)
        size -= start
        np.maximum(size, 0, out=size)
        base = np.cumsum(size) - size - start
        terms = np.zeros(int(size.sum()), dtype=origins.dtype)
        _add_terms(scene, o, d, t0, dt, runs, terms, base)
        # add.at adds in index order, so each ray sums its steps in step
        # order, as a dense march does; the +0.0 between runs adds exactly.
        # A depth past the dtype's range is inf: transmittance 0.
        tau = np.zeros(hi - lo, dtype=origins.dtype)
        with np.errstate(over="ignore"):
            np.add.at(tau, np.repeat(np.arange(hi - lo), size), terms)
        out[lo:hi] = np.exp(-tau * dt)
    return out


def bake_transfer_batch(scene, positions, normals, degree=4, resolution=BAKE_GRID):
    """Transfer coefficients for (P, 3) positions with matching normals, (P, n).

    Projects the visibility_map of MAP_POINTS points at a time on the bake
    grid onto the SH basis, so no map larger than MAP_POINTS rows of the
    grid's directions is held. Rows whose normal is a zero vector (invalid
    gradient) bake to zero. The march runs in the dtype visibility_map
    takes from the positions.
    """
    dirs, _, _ = sh.basis_grid(degree, *resolution)
    positions, normals = np.asarray(positions), np.asarray(normals)
    rows = [project_map(visibility_map(scene, positions[lo:lo + MAP_POINTS],
                                       normals[lo:lo + MAP_POINTS], dirs),
                        degree, resolution)
            for lo in range(0, positions.shape[0], MAP_POINTS)]
    return np.concatenate(rows) if rows else np.zeros((0, sh.num_coeffs(degree)))


def visibility_map(scene, positions, normals, dirs):
    """Ray-traced visibility * clamped cosine, V(x, d) * max(0, n . d).

    positions and normals are (P, 3), dirs (D, 3) unit directions, marched
    in one pass: the (point, direction) pairs of cosine > 0 go to
    transmittance as index pairs, marched from twice the finite-difference
    step in the positions' dtype by field.density's rule (float32 stays
    float32, anything else is float64). The rest, and every direction of
    a zero normal, hold exactly zero. Returns (P, D) float64, one row per
    point that does not depend on the other points.
    """
    n = np.asarray(normals, dtype=np.float64).T[:, :, None]
    d = np.ascontiguousarray(np.asarray(dirs, dtype=np.float64).T)
    vals = _sum3(n, d[:, None, :])
    flat = vals.reshape(-1)
    pair = np.flatnonzero(flat > 0.0)
    front = flat[pair]
    v = transmittance(scene, field._points(positions), d.T,
                      pairs=np.divmod(pair, d.shape[1]), offset=2.0 * scene.fd_step)
    vals.fill(0.0)
    flat[pair] = v.astype(np.float64) * front
    return vals


def project_map(values, degree=4, resolution=BAKE_GRID):
    """SH projection of (P, D) maps on the bake grid, (P, n).

    Unlike a BLAS product, einsum sums each row in one order whatever the
    other rows are.
    """
    _, weights, basis = sh.basis_grid(degree, *resolution)
    return np.einsum("pd,nd->pn", values * weights, np.ascontiguousarray(basis.T),
                     optimize=False)


def nrt_rays(normal, view, seed=0):
    """The (10, 3) evaluation directions for one surface point.

    Rows 0 and 1 are the primary pair, the view direction and its
    opposite. Rows 2 to 9 are the auxiliary rays, drawn uniformly from the
    hemisphere opposite the normal, where the reference transfer response
    is identically zero.
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
    return np.vstack([view[None, :], -view[None, :], aux])


def nrt_residuals(transfer, dirs, vh):
    """Squared error between reconstructed transfer and ray-traced V*H.

    One entry per row of the (D, 3) dirs; vh holds the (D,) V*H along
    them, a row of visibility_map, which the caller marches.
    """
    t = np.asarray(transfer, dtype=np.float64)
    # Reconstructions are one dot product per direction, and squares are
    # Python float powers: a matrix-vector product or a numpy square can
    # round differently in the last bit.
    basis = sh.eval_basis(np.asarray(dirs, dtype=np.float64), sh.degree_for(t.shape[0]))
    return np.array([(float(row @ t) - r) ** 2
                     for row, r in zip(basis, np.asarray(vh, dtype=np.float64).tolist())])


def primary_march(scene, origins, dirs):
    """Density at the midpoint samples of primary rays over [t_near, t_far].

    origins and dirs are (R, 3). Returns (sigma (R, K), t (K,), dt) for
    K = scene.march.primary_steps; sample k of ray r lies at
    primary_points(origins, dirs, t, r, k). Each primitive's term, times
    the bounds mask, is added on its own run in scene order; skipped terms
    are +0.0 (exact since t_near >= 0), as field.density would add them.
    """
    o = np.asarray(origins, dtype=np.float64).T
    d = np.asarray(dirs, dtype=np.float64).T
    steps, t0, t1 = scene.march.primary_steps, scene.march.t_near, scene.march.t_far
    dt = (t1 - t0) / steps
    sigma = np.zeros((o.shape[1], steps))
    t0s, dts = np.full(o.shape[1], t0), np.full(o.shape[1], dt)
    runs = _runs(t0s, dts, steps, *field.supports(scene, o, d, t1))
    _add_terms(scene, o, d, t0s, dts, runs, sigma.reshape(-1), np.arange(o.shape[1]) * steps)
    return sigma, t0 + (np.arange(steps) + 0.5) * dt, dt


def primary_points(origins, dirs, t, ray, step):
    """(N, 3) positions of primary_march samples (ray[i], step[i]), as evaluated."""
    return origins[ray] + t[step, None] * dirs[ray]


def _march_weights(sigma, dt, width):
    """(tau, live, c0, T, T * depth) of primary_march densities sigma (R, K).

    depth = sigma * dt is written over sigma, and tau (R,) is its dense row
    sum. live (sigma > 0), T = exp(-(cumsum(depth) - depth)) and T * depth
    are taken on columns [c0, c1), the first to the last where any ray has
    sigma > 0, widened to min(width, K): depth is +0.0 outside them, so the
    cumsum has the dense bits there and every other weight is 0.
    """
    live = sigma > 0.0
    cols = np.flatnonzero(live.any(axis=0))
    lo, hi = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
    c1 = min(max(hi, lo + width), sigma.shape[1])
    c0 = max(min(lo, c1 - width), 0)
    depth = np.multiply(sigma, dt, out=sigma)
    win = depth[:, c0:c1]
    # A depth sum past float64's range is inf: transmittance 0, alpha 1.
    with np.errstate(over="ignore"):
        trans = np.cumsum(win, axis=1)
        tau = np.sum(depth, axis=1)
    trans -= win
    np.exp(np.negative(trans, out=trans), out=trans)
    return tau, live[:, c0:c1], c0, trans, trans * win


def _probe(scene, origins, dirs):
    """Dominant surface points of the probe rays, (rows, positions, normals, albedo).

    The dominant sample has the largest volume rendering weight
    T * density * dt, the first on ties and step 0 if all are zero, as on
    the dense row. rows are the indices of the rays whose dominant
    sample has a gradient normal facing the probe's origin, in ray order;
    a ray crossing only empty space, or whose dominant sample has no normal
    or one facing away (a grazing probe past a soft shell's tangent point),
    gives no row.
    """
    sigma, t, dt = primary_march(scene, origins, dirs)
    _, live, c0, _, weight = _march_weights(sigma, dt, 1)
    rows = np.flatnonzero(live.any(axis=1))
    w = weight[rows]
    x = primary_points(origins, dirs, t, rows, np.argmax(w, axis=1) + c0 * w.any(axis=1))
    nrm, valid = field.normals(scene, x)
    keep = valid & (_sum3(nrm.T, dirs[rows].T) < 0.0)
    albedo, _ = field.material(scene, x[keep])
    return rows[keep], x[keep], nrm[keep], albedo


def sample_surface_points(scene, count, seed=0, max_tries=None):
    """Deterministic surface-point sampling by probing random rays.

    Rays start on the bounding sphere and aim at a jittered point near
    the center. Each try draws its ray from the RNG in turn; the probes
    of up to PROBE_BLOCK tries are marched together and their hits
    accepted in try order until count points are found or max_tries tries
    are spent. Returns (positions, normals, albedo, views), each (P, 3)
    float64 with P <= count: unit gradient normals facing the probe, and
    views the unit directions from each point back toward its ray origin.
    Raises when no probe ray finds a valid surface point.
    """
    rng = np.random.default_rng(seed)
    if max_tries is None:
        max_tries = 40 * count
    parts = []
    found = tries = 0
    while found < count and tries < max_tries:
        # Twice the points still missing: most probes hit, so a block seldom
        # has to be followed by another, and few probes are marched in vain.
        block = min(PROBE_BLOCK, max_tries - tries, 2 * (count - found))
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
        dirs = np.array(dirs)
        rows, x, nrm, albedo = _probe(scene, np.array(origins), dirs)
        need = count - found
        parts.append((x[:need], nrm[:need], albedo[:need], -dirs[rows[:need]]))
        found += len(parts[-1][0])
    if not found:
        raise ValueError("no valid surface points found on any probe ray")
    return tuple(np.concatenate(part) for part in zip(*parts))


CACHE_RECORD_FLOATS = 6  # position + normal; transfer coeffs follow
NEAREST_CHUNK_ENTRIES = 1 << 16  # distance pairs held at once by nearest


def save_transfer_cache(path, scene, positions, normals, coeffs):
    """Write baked transfer records plus a JSON sidecar.

    positions and normals are (P, 3) and coeffs (P, n) with n a square,
    which gives the degree. Each record is little-endian float64: position
    (3), normal (3), then the transfer coefficients. The sidecar
    (path + '.json') carries the degree, record count, and scene hash for
    validation on load.
    """
    coeffs = np.asarray(coeffs, dtype="<f8")
    count = coeffs.shape[0]
    if coeffs.ndim != 2 or np.shape(positions) != (count, 3) or np.shape(normals) != (count, 3):
        raise ValueError("transfer cache needs (P, 3) positions and normals, (P, n) coefficients")
    degree = sh.degree_for(coeffs.shape[1])
    rows = np.concatenate([positions, normals, coeffs], axis=1, dtype="<f8")
    with open(path, "wb") as f:
        f.write(rows.tobytes())
    field.write_json(path + ".json",
                     {"degree": degree, "count": count, "scene_hash": field.scene_hash(scene)})


def _query_grid(positions):
    """Origin, cell edge and per-axis cell counts of nearest's query cells.

    The edge is half the spacing the points would have spread evenly over
    the bounding box of their non-flat axes, and no axis holds more cells
    than points (nor more than 2**20). A cache without extent, or whose
    extent overflows, gets one cell.
    """
    lo = positions.min(axis=0)
    with np.errstate(over="ignore"):
        extent = positions.max(axis=0) - lo
        wide = extent > 0.0
        if wide.any():
            edge = 0.5 * (np.prod(extent[wide]) / positions.shape[0]) ** (1.0 / wide.sum())
            edge = max(edge, extent.max() / min(positions.shape[0], 1 << 20))
        else:
            edge = 0.0
    if not 0.0 < edge < np.inf:
        return lo, 1.0, np.ones(3, dtype=np.intp)
    return lo, edge, (extent // edge).astype(np.intp) + 1


def _candidates(cols, lo, hi):
    """(cell, point) pairs that can hold a query's nearest point, cell by cell.

    lo and hi are (3, C) query boxes, cols the (3, P) cached points. A
    point is kept when its squared distance to the box is at most the
    least, over all points, squared distance to the box's farthest corner.
    Both are summed as (x0 + x1) + x2 from per-axis distances to the box's
    faces. Rounding is monotone, so for every query in the box a point's
    distance to the box never exceeds its computed squared distance to the
    query, and a point's farthest-corner distance never falls below it:
    every point at the least computed distance is kept.
    """
    for axis in range(3):
        below = np.subtract.outer(lo[axis], cols[axis])  # lo - p
        above = np.subtract.outer(hi[axis], cols[axis])  # hi - p
        span = np.negative(below)
        np.maximum(span, above, out=span)
        np.negative(above, out=above)
        np.maximum(below, above, out=below)
        np.maximum(below, 0.0, out=below)
        below *= below
        span *= span
        if axis == 0:
            near, far = below, span
        else:
            near += below
            far += span
    return np.nonzero(near <= np.min(far, axis=1)[:, None])


def _match(q, cols, cand, first, count):
    """Nearest of each query's candidates cand[first:first + count], lowest index on ties.

    q is (3, N); squared distances are (q0-p0)^2 + (q1-p1)^2 + (q2-p2)^2,
    as a brute-force scan computes them.
    """
    seg = np.cumsum(count) - count
    idx = cand[np.arange(seg[-1] + count[-1]) - np.repeat(seg - first, count)]
    d2 = np.repeat(q[0], count) - cols[0, idx]
    d2 *= d2
    for axis in (1, 2):
        e = np.repeat(q[axis], count) - cols[axis, idx]
        e *= e
        d2 += e
    best = np.repeat(np.minimum.reduceat(d2, seg), count)
    return np.minimum.reduceat(np.where(d2 == best, idx, cols.shape[1]), seg)


@dataclass(frozen=True)
class TransferCache:
    positions: np.ndarray
    normals: np.ndarray
    coeffs: np.ndarray

    @property
    def degree(self):
        return sh.degree_for(self.coeffs.shape[1])

    def __post_init__(self):
        """Reject a non-square coefficient width or non-finite records; size the grid once."""
        self.degree
        finite = np.isfinite(self.positions).all(axis=1)
        for part in (self.normals, self.coeffs):
            finite &= np.isfinite(part).all(axis=1)
        if not finite.all():
            raise ValueError(f"transfer cache record {np.argmin(finite)} is not finite")
        cols = np.asarray(self.positions, dtype=np.float64).T.copy()
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_grid", _query_grid(cols.T))

    def nearest(self, query):
        """Indices of the nearest cached point for each query row, exactly.

        Returns what a brute-force scan of the squared distances
        (q0-p0)^2 + (q1-p1)^2 + (q2-p2)^2 returns: ties go to the lowest
        index, and a row with a non-finite coordinate gets 0. Queries are
        grouped by the cubic cells of _query_grid (queries outside the
        cache's bounds share a shell of cells), and each group is scanned
        only against the points _candidates keeps for the bounding box of
        its queries. Box bounds are taken for NEAREST_CHUNK_ENTRIES (cell,
        point) pairs at a time and query distances for as many (query,
        candidate) pairs, or for one cell or one query once the cache is
        larger, so the temporaries grow with neither the cache size nor the
        query count.
        """
        query = np.asarray(query, dtype=np.float64)
        cols = self._cols
        out = np.zeros(query.shape[0], dtype=np.intp)
        rows = np.flatnonzero(np.isfinite(query).all(axis=1))
        if rows.size == 0:
            return out
        lo, edge, cells = self._grid
        with np.errstate(over="ignore"):
            k = (query[rows] - lo) / edge
        np.clip(k, -1, cells, out=k)
        k = k.astype(np.intp) + 1
        # A cell costs one pass over the cache and a query one over its
        # cell's candidates, which grow with the cell: cells are merged
        # 2x2x2 until they number at most four times the square root of
        # the query count, so the first cost cannot swamp the second when
        # the cells of a large cache are small.
        while True:
            key = (k[:, 0] * (cells[1] + 2) + k[:, 1]) * (cells[2] + 2) + k[:, 2]
            order = np.argsort(key)
            key = key[order]
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            if starts.size ** 2 <= 16 * rows.size:
                break
            k >>= 1
        rows = rows[order]
        q = query[rows].T.copy()
        ends = np.r_[starts[1:], rows.size]
        box_lo = np.minimum.reduceat(q, starts, axis=1)
        box_hi = np.maximum.reduceat(q, starts, axis=1)
        step = max(1, NEAREST_CHUNK_ENTRIES // cols.shape[1])
        for c0 in range(0, starts.size, step):
            c1 = min(c0 + step, starts.size)
            cell, cand = _candidates(cols, box_lo[:, c0:c1], box_hi[:, c0:c1])
            per_cell = np.bincount(cell, minlength=c1 - c0)
            members = ends[c0:c1] - starts[c0:c1]
            count = np.repeat(per_cell, members)
            first = np.repeat(np.cumsum(per_cell) - per_cell, members)
            # Runs of queries with at most NEAREST_CHUNK_ENTRIES candidates.
            total = np.cumsum(count)
            i, base = 0, starts[c0]
            while i < count.size:
                j = max(i + 1, int(np.searchsorted(
                    total, total[i] - count[i] + NEAREST_CHUNK_ENTRIES, side="right")))
                sl = slice(base + i, base + j)
                out[rows[sl]] = _match(q[:, sl], cols, cand, first[i:j], count[i:j])
                i = j
        return out


def load_transfer_cache(path, scene):
    """Load a baked cache; verifies the sidecar against scene."""
    sidecar_path = path + ".json"
    if not os.path.exists(sidecar_path):
        raise ValueError(f"transfer cache sidecar missing: {sidecar_path}")
    degree, count = field.read_json(sidecar_path, lambda sidecar: _sidecar(sidecar, scene))
    n_coeff = sh.num_coeffs(degree)
    width = CACHE_RECORD_FLOATS + n_coeff
    size = os.path.getsize(path)
    if size != count * width * 8:
        raise ValueError(f"{path}: transfer cache holds {size} bytes, expected {count * width * 8}")
    rows = np.fromfile(path, dtype="<f8").reshape(count, width)
    try:
        return TransferCache(positions=rows[:, 0:3].copy(), normals=rows[:, 3:6].copy(),
                             coeffs=rows[:, 6:].copy())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _sidecar(sidecar, scene):
    """(degree, count) of a cache sidecar's JSON value, checked against scene."""
    field._object(sidecar, "transfer cache sidecar", ("degree", "count", "scene_hash"))
    degree = sh.checked_degree(sidecar["degree"], "transfer cache degree")
    count = field._count(sidecar["count"], "transfer cache count")
    if not isinstance(sidecar["scene_hash"], str):
        raise ValueError("transfer cache sidecar scene_hash must be a string")
    if sidecar["scene_hash"] != field.scene_hash(scene):
        raise ValueError("transfer cache was baked for a different scene")
    return degree, count

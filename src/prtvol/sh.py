"""Real spherical harmonics: basis evaluation, projection, reconstruction.

The basis is real and orthonormal over the unit sphere. Coefficient j
(1-based) holds band l and order m with j = l*l + l + m + 1, so a vector
for degree L has (L+1)**2 entries and degree 4 has 25. Arrays are 0-based,
meaning coeffs[0] is the DC term and coeffs[3] is the zonal l=1 term.

For m > 0 the basis is sqrt(2) * K(l, m) * cos(m phi) * P_l^m(cos theta),
for m < 0 the sine analogue, with K(l, m) = sqrt((2l+1)/(4 pi) *
(l-|m|)!/(l+|m|)!) and P_l^m without the Condon-Shortley sign. Under this
phase Y_{1,1}(d) = sqrt(3/(4 pi)) * x. Directions are cartesian with +z up.

Projection uses midpoint latitude-longitude quadrature: nodes at cell
centers of an n_theta x n_phi grid, weight sin(theta) dtheta dphi.

eval_basis returns the basis direction-major, (..., n) and C-contiguous,
and the transfer bake and the oracle multiply that layout with BLAS.
project instead evaluates one block of nodes at a time into
coefficient-major (n, B) rows and adds the block products in node order,
so its memory does not grow with the grid. basis_grid caches recently
used quadrature grids up to a byte bound.
"""

import math
import reprlib
import threading
from collections import OrderedDict

import numpy as np

DEFAULT_DEGREE = 4
MAX_DEGREE = 8
MIN_GRID = (8, 16)  # smallest (n_theta, n_phi) quadrature grid
# Directions per block of eval_basis and project; a degree-8 block's rows
# take 3.9 MB.
# Larger blocks ran no faster and left more heap resident after threaded
# calls. A power of two would make the transposed copy out of a block
# thrash the cache through its row stride.
_BASIS_BLOCK = 6_000
_GRID_CACHE_BYTES = 128 << 20  # most bytes of grids that basis_grid keeps alive


def num_coeffs(degree):
    """Number of basis functions for bands 0..degree inclusive."""
    return (degree + 1) ** 2


def degree_for(count):
    """Inverse of num_coeffs. Raises if count is not a perfect square."""
    degree = int(round(math.sqrt(count))) - 1
    if degree < 0 or (degree + 1) ** 2 != count:
        raise ValueError(f"coefficient count {count} is not (degree+1)^2")
    return degree


def checked_degree(value, name):
    """value itself if it is an int in [0, MAX_DEGREE] (bools are not); a file's degree."""
    if type(value) is not int or not 0 <= value <= MAX_DEGREE:
        raise ValueError(f"{name} must be an integer in [0, {MAX_DEGREE}], "
                         f"got {reprlib.repr(value)}")
    return value


def checked_grid(n_theta, n_phi):
    """Raise unless an n_theta x n_phi grid is at least the MIN_GRID quadrature."""
    if n_theta < MIN_GRID[0] or n_phi < MIN_GRID[1]:
        raise ValueError(f"quadrature grid {n_theta}x{n_phi} below minimum "
                         f"{MIN_GRID[0]}x{MIN_GRID[1]}")


def sh_index(l, m):
    """0-based array index of band l, order m."""
    if abs(m) > l:
        raise ValueError(f"order {m} out of range for band {l}")
    return l * l + l + m


def normalize(v):
    """Return v scaled to unit length as float64.

    Raises ValueError on non-finite input or a vector too short to
    normalize meaningfully.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot normalize non-finite vector")
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize near-zero vector")
    return v / n


def eval_basis(dirs, degree=DEFAULT_DEGREE):
    """Evaluate all basis functions for bands 0..degree.

    The recurrence runs over blocks of _BASIS_BLOCK directions, one
    contiguous row per coefficient, and each block is copied into its
    rows of the result. Every value is the same elementwise expression
    of its own direction, so a direction gets the same bits alone as in
    any batch.

    Args:
        dirs: array (..., 3) of unit directions.
        degree: highest band, 0 <= degree <= 8.

    Returns:
        C-contiguous float64 array (..., (degree+1)**2) of basis values.
    """
    checked_degree(degree, "degree")
    dirs = np.asarray(dirs, dtype=np.float64)
    if dirs.shape[-1] != 3:
        raise ValueError("directions must have a trailing dimension of 3")
    if not np.all(np.isfinite(dirs)):
        raise ValueError("non-finite direction components")

    n = num_coeffs(degree)
    flat = dirs.reshape(-1, 3)
    out = np.empty((flat.shape[0], n), dtype=np.float64)
    for b, e, rows in _basis_blocks(flat, degree):
        out[b:e] = rows.T
    return out.reshape(dirs.shape[:-1] + (n,))


def _basis_blocks(flat, degree):
    """Yield (b, e, rows) per block of the (N, 3) flat, with the basis of
    flat[b:e] in rows: a C-contiguous (n, e - b) view of one reused buffer,
    so a partial last block has the layout of a full one."""
    n = num_coeffs(degree)
    total = flat.shape[0]
    buf = np.empty(n * min(total, _BASIS_BLOCK), dtype=np.float64)
    for b in range(0, total, _BASIS_BLOCK):
        e = min(b + _BASIS_BLOCK, total)
        rows = buf[: n * (e - b)].reshape(n, e - b)
        _eval_block(flat[b:e].T.copy(), degree, rows)
        yield b, e, rows


def _eval_block(xyz, degree, rows):
    """Basis values of the directions xyz (3, B) into rows (n, B)."""
    x, y, z = xyz
    # cos(m phi) and sin(m phi) scaled by sin(theta)^m, built from x and y;
    # the matching sin^m factor is divided out of the Legendre term below.
    cos_m = np.ones_like(x)
    sin_m = np.zeros_like(x)
    for m in range(degree + 1):
        if m > 0:
            cos_m, sin_m = x * cos_m - y * sin_m, x * sin_m + y * cos_m
        # q holds P_l^m(z) / sin(theta)^m, which satisfies the same
        # three-term recurrence in l for fixed m.
        q_prev = None
        q = np.full_like(x, _START[m])
        for l in range(m, degree + 1):
            if l == m + 1:
                q_prev, q = q, (2 * m + 1) * z * q
            elif l > m + 1:
                q_prev, q = q, ((2 * l - 1) * z * q - (l + m - 1) * q_prev) / (l - m)
            k = _SCALE[l][m]
            if m == 0:
                np.multiply(k, q, out=rows[sh_index(l, 0)])
            else:
                c_row, s_row = rows[sh_index(l, m)], rows[sh_index(l, -m)]
                np.multiply(k, cos_m, out=c_row)
                c_row *= q
                np.multiply(k, sin_m, out=s_row)
                s_row *= q


def quadrature_nodes(n_theta=128, n_phi=256):
    """Midpoint latitude-longitude quadrature over the sphere.

    Node order is row-major with theta outermost, matching the pixel
    order of an equirectangular map whose top row is theta = 0.

    Returns:
        (dirs, weights) with dirs (n_theta*n_phi, 3) and weights summing
        to 4 pi up to quadrature error.
    """
    checked_grid(n_theta, n_phi)
    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    theta = (np.arange(n_theta) + 0.5) * d_theta
    phi = (np.arange(n_phi) + 0.5) * d_phi
    st = np.sin(theta)[:, None]
    dirs = np.empty((n_theta, n_phi, 3), dtype=np.float64)
    dirs[..., 0] = st * np.cos(phi)[None, :]
    dirs[..., 1] = st * np.sin(phi)[None, :]
    dirs[..., 2] = np.cos(theta)[:, None] * np.ones_like(phi)[None, :]
    # Per-cell weight is the exact solid angle of the texel, i.e. the
    # integral of sin(theta) dtheta dphi over the cell; the weights then
    # sum to 4 pi to machine precision.
    band = np.cos(np.arange(n_theta) * d_theta) - np.cos(np.arange(n_theta + 1)[1:] * d_theta)
    weights = np.broadcast_to(band[:, None] * d_phi, (n_theta, n_phi))
    return dirs.reshape(-1, 3), weights.reshape(-1).copy()


_grids = OrderedDict()  # (degree, n_theta, n_phi) -> grid, least recently used first
_grid_lock = threading.Lock()


def basis_grid(degree, n_theta, n_phi):
    """Cached (dirs, weights, basis) for a quadrature grid.

    The most recently used grids stay cached while their arrays total at
    most _GRID_CACHE_BYTES; a grid larger than that is rebuilt on every
    call. basis_grid.cache_clear() empties the cache. Returned arrays are
    shared across callers; treat them as read-only.
    """
    key = (degree, n_theta, n_phi)
    # Built under the lock, so threads that miss the same grid build it once.
    with _grid_lock:
        if key in _grids:
            _grids.move_to_end(key)
            return _grids[key]
        dirs, weights = quadrature_nodes(n_theta, n_phi)
        grid = dirs, weights, eval_basis(dirs, degree)
        _grids[key] = grid
        while sum(a.nbytes for g in _grids.values() for a in g) > _GRID_CACHE_BYTES:
            _grids.popitem(last=False)
    return grid


basis_grid.cache_clear = _grids.clear

# Kept for bench/tracer.py, which wraps this alias by name.
_cached_grid = basis_grid


def project(fn, degree=DEFAULT_DEGREE, n_theta=128, n_phi=256):
    """Project a function on the sphere onto the basis by quadrature.

    The nodes are taken in blocks of _BASIS_BLOCK directions. fn is called
    once per block; its weighted values are multiplied with the block's
    coefficient-major basis rows, and the block products are added into
    the result in node order. Memory is the node table and one block,
    whatever the grid or degree.

    Args:
        fn: callable mapping an (N, 3) array of unit directions to values
            of shape (N,) or (N, C), with N at most _BASIS_BLOCK.
        degree: highest band to keep.
        n_theta, n_phi: quadrature resolution, at least 8 x 16.

    Returns:
        Coefficients, shape ((degree+1)**2,) or ((degree+1)**2, C).
    """
    checked_degree(degree, "degree")
    dirs, weights = quadrature_nodes(n_theta, n_phi)
    for b, e, rows in _basis_blocks(dirs, degree):
        vals = np.asarray(fn(dirs[b:e]), dtype=np.float64)
        if vals.shape[0] != e - b:
            raise ValueError("sampler returned a value per-direction mismatch")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampler returned non-finite values")
        if vals.ndim not in (1, 2):
            raise ValueError("sampler must return shape (N,) or (N, C)")
        w = weights[b:e] if vals.ndim == 1 else weights[b:e, None]
        # Values near the float64 limit overflow here, and two blocks' infinities
        # of opposite sign add to NaN; callers check the result.
        with np.errstate(over="ignore", invalid="ignore"):
            part = rows @ (w * vals)
            out = part if b == 0 else out + part
    return out


def reconstruct(coeffs, dirs):
    """Evaluate the band-limited function sum_j coeffs[j] Y_j at dirs.

    coeffs has shape (n,) or (n, C); the result has the direction batch
    shape, with a trailing C axis in the multi-channel case.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[0]
    basis = eval_basis(dirs, degree_for(n))
    return basis @ coeffs


def _norm_constant(l, m):
    return math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )


# Start of the order-m Legendre recurrence, (2m-1)!!, and the scale of
# basis function (l, m): K(l, 0), and sqrt(2) * K(l, m) for m > 0.
_START = [float(math.prod(range(2 * m - 1, 0, -2))) for m in range(MAX_DEGREE + 1)]
_SCALE = [[_norm_constant(l, 0)] + [math.sqrt(2.0) * _norm_constant(l, m) for m in range(1, l + 1)]
          for l in range(MAX_DEGREE + 1)]

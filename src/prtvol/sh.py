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
centers of an n_theta x n_phi grid, weight sin(theta) dtheta dphi. On
that grid Y_lm separates into a Legendre factor per row and cos(m phi)
or sin(|m| phi) per column (Driscoll and Healy 1994), so project sums
each row against those columns, then each coefficient over the rows.

eval_basis returns the basis direction-major, (..., n) and C-contiguous,
and the transfer bake and the oracle multiply that layout with BLAS.
basis_grid caches recently used quadrature grids up to a byte bound.
"""

import math
import reprlib
import threading
from collections import OrderedDict

import numpy as np

DEFAULT_DEGREE = 4
MAX_DEGREE = 8
MIN_GRID = (8, 16)  # smallest (n_theta, n_phi) quadrature grid
# Directions per block of eval_basis and per sampler call of project; a degree-8
# block's basis rows take 3.9 MB. Larger blocks ran no faster and left more heap resident
# after threaded calls, and a power of two thrashes the cache in eval_basis's transposed copy.
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

    The recurrence runs over blocks of _BASIS_BLOCK directions, one row
    per coefficient. Every value is the same elementwise expression of its
    own direction, so a direction gets the same bits alone as in any batch.

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
    buf = np.empty(n * min(len(flat), _BASIS_BLOCK), dtype=np.float64)  # reused by each block
    for b in range(0, len(flat), _BASIS_BLOCK):
        e = min(b + _BASIS_BLOCK, len(flat))
        rows = buf[: n * (e - b)].reshape(n, e - b)
        _eval_block(flat[b:e].T.copy(), degree, rows)
        out[b:e] = rows.T
    return out.reshape(dirs.shape[:-1] + (n,))


def _eval_block(xyz, degree, rows):
    """Basis values of the directions xyz (3, B) into rows (n, B)."""
    x, y, z = xyz
    # cos(m phi) and sin(m phi) scaled by sin(theta)^m, built from x and y;
    # _legendre divides the matching sin^m factor out of its term.
    cos_m = np.ones_like(x)
    sin_m = np.zeros_like(x)
    for m in range(degree + 1):
        if m > 0:
            cos_m, sin_m = x * cos_m - y * sin_m, x * sin_m + y * cos_m
        for l, k, q in _legendre(z, m, degree):
            if m == 0:
                np.multiply(k, q, out=rows[sh_index(l, 0)])
            else:
                c_row, s_row = rows[sh_index(l, m)], rows[sh_index(l, -m)]
                np.multiply(k, cos_m, out=c_row)
                c_row *= q
                np.multiply(k, sin_m, out=s_row)
                s_row *= q


def _legendre(z, m, degree):
    """Yield (l, k, q) for l = m..degree at z = cos(theta): k scales basis function (l, m),
    and q = P_l^m(z) / sin(theta)^m satisfies P's three-term recurrence in l."""
    q_prev = None
    q = np.full_like(z, _START[m])
    for l in range(m, degree + 1):
        if l == m + 1:
            q_prev, q = q, (2 * m + 1) * z * q
        elif l > m + 1:
            q_prev, q = q, ((2 * l - 1) * z * q - (l + m - 1) * q_prev) / (l - m)
        yield l, _SCALE[l][m], q


def quadrature_nodes(n_theta=128, n_phi=256):
    """Midpoint latitude-longitude quadrature over the sphere.

    Node order is row-major with theta outermost, matching the pixel
    order of an equirectangular map whose top row is theta = 0.

    Returns:
        (dirs, weights) with dirs (n_theta*n_phi, 3) and weights summing
        to 4 pi up to quadrature error.
    """
    return _nodes(n_theta, n_phi, 0, n_theta * n_phi)


def _nodes(n_theta, n_phi, b, e):
    """(dirs, weights) of quadrature_nodes' nodes b..e-1."""
    checked_grid(n_theta, n_phi)
    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    theta = (np.arange(n_theta) + 0.5) * d_theta
    phi = (np.arange(n_phi) + 0.5) * d_phi
    i, j = np.divmod(np.arange(b, e), n_phi)
    st = np.sin(theta)[i]
    dirs = np.stack([st * np.cos(phi)[j], st * np.sin(phi)[j], np.cos(theta)[i]], axis=-1)
    # Each weight is its texel's exact solid angle, the integral of sin(theta) dtheta dphi
    # over the cell, so the weights sum to 4 pi to machine precision.
    band = np.cos(np.arange(n_theta) * d_theta) - np.cos(np.arange(n_theta + 1)[1:] * d_theta)
    return dirs, (band * d_phi)[i]


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

    fn is called once per block of _BASIS_BLOCK nodes, in node order, and
    its weighted values fill one grid. One product with the cos(m phi) and
    sin(|m| phi) columns gives each row's Fourier sums. Coefficient (l, m)
    is the dot product of order m's row sums with the rows' Legendre
    factor K(l, |m|) * P_l^|m|(cos theta), times sqrt(2) where m != 0.
    Memory is the value grid and one block of nodes.

    Args:
        fn: callable mapping an (N, 3) array of unit directions to values
            of shape (N,) or (N, C), with N at most _BASIS_BLOCK.
        degree: highest band to keep.
        n_theta, n_phi: quadrature resolution, at least 8 x 16.

    Returns:
        Coefficients, shape ((degree+1)**2,) or ((degree+1)**2, C).
    """
    checked_degree(degree, "degree")
    for b in range(0, n_theta * n_phi, _BASIS_BLOCK):
        e = min(b + _BASIS_BLOCK, n_theta * n_phi)
        dirs, w = _nodes(n_theta, n_phi, b, e)
        block = np.asarray(fn(dirs), dtype=np.float64)
        if block.shape[0] != e - b:
            raise ValueError("sampler returned a value per-direction mismatch")
        if not np.all(np.isfinite(block)):
            raise ValueError("sampler returned non-finite values")
        if block.ndim not in (1, 2):
            raise ValueError("sampler must return shape (N,) or (N, C)")
        if b == 0:
            vals = np.empty((n_theta * n_phi,) + block.shape[1:])
        vals[b:e] = (w if block.ndim == 1 else w[:, None]) * block
    theta = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    st, z = np.sin(theta), np.cos(theta)
    # Column degree + m of trig is cos(m phi), or sin(|m| phi) for m < 0.
    m_phi = np.outer((np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi), range(-degree, degree + 1))
    trig = np.where(m_phi < 0, np.sin(-m_phi), np.cos(m_phi))
    st_m = np.ones(n_theta)  # sin(theta)^m
    # Sums near the float64 limit overflow, and inf - inf is NaN; callers check the result.
    with np.errstate(over="ignore", invalid="ignore"):
        fourier = trig.T @ vals.reshape(n_theta, n_phi, -1)
        out = np.empty((num_coeffs(degree), fourier.shape[2]))
        for m in range(degree + 1):
            for l, k, q in _legendre(z, m, degree):
                row = k * st_m * q
                out[sh_index(l, m)] = row @ fourier[:, degree + m]
                out[sh_index(l, -m)] = row @ fourier[:, degree - m]
            st_m = st_m * st
    return out.reshape((-1,) + vals.shape[1:])


def reconstruct(coeffs, dirs):
    """Evaluate the band-limited function sum_j coeffs[j] Y_j at dirs.

    coeffs has shape (n,) or (n, C); the result has the direction batch
    shape, with a trailing C axis in the multi-channel case.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[0]
    basis = eval_basis(dirs, degree_for(n))
    return basis @ coeffs


# Start of the order-m Legendre recurrence, (2m-1)!!, and the scale of
# basis function (l, m): K(l, 0), and sqrt(2) * K(l, m) for m > 0.
_START = [float(math.prod(range(2 * m - 1, 0, -2))) for m in range(MAX_DEGREE + 1)]
_SCALE = [[(math.sqrt(2.0) if m else 1.0)
           * math.sqrt((2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m))
           for m in range(l + 1)] for l in range(MAX_DEGREE + 1)]

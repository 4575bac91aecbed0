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
"""

import math
from functools import lru_cache

import numpy as np

DEFAULT_DEGREE = 4
MAX_DEGREE = 8


def num_coeffs(degree):
    """Number of basis functions for bands 0..degree inclusive."""
    return (degree + 1) ** 2


def degree_for(count):
    """Inverse of num_coeffs. Raises if count is not a perfect square."""
    degree = int(round(math.sqrt(count))) - 1
    if degree < 0 or (degree + 1) ** 2 != count:
        raise ValueError(f"coefficient count {count} is not (degree+1)^2")
    return degree


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

    Args:
        dirs: array (..., 3) of unit directions.
        degree: highest band, 0 <= degree <= 8.

    Returns:
        Array (..., (degree+1)**2) of basis values, float64.
    """
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree {degree} outside supported range [0, {MAX_DEGREE}]")
    dirs = np.asarray(dirs, dtype=np.float64)
    if dirs.shape[-1] != 3:
        raise ValueError("directions must have a trailing dimension of 3")
    if not np.all(np.isfinite(dirs)):
        raise ValueError("non-finite direction components")

    x = dirs[..., 0]
    y = dirs[..., 1]
    z = dirs[..., 2]
    out = np.empty(dirs.shape[:-1] + (num_coeffs(degree),), dtype=np.float64)

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
        q = np.full_like(x, float(_double_factorial(2 * m - 1)))
        for l in range(m, degree + 1):
            if l == m + 1:
                q_prev, q = q, (2 * m + 1) * z * q
            elif l > m + 1:
                q_prev, q = q, ((2 * l - 1) * z * q - (l + m - 1) * q_prev) / (l - m)
            k = _norm_constant(l, m)
            if m == 0:
                out[..., sh_index(l, 0)] = k * q
            else:
                c = math.sqrt(2.0) * k
                out[..., sh_index(l, m)] = c * cos_m * q
                out[..., sh_index(l, -m)] = c * sin_m * q
    return out


def quadrature_nodes(n_theta=128, n_phi=256):
    """Midpoint latitude-longitude quadrature over the sphere.

    Node order is row-major with theta outermost, matching the pixel
    order of an equirectangular map whose top row is theta = 0.

    Returns:
        (dirs, weights) with dirs (n_theta*n_phi, 3) and weights summing
        to 4 pi up to quadrature error.
    """
    if n_theta < 8 or n_phi < 16:
        raise ValueError(f"quadrature grid {n_theta}x{n_phi} below minimum 8x16")
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


@lru_cache(maxsize=32)
def basis_grid(degree, n_theta, n_phi):
    """Cached (dirs, weights, basis) for a quadrature grid.

    Returned arrays are shared across callers; treat them as read-only.
    """
    dirs, weights = quadrature_nodes(n_theta, n_phi)
    basis = eval_basis(dirs, degree)
    return dirs, weights, basis


# Kept for bench/tracer.py, which wraps this alias by name.
_cached_grid = basis_grid


def project(fn, degree=DEFAULT_DEGREE, n_theta=128, n_phi=256):
    """Project a function on the sphere onto the basis by quadrature.

    Args:
        fn: callable mapping an (N, 3) array of unit directions to values
            of shape (N,) or (N, C).
        degree: highest band to keep.
        n_theta, n_phi: quadrature resolution, at least 8 x 16.

    Returns:
        Coefficients, shape ((degree+1)**2,) or ((degree+1)**2, C).
    """
    dirs, weights, basis = basis_grid(degree, n_theta, n_phi)
    vals = np.asarray(fn(dirs), dtype=np.float64)
    if vals.shape[0] != dirs.shape[0]:
        raise ValueError("sampler returned a value per-direction mismatch")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampler returned non-finite values")
    if vals.ndim == 1:
        return basis.T @ (weights * vals)
    if vals.ndim == 2:
        return basis.T @ (vals * weights[:, None])
    raise ValueError("sampler must return shape (N,) or (N, C)")


def reconstruct(coeffs, dirs):
    """Evaluate the band-limited function sum_j coeffs[j] Y_j at dirs.

    coeffs has shape (n,) or (n, C); the result has the direction batch
    shape, with a trailing C axis in the multi-channel case.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[0]
    basis = eval_basis(dirs, degree_for(n))
    return basis @ coeffs


def inner_product(u, v):
    """Euclidean dot of two coefficient vectors of equal length."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"coefficient shape mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def gram_matrix(degree=DEFAULT_DEGREE, n_theta=128, n_phi=256):
    """Quadrature Gram matrix of the basis; identity up to grid error."""
    _, weights, basis = basis_grid(degree, n_theta, n_phi)
    return basis.T @ (basis * weights[:, None])


def _double_factorial(n):
    if n <= 0:
        return 1
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def _norm_constant(l, m):
    return math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )

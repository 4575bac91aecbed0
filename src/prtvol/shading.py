"""Outgoing radiance from transfer and light coefficients.

Diffuse is albedo/pi times the transfer-light coefficient dot product
per channel. Specular evaluates both coefficient sets as band-limited
functions at the mirror reflection of the view direction and multiplies
them, scaled by the material tint. Both terms are linear in the light.
Every function is batched over leading axes; the renderer and the
oracle both shade through this module.
"""

import numpy as np

from . import sh


def reflect_direction(view, normal):
    """Mirror reflection 2 (v . n) n - v of the view direction."""
    view = np.asarray(view, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    d = np.sum(view * normal, axis=-1, keepdims=True)
    return 2.0 * d * normal - view


def _checked(transfer, light):
    transfer = np.asarray(transfer, dtype=np.float64)
    if transfer.shape[-1] != light.coeffs.shape[0]:
        raise ValueError(
            f"transfer has {transfer.shape[-1]} coefficients, light has {light.coeffs.shape[0]}")
    return transfer


def irradiance(transfer, light):
    """Occluded irradiance, transfer (..., n) @ light coefficients: (..., 3)."""
    return _checked(transfer, light) @ light.coeffs


def diffuse_radiance(albedo, transfer, light):
    """Diffuse outgoing radiance, independent of view direction.

    Args:
        albedo: (..., 3) diffuse albedo.
        transfer: (..., n) transfer coefficients.
        light: ShLight with matching degree.

    Returns:
        (..., 3) linear radiance.
    """
    return np.asarray(albedo, dtype=np.float64) / np.pi * irradiance(transfer, light)


def specular_radiance(tint, normal, view, transfer, light):
    """Single-reflection specular radiance toward the view direction.

    Arguments broadcast over leading axes: tint, normal and view are
    (..., 3), transfer is (..., n). A zero normal marks a point with no
    recoverable surface normal, and its radiance is zero.
    """
    transfer = _checked(transfer, light)
    normal = np.asarray(normal, dtype=np.float64)
    valid = np.any(normal != 0.0, axis=-1)
    r = np.where(valid[..., None], reflect_direction(view, normal), np.array([0.0, 0.0, 1.0]))
    basis = sh.eval_basis(r, sh.degree_for(transfer.shape[-1]))
    light_at_r = basis @ light.coeffs
    transfer_at_r = np.einsum("...n,...n->...", basis, transfer)
    specular = np.asarray(tint, dtype=np.float64) * light_at_r * transfer_at_r[..., None]
    return np.where(valid[..., None], specular, 0.0)

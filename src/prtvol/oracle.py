"""Monte Carlo ground truth and end-to-end transfer validation.

mc_diffuse_radiance integrates the diffuse shading integral directly:
uniform directions over the full sphere, each carrying environment
radiance times ray-traced visibility times the clamped cosine, with
the (albedo / pi) * (4 pi / S) estimator. compare_prt_vs_mc takes
the (P, 3) surface points transport.sample_surface_points probes and
scores baked transfer three ways per point: the coefficient dot product
against the MC estimate, the mean squared 10-ray reconstruction
residual, and visibility_l2, the L2 gap between reconstructed and
ray-traced visibility maps at the truncation degrees 2, 3 and 4 up to
the validation degree. compare_prt_vs_mc takes every setting as a
keyword argument with no default; the `prtvol validate` flags hold the
defaults.

All three take V * max(0, n . d) from transport.visibility_map. Each
point's bake-grid directions and its 10 residual rays are marched in one
visibility_map call: the grid part of the row gives the transfer and
visibility_l2, and the rest is the V * H that transport.nrt_residuals
scores. The transfer is the same bits as the point's row of a bake on
the same grid; mc_diffuse_radiance marches its own directions, since it
is the independent reference.

compare_prt_vs_mc returns the report as the dict that `prtvol validate`
writes as JSON: "config", then "entries" with one dict per point
(position, nrt_residual_mean, visibility_l2 keyed by degree as a string,
sh_diffuse, mc_diffuse, mc_stderr), then "aggregate" with the point count,
the means of the residual and of each visibility_l2 degree, and
sh_negative_rate. Key order fixes the JSON bytes, and the report holds no
timing. Per-point randomness derives from (seed, point index), so serial
and parallel runs produce identical reports.
"""

import numpy as np

from . import chunks, field, sh, shading, transport


def _uniform_sphere(rng, count):
    """Uniform unit directions, (count, 3); degenerate draws are redrawn."""
    dirs = rng.normal(size=(count, 3))
    norms = np.linalg.norm(dirs, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        dirs[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(dirs, axis=1)
    return dirs / norms[:, None]


def mc_diffuse_radiance(scene, light, x, n, albedo, samples, seed=0):
    """Monte Carlo diffuse radiance at a surface point.

    Estimates (albedo / pi) * integral of L(w) * V(x, w) * max(0, n.w)
    with uniform sphere sampling, V * max(0, n.w) from visibility_map in
    scene.march.secondary_steps steps. Returns (rgb (3,), stderr (3,));
    stderr is the empirical standard error of the estimator per channel.
    """
    field._count(samples, "samples")
    albedo = np.asarray(albedo, dtype=np.float64)
    rng = np.random.default_rng(seed)
    dirs = _uniform_sphere(rng, samples)
    radiance = np.asarray(light.radiance(dirs), dtype=np.float64)
    vh = transport.visibility_map(scene, [x], [n], dirs)[0]
    g = radiance * vh[:, None]  # (S, C) integrand per direction
    scale = albedo / np.pi * 4.0 * np.pi
    # A light past float64's range gives inf here, which the caller refuses.
    with np.errstate(over="ignore"):
        value = scale * np.mean(g, axis=0)
        if samples > 1:
            stderr = scale * np.std(g, axis=0, ddof=1) / np.sqrt(samples)
        else:
            stderr = np.zeros_like(value)
    return value, stderr


def visibility_l2(vals, transfer, degrees, resolution):
    """L2 gap between reconstructed transfer and a ray-traced map.

    vals is the (D,) visibility * clamped cosine map of one point on the
    resolution grid, as transport.visibility_map marches it; the
    reconstruction truncates the transfer vector to each requested
    degree. Returns {degree: sqrt(mean solid-angle-weighted squared
    error)}; with an all-zero transfer this is the RMS of the map itself.
    """
    transfer = np.asarray(transfer, dtype=np.float64)
    max_deg = max(degrees)
    if sh.num_coeffs(max_deg) > transfer.shape[0]:
        raise ValueError(
            f"transfer has {transfer.shape[0]} coefficients; degree {max_deg} "
            f"needs {sh.num_coeffs(max_deg)}")
    _, weights, basis = sh.basis_grid(max_deg, resolution[0], resolution[1])
    total = np.sum(weights)
    out = {}
    for d in degrees:
        nc = sh.num_coeffs(d)
        rec = basis[:, :nc] @ transfer[:nc]
        out[d] = float(np.sqrt(np.sum(weights * (rec - vals) ** 2) / total))
    return out


def format_table(report):
    """Human-readable per-point table plus the aggregate row of a report dict."""
    degrees = report["config"]["degrees"]
    lines = ["point  nrt_residual  " + "  ".join(f"vis_l2(d={d})" for d in degrees)]
    rows = [(f"{i:5d}", e) for i, e in enumerate(report["entries"])]
    for label, e in rows + [(" mean", report["aggregate"])]:
        cells = "  ".join(f"{e['visibility_l2'][str(d)]:11.6f}" for d in degrees)
        lines.append(f"{label}  {e['nrt_residual_mean']:12.6f}  {cells}")
    return "\n".join(lines)


def compare_prt_vs_mc(scene, light, *, points, mc_samples, degree, grid, secondary_steps,
                      seed, threads):
    """Validate baked transfer against the Monte Carlo oracle.

    The points are `points` probes of transport.sample_surface_points
    (seeded by seed), each with a valid normal facing its probe. light is
    an envlight.ShLight; the SH side uses its coefficients truncated to
    degree (checked before any point is sampled), and the MC side
    integrates the light as given with mc_samples directions, so the two
    agree within sampling error exactly when the light has no band above
    degree. grid is the (H, W) bake and visibility-map grid, and
    secondary_steps, unless None, replaces scene.march.secondary_steps.
    Returns the report dict the module docstring describes.
    """
    scene = field.with_steps(scene, secondary_steps=secondary_steps)
    sh_light = light.truncated(degree)
    # Visibility-L2 degrees: those of 2, 3, 4 up to degree, else degree alone.
    degrees = tuple(d for d in (2, 3, 4) if d <= degree) or (degree,)
    positions, normals, albedo, views = transport.sample_surface_points(scene, points, seed=seed)

    dirs, _, _ = sh.basis_grid(degree, grid[0], grid[1])

    def run(i, _end):
        x, n = positions[i], normals[i]
        rays = transport.nrt_rays(n, views[i], seed=(seed, i))
        vals = transport.visibility_map(scene, x[None], n[None], np.concatenate([dirs, rays]))
        row, vh = vals[:, :len(dirs)], vals[0, len(dirs):]
        transfer = transport.project_map(row, degree=degree, resolution=grid)[0]
        mc, stderr = mc_diffuse_radiance(scene, light, x, n, albedo[i], mc_samples, seed=(seed, i))
        residuals = transport.nrt_residuals(transfer, rays, vh)
        l2 = visibility_l2(row[0], transfer, degrees, grid)
        return {
            "position": x.tolist(),
            "nrt_residual_mean": float(np.mean(residuals)),
            "visibility_l2": {str(d): v for d, v in l2.items()},
            "sh_diffuse": shading.diffuse_radiance(albedo[i], transfer, sh_light).tolist(),
            "mc_diffuse": mc.tolist(),
            "mc_stderr": stderr.tolist(),
        }

    entries = chunks.map_chunks(run, len(positions), 1, threads)
    return {
        "config": {
            "mc_samples": mc_samples,
            "degree": degree,
            "degrees": list(degrees),
            "resolution": list(grid),
            "secondary_steps": secondary_steps,
            "seed": seed,
        },
        "entries": entries,
        "aggregate": {
            "points": len(entries),
            "nrt_residual_mean": float(np.mean([e["nrt_residual_mean"] for e in entries])),
            "visibility_l2": {str(d): float(np.mean([e["visibility_l2"][str(d)] for e in entries]))
                              for d in degrees},
            # Shading keeps signed reconstructions and clamps only at image
            # export, so this is where SH ringing below zero is surfaced.
            "sh_negative_rate": float(np.mean(np.array([e["sh_diffuse"] for e in entries]) < 0.0)),
        },
    }

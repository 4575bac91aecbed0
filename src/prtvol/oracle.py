"""Monte Carlo ground truth and end-to-end transfer validation.

mc_diffuse_radiance integrates the diffuse shading integral directly:
uniform directions over the full sphere, each carrying environment
radiance times ray-traced visibility times the clamped cosine, with
the (albedo / pi) * (4 pi / S) estimator. compare_prt_vs_mc probes
surface points and scores baked transfer three ways per point: the
coefficient dot product against the MC estimate, the mean squared
10-ray reconstruction residual, and the L2 gap between reconstructed
and ray-traced visibility maps at several truncation degrees.

All three take V * max(0, n . d) from transport.visibility_map, and a
point's transfer is the same bits as its row of a bake on the same grid.

Per-point randomness derives from (seed, point index), so serial and
parallel runs produce identical reports.
"""

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import chunks, envlight, sh, shading, transport


def _uniform_sphere(rng, count):
    """Uniform unit directions, (count, 3); degenerate draws are redrawn."""
    dirs = rng.normal(size=(count, 3))
    norms = np.linalg.norm(dirs, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        dirs[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(dirs, axis=1)
    return dirs / norms[:, None]


def mc_diffuse_radiance(scene, light, x, n, albedo, samples, seed=0, steps=None):
    """Monte Carlo diffuse radiance at a surface point.

    Estimates (albedo / pi) * integral of L(w) * V(x, w) * max(0, n.w)
    with uniform sphere sampling, V * max(0, n.w) from visibility_map.
    Returns (rgb (3,), stderr (3,)); stderr is the empirical standard
    error of the estimator per channel.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    albedo = np.asarray(albedo, dtype=np.float64)
    rng = np.random.default_rng(seed)
    dirs = _uniform_sphere(rng, samples)
    radiance = np.asarray(light.radiance(dirs), dtype=np.float64)
    if radiance.ndim == 1:
        radiance = radiance[:, None]
    vh = transport.visibility_map(scene, x[None, :], n[None, :], dirs, steps=steps)[0]
    g = radiance * vh[:, None]  # (S, C) integrand per direction
    scale = albedo / np.pi * 4.0 * np.pi
    value = scale * np.mean(g, axis=0)
    if samples > 1:
        stderr = scale * np.std(g, axis=0, ddof=1) / np.sqrt(samples)
    else:
        stderr = np.zeros_like(value)
    return value, stderr


def visibility_l2(scene, position, normal, transfer, degrees=(2, 3, 4),
                  resolution=transport.BAKE_GRID, steps=None):
    """L2 gap between reconstructed transfer and the ray-traced map.

    The reference is visibility * clamped cosine on a direction grid;
    the reconstruction truncates the transfer vector to each requested
    degree. Returns {degree: sqrt(mean solid-angle-weighted squared
    error)}; with an all-zero transfer this is the RMS of the
    reference itself.
    """
    dirs, _, _ = sh.basis_grid(0, resolution[0], resolution[1])
    vals = transport.visibility_map(scene, np.asarray(position)[None, :],
                                    np.asarray(normal)[None, :], dirs, steps=steps)
    return _map_l2(vals[0], transfer, degrees, resolution)


def _map_l2(vals, transfer, degrees, resolution):
    """visibility_l2 against an already marched (D,) map."""
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


@dataclass(frozen=True)
class ValidationConfig:
    count: int = 50                    # probe points when none are supplied
    mc_samples: int = 10000
    degree: int = 4
    degrees: tuple = (2, 3, 4)
    resolution: tuple = (64, 128)      # bake and visibility-map grid
    secondary_steps: int | None = None
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class PointReport:
    position: np.ndarray
    nrt_residual_mean: float
    visibility_l2: dict
    sh_diffuse: np.ndarray
    mc_diffuse: np.ndarray
    mc_stderr: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple
    config: ValidationConfig
    runtime_seconds: float = dc_field(compare=False, default=0.0)

    @property
    def mean_nrt_residual(self):
        return float(np.mean([e.nrt_residual_mean for e in self.entries]))

    @property
    def mean_visibility_l2(self):
        degrees = self.config.degrees
        return {d: float(np.mean([e.visibility_l2[d] for e in self.entries]))
                for d in degrees}

    @property
    def sh_negative_rate(self):
        """Fraction of SH diffuse channel values that ring below zero.

        Shading keeps signed reconstructions and clamps only at image
        export, so this is the place the ringing rate is surfaced.
        """
        values = np.array([e.sh_diffuse for e in self.entries])
        return float(np.mean(values < 0.0))

    def to_dict(self):
        """JSON form; excludes runtime so identical seeds give identical bytes."""
        return {
            "config": {
                "mc_samples": self.config.mc_samples,
                "degree": self.config.degree,
                "degrees": list(self.config.degrees),
                "resolution": list(self.config.resolution),
                "secondary_steps": self.config.secondary_steps,
                "seed": self.config.seed,
            },
            "entries": [
                {
                    "position": e.position.tolist(),
                    "nrt_residual_mean": e.nrt_residual_mean,
                    "visibility_l2": {str(d): v for d, v in e.visibility_l2.items()},
                    "sh_diffuse": e.sh_diffuse.tolist(),
                    "mc_diffuse": e.mc_diffuse.tolist(),
                    "mc_stderr": e.mc_stderr.tolist(),
                }
                for e in self.entries
            ],
            "aggregate": {
                "points": len(self.entries),
                "nrt_residual_mean": self.mean_nrt_residual,
                "visibility_l2": {str(d): v for d, v in self.mean_visibility_l2.items()},
                "sh_negative_rate": self.sh_negative_rate,
            },
        }


def format_table(report):
    """Human-readable per-point table plus the aggregate row."""
    degrees = report.config.degrees
    head = "point  nrt_residual  " + "  ".join(f"vis_l2(d={d})" for d in degrees)
    lines = [head]
    for i, e in enumerate(report.entries):
        cells = "  ".join(f"{e.visibility_l2[d]:11.6f}" for d in degrees)
        lines.append(f"{i:5d}  {e.nrt_residual_mean:12.6f}  {cells}")
    cells = "  ".join(f"{report.mean_visibility_l2[d]:11.6f}" for d in degrees)
    lines.append(f" mean  {report.mean_nrt_residual:12.6f}  {cells}")
    return "\n".join(lines)


def compare_prt_vs_mc(scene, light, points=None, views=None, config=None):
    """Validate baked transfer against the Monte Carlo oracle.

    points/views default to deterministic probe-ray sampling. The SH
    side uses the light's coefficients (an analytic light is projected
    first); the MC side integrates the light as given, so the two agree
    within sampling error exactly when the light is band-limited.
    """
    config = config or ValidationConfig()
    if points is None:
        points, views = transport.sample_surface_points(
            scene, config.count, seed=config.seed)
    if views is None or len(views) != len(points):
        raise ValueError("views must pair one view direction with each point")
    if isinstance(light, envlight.ShLight):
        sh_light = light.truncated(config.degree)
    else:
        sh_light = envlight.project_to_sh(light, degree=config.degree)

    start = time.perf_counter()
    dirs, _, _ = sh.basis_grid(config.degree, config.resolution[0], config.resolution[1])

    def run(i, _end):
        sp = points[i]
        if sp.normal is None:
            raise ValueError(f"point {i} has no surface normal")
        position = np.asarray(sp.position, dtype=np.float64)
        vals = transport.visibility_map(
            scene, position[None, :], np.asarray(sp.normal, dtype=np.float64)[None, :],
            dirs, steps=config.secondary_steps)
        transfer = transport.project_map(vals, degree=config.degree,
                                         resolution=config.resolution)[0]
        mc, stderr = mc_diffuse_radiance(
            scene, light, sp.position, sp.normal, sp.albedo,
            config.mc_samples, seed=(config.seed, i),
            steps=config.secondary_steps)
        rays = transport.nrt_rays(sp.normal, views[i], seed=(config.seed, i))
        sample = transport.TransferSample(point=sp, transfer=transfer)
        residuals = transport.nrt_residuals(scene, sample, rays,
                                            steps=config.secondary_steps)
        return PointReport(
            position=position,
            nrt_residual_mean=float(np.mean(residuals)),
            visibility_l2=_map_l2(vals[0], transfer, config.degrees, config.resolution),
            sh_diffuse=shading.diffuse_radiance(sp.albedo, transfer, sh_light),
            mc_diffuse=mc,
            mc_stderr=stderr)

    entries = chunks.map_chunks(run, len(points), 1, config.threads)
    runtime = time.perf_counter() - start
    return ValidationReport(entries=tuple(entries), config=config,
                            runtime_seconds=runtime)

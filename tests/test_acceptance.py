"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
slow criteria (4 and 5) bake and Monte Carlo integrate at full fixture
size, so this file takes a few minutes on one machine.
"""

import json
import time

import numpy as np
import pytest

from prtvol import cli, envlight, field, imageio, metrics, oracle, render, sh, transport
from conftest import WALL_ALBEDO, SLAB_SIGMA, SLAB_THICKNESS, gram_matrix, random_unit_dirs, \
    sphere_scene_dict, validate_args


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def validation_report(blocker_scene, sky_light):
    """Full-size oracle comparison, shared by criteria 4 and 6."""
    config = validate_args(points=50, mc_samples=100000, grid=(64, 128), seed=0, threads=4)
    start = time.perf_counter()
    report = oracle.compare_prt_vs_mc(blocker_scene, sky_light, **config)
    return report, time.perf_counter() - start


def test_criterion_1_sh_orthonormality():
    start = time.perf_counter()
    gram = gram_matrix(degree=4, n_theta=128, n_phi=256)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(gram - np.eye(25))))
    _report(1, err <= 1e-3 and elapsed < 1.0,
            f"max |gram - I| = {err:.2e}, {elapsed:.2f} s")


def test_criterion_2_constant_light_albedo_recovery(wall_scene, white_light):
    camera = render.Camera(position=(0.0, 0.0, 3.0), look_at=(0.0, 0.0, 0.0),
                           up=(0.0, 1.0, 0.0), fov_y_deg=40.0, width=64, height=64)
    start = time.perf_counter()
    pixels, alpha = render.render_image(wall_scene, white_light, camera, mode="lit", threads=4)
    elapsed = time.perf_counter() - start
    albedo = np.asarray(WALL_ALBEDO)
    rel = np.abs(pixels - albedo[None, None, :] * alpha[:, :, None])
    rel /= albedo[None, None, :]
    worst = float(np.max(rel))
    _report(2, worst <= 0.02 and elapsed < 10.0,
            f"worst pixel deviation {worst:.4f} of albedo, {elapsed:.1f} s")


def test_criterion_3_analytic_slab_transmittance(slab_scene):
    start = time.perf_counter()
    tilt = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    head_on, oblique = transport.transmittance(
        field.with_steps(slab_scene, secondary_steps=256),
        np.array([[0.0, 0.0, 2.0], [0.0, -2.0, 2.0]]),
        np.array([[0.0, 0.0, -1.0], tilt]), offset=2.0 * slab_scene.fd_step)
    elapsed = time.perf_counter() - start
    tau = SLAB_SIGMA * SLAB_THICKNESS
    err = max(abs(head_on - np.exp(-tau)), abs(oblique - np.exp(-tau * np.sqrt(2.0))))
    _report(3, err <= 1e-3 and elapsed < 1.0,
            f"worst |V - exp(-sigma d)| = {err:.2e} at 256 steps, {elapsed:.2f} s")


def test_criterion_4_band_limited_exactness(validation_report):
    report, elapsed = validation_report
    worst = 0.0
    for e in report["entries"]:
        z = np.abs(np.subtract(e["sh_diffuse"], e["mc_diffuse"])) / e["mc_stderr"]
        worst = max(worst, float(np.max(z)))
    _report(4, worst <= 3.0 and elapsed < 300.0 and len(report["entries"]) >= 50,
            f"{len(report['entries'])} points, worst |sh - mc| = "
            f"{worst:.2f} stderr, {elapsed:.0f} s")


def test_criterion_5_reconstruction_residual_bound(sphere_scene):
    start = time.perf_counter()
    positions, normals, _, views = transport.sample_surface_points(sphere_scene, 500, seed=0)
    coeffs = transport.bake_transfer_batch(sphere_scene, positions, normals)
    dirs, _, _ = sh.basis_grid(0, *transport.BAKE_GRID)
    maps = transport.visibility_map(sphere_scene, positions, normals, dirs)
    baked = []
    zeroed = []
    map_rms = []
    zero_transfer = np.zeros(coeffs.shape[1])
    for i, (x, n, v) in enumerate(zip(positions, normals, views)):
        rays = transport.nrt_rays(n, v, seed=(0, i))
        vh = transport.visibility_map(sphere_scene, [x], [n], rays)[0]
        baked.append(np.mean(transport.nrt_residuals(coeffs[i], rays, vh)))
        zeroed.append(np.mean(transport.nrt_residuals(zero_transfer, rays, vh)))
        map_rms.append(oracle.visibility_l2(maps[i], zero_transfer, (4,),
                                            transport.BAKE_GRID)[4])
    elapsed = time.perf_counter() - start
    baked_mean = float(np.mean(baked))
    zeroed_mean = float(np.mean(zeroed))
    zeroed_map = float(np.mean(map_rms))
    # The headline bound is the baked 10-ray mean. Eight of the ten rays
    # carry an identically zero reference, which caps the zeroed 10-ray
    # mean near 0.1 by construction, so the unpredicted-transfer side of
    # the separation is scored on the visibility-map L2 instead, where
    # zero prediction loses the whole map.
    ok = (baked_mean < 0.05 and zeroed_map > 0.3
          and zeroed_mean > 10.0 * baked_mean and elapsed < 300.0)
    _report(5, ok,
            f"500 points: baked residual {baked_mean:.4f} < 0.05, zeroed map L2 "
            f"{zeroed_map:.3f} > 0.3 (zeroed 10-ray {zeroed_mean:.3f}), {elapsed:.0f} s")


def test_criterion_6_degree_monotonicity(validation_report):
    report, _ = validation_report
    worst = 0.0
    for e in report["entries"]:
        l2 = e["visibility_l2"]
        worst = max(worst, l2["3"] - l2["2"], l2["4"] - l2["3"])
    _report(6, worst <= 1e-12,
            f"visibility L2 non-increasing over degrees 2, 3, 4 at all "
            f"{len(report['entries'])} points; worst increase {worst:.2e}")


def test_criterion_7_normals_and_zero_reference(sphere_scene):
    dirs = random_unit_dirs(200, seed=3)
    fd, valid = field.normals(sphere_scene, dirs)
    cosines = np.sum(fd * dirs, axis=1)
    min_cos = float(np.min(cosines))
    positions, normals, _, views = transport.sample_surface_points(sphere_scene, 20, seed=2)
    exact = True
    for i, (x, n, v) in enumerate(zip(positions, normals, views)):
        t = transport.bake_transfer_batch(sphere_scene, [x], [n], resolution=(16, 32))[0]
        rays = transport.nrt_rays(n, v, seed=(2, i))
        vh = transport.visibility_map(sphere_scene, [x], [n], rays)[0]
        residuals = transport.nrt_residuals(t, rays, vh)
        # Rows 2 to 9 are the auxiliary rays.
        for d, r in zip(rays[2:], residuals[2:]):
            rec = float(sh.reconstruct(t, d))
            exact = exact and r == rec ** 2
    _report(7, bool(np.all(valid)) and min_cos >= 0.999 and exact,
            f"finite-difference cosine >= {min_cos:.5f} over 200 shell points; "
            f"auxiliary-ray reference identically zero: {exact}")


def test_criterion_8_metrics_self_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    ok = True
    detail = []
    for trial in range(5):
        h, w = 12, 16
        n = rng.normal(size=(h, w, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        mask = (rng.random((h, w)) < 0.6).astype(np.float64)
        a = metrics.NormalMap(normals=n, mask=mask)
        coverage = float(np.mean(mask))
        cos_self = metrics.normal_cosine_similarity(a, a)
        lap_self = metrics.laplacian_l1(a, a)
        m = rng.normal(size=(h, w, 3))
        m /= np.linalg.norm(m, axis=-1, keepdims=True)
        b = metrics.NormalMap(normals=m, mask=np.ones((h, w)))
        bb = metrics.NormalMap(normals=m.copy(), mask=np.ones((h, w)))
        a_full = metrics.NormalMap(normals=n, mask=np.ones((h, w)))
        ok = ok and abs(cos_self - coverage) < 1e-9 and lap_self == 0.0
        ok = ok and metrics.laplacian_l1(a_full, b) == metrics.laplacian_l1(b, a_full)
        ok = ok and metrics.normal_cosine_similarity(a_full, b) == \
            metrics.normal_cosine_similarity(b, a_full)
        ok = ok and metrics.laplacian_l1(a_full, b) >= 0.0
        ok = ok and metrics.laplacian_l1(b, bb) == 0.0
        if trial == 0:
            detail.append(f"cosine = coverage {coverage:.3f}")
    elapsed = time.perf_counter() - start
    detail.append(f"symmetry and non-negativity on 5 random fixtures, {elapsed:.2f} s")
    _report(8, ok and elapsed < 1.0, ", ".join(detail))


def test_criterion_9_cli_determinism(tmp_path, capsys):
    scene = dict(sphere_scene_dict())
    scene["camera"] = {"position": [0.0, -2.8, 0.9], "look_at": [0.0, 0.0, 0.0],
                       "width": 6, "height": 6}
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    rows = np.linspace(0.1, 1.0, 8)[:, None, None]
    env = np.broadcast_to(rows, (8, 16, 3)).copy()
    env_path = tmp_path / "env.pfm"
    imageio.write_pfm(str(env_path), env)

    start = time.perf_counter()
    ok = True

    def run(args):
        assert cli.main(args) == 0

    sh_a, sh_b = (str(tmp_path / f"sh_{k}.json") for k in "ab")
    run(["project-env", str(env_path), "-o", sh_a])
    run(["project-env", str(env_path), "-o", sh_b])
    ok = ok and open(sh_a, "rb").read() == open(sh_b, "rb").read()

    cache_a, cache_b = (str(tmp_path / f"cache_{k}.bin") for k in "ab")
    bake = ["bake", str(scene_path), "--points", "6", "--resolution", "16", "32"]
    run(bake + ["--threads", "1", "-o", cache_a])
    run(bake + ["--threads", "2", "-o", cache_b])
    ok = ok and open(cache_a, "rb").read() == open(cache_b, "rb").read()
    ok = ok and open(cache_a + ".json").read() == open(cache_b + ".json").read()

    img_a, img_b = (str(tmp_path / f"img_{k}.pfm") for k in "ab")
    rnd = ["render", str(scene_path), "--env", sh_a, "--transfer-grid", "8", "16"]
    run(rnd + ["--threads", "1", "-o", img_a])
    run(rnd + ["--threads", "4", "-o", img_b])
    ok = ok and open(img_a, "rb").read() == open(img_b, "rb").read()

    cached_a, cached_b = (str(tmp_path / f"cached_{k}.pfm") for k in "ab")
    cached = rnd + ["--cache", cache_a, "--width", "48", "--height", "48"]  # three ray chunks
    run(cached + ["--threads", "1", "-o", cached_a])
    run(cached + ["--threads", "4", "-o", cached_b])
    ok = ok and open(cached_a, "rb").read() == open(cached_b, "rb").read()

    rep_a, rep_b = (str(tmp_path / f"rep_{k}.json") for k in "ab")
    val = ["validate", str(scene_path), "--env", sh_a, "--points", "2",
           "--mc-samples", "300", "--grid", "16", "32"]
    run(val + ["--threads", "1", "-o", rep_a])
    run(val + ["--threads", "2", "-o", rep_b])
    ok = ok and open(rep_a).read() == open(rep_b).read()

    nm_path = str(tmp_path / "nm.pfm")
    n = np.broadcast_to([0.0, 0.0, 1.0], (6, 6, 3)).copy()
    imageio.write_pfm(nm_path, n)
    capsys.readouterr()
    run(["metrics", nm_path, nm_path])
    first = capsys.readouterr().out
    run(["metrics", nm_path, nm_path])
    ok = ok and first == capsys.readouterr().out
    elapsed = time.perf_counter() - start

    with capsys.disabled():
        _report(9, ok,
                f"project-env, bake, render (uncached and cached), validate, metrics byte-stable "
                f"across reruns and thread counts, {elapsed:.1f} s")

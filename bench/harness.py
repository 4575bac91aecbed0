"""Workloads, output checks and measurement for the prtvol benchmark.

Every op is one call of the public entry point `prtvol.cli.main(argv)` in
this process, started cold: the SH quadrature-grid cache is cleared first,
because a fresh `prtvol` process would have to build those grids again.

The inputs come from the seed alone: the example scene with its camera
rotated about z by a small seed-derived angle, two sky maps like the
README quickstart's, and the degree-4 SH projection of that sky. The seed
also sets `--seed` of bake and validate.

Workloads (each a cycle of CLI calls, repeated until the time is up):

- render_uncached: three `project-env` calls (prep), then an uncached
  `lit` render at 64x32 on one thread (main). The density kernel and
  `transmittance` do nearly all the work, through per-anchor float32
  bakes; cache lookup and thread scheduling are bypassed.
- bake_render_cached: `bake --points 500 --threads 2` (prep), then a
  cached `lit` render at 192x192 on two threads (main). It puts the cache
  write path (probe-ray sampling, float64 bakes, cache write) beside the
  read path (cache load, nearest lookup, primary march).
- validate_oracle: three `project-env` calls of a 256x512 map at degree 8
  (prep), then `validate` of 24 points against 20000-sample Monte Carlo
  on two threads (main). It covers the oracle's visibility, float64 bakes
  on the 64x128 grid, one-ray visibility calls and SH reconstruction.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from prtvol import cli, sh

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCENE = ROOT / "docs" / "example_scene.json"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 7
PROJECT_REPEATS = 3
CACHE_RECORD_FLOATS = 6 + 25  # position, normal, degree-4 transfer
BASIS_GRID = sh.basis_grid  # the cached function itself, even while traced


# ---------------------------------------------------------------- inputs

def camera_angle_deg(seed):
    return float(np.random.default_rng(seed).uniform(-4.0, 4.0))


def _rotate_z(v, angle_deg):
    c, s = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    return [c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]]


def _sky(h, w):
    """The README quickstart sky: brighter toward +z, constant below."""
    theta = (np.arange(h) + 0.5) / h * np.pi
    sky = np.clip(np.cos(theta), 0.0, None) ** 0.5
    img = np.zeros((h, w, 3), dtype=np.float32)
    for c, (a, b) in enumerate(((0.6, 0.2), (0.7, 0.2), (0.9, 0.25))):
        img[:, :, c] = a * sky[:, None] + b
    return img


def _write_pfm(path, img):
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"PF\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.ascontiguousarray(img[::-1], dtype="<f4").tobytes())


def _sky_light(degree=4):
    """SH coefficients of the quickstart sky, by Gauss-Legendre in cos(theta).

    The sky depends on theta only, so only the m = 0 terms are nonzero:
    c_l = 2 pi * integral of f(mu) * sqrt((2l + 1) / 4 pi) * P_l(mu) dmu.
    """
    x, wts = np.polynomial.legendre.leggauss(64)
    mu = np.concatenate([(x - 1.0) / 2.0, (x + 1.0) / 2.0])  # split at the kink
    wts = np.concatenate([wts, wts]) / 2.0
    n = (degree + 1) ** 2
    channels = []
    for a, b in ((0.6, 0.2), (0.7, 0.2), (0.9, 0.25)):
        f = a * np.sqrt(np.clip(mu, 0.0, None)) + b
        coeffs = [0.0] * n
        for l in range(degree + 1):
            p_l = np.polynomial.legendre.Legendre.basis(l)(mu)
            coeffs[l * l + l] = float(2.0 * math.pi * math.sqrt((2 * l + 1) / (4.0 * math.pi))
                                      * np.sum(wts * f * p_l))
        channels.append(coeffs)
    return {"degree": degree,
            "convention": "real-sh z-up, j=l*l+l+m+1, cos for m>0 / sin for m<0",
            "channels": channels}


def make_inputs(dest, seed):
    """Write the seed's inputs into dest; returns {name: path}."""
    with open(SCENE) as f:
        scene = json.load(f)
    angle = camera_angle_deg(seed)
    for key in ("position", "look_at"):
        scene["camera"][key] = _rotate_z(scene["camera"][key], angle)
    paths = {name: dest / name for name in
             ("scene.json", "sky_small.pfm", "sky_large.pfm", "light4.json")}
    paths["scene.json"].write_text(json.dumps(scene, indent=2) + "\n")
    _write_pfm(paths["sky_small.pfm"], _sky(64, 128))
    _write_pfm(paths["sky_large.pfm"], _sky(256, 512))
    paths["light4.json"].write_text(json.dumps(_sky_light(4), indent=2) + "\n")
    return paths


def setup_seconds(workdir, seed):
    """One set-up: a fresh interpreter imports prtvol, then the inputs are made."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import prtvol.cli"
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms, which
    # would quantise the measurement.
    subprocess.run([sys.executable, "-c", code], check=True)
    make_inputs(workdir, seed)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- output checks

def _read_pfm(path):
    """Independent PFM reader for the layout the CLI writes (three header lines)."""
    data = Path(path).read_bytes()
    magic, dims, scale, raster = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    channels = 3 if magic == b"PF" else 1
    if len(raster) != w * h * channels * 4:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes for {w}x{h}")
    dtype = "<f4" if float(scale) < 0 else ">f4"
    return np.frombuffer(raster, dtype=dtype).reshape((h, w, 3) if channels == 3 else (h, w))


def _read_ppm(path):
    data = Path(path).read_bytes()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    channels = 3 if magic == b"P6" else 1
    if maxval != b"255" or len(raster) != w * h * channels:
        raise ValueError(f"{path}: malformed PPM")
    return np.frombuffer(raster, dtype=np.uint8).reshape((h, w, 3) if channels == 3 else (h, w))


def check_project_env(op, stdout):
    light = json.loads(Path(op.outputs[0]).read_text())
    degree = op.expect["degree"]
    n = (degree + 1) ** 2
    errors = []
    if light.get("degree") != degree:
        errors.append(f"light degree {light.get('degree')}, expected {degree}")
    chans = np.asarray(light.get("channels"), dtype=np.float64)
    if chans.shape != (3, n) or not np.all(np.isfinite(chans)):
        errors.append(f"light channels have shape {chans.shape} or are not finite")
    return errors


def check_render(op, stdout):
    errors = []
    h, w = op.expect["height"], op.expect["width"]
    pixels = _read_pfm(op.outputs[0])
    if pixels.shape != (h, w, 3):
        errors.append(f"PFM shape {pixels.shape}, expected {(h, w, 3)}")
    if not np.all(np.isfinite(pixels)):
        errors.append("PFM has non-finite pixels")
    alpha = _read_ppm(op.outputs[1]) / 255.0
    if alpha.shape != (h, w):
        errors.append(f"alpha shape {alpha.shape}, expected {(h, w)}")
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        errors.append("alpha outside [0, 1]")
    return errors


def check_bake(op, stdout):
    errors = []
    want = op.expect["points"]
    m = re.search(r"baked (\d+) points", stdout)
    baked = int(m.group(1)) if m else -1
    if baked < want:
        errors.append(f"baked {baked} points, requested {want}")
    cache, sidecar = op.outputs
    count = json.loads(Path(sidecar).read_text()).get("count")
    if count != baked:
        errors.append(f"sidecar count {count}, stdout says {baked}")
    size = os.path.getsize(cache)
    if size != baked * CACHE_RECORD_FLOATS * 8:
        errors.append(f"cache holds {size} bytes, expected {baked} x {CACHE_RECORD_FLOATS} x 8")
    return errors


def check_validate(op, stdout):
    report = json.loads(Path(op.outputs[0]).read_text())
    want = op.expect["points"]
    errors = []
    if report["aggregate"]["points"] != want or len(report["entries"]) != want:
        errors.append(f"report has {len(report['entries'])} points, requested {want}")
    sh_d = np.array([e["sh_diffuse"] for e in report["entries"]])
    mc = np.array([e["mc_diffuse"] for e in report["entries"]])
    se = np.array([e["mc_stderr"] for e in report["entries"]])
    z = np.abs(sh_d - mc)[se > 0.0] / se[se > 0.0]
    op.quality = {"mc_z_max": float(np.max(z)),
                  "nrt_residual_mean": float(report["aggregate"]["nrt_residual_mean"])}
    if not all(math.isfinite(v) for v in op.quality.values()):
        errors.append("report quality is not finite")
    return errors


CHECKS = {"project_env": check_project_env, "render": check_render,
          "cached_render": check_render, "bake": check_bake, "validate": check_validate}


# ---------------------------------------------------------------- ops

@dataclass
class Op:
    kind: str            # project_env, render, bake, cached_render, validate
    role: str            # prep or main
    argv: list
    outputs: list
    expect: dict
    threads: int = 1
    seconds: float = 0.0
    errors: list = dc_field(default_factory=list)
    sha256: dict = dc_field(default_factory=dict)
    quality: dict = dc_field(default_factory=dict)


def _render_op(kind, inputs, d, width, height, threads, cache=None):
    argv = ["render", inputs["scene.json"], "--env", inputs["light4.json"], "--mode", "lit",
            "--width", width, "--height", height, "--threads", threads,
            "-o", d / "render.pfm", "--alpha", d / "alpha.ppm"]
    if cache is not None:
        argv += ["--cache", cache]
    return Op(kind, "main", argv, [d / "render.pfm", d / "alpha.ppm"],
              {"width": width, "height": height}, threads)


def _project_ops(inputs, d, degree):
    return [Op("project_env", "prep",
               ["project-env", inputs["sky_large.pfm"], "--degree", degree,
                "-o", d / f"light_{i}.json"],
               [d / f"light_{i}.json"], {"degree": degree})
            for i in range(PROJECT_REPEATS)]


def cycle_ops(workload, inputs, d, seed):
    """The CLI calls of one cycle, writing into the fresh directory d."""
    if workload == "render_uncached":
        return _project_ops(inputs, d, 4) + [
            _render_op("render", inputs, d, 64, 32, 1)]
    if workload == "bake_render_cached":
        cache = d / "transfer.cache"
        bake = Op("bake", "prep",
                  ["bake", inputs["scene.json"], "--points", 500, "--threads", 2,
                   "--seed", seed, "-o", cache],
                  [cache, Path(f"{cache}.json")], {"points": 500}, 2)
        return [bake, _render_op("cached_render", inputs, d, 192, 192, 2, cache=cache)]
    if workload == "validate_oracle":
        report = d / "report.json"
        validate = Op("validate", "main",
                      ["validate", inputs["scene.json"], "--env", inputs["sky_small.pfm"],
                       "--degree", 4, "--points", 24, "--mc-samples", 20000,
                       "--threads", 2, "--seed", seed, "-o", report],
                      [report], {"points": 24}, 2)
        return _project_ops(inputs, d, 8) + [validate]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op):
    """One cold CLI call; fills in time, check errors and output hashes."""
    BASIS_GRID.cache_clear()
    gc.collect()
    argv = [str(a) for a in op.argv]
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except Exception as e:  # a crash is a failed op, not a failed benchmark
        code = f"{type(e).__name__}: {e}"
    op.seconds = time.perf_counter() - t0
    if code != 0:
        op.errors.append(f"exit {code}: {out.getvalue().strip()[-300:]}")
        return
    try:
        op.errors += CHECKS[op.kind](op, out.getvalue())
        op.sha256 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in op.outputs}
    except (OSError, ValueError, KeyError) as e:
        op.errors.append(f"unreadable output: {type(e).__name__}: {e}")


# ---------------------------------------------------------------- measurement

def run_record(workload, seed, seconds, trace):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        rev = rev.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "git_rev": rev,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "camera_angle_deg": camera_angle_deg(seed)}


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def measure(workload, seed, seconds, trace, workdir):
    """Run cycles until the time is up.

    Returns (setup times, ops per cycle, traced layer metrics, cycle wall
    times keyed by traced).

    A cycle starts only if it is expected to end within half a cycle of the
    deadline. With tracing, every second cycle runs traced, so untraced and
    traced cycles alternate and both see the same machine state.
    """
    setups = []
    for i in range(SETUP_REPEATS):
        d = workdir / f"setup{i}"
        d.mkdir()
        setups.append(setup_seconds(d, seed))
    inputs = make_inputs(workdir, seed)

    ops, layers, walls = [], [], {False: [], True: []}
    t_start = time.perf_counter()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        d = workdir / f"cycle{cycle}"
        d.mkdir()
        todo = cycle_ops(workload, inputs, d, seed)
        tr = tracer.Tracer() if traced else None
        if tr is not None:
            tr.install()
        t0 = time.perf_counter()
        try:
            for i, op in enumerate(todo):
                if tr is not None:
                    tr.op = f"c{cycle}.{i}.{op.kind}"
                run_op(op)
        finally:
            if tr is not None:
                tr.uninstall()
        walls[traced].append(time.perf_counter() - t0)
        if tr is not None:
            threads = {f"c{cycle}.{i}.{op.kind}": op.threads for i, op in enumerate(todo)}
            layers.append((tr, tracer.layer_metrics(tr, threads)))
        ops.append(todo)
        cycle += 1
        elapsed = time.perf_counter() - t_start
        est = _median(walls[False] + walls[True])
        if cycle >= (2 if trace else 1) and elapsed + est / 2 > seconds:
            return setups, ops, layers, walls


def _determinism_errors(ops):
    """Every cycle must write the same bytes as the first one."""
    first = {i: op.sha256 for i, op in enumerate(ops[0])}
    for todo in ops[1:]:
        for i, op in enumerate(todo):
            if not op.errors and first[i] and op.sha256 != first[i]:
                op.errors.append("output bytes differ from the first cycle")


# Issue-facing names of each op's median time, printed and recorded.
KIND_METRIC = {"project_env": "project_env_s", "render": "render_s", "bake": "bake_s",
               "cached_render": "cached_render_s", "validate": "validate_s"}


def run(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setups, ops, layers, walls = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Peak of the whole run: with two threads the lookup temporaries of the
    # cached render overlap only sometimes, and more calls approach the worst case.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _determinism_errors(ops)
    flat = [op for todo in ops for op in todo]
    good = [op for op in flat if not op.errors]
    failed = len(flat) - len(good)

    by_kind, by_role = {}, {"prep": [], "main": []}
    for op in good:
        by_kind.setdefault(op.kind, []).append(op.seconds)
        by_role[op.role].append(op.seconds)
    if not by_role["prep"] or not by_role["main"]:
        for op in flat:
            for e in op.errors:
                print(f"{op.kind}: {e}", file=sys.stderr)
        print("error: no successful prep or main op to time", file=sys.stderr)
        return 1
    quality = {k: _median([op.quality[k] for op in good if op.quality])
               for k in ("mc_z_max", "nrt_residual_mean")}

    record = run_record(workload, seed, seconds, trace)
    record["ops"] = [{"cycle": c, "kind": op.kind, "role": op.role, "threads": op.threads,
                      "argv": [a.name if isinstance(a, Path) else str(a) for a in op.argv],
                      "seconds": op.seconds, "errors": op.errors, "sha256": op.sha256}
                     for c, todo in enumerate(ops) for op in todo]
    record["commands"] = {KIND_METRIC[k]: _median(v) for k, v in by_kind.items()}
    if workload == "validate_oracle":
        record["commands"].update(quality)

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {len(ops)} cycles, "
          f"{failed}/{len(flat)} ops failed")
    for op in flat:
        for e in op.errors:
            print(f"  FAILED {op.kind}: {e}")
    for name, value in record["commands"].items():
        unit = "s" if name.endswith("_s") else ""
        print(f"  {name:20s} {value:.6g} {unit}")

    if trace:
        values = {n: _median([m[n] for _, m in layers]) for n in layers[0][1]}
        values["oracle.mc_z_max"] = quality["mc_z_max"]
        values["oracle.nrt_residual_mean"] = quality["nrt_residual_mean"]
        values["trace_overhead_frac"] = _median(walls[True]) / _median(walls[False]) - 1.0
        spans_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        with open(spans_path, "w") as f:
            for tr, _ in layers:
                tr.write(f)
        record["trace_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {"setup_s": _median(setups), "prep_cmd_s": _median(by_role["prep"]),
                  "main_cmd_s": _median(by_role["main"]), "peak_rss_mb": peak_rss_mb}
    # Names and units come from BENCHMARK.json, so the result lists exactly its metrics.
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:.6g} {unit}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(flat), "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


# ---------------------------------------------------------------- ROADMAP baseline

def baseline():
    """Time the ROADMAP baseline configurations once each, on the example scene."""
    OUT.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix="baseline-", dir=OUT))
    try:
        inputs = make_inputs(d, 0)
        inputs["scene.json"] = SCENE
        cache = d / "transfer.cache"
        rows = [
            ("Uncached lit render, 64x64, 1 thread", _render_op("render", inputs, d, 64, 64, 1)),
            ("Uncached lit render, 64x64, 2 threads", _render_op("render", inputs, d, 64, 64, 2)),
            ("Bake, 200 points on a 32x64 grid", Op(
                "bake", "prep", ["bake", SCENE, "--points", 200, "--threads", 1,
                                 "-o", cache],
                [cache, Path(f"{cache}.json")], {"points": 200}, 1)),
            ("Cached render, 200-point cache", _render_op(
                "cached_render", inputs, d, 64, 64, 1, cache=cache)),
        ]
        for label, op in rows:
            run_op(op)
            status = "ok" if not op.errors else "FAILED " + "; ".join(op.errors)
            print(f"{label:40s} {op.seconds:8.2f} s  {status}")
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return 1 if any(op.errors for _, op in rows) else 0

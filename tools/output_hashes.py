"""Run a fixed prtvol CLI matrix; print each output's sha256 and each bad input's exit.

Usage: python tools/output_hashes.py OUTDIR

The matrix runs on docs/example_scene.json and two sky PFMs that this
script writes itself, 32x64 and 128x256: project-env of the small sky at
degree 4 and 8 and of the large one, whose texels span several projection
blocks, at degree 8; then for --threads 1 and 2 a bake, all render modes
with and without the baked cache, and a validate. A fixed bad-input
matrix follows: one bad value per flag rule and command, count flags and
scene or cache counts far past the count bound, a scene and a cache
sidecar holding 10**400, albedo and visibility renders of a scene whose
density_scale of 1e300 gives values past float32's range, a normal render
of that scene, whose gradients have squares past float64's, a normal
render, a bake and a validate of a scene whose density_scale of 1e308
gives optical depths past float64's range (each must exit 0 with an empty
stderr), and a degree-8 projection of the large sky whose --exposure of
1e308 overflows the coefficients. It leaves out values that would start many threads
or probe at length (a huge --threads or --points).

Outputs land in OUTDIR. The JSON printed on stdout maps each output's
name to its sha256, and each bad input's key ("exit:render --anchors 0")
to its exit code and the first token of its stderr ("1 usage error:",
"2 error:" or "1 Traceback"). The prtvol under test is whichever the
interpreter imports (set PYTHONPATH to a checkout's src to pick one), so
two checkouts compare by diffing the two JSON files.
"""

import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np

SCENE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "example_scene.json"
MODES = ("lit", "diffuse", "specular", "albedo", "normal", "irradiance", "visibility")


def write_sky(path, height=32, width=64):
    """A smooth, slightly anisotropic sky as a little-endian color PFM."""
    theta = (np.arange(height) + 0.5) / height * np.pi
    phi = (np.arange(width) + 0.5) / width * 2.0 * np.pi
    sky = np.clip(np.cos(theta), 0.0, None)[:, None] ** 0.5 + 0.2 * np.cos(phi)[None, :] ** 2
    img = np.stack([0.6 * sky + 0.2, 0.7 * sky + 0.2, 0.9 * sky + 0.25], axis=-1)
    with open(path, "wb") as f:
        f.write(f"PF\n{width} {height}\n-1.0\n".encode("ascii"))
        f.write(np.ascontiguousarray(img[::-1], dtype="<f4").tobytes())


def commands(out):
    """(argv, output files) of the matrix, outputs under out."""
    sky = out / "sky.pfm"
    runs = []
    for degree in (4, 8):
        light = out / f"light{degree}.json"
        runs.append((["project-env", sky, "--degree", degree, "-o", light], [light]))
    light = out / "light8_large.json"
    runs.append((["project-env", out / "sky_large.pfm", "--degree", 8, "-o", light], [light]))
    light = out / "light4.json"
    for threads in (1, 2):
        cache = out / f"t{threads}_cache.bin"
        runs.append((["bake", SCENE, "--points", 48, "--resolution", 16, 32, "--seed", 3,
                      "--threads", threads, "-o", cache], [cache, pathlib.Path(f"{cache}.json")]))
        for mode in MODES:
            for cached in (False, True):
                stem = out / f"t{threads}_{mode}{'_cached' if cached else ''}"
                files = [stem.with_suffix(".pfm"), pathlib.Path(f"{stem}_srgb.ppm"),
                         pathlib.Path(f"{stem}_alpha.ppm")]
                argv = ["render", SCENE, "--env", light, "--mode", mode, "--width", 24,
                        "--height", 18, "--transfer-grid", 8, 16, "--threads", threads,
                        "-o", files[0], "--srgb", files[1], "--alpha", files[2]]
                runs.append((argv + (["--cache", cache] if cached else []), files))
        report = out / f"t{threads}_validate.json"
        runs.append((["validate", SCENE, "--env", light, "--points", 6, "--mc-samples", 2000,
                      "--grid", 16, 32, "--seed", 2, "--threads", threads, "-o", report],
                     [report]))
    return runs


def label(value):
    """value as a key shows it: digits past 30 are counted, not spelled out."""
    text = str(value)
    return text if len(text) <= 30 else f"{text[:3]}...({len(text)} digits)"


def bad_inputs(out):
    """(key, argv) of the bad-input matrix; it reads files that the good matrix writes."""
    sky, light, cache = out / "sky.pfm", out / "light4.json", out / "t1_cache.bin"
    base = {"project-env": [sky, "-o", out / "bad.json"],
            "bake": [SCENE, "-o", out / "bad.bin"],
            "render": [SCENE, "--env", light, "-o", out / "bad.pfm"],
            "validate": [SCENE, "--env", light, "-o", out / "bad.json"],
            "metrics": [sky, sky]}
    flags = {"project-env": [["--degree", 9], ["--exposure", "nan"], ["--resolution", 7, 16]],
             "bake": [["--points", 0], ["--degree", -1], ["--seed", -1],
                      ["--resolution", 8, 15], ["--secondary-steps", 2.7], ["--threads", 0]],
             "render": [["--steps", 0], ["--degree", 9], ["--exposure", "inf"],
                        ["--transfer-grid", 4, 4], ["--width", 0], ["--anchors", 0],
                        ["--anchors", "9" * 21], ["--secondary-steps", "9" * 23],
                        ["--steps", "9" * 400]],
             "validate": [["--mc-samples", 0], ["--degree", 9], ["--seed", -3],
                          ["--grid", 0, 8], ["--threads", -2]],
             "metrics": [["--sigma", 0], ["--resize", 0]]}
    runs = [(f"exit:{command} {' '.join(map(label, flag))}", [command, *base[command], *flag])
            for command in flags for flag in flags[command]]
    # Files holding counts past the bound: two scenes and a cache sidecar.
    scene = json.loads(SCENE.read_text())
    for key, value, text in (("secondary_steps", 10**23, "10**23"),
                             ("primary_steps", 10**400, "10**400")):
        path = out / f"bad_{key}.json"
        path.write_text(json.dumps({**scene, "march": {**scene["march"], key: value}}))
        runs.append((f"exit:render march.{key} {text}", ["render", path, *base["render"][1:]]))
    huge = out / "bad_count.bin"
    huge.write_bytes(cache.read_bytes())
    sidecar = json.loads(pathlib.Path(f"{cache}.json").read_text())
    pathlib.Path(f"{huge}.json").write_text(json.dumps({**sidecar, "count": 10**400}))
    runs.append(("exit:render cache count 10**400", ["render", *base["render"], "--cache", huge]))
    # A density_scale whose finite float64 image lies past float32's range
    # (albedo, visibility), and whose gradients' squares overflow (normal).
    path = out / "bad_density_scale.json"
    first = {**scene["primitives"][0], "density_scale": 1e300}
    path.write_text(json.dumps({**scene, "primitives": [first, *scene["primitives"][1:]]}))
    for mode in ("albedo", "visibility", "normal"):
        runs.append((f"exit:render primitives[0].density_scale 1e300 --mode {mode}",
                     ["render", path, "--env", light, "--mode", mode, "--width", 16,
                      "--height", 12, "--threads", 1, "-o", out / "bad.pfm"]))
    # A density_scale of 1e308, whose optical depths overflow float64: they
    # are inf (transmittance 0, alpha 1), and the runs exit 0 silently.
    path = out / "bad_density_scale_1e308.json"
    first = {**scene["primitives"][0], "density_scale": 1e308}
    path.write_text(json.dumps({**scene, "primitives": [first, *scene["primitives"][1:]]}))
    for key, argv in (
            ("render primitives[0].density_scale 1e308 --mode normal",
             ["render", path, "--env", light, "--mode", "normal", "--width", 16, "--height", 12,
              "-o", out / "bad.pfm"]),
            ("bake primitives[0].density_scale 1e308 --points 16",
             ["bake", path, "--points", 16, "-o", out / "bad.bin"]),
            ("validate primitives[0].density_scale 1e308 --points 4",
             ["validate", path, "--env", light, "--points", 4, "--mc-samples", 200,
              "--grid", 16, 32, "-o", out / "bad.json"])):
        runs.append((f"exit:{key}", [*argv, "--threads", 1]))
    # A finite map whose coefficients overflow float64.
    runs.append(("exit:project-env sky_large.pfm --degree 8 --exposure 1e308",
                 ["project-env", out / "sky_large.pfm", "--degree", 8, "--exposure", "1e308",
                  "-o", out / "bad.json"]))
    return runs


def run(args):
    return subprocess.run([sys.executable, "-m", "prtvol.cli", *map(str, args)],
                          capture_output=True, text=True)


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    out = pathlib.Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_sky(out / "sky.pfm")
    write_sky(out / "sky_large.pfm", 128, 256)
    hashes = {}
    for args, files in commands(out):
        done = run(args)
        if done.returncode != 0:
            sys.exit(f"prtvol {' '.join(map(str, args))} exited {done.returncode}:\n{done.stderr}")
        for path in files:
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for key, args in bad_inputs(out):
        done = run(args)
        token = next((t for t in ("usage error:", "error:", "Traceback")
                      if done.stderr.startswith(t)), done.stderr[:20])
        hashes[key] = f"{done.returncode} {token}"
    print(json.dumps(hashes, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])

"""Run a fixed prtvol CLI matrix and print the sha256 of every output file.

Usage: python tools/output_hashes.py OUTDIR

The matrix runs on docs/example_scene.json and a 32x64 sky PFM that this
script writes itself: project-env at degree 4 and 8, then for --threads 1
and 2 a bake, all render modes with and without the baked cache, and a
validate. Outputs land in OUTDIR; the JSON printed on stdout maps each
output's name to its sha256. The prtvol under test is whichever the
interpreter imports (set PYTHONPATH to a checkout's src to pick one), so
two checkouts' outputs compare by diffing the two JSON files.
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


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    out = pathlib.Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_sky(out / "sky.pfm")
    hashes = {}
    for args, files in commands(out):
        cmd = [sys.executable, "-m", "prtvol.cli", *map(str, args)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
        for path in files:
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    print(json.dumps(hashes, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])

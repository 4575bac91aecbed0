"""Command-line surface: project-env, bake, render, validate, metrics.

Exit codes: 0 on success, 1 on a usage problem (unknown flags, missing
input files), 2 on a runtime failure inside a valid invocation. All
randomness is seed-controlled, so identical argv and input files give
byte-identical outputs regardless of thread count.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import chunks, envlight, field, imageio, metrics, oracle, render, sh, transport

BAKE_CHUNK = 32  # points per bake batch; fixed so threads cannot reorder math


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_in(text, low, high, what):
    """An integer low <= value <= high (high None for no bound), else ArgumentTypeError."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low or (high is not None and value > high):
        raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
    return value


def _positive_int(text):
    """argparse type for counts and sizes: an integer of at least 1."""
    return _int_in(text, 1, None, "a positive integer")


def _non_negative_int(text):
    """argparse type for RNG seeds: an integer of at least 0."""
    return _int_in(text, 0, None, "a non-negative integer")


def _degree(text):
    """argparse type for SH degrees: an integer the basis supports."""
    return _int_in(text, 0, sh.MAX_DEGREE, f"an integer in [0, {sh.MAX_DEGREE}]")


def _finite_float(text):
    """argparse type for multipliers: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive_float(text):
    """argparse type for scales: a finite float above 0."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


class _Grid(argparse.Action):
    """Action of H W grid flags: at least the sh.MIN_GRID quadrature, checked on parse."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] < sh.MIN_GRID[0] or values[1] < sh.MIN_GRID[1]:
            raise argparse.ArgumentError(self, "grid {}x{} below minimum {}x{}".format(
                *values, *sh.MIN_GRID))
        setattr(namespace, self.dest, values)


def _require_file(path):
    if not os.path.isfile(path):
        raise _UsageError(f"file not found: {path}")
    return path


def _warn_shortfall(found, requested):
    """Tell the user when probing found fewer surface points than asked."""
    if found < requested:
        print(f"warning: found {found} of {requested} requested surface points",
              file=sys.stderr)


def _load_light(path, degree):
    """ShLight from a coefficient JSON, or project a PFM environment map."""
    _require_file(path)
    if path.endswith(".json"):
        return envlight.load_sh_light(path)
    env = envlight.load_envmap(path)
    return envlight.project_to_sh(env, degree=degree)


def _cmd_project_env(args):
    _require_file(args.envmap)
    env = envlight.load_envmap(args.envmap, exposure=args.exposure)
    resolution = tuple(args.resolution) if args.resolution else None
    light = envlight.project_to_sh(env, degree=args.degree, resolution=resolution)
    if not np.isfinite(light.coeffs).all():
        raise ValueError("the projected light is not finite: the map times --exposure overflows")
    envlight.save_sh_light(args.output, light)
    print(f"wrote {args.output}: degree {light.degree}, "
          f"{light.coeffs.shape[0]} coefficients per channel")


def _cmd_bake(args):
    scene = field.load_scene(_require_file(args.scene))
    marched = field.with_steps(scene, secondary_steps=args.secondary_steps)
    positions, normals, _, _ = transport.sample_surface_points(scene, args.points,
                                                               seed=args.seed)
    _warn_shortfall(len(positions), args.points)

    def run(lo, hi):
        return transport.bake_transfer_batch(
            marched, positions[lo:hi], normals[lo:hi], degree=args.degree,
            resolution=tuple(args.resolution))

    coeffs = np.vstack(chunks.map_chunks(run, len(positions), BAKE_CHUNK, args.threads))
    transport.save_transfer_cache(args.output, scene, positions, normals, coeffs)
    print(f"baked {len(positions)} points at degree {args.degree} -> {args.output}")


def _camera_from(args, embedded):
    """Camera from the scene's camera block, each flag given overriding its key."""
    field._object(embedded, "camera")
    flags = {"position": args.camera_pos, "look_at": args.look_at, "up": args.up,
             "fov_y_deg": args.fov, "width": args.width, "height": args.height}
    values = {key: embedded[key] for key in flags if key in embedded}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    if values.get("position") is None or values.get("look_at") is None:
        raise _UsageError(
            "no camera: scene embeds none, so --camera-pos and --look-at are required")
    return render.Camera(**values)


def _cmd_render(args):
    scene, embedded = field.read_json(
        _require_file(args.scene), lambda d: (field.scene_from_dict(d), d.get("camera", {})))
    camera = _camera_from(args, embedded)
    if not (args.output or args.srgb or args.alpha):
        raise _UsageError("no output requested; pass -o, --srgb, or --alpha")
    if args.mode in render.SHADED_MODES and not args.env:
        raise _UsageError(f"mode {args.mode} requires --env")
    light = _load_light(args.env, args.degree) if args.env else None
    cache = None
    if args.cache:
        cache = transport.load_transfer_cache(_require_file(args.cache), scene=scene)
    settings = render.RenderSettings(
        transfer_grid=tuple(args.transfer_grid), anchors_per_ray=args.anchors,
        transfer_cache=cache)
    img = render.render_image(field.with_steps(scene, args.steps, args.secondary_steps), light,
                              camera, mode=args.mode, settings=settings, threads=args.threads)
    if not (np.isfinite(img.pixels).all() and np.isfinite(img.alpha).all()):
        raise ValueError("the rendered image is not finite: a value of the scene overflows")
    if args.output:
        imageio.write_pfm(args.output, img.pixels)
        print(f"wrote {args.output}")
    if args.srgb:
        imageio.write_ppm(args.srgb, render.srgb_u8(img.pixels, exposure=args.exposure))
        print(f"wrote {args.srgb}")
    if args.alpha:
        imageio.write_ppm(args.alpha, render.alpha_u8(img.alpha))
        print(f"wrote {args.alpha}")


def _cmd_validate(args):
    scene = field.load_scene(_require_file(args.scene))
    light = _load_light(args.env, args.degree)
    if light.degree < args.degree:
        raise ValueError(f"--degree {args.degree} exceeds the degree {light.degree} "
                         f"of the SH light {args.env}")
    config = oracle.ValidationConfig(
        count=args.points, mc_samples=args.mc_samples, degree=args.degree,
        resolution=tuple(args.grid), secondary_steps=args.secondary_steps,
        seed=args.seed, threads=args.threads)
    report = oracle.compare_prt_vs_mc(scene, light, config=config)
    _warn_shortfall(len(report["entries"]), args.points)
    print(oracle.format_table(report))
    payload = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as f:
            f.write(payload)
            f.write("\n")
        print(f"wrote {args.output}")
    else:
        print(payload)


def _cmd_metrics(args):
    a = metrics.load_normal_map(_require_file(args.map_a),
                                _require_file(args.mask_a) if args.mask_a else None)
    b = metrics.load_normal_map(_require_file(args.map_b),
                                _require_file(args.mask_b) if args.mask_b else None)
    if args.crop:
        a = metrics.face_crop(a, args.crop, size=args.resize)
        b = metrics.face_crop(b, args.crop, size=args.resize)
    result = {
        "cosine_similarity": metrics.normal_cosine_similarity(
            a, b, mask_normalized=args.mask_normalized),
        "laplacian_l1": metrics.laplacian_l1(
            a, b, blur_sigma=args.sigma, mask_normalized=args.mask_normalized),
        "blur_sigma": args.sigma,
        "mask_normalized": args.mask_normalized,
    }
    print(json.dumps(result, indent=2))


def build_parser():
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = _Parser(prog="prtvol",
                     description="SH radiance-transfer lighting for density fields")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("project-env", formatter_class=fmt,
                       help="project an environment map onto SH coefficients")
    p.add_argument("envmap", help="equirectangular PFM environment map")
    p.add_argument("--degree", type=_degree, default=4, help="SH truncation degree")
    p.add_argument("--exposure", type=_finite_float, default=1.0,
                   help="linear multiplier applied on load")
    p.add_argument("--resolution", type=_positive_int, nargs=2, metavar=("H", "W"), default=None,
                   action=_Grid, help="projection grid; defaults to the map's own texel grid")
    p.add_argument("-o", "--output", required=True, help="output coefficient JSON")
    p.set_defaults(func=_cmd_project_env)

    p = sub.add_parser("bake", formatter_class=fmt,
                       help="bake a transfer cache at sampled surface points")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("--points", type=_positive_int, default=500, help="surface points to bake")
    p.add_argument("--degree", type=_degree, default=4, help="SH truncation degree")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="probe-ray RNG seed")
    p.add_argument("--resolution", type=_positive_int, nargs=2, metavar=("H", "W"),
                   default=list(transport.BAKE_GRID), action=_Grid, help="bake direction grid")
    p.add_argument("--secondary-steps", type=_positive_int, default=None,
                   help="visibility march steps; scene value if omitted")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker threads")
    p.add_argument("-o", "--output", required=True, help="output cache file")
    p.set_defaults(func=_cmd_bake)

    p = sub.add_parser("render", formatter_class=fmt,
                       help="render a scene to PFM/PPM images")
    p.add_argument("scene", help="scene JSON, camera block optional")
    p.add_argument("--env", default=None,
                   help="SH light JSON, or a PFM map projected at --degree")
    p.add_argument("--degree", type=_degree, default=4,
                   help="projection degree when --env is a PFM map")
    p.add_argument("--mode", choices=render.MODES, default="lit", help="output channel")
    p.add_argument("--steps", type=_positive_int, default=None,
                   help="primary march steps; scene value if omitted")
    p.add_argument("--secondary-steps", type=_positive_int, default=None,
                   help="visibility march steps; scene value if omitted")
    p.add_argument("--transfer-grid", type=_positive_int, nargs=2, metavar=("H", "W"),
                   default=list(render.RenderSettings.transfer_grid), action=_Grid,
                   help="per-anchor bake grid")
    p.add_argument("--anchors", type=_positive_int, default=render.RenderSettings.anchors_per_ray,
                   help="transfer anchors per primary ray")
    p.add_argument("--cache", default=None,
                   help="transfer cache file; anchors look up instead of baking")
    p.add_argument("--exposure", type=_finite_float, default=1.0,
                   help="linear multiplier before sRGB")
    p.add_argument("--camera-pos", type=float, nargs=3, metavar=("X", "Y", "Z"),
                   default=None, help="camera position override")
    p.add_argument("--look-at", type=float, nargs=3, metavar=("X", "Y", "Z"),
                   default=None, help="camera target override")
    p.add_argument("--up", type=float, nargs=3, metavar=("X", "Y", "Z"),
                   default=None, help="camera up override")
    p.add_argument("--fov", type=float, default=None, help="vertical field of view")
    p.add_argument("--width", type=_positive_int, default=None, help="image width")
    p.add_argument("--height", type=_positive_int, default=None, help="image height")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker threads")
    p.add_argument("-o", "--output", default=None, help="linear PFM output")
    p.add_argument("--srgb", default=None, help="8-bit sRGB PPM output")
    p.add_argument("--alpha", default=None, help="grayscale alpha PPM output")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("validate", formatter_class=fmt,
                       help="score baked transfer against the Monte Carlo oracle")
    p.add_argument("scene", help="scene JSON")
    p.add_argument("--env", required=True,
                   help="SH light JSON, or a PFM map projected at --degree")
    p.add_argument("--points", type=_positive_int, default=100, help="surface points to validate")
    p.add_argument("--mc-samples", type=_positive_int, default=10000,
                   help="Monte Carlo directions per point")
    p.add_argument("--degree", type=_degree, default=4, help="SH truncation degree")
    p.add_argument("--grid", type=_positive_int, nargs=2, metavar=("H", "W"), default=[64, 128],
                   action=_Grid, help="bake and visibility-map grid")
    p.add_argument("--secondary-steps", type=_positive_int, default=None,
                   help="visibility march steps; scene value if omitted")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="RNG seed")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker threads")
    p.add_argument("-o", "--output", default=None,
                   help="report JSON path; printed to stdout if omitted")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("metrics", formatter_class=fmt,
                       help="normal-map cosine and Laplacian L1 metrics")
    p.add_argument("map_a", help="first normal map PFM")
    p.add_argument("map_b", help="second normal map PFM")
    p.add_argument("--mask-a", default=None, help="grayscale mask for map_a")
    p.add_argument("--mask-b", default=None, help="grayscale mask for map_b")
    p.add_argument("--sigma", type=_positive_float, default=metrics.DEFAULT_BLUR_SIGMA,
                   help="Gaussian blur sigma for the Laplacian")
    p.add_argument("--mask-normalized", action="store_true",
                   help="divide by mask mass instead of pixel count")
    p.add_argument("--crop", type=int, nargs=4, metavar=("X0", "Y0", "X1", "Y1"),
                   default=None, help="crop box applied to both maps")
    p.add_argument("--resize", type=_positive_int, default=256,
                   help="square output size after --crop")
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory ({e or 'allocation failed'}); "
              "try a smaller resolution or image size", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

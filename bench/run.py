#!/usr/bin/env python3
"""prtvol benchmark entry point.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload render_uncached --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 bench/run.py --baseline

One workload runs in this process. `--workload all` runs each workload in
a fresh process and prints a table. `--trace 0` reports the end-to-end
metrics and `--trace 1` the per-layer metrics; the last line of standard
output is the JSON result. `--baseline` times the configurations of the
ROADMAP baseline table once each.

The program is imported from `src/` of the checkout this file sits in;
without it the benchmark exits with code 2 before measuring anything.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# The CLI's --threads flag is then the only source of parallelism, so each
# op uses at most the thread count it asks for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("render_uncached", "bake_render_cached", "validate_oracle")


def _run_all(args):
    """Each workload in a fresh process; print their summaries and a table."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            status = 1
    print()
    print(f"{'workload':20s} {'failed/attempted':>17s}  metric")
    for name, res in results.items():
        ops = f"{res['failed']}/{res['attempted']}"
        for i, (metric, m) in enumerate(res["metrics"].items()):
            head = f"{name:20s} {ops:>17s}" if i == 0 else " " * 38
            print(f"{head}  {metric:46s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="time the ROADMAP baseline configurations once")
    args = parser.parse_args()
    if not args.baseline and args.workload is None:
        parser.error("--workload is required unless --baseline is given")

    needed = (ROOT / "src" / "prtvol" / "cli.py", ROOT / "docs" / "example_scene.json")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a prtvol source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.baseline:
        return harness.baseline()
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

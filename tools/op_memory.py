"""Log each benchmark op's wall time, heap peak, peak RSS and page faults.

Usage: python tools/op_memory.py WORKLOAD [CYCLES]

Runs CYCLES (default 1) seed-0 cycles of a bench/harness.py workload in
this process, op by op as the benchmark runs them, and prints one line
per op: its wall time, ru_maxrss after it (the process's peak so far,
which the benchmark reports as peak_rss_mb), the minor page faults it
took, and its tracemalloc peak. Tracing slows the program and allocates
beside it, so the heap peaks come from one more cycle, traced, that runs
after the timed ones. The prtvol under test is the one in this checkout's
src/, as for the benchmark.
"""

import pathlib
import resource
import sys
import tempfile
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (first: it sets BLAS to one thread, as the benchmark does)
import harness  # noqa: E402


def run_cycle(workload, inputs, workdir, cycle, traced):
    """(kind, seconds, maxrss MiB, minor faults, heap peak MiB or None) of each op."""
    d = pathlib.Path(workdir) / f"cycle{cycle}"
    d.mkdir()
    rows = []
    for op in harness.cycle_ops(workload, inputs, d, 0):
        if traced:
            tracemalloc.start()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        harness.run_op(op)
        seconds = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak = None
        if traced:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        if op.errors:
            raise SystemExit(f"{op.kind} failed: {op.errors}")
        rows.append((op.kind, seconds, usage.ru_maxrss / 1024.0,
                     usage.ru_minflt - faults, peak))
    return rows


def main(argv):
    cycles = argv[1] if len(argv) == 2 else "1"
    if not 1 <= len(argv) <= 2 or argv[0] not in run.WORKLOADS or not cycles.isdigit() \
            or int(cycles) < 1:
        raise SystemExit(__doc__.strip().splitlines()[2])
    workload, cycles = argv[0], int(cycles)
    with tempfile.TemporaryDirectory() as workdir:
        inputs = harness.make_inputs(pathlib.Path(workdir), 0)
        timed = [run_cycle(workload, inputs, workdir, c, False) for c in range(cycles)]
        heap = [row[4] for row in run_cycle(workload, inputs, workdir, cycles, True)]
    print(f"{'cycle':>5s} {'op':14s} {'wall_s':>8s} {'maxrss_mb':>10s} {'minflt':>8s} "
          f"{'heap_peak_mib':>14s}")
    for c, rows in enumerate(timed):
        for (kind, seconds, maxrss, faults, _), peak in zip(rows, heap):
            print(f"{c:5d} {kind:14s} {seconds:8.3f} {maxrss:10.1f} {faults:8d} {peak:14.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])

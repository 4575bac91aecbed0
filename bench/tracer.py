"""Outside-in tracer for prtvol: spans and counts recorded by the benchmark.

No program file changes. `Tracer.install()` replaces functions in the
namespaces of the prtvol modules (and the `TransferCache.nearest` method)
with wrappers that record one span per call, and `uninstall()` puts the
originals back. prtvol calls across modules as `module.function` and
within a module through its globals, so both kinds of call resolve to
the wrappers.

Each thread keeps its own span stack. A span opened on a worker thread
whose stack is empty takes as parent the innermost open span of the
thread that installed the tracer, which is the thread that fanned the
work out. Spans stay in memory until `write()`. In the written lines `id`
and `parent` number the spans of one tracer (one traced cycle), and `op`
names the CLI call a span belongs to.
"""

import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

from prtvol import cli, envlight, field, imageio, oracle, render, sh, transport

MODULES = {"cli": cli, "render": render, "transport": transport, "field": field,
           "sh": sh, "envlight": envlight, "oracle": oracle, "imageio": imageio}

# Private names wrapped besides the public functions: the CLI commands,
# the alias of sh.basis_grid that transport and oracle call, and the
# renderer's ray-chunk function (the unit of its thread fan-out).
EXTRA = {
    ("cli", "_cmd_project_env"): "cli.project_env",
    ("cli", "_cmd_bake"): "cli.bake",
    ("cli", "_cmd_render"): "cli.render",
    ("cli", "_cmd_validate"): "cli.validate",
    ("sh", "basis_grid"): "sh.basis_grid",
    ("sh", "_cached_grid"): "sh.basis_grid",
    ("render", "_trace_batch"): "render._trace_batch",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _batch(pts):
    return int(np.prod(np.shape(pts)[:-1]))


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _density(args, kwargs, out):
    return {"samples": out.size, "zeros": out.size - int(np.count_nonzero(out))}


def _transmittance(args, kwargs, out):
    scene = _arg(args, kwargs, 0, "scene")
    steps = _arg(args, kwargs, 3, "steps")
    if steps is None:
        steps = scene.march.secondary_steps
    return {"rays": out.shape[0], "ray_steps": out.shape[0] * int(steps)}


def _save_cache(args, kwargs, out):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": _file_bytes(path, path + ".json")}


COUNTERS = {
    "field.density": _density,
    "field.normals": lambda a, k, out: {"points": _batch(_arg(a, k, 1, "pts"))},
    "field.material": lambda a, k, out: {"points": _batch(_arg(a, k, 1, "pts"))},
    "transport.transmittance": _transmittance,
    "transport.bake_transfer_batch": lambda a, k, out: {"points": out.shape[0]},
    "transport.sample_surface_points": lambda a, k, out: {
        "requested": int(_arg(a, k, 1, "count")), "found": len(out[0])},
    "transport.surface_point_along": lambda a, k, out: {"hits": int(out is not None)},
    "transport.TransferCache.nearest": lambda a, k, out: {
        "queries": out.shape[0], "cache_points": a[0].positions.shape[0]},
    "transport.save_transfer_cache": _save_cache,
    "sh.eval_basis": lambda a, k, out: {"dirs": _batch(out)},
    "oracle.mc_diffuse_radiance": lambda a, k, out: {
        "samples": int(_arg(a, k, 5, "samples"))},
    "imageio.write_pfm": lambda a, k, out: {"bytes": _file_bytes(_arg(a, k, 0, "path"))},
}

# Counts that describe a size rather than work done: aggregated by max.
MAX_COUNTS = {"cache_points"}


class Span:
    __slots__ = ("name", "op", "thread", "parent", "start", "end", "counts", "self_s")

    def __init__(self, name, op, thread, parent):
        self.name = name
        self.op = op
        self.thread = thread
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # identifier shared by the spans of one CLI call
        self._local = threading.local()
        self._root_stack = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            span = Span(name, tracer.op, threading.get_ident(), parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self._root_stack = self._stack()
        targets = [(MODULES[m], attr, name) for (m, attr), name in EXTRA.items()]
        for short, mod in MODULES.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and (short, attr) not in EXTRA):
                    targets.append((mod, attr, f"{short}.{attr}"))
        targets.append((transport.TransferCache, "nearest", "transport.TransferCache.nearest"))
        for owner, attr, name in targets:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def finish(self):
        """Compute self times: duration minus the union of child intervals."""
        kids = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[id(s.parent)].append(s)
        for s in self.spans:
            covered, reach = 0.0, s.start
            for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                                 for c in kids[id(s)]):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            s.self_s = (s.end - s.start) - covered
        return kids

    def write(self, f):
        """One JSON line per span to the open file f; times from the first span."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        for i, s in enumerate(self.spans):
            f.write(json.dumps({
                "id": i, "name": s.name, "op": s.op, "thread": s.thread,
                "parent": ids.get(id(s.parent)),
                "start": s.start - t0, "end": s.end - t0, "self_s": s.self_s,
                "counts": s.counts}) + "\n")


def _parallel_eff(spans, kids, name, threads):
    """Busy time of worker-thread child spans / (threads x wall), per span.

    With one thread the command runs its chunks inline on its own thread,
    so busy time equals wall time and the efficiency is 1 by definition.
    """
    effs = []
    for s in spans:
        if s.name != name:
            continue
        t = threads.get(s.op, 1)
        if t <= 1:
            effs.append(1.0)
            continue
        busy = sum(c.end - c.start for c in kids[id(s)] if c.thread != s.thread)
        effs.append(busy / (t * (s.end - s.start)))
    return float(np.mean(effs)) if effs else 0.0


def layer_metrics(tracer, threads):
    """Per-layer metrics of one traced cycle, keyed by BENCHMARK.json name.

    threads maps each op identifier to the thread count it ran with.
    """
    kids = tracer.finish()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for s in tracer.spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        wall_s[s.name] += s.end - s.start
        for key, v in (s.counts or {}).items():
            c = counts[s.name]
            c[key] = max(c[key], v) if key in MAX_COUNTS else c[key] + v

    def rate(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    # Throughputs divide by wall time summed over calls (children included),
    # which is busy time per thread when calls run on several threads.

    d, t = counts["field.density"], counts["transport.transmittance"]
    b, q = counts["transport.bake_transfer_batch"], counts["transport.TransferCache.nearest"]
    s, p = counts["transport.sample_surface_points"], counts["transport.surface_point_along"]
    return {
        "field.density.samples": d["samples"],
        "field.density.self_s": self_s["field.density"],
        "field.density.samples_per_s": rate(d["samples"], wall_s["field.density"]),
        "field.density.zero_frac": rate(d["zeros"], d["samples"]),
        "field.normals.points": counts["field.normals"]["points"],
        "field.normals.self_s": self_s["field.normals"],
        "field.material.points": counts["field.material"]["points"],
        "field.material.self_s": self_s["field.material"],
        "transport.transmittance.calls": calls["transport.transmittance"],
        "transport.transmittance.rays": t["rays"],
        "transport.transmittance.ray_steps": t["ray_steps"],
        "transport.transmittance.self_s": self_s["transport.transmittance"],
        "transport.transmittance.ray_steps_per_s": rate(
            t["ray_steps"], wall_s["transport.transmittance"]),
        "transport.bake_transfer_batch.points": b["points"],
        "transport.bake_transfer_batch.self_s": self_s["transport.bake_transfer_batch"],
        "transport.bake_transfer_batch.points_per_s": rate(
            b["points"], wall_s["transport.bake_transfer_batch"]),
        "transport.sample_surface_points.requested": s["requested"],
        "transport.sample_surface_points.found": s["found"],
        "transport.surface_point_along.calls": calls["transport.surface_point_along"],
        "transport.surface_point_along.hit_frac": rate(
            p["hits"], calls["transport.surface_point_along"]),
        "transport.TransferCache.nearest.queries": q["queries"],
        "transport.TransferCache.nearest.cache_points": q["cache_points"],
        "transport.TransferCache.nearest.self_s": self_s["transport.TransferCache.nearest"],
        "transport.TransferCache.nearest.queries_per_s": rate(
            q["queries"], wall_s["transport.TransferCache.nearest"]),
        "transport.save_transfer_cache.bytes": counts["transport.save_transfer_cache"]["bytes"],
        "transport.save_transfer_cache.s": wall_s["transport.save_transfer_cache"],
        "transport.load_transfer_cache.s": wall_s["transport.load_transfer_cache"],
        "transport.visibility.calls": calls["transport.visibility"],
        "transport.nrt_residuals.self_s": self_s["transport.nrt_residuals"],
        "transport.visibility_map.self_s": self_s["transport.visibility_map"],
        "sh.eval_basis.dirs": counts["sh.eval_basis"]["dirs"],
        "sh.eval_basis.self_s": self_s["sh.eval_basis"],
        "sh.basis_grid.calls": calls["sh.basis_grid"],
        "sh.basis_grid.self_s": self_s["sh.basis_grid"],
        "envlight.project_to_sh.self_s": self_s["envlight.project_to_sh"],
        "oracle.mc_diffuse_radiance.samples": counts["oracle.mc_diffuse_radiance"]["samples"],
        "oracle.mc_diffuse_radiance.self_s": self_s["oracle.mc_diffuse_radiance"],
        "oracle.visibility_l2.self_s": self_s["oracle.visibility_l2"],
        # The renderer's own work: ray setup, primary march, compositing and
        # shading, which runs in render_image and its ray-chunk function.
        "render.render_image.self_s": self_s["render.render_image"]
        + self_s["render._trace_batch"],
        "render.parallel_eff": _parallel_eff(tracer.spans, kids, "render.render_image",
                                             threads),
        "cli.bake.parallel_eff": _parallel_eff(tracer.spans, kids, "cli.bake", threads),
        "oracle.parallel_eff": _parallel_eff(tracer.spans, kids,
                                             "oracle.compare_prt_vs_mc", threads),
        "imageio.write_pfm.bytes": counts["imageio.write_pfm"]["bytes"],
        "imageio.write_pfm.s": wall_s["imageio.write_pfm"],
        "imageio.read_pfm.s": wall_s["imageio.read_pfm"],
    }

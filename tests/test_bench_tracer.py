import importlib.util
import pathlib

import pytest

from prtvol import render

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extra_names_resolve(tracer_module):
    # The tracer wraps these private names by lookup; renaming one would
    # silently drop its spans from the benchmark.
    for short, attr in tracer_module.EXTRA:
        assert callable(getattr(tracer_module.MODULES[short], attr))


def test_worker_chunks_nest_under_render_image(tracer_module, sphere_scene):
    # 33 x 33 rays make two ray chunks, so two threads both get one.
    camera = render.Camera(position=(0.0, -3.0, 0.5), look_at=(0.0, 0.0, 0.0),
                           width=33, height=33)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        render.render_image(sphere_scene, None, camera, mode="albedo",
                            settings=render.RenderSettings(steps=32), threads=2)
    finally:
        tracer.uninstall()
    batches = [s for s in tracer.spans if s.name == "render._trace_batch"]
    assert len(batches) == 2
    for s in batches:
        assert s.parent is not None and s.parent.name == "render.render_image"
        assert s.thread != s.parent.thread
    assert not hasattr(render._trace_batch, "__wrapped__")

import importlib.util
import json
import pathlib

import pytest

from prtvol import cli, envlight, field, render
from conftest import lobe_sh_light, sphere_scene_dict

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
        render.render_image(field.with_steps(sphere_scene, 32), None, camera, mode="albedo",
                            threads=2)
    finally:
        tracer.uninstall()
    batches = [s for s in tracer.spans if s.name == "render._trace_batch"]
    assert len(batches) == 2
    for s in batches:
        assert s.parent is not None and s.parent.name == "render.render_image"
        assert s.thread != s.parent.thread
    assert not hasattr(render._trace_batch, "__wrapped__")


def test_cli_run_fills_the_bench_counters(tracer_module, tmp_path):
    # The counters read the arguments and results of the functions they
    # wrap; a signature change there zeroes a metric without raising.
    scene = tmp_path / "scene.json"
    data = sphere_scene_dict()
    data["camera"] = {"position": [0.0, -2.8, 0.9], "look_at": [0.0, 0.0, 0.0],
                      "width": 8, "height": 6}
    scene.write_text(json.dumps(data))
    light = str(tmp_path / "light.json")
    envlight.save_sh_light(light, lobe_sh_light())
    cache = str(tmp_path / "cache.bin")
    ops = {
        "bake": ["bake", str(scene), "--points", "6", "--resolution", "8", "16",
                 "--threads", "1", "-o", cache],
        "render": ["render", str(scene), "--env", light, "--cache", cache, "--threads", "1",
                   "-o", str(tmp_path / "lit.pfm")],
        "validate": ["validate", str(scene), "--env", light, "--points", "2",
                     "--mc-samples", "64", "--grid", "8", "16", "--threads", "1",
                     "-o", str(tmp_path / "report.json")],
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for op, argv in ops.items():
            tracer.op = op
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer_module.layer_metrics(tracer, {op: 1 for op in ops})
    for name in ("transport.save_transfer_cache.bytes", "transport.sample_surface_points.found",
                 "transport.bake_transfer_batch.points", "transport.TransferCache.nearest.queries",
                 "transport.nrt_residuals.self_s", "oracle.visibility_l2.self_s"):
        assert metrics[name] > 0, name


def test_transmittance_counts_the_flag_steps(tracer_module, tmp_path):
    # The counter reads the step count from the scene transmittance marches,
    # which carries the --secondary-steps value.
    scene = tmp_path / "scene.json"
    data = sphere_scene_dict()
    data["camera"] = {"position": [0.0, -2.8, 0.9], "look_at": [0.0, 0.0, 0.0],
                      "width": 4, "height": 4}
    scene.write_text(json.dumps(data))
    light = str(tmp_path / "light.json")
    envlight.save_sh_light(light, lobe_sh_light())
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.op = "render"
        assert cli.main(["render", str(scene), "--env", light, "--secondary-steps", "7",
                         "--transfer-grid", "8", "16", "--threads", "1",
                         "-o", str(tmp_path / "lit.pfm")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer_module.layer_metrics(tracer, {"render": 1})
    rays = metrics["transport.transmittance.rays"]
    assert rays > 0 and metrics["transport.transmittance.ray_steps"] == 7 * rays

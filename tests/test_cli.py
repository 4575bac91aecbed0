import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtvol import cli, envlight, field, imageio, render, transport
from conftest import lobe_sh_light, sphere_scene_dict

EXAMPLE_SCENE = pathlib.Path(__file__).resolve().parents[1] / "docs" / "example_scene.json"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def scene_file(workdir):
    data = sphere_scene_dict()
    data["camera"] = {"position": [0.0, -2.8, 0.9], "look_at": [0.0, 0.0, 0.0],
                      "fov_y_deg": 42.0, "width": 8, "height": 8}
    path = workdir / "sphere.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def light_file(workdir):
    path = workdir / "light.json"
    envlight.save_sh_light(str(path), lobe_sh_light())
    return str(path)


@pytest.fixture(scope="module")
def envmap_file(workdir):
    rows = np.linspace(0.2, 1.0, 8)[:, None, None]
    cols = np.linspace(0.1, 0.9, 16)[None, :, None]
    img = np.concatenate([np.broadcast_to(rows, (8, 16, 1)),
                          np.broadcast_to(cols, (8, 16, 1)),
                          np.full((8, 16, 1), 0.5)], axis=2)
    path = workdir / "env.pfm"
    imageio.write_pfm(str(path), img)
    return str(path)


class TestProjectEnv:
    def test_writes_coefficient_json(self, workdir, envmap_file, capsys):
        out = str(workdir / "env_sh.json")
        assert cli.main(["project-env", envmap_file, "-o", out]) == 0
        text = capsys.readouterr().out
        assert "wrote" in text and "25 coefficients" in text
        light = envlight.load_sh_light(out)
        assert light.coeffs.shape == (25, 3)

    def test_reruns_byte_identical(self, workdir, envmap_file):
        a = workdir / "sh_a.json"
        b = workdir / "sh_b.json"
        assert cli.main(["project-env", envmap_file, "-o", str(a)]) == 0
        assert cli.main(["project-env", envmap_file, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_map_is_usage_error(self, workdir, capsys):
        code = cli.main(["project-env", str(workdir / "nope.pfm"), "-o",
                         str(workdir / "x.json")])
        assert code == 1
        assert "file not found" in capsys.readouterr().err

    def test_overflowing_exposure_writes_nothing(self, workdir, envmap_file, capsys):
        # The map times 1e308 overflows, and the light used to be written
        # with an Infinity coefficient that load_sh_light then rejects.
        out = workdir / "inf_sh.json"
        code = cli.main(["project-env", envmap_file, "--degree", "2", "--exposure", "1e308",
                         "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: the projected light is not finite")
        assert not out.exists()

    def test_overflowing_exposure_prints_only_the_error_line(self, workdir):
        # The benchmark's 256x512 quickstart sky at degree 8, in a fresh
        # interpreter as a user runs it: numpy's overflow warning used to
        # come before the error line.
        theta = (np.arange(256) + 0.5) / 256 * np.pi
        sky = np.clip(np.cos(theta), 0.0, None) ** 0.5
        rows = np.stack([0.6 * sky + 0.2, 0.7 * sky + 0.2, 0.9 * sky + 0.25], axis=-1)
        envmap = workdir / "sky_large.pfm"
        imageio.write_pfm(str(envmap), np.broadcast_to(rows[:, None, :], (256, 512, 3)))
        out = workdir / "overflow_sh.json"
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "prtvol.cli", "project-env", str(envmap), "--degree", "8",
             "--exposure", "1e308", "-o", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        assert done.stderr == ("error: the projected light is not finite: "
                               "the map times --exposure overflows\n")
        assert not out.exists()


class TestBake:
    def test_cache_loads_back(self, workdir, scene_file, capsys):
        out = str(workdir / "cache.bin")
        code = cli.main(["bake", scene_file, "--points", "12", "-o", out])
        assert code == 0
        assert "baked 12 points" in capsys.readouterr().out
        scene = field.load_scene(scene_file)
        cache = transport.load_transfer_cache(out, scene=scene)
        assert cache.coeffs.shape == (12, 25)
        assert cache.positions.shape == (12, 3)
        assert cache.degree == 4

    def test_threads_do_not_change_bytes(self, workdir, scene_file):
        a = workdir / "cache_t1.bin"
        b = workdir / "cache_t3.bin"
        base = ["bake", scene_file, "--points", "9", "--resolution", "16", "32"]
        assert cli.main(base + ["--threads", "1", "-o", str(a)]) == 0
        assert cli.main(base + ["--threads", "3", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_chunk_size_does_not_change_bytes(self, workdir, monkeypatch):
        # Every point's transfer is independent of its batch, so neither
        # the chunk size nor the thread count moves a byte of the cache.
        base = ["bake", str(EXAMPLE_SCENE), "--points", "40", "--resolution", "8", "16"]
        outs = []
        for chunk in (1, 7, 32, 500):
            monkeypatch.setattr(cli, "BAKE_CHUNK", chunk)
            for threads in ("1", "2"):
                out = workdir / f"cache_chunk{chunk}_t{threads}.bin"
                assert cli.main(base + ["--threads", threads, "-o", str(out)]) == 0
                outs.append(out.read_bytes())
        assert all(b == outs[0] for b in outs)


class TestRender:
    def test_albedo_pfm_output(self, workdir, scene_file):
        out = workdir / "albedo.pfm"
        assert cli.main(["render", scene_file, "--mode", "albedo",
                         "-o", str(out)]) == 0
        img = imageio.read_pfm(str(out))
        assert img.shape == (8, 8, 3)
        assert np.all(np.isfinite(img))

    def test_all_output_kinds(self, workdir, scene_file):
        pfm = workdir / "vis.pfm"
        ppm = workdir / "vis.ppm"
        pgm = workdir / "vis_alpha.pgm"
        assert cli.main(["render", scene_file, "--mode", "visibility",
                         "-o", str(pfm), "--srgb", str(ppm),
                         "--alpha", str(pgm)]) == 0
        assert ppm.read_bytes().startswith(b"P6")
        assert pgm.read_bytes().startswith(b"P5")

    def test_requires_some_output(self, scene_file, capsys):
        assert cli.main(["render", scene_file, "--mode", "albedo"]) == 1
        assert "no output requested" in capsys.readouterr().err

    def test_lit_requires_env(self, workdir, scene_file, capsys):
        code = cli.main(["render", scene_file, "-o", str(workdir / "x.pfm")])
        assert code == 1
        assert "requires --env" in capsys.readouterr().err

    def test_missing_scene_is_usage_error(self, workdir, capsys):
        code = cli.main(["render", str(workdir / "ghost.json"),
                         "-o", str(workdir / "x.pfm")])
        assert code == 1
        assert "file not found" in capsys.readouterr().err

    def test_camera_required_when_not_embedded(self, workdir, capsys):
        path = workdir / "nocam.json"
        path.write_text(json.dumps(sphere_scene_dict()))
        code = cli.main(["render", str(path), "--mode", "albedo",
                         "-o", str(workdir / "x.pfm")])
        assert code == 1
        assert "no camera" in capsys.readouterr().err

    def test_camera_flags_override(self, workdir, capsys):
        path = workdir / "nocam2.json"
        path.write_text(json.dumps(sphere_scene_dict()))
        out = workdir / "flagcam.pfm"
        code = cli.main(["render", str(path), "--mode", "albedo",
                         "--camera-pos", "0", "-2.8", "0.9",
                         "--look-at", "0", "0", "0",
                         "--width", "6", "--height", "6", "-o", str(out)])
        assert code == 0
        assert imageio.read_pfm(str(out)).shape == (6, 6, 3)

    @pytest.mark.parametrize("key, value, flags, flag_code", [
        ("width", 0, ["--width", "0"], 1),
        ("height", -3, ["--height", "-3"], 1),
        ("width", 2.7, ["--width", "2.7"], 1),
        ("fov_y_deg", float("nan"), ["--fov", "nan"], 2),
        ("fov_y_deg", 0.0, ["--fov", "0"], 2),
        ("fov_y_deg", -10.0, ["--fov", "-10"], 2),
        ("fov_y_deg", 180.0, ["--fov", "180"], 2),
        ("position", [float("nan"), -2.8, 0.9], ["--camera-pos", "nan", "-2.8", "0.9"], 2),
        ("look_at", [0.0, float("inf"), 0.0], ["--look-at", "0", "inf", "0"], 2),
    ], ids=["width_0", "height_-3", "width_2.7", "fov_nan", "fov_0", "fov_-10", "fov_180",
            "position_nan", "look_at_inf"])
    def test_bad_camera_is_rejected(self, workdir, scene_file, capsys, key, value, flags,
                                    flag_code):
        # Each once in the scene's camera block and once as a flag; a count
        # flag that is not a positive integer is a usage error.
        data = json.loads(pathlib.Path(scene_file).read_text())
        data["camera"][key] = value
        path = workdir / f"bad_camera_{key}.json"
        path.write_text(json.dumps(data))
        out = workdir / "never_written.pfm"
        for argv, code, prefix in (([str(path)], 2, "error: camera"),
                                   ([scene_file] + flags, flag_code,
                                    "usage error:" if flag_code == 1 else "error: camera")):
            assert cli.main(["render"] + argv + ["--mode", "albedo", "-o", str(out)]) == code
            assert capsys.readouterr().err.startswith(prefix)
            assert not out.exists()

    @pytest.mark.parametrize("key", ["primary_steps", "secondary_steps"])
    @pytest.mark.parametrize("value", [2.7, True])
    def test_march_steps_must_be_integers(self, workdir, scene_file, capsys, key, value):
        data = json.loads(pathlib.Path(scene_file).read_text())
        data["march"][key] = value
        path = workdir / f"bad_march_{key}.json"
        path.write_text(json.dumps(data))
        out = workdir / "never_written.pfm"
        assert cli.main(["render", str(path), "--mode", "albedo", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: march.{key} must be a positive integer")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("radius", "1.0"), ("density_scale", True),
                                            ("center", ["0", 0, 0])])
    def test_non_number_scene_value_is_runtime_error(self, workdir, scene_file, capsys, key,
                                                     value):
        # These used to render with exit 0: float("1.0") and float(True) succeed.
        data = json.loads(pathlib.Path(scene_file).read_text())
        data["primitives"][0][key] = value
        path = workdir / f"non_number_{key}.json"
        path.write_text(json.dumps(data))
        out = workdir / "never_written.pfm"
        assert cli.main(["render", str(path), "--mode", "albedo", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: primitives[0].{key} must be")
        assert not out.exists()

    def test_camera_block_must_be_an_object(self, workdir, capsys):
        data = sphere_scene_dict()
        data["camera"] = [0.0, -2.8, 0.9]
        path = workdir / "list_camera.json"
        path.write_text(json.dumps(data))
        assert cli.main(["render", str(path), "--mode", "albedo",
                         "-o", str(workdir / "never_written.pfm")]) == 2
        assert capsys.readouterr().err == "error: camera must be a JSON object\n"

    def test_reruns_and_threads_byte_identical(self, workdir, scene_file, light_file):
        paths = [workdir / f"lit_{tag}.pfm" for tag in ("a", "b", "t4")]
        base = ["render", scene_file, "--env", light_file, "--width", "6",
                "--height", "6", "--transfer-grid", "8", "16"]
        assert cli.main(base + ["--threads", "1", "-o", str(paths[0])]) == 0
        assert cli.main(base + ["--threads", "1", "-o", str(paths[1])]) == 0
        assert cli.main(base + ["--threads", "4", "-o", str(paths[2])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == paths[2].read_bytes()

    def test_cache_render_and_stale_cache(self, workdir, scene_file, light_file,
                                          capsys):
        cache = str(workdir / "render_cache.bin")
        assert cli.main(["bake", scene_file, "--points", "8",
                         "--resolution", "16", "32", "-o", cache]) == 0
        out = workdir / "cached_lit.pfm"
        assert cli.main(["render", scene_file, "--env", light_file,
                         "--cache", cache, "--width", "6", "--height", "6",
                         "-o", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        stale = workdir / "sphere_stale.json"
        data = sphere_scene_dict()
        data["camera"] = {"position": [0.0, -2.8, 0.9], "look_at": [0.0, 0.0, 0.0]}
        data["primitives"][0]["density_scale"] = 7.0
        stale.write_text(json.dumps(data))
        code = cli.main(["render", str(stale), "--env", light_file,
                         "--cache", cache, "-o", str(workdir / "y.pfm")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {cache}.json: transfer cache was baked for a different scene\n"

    def test_cache_degree_mismatch(self, workdir, scene_file, light_file, capsys):
        # A degree-2 cache cannot shade under the degree-4 light, but the
        # channels that use no transfer still render.
        cache = str(workdir / "degree2_cache.bin")
        assert cli.main(["bake", scene_file, "--points", "8", "--degree", "2",
                         "--resolution", "8", "16", "-o", cache]) == 0
        base = ["render", scene_file, "--env", light_file, "--cache", cache,
                "--width", "4", "--height", "4"]
        for mode in ("albedo", "normal", "visibility"):
            out = workdir / f"degree2_{mode}.pfm"
            assert cli.main(base + ["--mode", mode, "-o", str(out)]) == 0
            assert out.exists()
        capsys.readouterr()
        out = workdir / "degree2_lit.pfm"
        assert cli.main(base + ["--mode", "lit", "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: transfer cache degree 2 does not match light degree 4\n"
        assert not out.exists()


    @pytest.mark.parametrize("broken", ["no_radius", "nan_softness"])
    def test_malformed_primitive_is_runtime_error(self, workdir, light_file, capsys, broken):
        # json.dumps writes the NaN literal that json.load reads back.
        data = sphere_scene_dict()
        if broken == "no_radius":
            del data["primitives"][0]["radius"]
        else:
            data["primitives"][0]["softness"] = float("nan")
        path = workdir / f"{broken}.json"
        path.write_text(json.dumps(data))
        code = cli.main(["render", str(path), "--mode", "albedo", "--camera-pos", "0", "-3", "0",
                         "--look-at", "0", "0", "0", "-o", str(workdir / "bad.pfm")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: primitives[0]") and "Traceback" not in err
        assert not (workdir / "bad.pfm").exists()
        for command in (["bake", str(path), "-o", str(workdir / "bad.bin")],
                        ["validate", str(path), "--env", light_file]):
            assert cli.main(command) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: primitives[0]")

    def test_bounds_radius_whose_square_overflows(self, workdir, light_file, capsys):
        # The square used to be a Python float power, which raised
        # OverflowError: a traceback and exit 1 in every mode and in bake.
        data = sphere_scene_dict()
        data["bounds"]["radius"] = 1e160
        path = workdir / "huge_bounds.json"
        path.write_text(json.dumps(data))
        out = workdir / "never_written.pfm"
        commands = [["render", str(path), "--env", light_file, "--mode", mode, "--width", "4",
                     "--height", "4", "--camera-pos", "0", "-3", "0", "--look-at", "0", "0", "0",
                     "-o", str(out)] for mode in render.MODES]
        commands.append(["bake", str(path), "--points", "4", "-o", str(workdir / "bad.bin")])
        for command in commands:
            assert cli.main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: bounds.radius must have a finite square")
            assert "Traceback" not in err
        assert not out.exists() and not (workdir / "bad.bin").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as for project-env above
    @pytest.mark.parametrize("edit, width, height", [
        (("primitives", 0, "density_scale", 1e300), 24, 18),  # optical depth overflows
        (("bounds", "radius", 1e150), 16, 12),  # radius2 overflows float32 in the bake
    ], ids=["density_scale", "bounds_radius"])
    def test_non_finite_image_writes_nothing(self, workdir, light_file, capsys, edit, width,
                                             height):
        # Both used to exit 0 with a PFM of non-finite floats that read_pfm
        # rejects.
        data = json.loads(EXAMPLE_SCENE.read_text())
        node = data
        for key in edit[:-2]:
            node = node[key]
        node[edit[-2]] = edit[-1]
        path = workdir / f"overflow_{edit[-2]}.json"
        path.write_text(json.dumps(data))
        outs = [workdir / name for name in ("overflow.pfm", "overflow.ppm", "overflow_a.ppm")]
        code = cli.main(["render", str(path), "--env", light_file, "--mode", "lit",
                         "--width", str(width), "--height", str(height), "--threads", "1",
                         "-o", str(outs[0]), "--srgb", str(outs[1]), "--alpha", str(outs[2])])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: the rendered image is not finite")
        assert not any(out.exists() for out in outs)


    @pytest.mark.parametrize("mode", ["albedo", "visibility"])
    def test_image_past_float32_writes_nothing(self, workdir, light_file, capsys, mode):
        # density_scale 1e300 gives a finite float64 image whose values lie
        # past float32's range: the PFM used to hold inf, with exit 0 and
        # numpy's cast warning (an error under this suite's warning filter).
        data = json.loads(EXAMPLE_SCENE.read_text())
        data["primitives"][0]["density_scale"] = 1e300
        path = workdir / "huge_density_scale.json"
        path.write_text(json.dumps(data))
        out = workdir / f"huge_{mode}.pfm"
        assert cli.main(["render", str(path), "--env", light_file, "--mode", mode,
                         "--width", "16", "--height", "12", "--threads", "1",
                         "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot write a sample that is not finite in float32")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_normal_render_where_the_gradient_square_overflows(self, workdir, light_file):
        # density_scale 1e300 gives finite gradients whose squared length
        # overflows: normals used to come out zero yet valid, with numpy's
        # overflow warning on stderr. Run in a fresh interpreter, as a user
        # runs it.
        data = json.loads(EXAMPLE_SCENE.read_text())
        data["primitives"][0]["density_scale"] = 1e300
        path = workdir / "huge_density_normals.json"
        path.write_text(json.dumps(data))
        out = workdir / "huge_normal.pfm"
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "prtvol.cli", "render", str(path), "--env", light_file,
             "--mode", "normal", "--width", "16", "--height", "12", "-o", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0 and done.stderr == ""
        assert np.isfinite(imageio.read_pfm(str(out))).all()

    @pytest.mark.parametrize("broken", ["no_channels", "no_degree", "nan_coefficient",
                                        "string_degree"])
    def test_malformed_light_is_runtime_error(self, workdir, scene_file, light_file, capsys,
                                              broken):
        data = json.loads(open(light_file).read())
        if broken == "no_channels":
            del data["channels"]
        elif broken == "no_degree":
            del data["degree"]
        elif broken == "nan_coefficient":
            data["channels"][0][3] = float("nan")
        else:
            data["degree"] = "4"
        light = workdir / f"light_{broken}.json"
        light.write_text(json.dumps(data))
        out = workdir / f"light_{broken}.pfm"
        for command in (["render", scene_file, "--env", str(light), "-o", str(out)],
                        ["validate", scene_file, "--env", str(light), "-o", str(out)]):
            assert cli.main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {light}: ShLight") and "Traceback" not in err
            assert not out.exists()

    def test_sidecar_without_count_is_runtime_error(self, workdir, scene_file, light_file,
                                                    capsys):
        cache = str(workdir / "no_count.bin")
        assert cli.main(["bake", scene_file, "--points", "3", "--resolution", "16", "32",
                         "-o", cache]) == 0
        sidecar = json.loads(open(cache + ".json").read())
        del sidecar["count"]
        with open(cache + ".json", "w") as f:
            json.dump(sidecar, f)
        capsys.readouterr()
        out = workdir / "no_count.pfm"
        assert cli.main(["render", scene_file, "--env", light_file, "--cache", cache,
                         "-o", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cache}.json: transfer cache sidecar missing field 'count'\n"
        assert not out.exists()


    @pytest.mark.parametrize("column", [0, 4, 10], ids=["position", "normal", "coeff"])
    def test_non_finite_cache_record_is_runtime_error(self, workdir, scene_file, light_file,
                                                       capsys, column):
        # A NaN coefficient used to render a NaN image with exit 0, and a NaN
        # position sent every anchor to record 0.
        cache = str(workdir / f"nan_{column}.bin")
        assert cli.main(["bake", scene_file, "--points", "3", "--resolution", "16", "32",
                         "-o", cache]) == 0
        rows = np.fromfile(cache, dtype="<f8").reshape(3, -1)
        rows[2, column] = np.nan
        rows.tofile(cache)
        capsys.readouterr()
        out = workdir / f"nan_{column}.pfm"
        assert cli.main(["render", scene_file, "--env", light_file, "--cache", cache,
                         "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cache}: transfer cache record 2 is not finite\n"
        assert not out.exists()

    def test_light_above_max_degree_fails_on_load(self, workdir, scene_file, monkeypatch,
                                                 capsys):
        # A degree-9 light used to march the first ray chunk (render) or
        # probe every point (validate) before sh rejected its degree.
        light = workdir / "light_d9.json"
        light.write_text(json.dumps({"degree": 9, "channels": [[0.1] * 100] * 3}))
        calls = []

        def spy(name):
            real = getattr(transport, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(transport, name, wrapped)

        spy("primary_march")
        spy("sample_surface_points")
        out = workdir / "never_written"
        for command in ("render", "validate"):
            assert cli.main([command, scene_file, "--env", str(light), "-o", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"error: {light}: ShLight degree must be an integer in [0, 8], got 9\n"
        assert calls == [] and not out.exists()


@pytest.fixture(scope="module")
def sparse_scene_file(workdir):
    """A small sphere off center that most probe rays miss."""
    path = workdir / "sparse.json"
    path.write_text(json.dumps({
        "bounds": {"center": [0.0, 0.0, 0.0], "radius": 4.0},
        "march": {"primary_steps": 96},
        "primitives": [{"type": "sphere", "center": [0.9, 0.0, 0.0], "radius": 0.08,
                        "softness": 0.06, "density_scale": 30.0}]}))
    return str(path)


class TestShortfall:
    def test_bake_warns_and_writes_what_it_found(self, workdir, sparse_scene_file, capsys):
        found = len(transport.sample_surface_points(field.load_scene(sparse_scene_file), 10)[0])
        assert 0 < found < 10
        out = str(workdir / "sparse.bin")
        assert cli.main(["bake", sparse_scene_file, "--points", "10", "--resolution", "16",
                         "32", "-o", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: found {found} of 10 requested surface points\n"
        assert f"baked {found} points" in captured.out
        assert transport.load_transfer_cache(out).positions.shape == (found, 3)

    def test_validate_warns(self, workdir, sparse_scene_file, light_file, capsys):
        found = len(transport.sample_surface_points(field.load_scene(sparse_scene_file), 10)[0])
        assert 0 < found < 10
        out = workdir / "sparse_report.json"
        assert cli.main(["validate", sparse_scene_file, "--env", light_file, "--points", "10",
                         "--mc-samples", "100", "--grid", "16", "32", "-o", str(out)]) == 0
        assert capsys.readouterr().err == \
            f"warning: found {found} of 10 requested surface points\n"
        assert json.loads(out.read_text())["aggregate"]["points"] == found

    def test_no_warning_when_every_point_is_found(self, workdir, scene_file, capsys):
        assert cli.main(["bake", scene_file, "--points", "4", "--resolution", "16", "32",
                         "-o", str(workdir / "full.bin")]) == 0
        assert capsys.readouterr().err == ""


class TestValidate:
    def test_report_file_and_table(self, workdir, scene_file, light_file, capsys):
        out = workdir / "report.json"
        code = cli.main(["validate", scene_file, "--env", light_file,
                         "--points", "2", "--mc-samples", "400",
                         "--grid", "16", "32", "-o", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "nrt_residual" in text and "wrote" in text
        report = json.loads(out.read_text())
        assert report["aggregate"]["points"] == 2
        assert len(report["entries"]) == 2
        want = np.mean([e["nrt_residual_mean"] for e in report["entries"]])
        assert abs(report["aggregate"]["nrt_residual_mean"] - want) < 1e-15

    def test_reruns_and_threads_byte_identical(self, workdir, scene_file, light_file):
        a = workdir / "report_a.json"
        b = workdir / "report_b.json"
        base = ["validate", scene_file, "--env", light_file, "--points", "2",
                "--mc-samples", "200", "--grid", "16", "32"]
        assert cli.main(base + ["--threads", "1", "-o", str(a)]) == 0
        assert cli.main(base + ["--threads", "2", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_payload_without_output_flag(self, scene_file, light_file, capsys):
        code = cli.main(["validate", scene_file, "--env", light_file,
                         "--points", "1", "--mc-samples", "100",
                         "--grid", "16", "32"])
        assert code == 0
        assert '"aggregate"' in capsys.readouterr().out

    @pytest.mark.parametrize("degree, want", [(0, [0]), (1, [1]), (2, [2]), (3, [2, 3])])
    def test_low_degree_scores_its_own_bands(self, degree, want, workdir, scene_file,
                                             light_file):
        out = workdir / f"report_d{degree}.json"
        assert cli.main(["validate", scene_file, "--env", light_file, "--degree", str(degree),
                         "--points", "1", "--mc-samples", "100", "--grid", "8", "16",
                         "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["degrees"] == want
        assert list(report["aggregate"]["visibility_l2"]) == [str(d) for d in want]

    def test_light_below_degree_fails_before_sampling(self, workdir, scene_file, monkeypatch,
                                                      capsys):
        light = workdir / "light_d2.json"
        envlight.save_sh_light(str(light), lobe_sh_light(degree=2))

        def never(*args, **kwargs):
            raise AssertionError("probed surface points")
        monkeypatch.setattr(transport, "sample_surface_points", never)
        out = workdir / "never_written"
        assert cli.main(["validate", scene_file, "--env", str(light), "--degree", "4",
                         "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --degree 4 ") and "degree 2" in err
        assert not out.exists()

    def test_truncated_json_names_its_file(self, workdir, scene_file, light_file, capsys):
        # validate reads a scene and a light; the error says which one is broken.
        broken = workdir / "truncated.json"
        broken.write_text('{"bounds": ')
        out = workdir / "never_written"
        for argv in ([str(broken), "--env", light_file], [scene_file, "--env", str(broken)]):
            assert cli.main(["validate", *argv, "-o", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"error: {broken}: Expecting value: line 1 column 12 (char 11)\n"
        assert not out.exists()


class TestMarchFlags:
    """--steps and --secondary-steps act as a per-run copy of the scene's march block."""

    N, M = 96, 24

    @pytest.fixture(scope="class")
    def edited_files(self, workdir, scene_file):
        """Copies of scene_file whose march block holds N and M, and M alone."""
        paths = {}
        for tag, march in (("both", {"primary_steps": self.N, "secondary_steps": self.M}),
                           ("secondary", {"secondary_steps": self.M})):
            data = json.loads(pathlib.Path(scene_file).read_text())
            data["march"].update(march)
            paths[tag] = workdir / f"sphere_{tag}.json"
            paths[tag].write_text(json.dumps(data))
        return {tag: str(p) for tag, p in paths.items()}

    def test_render_flags_equal_an_edited_march_block(self, workdir, scene_file, light_file,
                                                      edited_files):
        cache = workdir / "march_cache.bin"
        assert cli.main(["bake", scene_file, "--points", "8", "--resolution", "8", "16",
                         "-o", str(cache)]) == 0
        # The same records, with a sidecar for the edited file.
        edited_cache = workdir / "march_cache_edited.bin"
        edited_cache.write_bytes(cache.read_bytes())
        sidecar = json.loads(pathlib.Path(str(cache) + ".json").read_text())
        sidecar["scene_hash"] = field.scene_hash(field.load_scene(edited_files["both"]))
        pathlib.Path(str(edited_cache) + ".json").write_text(json.dumps(sidecar))
        flags = ["--steps", str(self.N), "--secondary-steps", str(self.M)]
        base = ["render", "--env", light_file, "--width", "6", "--height", "6",
                "--transfer-grid", "8", "16"]
        runs = {"uncached": ([], []),
                "cached": (["--cache", str(cache)], ["--cache", str(edited_cache)])}
        for tag, (flag_cache, file_cache) in runs.items():
            by_flags, by_file = workdir / f"flags_{tag}.pfm", workdir / f"file_{tag}.pfm"
            assert cli.main(base + [scene_file] + flags + flag_cache + ["-o", str(by_flags)]) == 0
            assert cli.main(base + [edited_files["both"]] + file_cache
                            + ["-o", str(by_file)]) == 0
            assert by_flags.read_bytes() == by_file.read_bytes(), tag
        plain = workdir / "plain_uncached.pfm"
        assert cli.main(base + [scene_file, "-o", str(plain)]) == 0
        assert plain.read_bytes() != (workdir / "flags_uncached.pfm").read_bytes()

    def test_bake_keeps_the_file_scene_hash(self, workdir, scene_file, light_file,
                                            edited_files):
        # A cache baked with --secondary-steps holds the records a bake of
        # the edited file gives, under the unedited file's scene hash.
        by_flags, by_file = workdir / "ss_flags.bin", workdir / "ss_file.bin"
        base = ["bake", "--points", "8", "--resolution", "8", "16"]
        assert cli.main(base + [scene_file, "--secondary-steps", str(self.M),
                                "-o", str(by_flags)]) == 0
        assert cli.main(base + [edited_files["secondary"], "-o", str(by_file)]) == 0
        assert by_flags.read_bytes() == by_file.read_bytes()
        sidecar = json.loads(pathlib.Path(str(by_flags) + ".json").read_text())
        assert sidecar["scene_hash"] == field.scene_hash(field.load_scene(scene_file))
        out = workdir / "ss_cached.pfm"
        assert cli.main(["render", scene_file, "--env", light_file, "--cache", str(by_flags),
                         "--width", "4", "--height", "4", "-o", str(out)]) == 0

    def test_validate_echoes_the_flag(self, workdir, scene_file, light_file, edited_files):
        base = ["validate", "--env", light_file, "--points", "2", "--mc-samples", "100",
                "--grid", "8", "16"]
        reports = {}
        for tag, argv in (("flags", [scene_file, "--secondary-steps", str(self.M)]),
                          ("file", [edited_files["secondary"]]), ("plain", [scene_file])):
            out = workdir / f"march_report_{tag}.json"
            assert cli.main(base + argv + ["-o", str(out)]) == 0
            reports[tag] = json.loads(out.read_text())
        assert reports["flags"]["config"]["secondary_steps"] == self.M
        assert reports["file"]["config"]["secondary_steps"] is None
        assert reports["plain"]["config"]["secondary_steps"] is None
        assert reports["flags"]["entries"] == reports["file"]["entries"]
        assert reports["flags"]["entries"] != reports["plain"]["entries"]


@pytest.fixture(scope="module")
def map_files(workdir):
    ys, xs = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
    n = np.stack([np.sin(0.3 * xs), np.cos(0.25 * ys), np.full((8, 8), 2.0)],
                 axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    a = workdir / "nm_a.pfm"
    b = workdir / "nm_b.pfm"
    imageio.write_pfm(str(a), n)
    imageio.write_pfm(str(b), n)
    mask = workdir / "nm_mask.pfm"
    imageio.write_pfm(str(mask), np.full((8, 8), 0.5))
    return str(a), str(b), str(mask)


class TestMetrics:
    def test_identical_maps_json(self, map_files, capsys):
        a, b, _ = map_files
        assert cli.main(["metrics", a, b]) == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {"cosine_similarity", "laplacian_l1",
                               "blur_sigma", "mask_normalized"}
        assert abs(result["cosine_similarity"] - 1.0) < 1e-5
        assert result["laplacian_l1"] == 0.0
        assert result["blur_sigma"] == 1.0
        assert result["mask_normalized"] is False

    def test_mask_and_crop_flags(self, map_files, capsys):
        a, b, mask = map_files
        code = cli.main(["metrics", a, b, "--mask-a", mask, "--mask-b", mask,
                         "--mask-normalized", "--crop", "0", "0", "4", "4",
                         "--resize", "4", "--sigma", "0.8"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert abs(result["cosine_similarity"] - 1.0) < 1e-5
        assert result["mask_normalized"] is True
        assert result["blur_sigma"] == 0.8

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "wide"])
    def test_bad_sigma_is_usage_error(self, map_files, value, capsys):
        a, b, _ = map_files
        assert cli.main(["metrics", a, b, "--sigma", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --sigma:") and "Traceback" not in err

    def test_grayscale_map_is_runtime_error(self, workdir, map_files, capsys):
        _, b, mask = map_files
        assert cli.main(["metrics", mask, b]) == 2
        assert "error:" in capsys.readouterr().err


class TestTopLevel:
    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["polish"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, attr, want", [
        (["--exposure", "-1e-05"], "exposure", -1e-05),
        (["--exposure=-1e-05"], "exposure", -1e-05),
        (["--exposure", "-2.5E+3"], "exposure", -2500.0),
        (["--camera-pos", "0", "-1e-3", "2"], "camera_pos", [0.0, -1e-3, 2.0]),
        (["--camera-pos", "-1E1", "-.5", "-2."], "camera_pos", [-10.0, -0.5, -2.0]),
    ], ids=["exposure", "exposure_equals", "exposure_upper_e", "camera_pos", "camera_pos_forms"])
    def test_negative_numbers_in_exponent_form_are_values(self, flags, attr, want):
        # argparse used to take "-1e-05" for an option: "expected one argument".
        assert getattr(cli.build_parser().parse_args(["render", "S", *flags]), attr) == want

    def test_bad_mode_choice_is_usage_error(self, scene_file, capsys):
        code = cli.main(["render", scene_file, "--mode", "sparkle", "-o", "x.pfm"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_subcommand_help_lists_defaults(self, capsys):
        assert cli.main(["render", "--help"]) == 0
        assert "(default: lit)" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["render", "SCENE", "--mode", "albedo", "--exposure", "nan", "--srgb", "OUT"],
        ["render", "SCENE", "--mode", "albedo", "--exposure", "inf", "--srgb", "OUT"],
        ["render", "SCENE", "--mode", "albedo", "--exposure", "-inf", "--srgb", "OUT"],
        ["project-env", "ENV", "--exposure", "nan", "-o", "OUT"],
        ["metrics", "MAP", "MAP", "--crop", "0", "0", "4", "4", "--resize", "0"],
        ["metrics", "MAP", "MAP", "--crop", "0", "0", "4", "4", "--resize", "-5"],
    ], ids=["render_exposure_nan", "render_exposure_inf", "render_exposure_-inf",
            "project_env_exposure_nan", "metrics_resize_0", "metrics_resize_-5"])
    def test_bad_flag_value_is_usage_error(self, argv, scene_file, envmap_file, map_files,
                                           workdir, capsys):
        out = workdir / "never_written"
        files = {"SCENE": scene_file, "ENV": envmap_file, "MAP": map_files[0], "OUT": str(out)}
        assert cli.main([files.get(a, a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, callee", [
        ("project-env", (envlight, "project_to_sh")),
        ("bake", (transport, "sample_surface_points")),
        ("render", (render, "render_image")),
    ])
    def test_out_of_memory_is_runtime_error(self, command, callee, scene_file, light_file,
                                            envmap_file, workdir, monkeypatch, capsys):
        # Stands in for a resolution or image size too large to allocate.
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 224. GiB for an array")
        monkeypatch.setattr(*callee, exhausted)
        out = workdir / "never_written"
        base = {"render": [scene_file, "--env", light_file],
                "bake": [scene_file],
                "project-env": [envmap_file]}[command]
        assert cli.main([command] + base + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "224. GiB" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bake", "validate"])
    def test_negative_seed_is_usage_error(self, command, scene_file, light_file, workdir,
                                          capsys):
        out = workdir / "never_written"
        base = {"bake": [scene_file], "validate": [scene_file, "--env", light_file]}[command]
        assert cli.main([command] + base + ["--seed", "-3", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --seed: ") and "-3" in err
        assert not out.exists()

    @pytest.mark.parametrize("degree", ["9", "-1"])
    @pytest.mark.parametrize("command", ["project-env", "bake", "render", "validate"])
    def test_degree_out_of_range_is_usage_error(self, command, degree, scene_file, light_file,
                                                envmap_file, workdir, monkeypatch, capsys):
        # Rejected while parsing, before bake probes any surface point.
        def never(*args, **kwargs):
            raise AssertionError("probed surface points")
        monkeypatch.setattr(transport, "sample_surface_points", never)
        out = workdir / "never_written"
        base = {"render": [scene_file, "--env", light_file],
                "bake": [scene_file],
                "validate": [scene_file, "--env", light_file],
                "project-env": [envmap_file]}[command]
        assert cli.main([command] + base + ["--degree", degree, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --degree: ") and degree in err
        assert "[0, 8]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("render", ["--steps", "0"]),
        ("render", ["--secondary-steps", "-1"]),
        ("render", ["--width", "0"]),
        ("render", ["--height", "0"]),
        ("render", ["--anchors", "0"]),
        ("render", ["--threads", "0"]),
        ("render", ["--transfer-grid", "0", "32"]),
        ("bake", ["--points", "0"]),
        ("bake", ["--secondary-steps", "0"]),
        ("bake", ["--resolution", "16", "0"]),
        ("bake", ["--threads", "-3"]),
        ("validate", ["--points", "0"]),
        ("validate", ["--mc-samples", "0"]),
        ("validate", ["--secondary-steps", "0"]),
        ("validate", ["--grid", "0", "8"]),
        ("validate", ["--threads", "0"]),
        ("project-env", ["--resolution", "-8", "16"]),
        # Grids below the 8x16 quadrature minimum fail before any work.
        *((command, [flag, h, w]) for command, flag in (
            ("project-env", "--resolution"), ("bake", "--resolution"), ("validate", "--grid"),
            ("render", "--transfer-grid")) for h, w in (("4", "4"), ("7", "16"), ("8", "15"))),
        ("render", ["--transfer-grid", "8", "15", "--mode", "albedo"]),
    ])
    def test_non_positive_count_is_usage_error(self, command, flags, scene_file, light_file,
                                               envmap_file, workdir, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("probed surface points")
        monkeypatch.setattr(transport, "sample_surface_points", never)
        out = workdir / "never_written"
        base = {"render": [scene_file, "--env", light_file],
                "bake": [scene_file],
                "validate": [scene_file, "--env", light_file],
                "project-env": [envmap_file]}[command]
        assert cli.main([command] + base + flags + ["-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flags[0]}: ")
        if flags[0] in ("--resolution", "--grid", "--transfer-grid") and \
                min(int(v) for v in flags[1:3]) > 0:
            assert f"grid {flags[1]}x{flags[2]} below minimum 8x16" in err
        assert not out.exists()


class TestHugeValues:
    """Counts past field.MAX_COUNT, and values too long to print, end in one short line."""

    @staticmethod
    def assert_one_short_line(capsys, prefix, bound):
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1 and len(err) < 200
        assert bound in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, digits", [("--anchors", 21), ("--secondary-steps", 23),
                                              ("--steps", 400)])
    def test_huge_count_flag_is_usage_error(self, workdir, scene_file, light_file, capsys,
                                            flag, digits):
        # These ended in an OverflowError traceback with exit 1.
        out = workdir / "never_written.pfm"
        assert cli.main(["render", scene_file, "--env", light_file, flag, "9" * digits,
                         "-o", str(out)]) == 1
        self.assert_one_short_line(capsys, f"usage error: argument {flag}: ", "up to 2147483647")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("secondary_steps", 10**23),
                                            ("primary_steps", 10**400)],
                             ids=["secondary_steps_1e23", "primary_steps_1e400"])
    def test_huge_march_steps_is_runtime_error(self, workdir, scene_file, light_file, capsys,
                                               key, value):
        data = json.loads(pathlib.Path(scene_file).read_text())
        data["march"][key] = value
        path = workdir / f"huge_{key}.json"
        path.write_text(json.dumps(data))
        out = workdir / "never_written.pfm"
        assert cli.main(["render", str(path), "--env", light_file, "-o", str(out)]) == 2
        self.assert_one_short_line(capsys, f"error: {path}: march.{key} must be",
                                   "up to 2147483647")
        assert not out.exists()

    def test_huge_cache_count_is_runtime_error(self, workdir, scene_file, light_file, capsys):
        cache = workdir / "huge_count.bin"
        cache.write_bytes(b"")
        pathlib.Path(f"{cache}.json").write_text(json.dumps(
            {"degree": 4, "count": 10**400, "scene_hash": "0" * 64}))
        out = workdir / "never_written.pfm"
        assert cli.main(["render", scene_file, "--env", light_file, "--cache", str(cache),
                         "-o", str(out)]) == 2
        self.assert_one_short_line(capsys, f"error: {cache}.json: transfer cache count ",
                                   "up to 2147483647")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["render", "bake", "validate"])
    def test_optical_depth_past_float64_runs_silently(self, workdir, light_file, command):
        # density_scale 1e308 sums optical depths past float64's range. They
        # are inf, so transmittance 0, yet numpy's overflow warnings reached
        # stderr of runs that exit 0. Run in a fresh interpreter, as a user
        # runs it.
        data = json.loads(EXAMPLE_SCENE.read_text())
        data["primitives"][0]["density_scale"] = 1e308
        path = workdir / "depth_overflow.json"
        path.write_text(json.dumps(data))
        out = workdir / f"depth_overflow_{command}.out"
        flags = {"render": ["--env", light_file, "--mode", "normal", "--width", "16",
                            "--height", "12"],
                 "bake": ["--points", "16"],
                 "validate": ["--env", light_file, "--points", "4", "--mc-samples", "200",
                              "--grid", "16", "32"]}[command]
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "prtvol.cli", command, str(path), *flags, "--threads", "1",
             "-o", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0 and done.stderr == "", done.stderr
        if command == "render":
            assert np.isfinite(imageio.read_pfm(str(out))).all()
        elif command == "bake":
            cache = transport.load_transfer_cache(str(out), field.load_scene(str(path)))
            assert cache.coeffs.shape == (16, 25)
        else:
            json.loads(out.read_text(), parse_constant=pytest.fail)


# Flag text and the value a JSON file holds for it.
RULE_VALUES = [("0", 0), ("-1", -1), ("1", 1), ("8", 8), ("9", 9), (str(2**31 - 1), 2**31 - 1),
               (str(2**31), 2**31), (str(10**400), 10**400), ("2.7", 2.7), ("3.0", 3.0),
               ("-0.5", -0.5), ("1e300", 1e300), ("true", True), ("nan", math.nan),
               ("inf", math.inf), ("-inf", -math.inf), ("wide", "wide")]

# Each rule shared by a flag and a file field: the flag's argv (its text
# goes in at {}), its parsed attribute, and the value the file reader takes
# from a field holding v. --sigma and the grid flags have no file field.
SHARED_RULES = {
    "count: march steps": (
        ["render", "S", "--steps={}"], "steps",
        lambda v: field.scene_from_dict(
            {**sphere_scene_dict(), "march": {"primary_steps": v}}).march.primary_steps),
    "count: cache count": (
        ["render", "S", "--anchors={}"], "anchors",
        lambda v: transport._sidecar({"degree": 0, "count": v, "scene_hash": ""}, None)[1]),
    "count: camera width": (
        ["render", "S", "--width={}"], "width",
        lambda v: render.Camera(position=(0.0, -3.0, 0.0), look_at=(0.0, 0.0, 0.0),
                                width=v).width),
    "degree: cache degree": (
        ["bake", "S", "-o", "C", "--degree={}"], "degree",
        lambda v: transport._sidecar({"degree": v, "count": 1, "scene_hash": ""}, None)[0]),
    "finite: light channel": (
        ["project-env", "E", "-o", "L", "--exposure={}"], "exposure",
        lambda v: envlight.ShLight.from_dict({"degree": 0, "channels": [[v]] * 3}).coeffs[0, 0]),
}

PARSER = cli.build_parser()


@st.composite
def flag_values(draw):
    """(flag text, file value) pairs: the fixed cases, integers and floats."""
    kind = draw(st.sampled_from(["fixed", "int", "float"]))
    if kind == "fixed":
        return draw(st.sampled_from(RULE_VALUES))
    if kind == "int":
        v = draw(st.integers(-2**40, 2**40) | st.integers(2**31 - 3, 2**31 + 3))
        return str(v), v
    v = draw(st.floats())
    return repr(v), v


@pytest.mark.parametrize("rule", sorted(SHARED_RULES))
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(pair=flag_values())
def test_flag_accepts_what_the_file_field_accepts(rule, pair):
    # Parsing alone; the flag text goes in as --flag=text so that argparse
    # takes "-1e-05" for a value rather than an option.
    argv, attr, read = SHARED_RULES[rule]
    text, value = pair
    try:
        flag = getattr(PARSER.parse_args([a.format(text) for a in argv]), attr)
    except cli._UsageError:
        flag = None
    try:
        from_file = read(value)
    except ValueError:
        from_file = None
    assert flag == from_file

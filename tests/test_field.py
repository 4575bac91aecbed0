import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtvol import field
from conftest import (SLAB_SIGMA, blocker_scene_dict, random_unit_dirs, slab_scene_dict,
                      sphere_scene_dict)


def smoothstep_density(dist, scale, softness):
    """Fresh copy of the density profile for cross-checking."""
    t = np.clip((dist + 0.5 * softness) / softness, 0.0, 1.0)
    return scale * (1.0 - t * t * (3.0 - 2.0 * t))


def two_sphere_ramp_scene():
    """Two wide overlapping spheres with opposing albedos.

    The shells are broad (softness 1.5), so at the midpoint both densities
    still vary and the blended albedo ramps along x.
    """
    return field.scene_from_dict(
        {
            "bounds": {"center": [0.0, 0.0, 0.0], "radius": 6.0},
            "primitives": [
                {
                    "type": "sphere", "center": [-0.5, 0.0, 0.0], "radius": 1.0,
                    "density_scale": 3.0, "softness": 1.5,
                    "albedo": [1.0, 0.0, 0.0], "tint": 0.0,
                },
                {
                    "type": "sphere", "center": [0.5, 0.0, 0.0], "radius": 1.0,
                    "density_scale": 3.0, "softness": 1.5,
                    "albedo": [0.0, 0.0, 1.0], "tint": 0.0,
                },
            ],
        }
    )


class TestDensity:
    def test_sphere_center_and_far_field(self, sphere_scene):
        assert field.density(sphere_scene, np.array([0.0, 0.0, 0.0])) == 6.0
        assert field.density(sphere_scene, np.array([3.0, 0.0, 0.0])) == 0.0

    def test_shell_profile_matches_reference(self, sphere_scene):
        radii = np.linspace(0.9, 1.1, 17)
        pts = np.stack([radii, np.zeros(17), np.zeros(17)], axis=1)
        got = field.density(sphere_scene, pts)
        want = smoothstep_density(radii - 1.0, 6.0, 0.1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_disjoint_primitives_add(self):
        scene = field.scene_from_dict(
            {
                "bounds": {"center": [0.0, 0.0, 0.0], "radius": 8.0},
                "primitives": [
                    {"type": "sphere", "center": [-2.0, 0.0, 0.0], "radius": 1.0,
                     "density_scale": 2.0, "softness": 0.1},
                    {"type": "sphere", "center": [2.0, 0.0, 0.0], "radius": 1.0,
                     "density_scale": 5.0, "softness": 0.1},
                ],
            }
        )
        assert field.density(scene, np.array([-2.0, 0.0, 0.0])) == 2.0
        assert field.density(scene, np.array([2.0, 0.0, 0.0])) == 5.0
        assert field.density(scene, np.array([0.0, 0.0, 0.0])) == 0.0

    def test_overlap_adds(self):
        scene = two_sphere_ramp_scene()
        a = smoothstep_density(np.hypot(0.5, 0.0) - 1.0, 3.0, 1.5)
        assert abs(field.density(scene, np.array([0.0, 0.0, 0.0])) - 2.0 * a) < 1e-12

    def test_density_zero_outside_bounds(self, slab_scene):
        # The slab extends to infinity but the bounding sphere clips it.
        assert field.density(slab_scene, np.array([3.9, 0.0, 0.0])) == SLAB_SIGMA
        assert field.density(slab_scene, np.array([5.0, 0.0, 0.0])) == 0.0

    def test_density_nonnegative(self, blocker_scene):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-4.0, 4.0, size=(2000, 3))
        assert np.all(field.density(blocker_scene, pts) >= 0.0)

    def test_lipschitz_bound_holds(self, sphere_scene):
        rng = np.random.default_rng(23)
        a = rng.uniform(-2.0, 2.0, size=(500, 3))
        b = a + rng.normal(0.0, 0.05, size=(500, 3))
        da = field.density(sphere_scene, a)
        db = field.density(sphere_scene, b)
        # The smoothstep slope peaks at 1.5 / softness, so density changes by
        # at most 1.5 * density_scale / softness per unit distance.
        lip = sum(1.5 * p.density_scale / p.softness for p in sphere_scene.primitives)
        gap = np.abs(da - db) - lip * np.linalg.norm(a - b, axis=1)
        assert np.max(gap) < 1e-9


class TestNormals:
    def test_shell_normal_is_radial(self, sphere_scene):
        n, valid = field.normals(sphere_scene, np.array([1.0, 0.0, 0.0]))
        assert n.shape == (3,) and valid.shape == () and valid
        assert np.allclose(n, [1.0, 0.0, 0.0], atol=1e-3)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12

    def test_deep_interior_has_no_normal(self, sphere_scene):
        n, valid = field.normals(sphere_scene, np.array([0.0, 0.0, 0.0]))
        assert not valid
        assert np.array_equal(n, np.zeros(3))

    def test_fd_matches_analytic_on_shell(self, sphere_scene):
        dirs = random_unit_dirs(200, seed=31)
        pts = dirs * 1.0
        got, valid = field.normals(sphere_scene, pts)
        assert np.all(valid)
        cos = np.sum(got * dirs, axis=1)
        assert np.min(cos) >= 0.999

    def test_scale_invariance(self):
        d = sphere_scene_dict()
        lo = field.scene_from_dict(d)
        d["primitives"][0]["density_scale"] = 600.0
        hi = field.scene_from_dict(d)
        dirs = random_unit_dirs(50, seed=7)
        na, va = field.normals(lo, dirs)
        nb, vb = field.normals(hi, dirs)
        assert np.all(va) and np.all(vb)
        assert np.max(np.abs(na - nb)) < 1e-6

    def test_gradient_whose_square_overflows(self):
        # At density_scale 1e300 the gradient is finite but its squared
        # length is not: the normals used to be zero vectors marked valid.
        d = sphere_scene_dict()
        lo = field.scene_from_dict(d)
        d["primitives"][0]["density_scale"] = 1e300
        hi = field.scene_from_dict(d)
        dirs = random_unit_dirs(50, seed=7)
        na, va = field.normals(lo, dirs)
        nb, vb = field.normals(hi, dirs)
        assert np.all(va) and np.all(vb)
        assert np.max(np.abs(na - nb)) < 1e-9

    def test_gradient_that_overflows_has_no_normal(self):
        d = sphere_scene_dict()
        d["primitives"][0]["density_scale"] = 1.7e308
        n, valid = field.normals(field.scene_from_dict(d), np.array([1.0, 0.0, 0.0]))
        assert not valid
        assert np.array_equal(n, np.zeros(3))

    def test_batch_shape_and_zero_fill(self, sphere_scene):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        n, valid = field.normals(sphere_scene, pts)
        assert n.shape == (2, 3)
        assert valid.tolist() == [True, False]
        assert np.array_equal(n[1], np.zeros(3))


class TestMaterial:
    def test_single_primitive_inside(self, sphere_scene):
        albedo, _ = field.material(sphere_scene, np.array([0.5, 0.0, 0.0]))
        assert np.allclose(albedo, [0.6, 0.5, 0.4], atol=1e-12)

    def test_default_outside(self, sphere_scene):
        albedo, _ = field.material(sphere_scene, np.array([3.0, 0.0, 0.0]))
        assert np.allclose(albedo, sphere_scene.default_material.albedo)

    def test_equal_overlap_blends_to_mean(self):
        scene = two_sphere_ramp_scene()
        albedo, _ = field.material(scene, np.array([0.0, 0.0, 0.0]))
        assert np.allclose(albedo, [0.5, 0.0, 0.5], atol=1e-12)

    def test_blend_stays_in_range(self, blocker_scene):
        rng = np.random.default_rng(29)
        pts = rng.uniform(-3.0, 3.0, size=(1500, 3))
        albedo, tint = field.material(blocker_scene, pts)
        assert np.all(albedo >= 0.0) and np.all(albedo <= 1.0)
        assert np.all(tint >= 0.0) and np.all(tint <= 1.0)


def albedo_jitter_residual(scene, x, samples=1024, seed=0, scale=0.03):
    """Mean L1 albedo change under gaussian position jitter of x."""
    x = np.asarray(x, dtype=np.float64)
    eps = np.random.default_rng(seed).normal(0.0, scale, size=(samples, 3))
    base, _ = field.material(scene, x)
    jit, _ = field.material(scene, x[None, :] + eps)
    return float(np.mean(np.sum(np.abs(jit - base[None, :]), axis=-1)))


class TestAlbedoSmoothness:
    def test_constant_albedo_gives_zero(self):
        # The default material matches the primitive, so the albedo field
        # is constant everywhere and the material blend must return it
        # bit-exactly at every jittered point.
        d = sphere_scene_dict()
        d["default_material"] = {"albedo": [0.6, 0.5, 0.4], "tint": 0.0}
        scene = field.scene_from_dict(d)
        r = albedo_jitter_residual(scene, [1.0, 0.0, 0.0])
        assert r == 0.0

    def test_ramp_matches_linearized_expectation(self):
        # At the midpoint of the two-sphere overlap the blended albedo is
        # locally linear, so the jitter residual should approach
        # sum_ch |grad albedo_ch| * scale * sqrt(2/pi), the mean absolute
        # value of a 1-d gaussian through each channel's ramp. The gradient
        # below comes from central differences of the material query at a
        # step much smaller than the jitter, an independent route from the
        # random jitter samples.
        scene = two_sphere_ramp_scene()
        x = np.array([0.1, 0.05, 0.0])
        h = 1e-5
        grads = np.zeros((3, 3))
        for axis in range(3):
            off = np.zeros(3)
            off[axis] = h
            ap, _ = field.material(scene, x + off)
            am, _ = field.material(scene, x - off)
            grads[:, axis] = (ap - am) / (2.0 * h)
        scale = 0.03
        want = float(np.sum(np.linalg.norm(grads, axis=1))) * scale * math.sqrt(2.0 / math.pi)
        got = albedo_jitter_residual(scene, x, samples=4096, seed=3, scale=scale)
        assert want > 0.01
        assert abs(got - want) < 0.05 * want


class TestSceneJson:
    def test_roundtrip_preserves_hash(self, blocker_scene):
        back = field.scene_from_dict(blocker_scene.to_dict())
        assert field.scene_hash(back) == field.scene_hash(blocker_scene)

    def test_hash_changes_with_parameters(self):
        a = field.scene_from_dict(sphere_scene_dict())
        d = sphere_scene_dict()
        d["primitives"][0]["radius"] = 1.25
        b = field.scene_from_dict(d)
        assert field.scene_hash(a) != field.scene_hash(b)

    def test_unknown_keys_ignored(self):
        d = sphere_scene_dict()
        d["camera"] = {"position": [0, -3, 0]}
        scene = field.scene_from_dict(d)
        assert len(scene.primitives) == 1

    def test_missing_bounds(self):
        with pytest.raises(ValueError, match="scene missing field 'bounds'"):
            field.scene_from_dict({"primitives": []})

    def test_bad_bounds_radius(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            field.scene_from_dict({"bounds": {"center": [0, 0, 0], "radius": 0.0}})

    def test_bad_march_range(self):
        d = sphere_scene_dict()
        d["march"]["t_near"] = 9.0
        with pytest.raises(ValueError, match="t_near < t_far"):
            field.scene_from_dict(d)

    def test_nonpositive_softness(self):
        d = sphere_scene_dict()
        d["primitives"][0]["softness"] = 0.0
        with pytest.raises(ValueError, match=r"primitives\[0\].softness"):
            field.scene_from_dict(d)

    def test_negative_density_scale(self):
        d = sphere_scene_dict()
        d["primitives"][0]["density_scale"] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            field.scene_from_dict(d)

    def test_albedo_out_of_range(self):
        d = sphere_scene_dict()
        d["primitives"][0]["albedo"] = [1.5, 0.0, 0.0]
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            field.scene_from_dict(d)

    def test_unknown_primitive_type(self):
        d = sphere_scene_dict()
        d["primitives"][0]["type"] = "torus"
        with pytest.raises(ValueError, match="sphere, box, or slab"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("kind", [None, [], {}, ["sphere"]])
    def test_non_string_primitive_type(self, kind):
        d = sphere_scene_dict()
        d["primitives"][0]["type"] = kind
        with pytest.raises(ValueError, match=r"primitives\[0\]\.type must be sphere, box, or slab"):
            field.scene_from_dict(d)

    def test_missing_primitive_field(self):
        d = sphere_scene_dict()
        del d["primitives"][0]["density_scale"]
        with pytest.raises(ValueError, match="missing field"):
            field.scene_from_dict(d)

    def test_docs_example_validates(self):
        path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "example_scene.json"
        scene = field.load_scene(str(path))
        assert [p.kind for p in scene.primitives] == ["sphere", "box", "slab"]
        assert scene.march.primary_steps == 192
        assert field.density(scene, np.array([0.0, 0.0, 1.0])) > 0.0


class TestSceneDict:
    def test_example_scene_hash_is_pinned(self):
        # Transfer caches store this hash; a change to the JSON form would orphan them.
        path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "example_scene.json"
        assert field.scene_hash(field.load_scene(str(path))) == \
            "b09199feb102d47ebe3940328afa32fa5da7a81cfdd90d98ea199af0098e984a"

    @pytest.mark.parametrize("kind, given, geometry", [
        ("sphere", {"center": [0, 0, 1], "radius": 2},
         {"center": [0.0, 0.0, 1.0], "radius": 2.0}),
        ("box", {"center": [1, 0, 0], "extent": [1, 2, 3]},
         {"center": [1.0, 0.0, 0.0], "extent": [1.0, 2.0, 3.0]}),
        ("slab", {"axis": [0, 0, 2], "thickness": 0.5},
         {"axis": [0.0, 0.0, 1.0], "offset": 0.0, "thickness": 0.5})])
    def test_to_dict_fills_in_defaults(self, kind, given, geometry):
        scene = field.scene_from_dict({
            "bounds": {"center": [0, 0, 0], "radius": 4},
            "primitives": [{"type": kind, "density_scale": 3, "softness": 0.1, **given}]})
        grey = {"albedo": [0.5, 0.5, 0.5], "tint": [0.0, 0.0, 0.0]}
        want = {
            "bounds": {"center": [0.0, 0.0, 0.0], "radius": 4.0},
            "default_material": grey,
            "march": {"primary_steps": 256, "secondary_steps": 64, "t_near": 0.0, "t_far": 10.0},
            "primitives": [{"type": kind, **geometry, "density_scale": 3.0, "softness": 0.1,
                            **grey}]}
        # Compared as JSON text too, so 4 and 4.0 differ as they do in the hash.
        assert scene.to_dict() == want
        assert json.dumps(scene.to_dict(), sort_keys=True) == json.dumps(want, sort_keys=True)


def one_primitive_scene(kind):
    """The fixture scene holding a single primitive of the given kind."""
    d = sphere_scene_dict()
    d["primitives"] = {"sphere": sphere_scene_dict, "box": blocker_scene_dict,
                       "slab": slab_scene_dict}[kind]()["primitives"][-1:]
    return d


class TestMalformedPrimitives:
    @pytest.mark.parametrize("kind, key", [
        ("sphere", "radius"), ("sphere", "center"), ("box", "extent"), ("box", "center"),
        ("slab", "axis"), ("slab", "thickness")])
    def test_missing_geometry_key(self, kind, key):
        d = one_primitive_scene(kind)
        del d["primitives"][0][key]
        with pytest.raises(ValueError, match=rf"primitives\[0\] missing field '{key}'"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("kind, key, value", [
        ("sphere", "radius", math.nan), ("sphere", "softness", math.nan),
        ("sphere", "density_scale", math.inf), ("sphere", "radius", math.inf),
        ("box", "softness", -math.inf), ("slab", "thickness", math.nan),
        ("slab", "offset", math.nan), ("slab", "density_scale", math.nan)])
    def test_non_finite_scalar(self, kind, key, value):
        d = one_primitive_scene(kind)
        d["primitives"][0][key] = value
        with pytest.raises(ValueError, match=rf"primitives\[0\].{key} must be finite"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("kind, key", [("sphere", "center"), ("box", "extent"),
                                           ("slab", "axis")])
    def test_non_finite_vector(self, kind, key):
        d = one_primitive_scene(kind)
        d["primitives"][0][key] = [0.0, math.nan, 1.0]
        with pytest.raises(ValueError, match=rf"primitives\[0\].{key} must be finite"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("value", [["a", 1.0, 1.0], {"x": 1.0}, [10**400, 1.0, 1.0],
                                       ["0", 0, 0], [True, 0, 0]])
    def test_non_number_vector(self, value):
        d = one_primitive_scene("box")
        d["primitives"][0]["extent"] = value
        with pytest.raises(ValueError, match=r"primitives\[0\].extent must be a 3-vector"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("value", [None, "wide", [1.0], 10**400, "1.0", True])
    def test_non_number_scalar(self, value):
        d = one_primitive_scene("sphere")
        d["primitives"][0]["radius"] = value
        with pytest.raises(ValueError, match=r"primitives\[0\].radius must be a number"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("section, key, value", [
        ("bounds", "radius", math.nan), ("bounds", "radius", math.inf),
        ("march", "t_near", math.nan), ("march", "t_far", math.inf),
        ("march", "primary_steps", math.inf), ("march", "secondary_steps", math.nan)])
    def test_non_finite_bounds_and_march(self, section, key, value):
        d = sphere_scene_dict()
        d[section][key] = value
        with pytest.raises(ValueError, match=rf"{section}.{key} must be finite"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("key", ["primary_steps", "secondary_steps"])
    @pytest.mark.parametrize("value", [2.7, 3.0, True, 0, -4])
    def test_march_steps_must_be_positive_integers(self, key, value):
        d = sphere_scene_dict()
        d["march"][key] = value
        with pytest.raises(ValueError, match=rf"march.{key} must be a positive integer"):
            field.scene_from_dict(d)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["primitives"].__setitem__(0, "sphere"), r"primitives\[0\] must be a JSON"),
        (lambda d: d.__setitem__("primitives", 3), "primitives must be a JSON list"),
        (lambda d: d.__setitem__("march", [64]), "march must be a JSON object"),
        (lambda d: d.__setitem__("bounds", 6.0), "bounds must be a JSON object")])
    def test_wrong_json_types(self, mutate, message):
        d = sphere_scene_dict()
        mutate(d)
        with pytest.raises(ValueError, match=message):
            field.scene_from_dict(d)


# Fuzzed scene dicts: a valid scene with one field replaced by an
# arbitrary JSON value or removed, or an arbitrary JSON value altogether.
# scene_from_dict must return a scene or raise ValueError.

_json = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-3, 3) | st.integers(min_value=10**300).map(lambda v: v * v)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
_PRIMITIVE_KEYS = ("type", "center", "radius", "extent", "axis", "offset", "thickness",
                   "density_scale", "softness", "albedo", "tint")


@st.composite
def fuzzed_scene_dicts(draw):
    d = blocker_scene_dict()
    d["primitives"].append({"type": "slab", "axis": [0.0, 0.0, 1.0], "offset": -0.5,
                            "thickness": 1.0, "density_scale": 4.0, "softness": 0.05})
    if draw(st.booleans()):
        return draw(_json)
    section = draw(st.sampled_from(["scene", "bounds", "march", "default_material",
                                    "primitive"]))
    if section == "scene":
        target, keys = d, ["bounds", "march", "default_material", "primitives", "camera"]
    elif section == "primitive":
        target, keys = draw(st.sampled_from(d["primitives"])), list(_PRIMITIVE_KEYS)
    else:
        target = d.setdefault(section, {})
        keys = {"bounds": ["center", "radius"],
                "march": ["primary_steps", "secondary_steps", "t_near", "t_far"],
                "default_material": ["albedo", "tint"]}[section]
    key = draw(st.sampled_from(keys))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(_json)
    return d


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(d=fuzzed_scene_dicts())
def test_fuzzed_scene_dicts_give_a_scene_or_value_error(d):
    try:
        scene = field.scene_from_dict(d)
    except ValueError:
        return
    assert isinstance(scene, field.VolumeScene)
    assert len(field.scene_hash(scene)) == 64

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtvol import imageio
from conftest import write_raw_pfm


def read_ppm(path):
    """Read a binary P6/P5 PPM back into a uint8 array, with imageio's header checks."""
    with open(path, "rb") as f:
        magic = imageio._read_token(f)
        if magic not in (b"P6", b"P5"):
            raise imageio.PfmError(f"{path}: bad PPM magic {magic!r}")
        width = imageio._header_field(f, path, "PPM", "width", int)
        height = imageio._header_field(f, path, "PPM", "height", int)
        maxval = imageio._header_field(f, path, "PPM", "maxval", int)
        if maxval != 255:
            raise imageio.PfmError(f"{path}: only maxval 255 supported")
        channels = 3 if magic == b"P6" else 1
        raw = imageio._read_raster(f, path, "PPM", width, height, channels, 1)
    arr = np.frombuffer(raw, dtype=np.uint8)
    if channels == 3:
        return arr.reshape(height, width, 3).copy()
    return arr.reshape(height, width).copy()


def test_color_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.uniform(0.0, 4.0, size=(7, 11, 3)).astype(np.float32)
    path = tmp_path / "a.pfm"
    imageio.write_pfm(path, img)
    back = imageio.read_pfm(path)
    assert back.shape == (7, 11, 3)
    assert back.dtype == np.float64
    assert np.array_equal(back.astype(np.float32), img)


def test_gray_roundtrip(tmp_path):
    img = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "g.pfm"
    imageio.write_pfm(path, img)
    back = imageio.read_pfm(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back.astype(np.float32), img)


def test_row_zero_is_top(tmp_path):
    # The raster on disk runs bottom-to-top, so the last raster row in the
    # file must come back as row 0 of the array.
    path = tmp_path / "o.pfm"
    rows = [0.0, 1.0]
    raster = b"".join(struct.pack("<f", v) for v in rows)
    with open(path, "wb") as f:
        f.write(b"Pf\n1 2\n-1.0\n")
        f.write(raster)
    img = imageio.read_pfm(path)
    assert img[0, 0] == 1.0
    assert img[1, 0] == 0.0


def test_positive_scale_means_big_endian(tmp_path):
    path = tmp_path / "be.pfm"
    with open(path, "wb") as f:
        f.write(b"Pf\n2 1\n2.5\n")
        f.write(struct.pack(">f", 1.0) + struct.pack(">f", -3.0))
    img = imageio.read_pfm(path)
    assert np.allclose(img, [[2.5, -7.5]])


def test_one_by_two_color_file(tmp_path):
    # Smallest interesting color file: 1 wide, 2 tall.
    img = np.array([[[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]], dtype=np.float32)
    path = tmp_path / "t.pfm"
    imageio.write_pfm(path, img)
    back = imageio.read_pfm(path)
    assert np.array_equal(back.astype(np.float32), img)


def test_bad_magic_reports_magic(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"P7\n1 1\n-1.0\n" + b"\x00" * 4)
    with pytest.raises(imageio.PfmError, match="magic"):
        imageio.read_pfm(path)


def test_truncated_raster(tmp_path):
    path = tmp_path / "short.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
    with pytest.raises(imageio.PfmError, match="truncated"):
        imageio.read_pfm(path)


def test_zero_scale_rejected(tmp_path):
    path = tmp_path / "z.pfm"
    path.write_bytes(b"Pf\n1 1\n0.0\n" + b"\x00" * 4)
    with pytest.raises(imageio.PfmError, match="non-zero"):
        imageio.read_pfm(path)


def test_nonfinite_sample_reports_coordinates(tmp_path):
    img = np.zeros((2, 3), dtype=np.float32)
    img[1, 2] = np.nan
    path = tmp_path / "nan.pfm"
    write_raw_pfm(path, img)
    with pytest.raises(imageio.PfmError, match=r"x=2, y=1"):
        imageio.read_pfm(path)


@pytest.mark.parametrize("value", [np.nan, -np.inf, 1e300, -3.5e38],
                         ids=["nan", "-inf", "1e300", "-3.5e38"])
def test_write_refuses_samples_not_finite_in_float32(tmp_path, value):
    # A finite float64 past float32's range used to be written as inf, with
    # numpy's cast warning (an error under this suite's warning filter).
    img = np.ones((2, 3, 3))
    img[1, 2, 0] = value
    path = tmp_path / "bad.pfm"
    with pytest.raises(imageio.PfmError, match=r"not finite in float32 at pixel \(x=2, y=1\)"):
        imageio.write_pfm(path, img)
    assert not path.exists()


def test_write_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        imageio.write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 4)))


def test_ppm_color_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    path = tmp_path / "c.ppm"
    imageio.write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_ppm_gray_roundtrip(tmp_path):
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    path = tmp_path / "g.ppm"
    imageio.write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_ppm_rejects_float_input(tmp_path):
    with pytest.raises(ValueError, match="uint8"):
        imageio.write_ppm(tmp_path / "f.ppm", np.zeros((2, 2, 3)))


@pytest.mark.parametrize("scale", [b"-inf", b"inf", b"nan", b"-nan"])
@pytest.mark.parametrize("finite_sample", [True, False])
def test_non_finite_scale_names_the_header(tmp_path, scale, finite_sample):
    # The header is checked first, whether or not the raster is finite.
    sample = b"\x00\x00\x80\x3f" if finite_sample else b"\x00\x00\xc0\x7f"
    path = tmp_path / "s.pfm"
    path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + sample)
    with pytest.raises(imageio.PfmError, match="scale"):
        imageio.read_pfm(path)


def test_declared_size_is_checked_before_reading(tmp_path):
    # 40000 x 40000 x 3 floats would be 19 GB; the file's size rules it out.
    path = tmp_path / "huge.pfm"
    path.write_bytes(b"PF\n40000 40000\n-1.0\n" + b"\x00" * 12)
    with pytest.raises(imageio.PfmError, match="truncated PFM raster.*40000x40000"):
        imageio.read_pfm(path)


@pytest.mark.parametrize("header, field", [
    (b"P5\n-2 2\n255\n", "width"),
    (b"P6\n0 0\n255\n", "width"),
    (b"P5\n2 0\n255\n", "height"),
    (b"P5\n2 x\n255\n", "height"),
    (b"P6\n2 2\n2.5e2\n", "maxval"),
    (b"Pf\n1.5 2\n-1.0\n", "width"),
], ids=["negative_width", "zero_size", "zero_height", "text_height", "float_maxval",
        "pfm_float_width"])
def test_bad_header_field_is_named(tmp_path, header, field):
    path = tmp_path / "h.img"
    path.write_bytes(header + b"\x00" * 64)
    read = imageio.read_pfm if header.startswith(b"Pf") else read_ppm
    with pytest.raises(imageio.PfmError, match=field):
        read(path)


def test_truncated_ppm_raster(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 11)
    with pytest.raises(imageio.PfmError, match="truncated PPM raster"):
        read_ppm(path)


# Fuzzed headers: each field is a valid value, an edge value or junk, and
# the raster is cut short or padded. A reader may return an image of the
# declared shape or raise ValueError (PfmError is one); nothing else.

def _token(valid):
    junk = st.sampled_from([b"", b"-1", b"0", b"1e3", b"0x10", b"abc", b"nan", b"inf",
                            b"-inf", b"9" * 30, b"\xff", b"2.5"])
    return st.one_of(valid, junk)


_dims = st.integers(-3, 6).map(lambda v: str(v).encode())
_scales = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(lambda v: repr(v).encode()),
                    st.sampled_from([b"-1.0", b"1.0", b"0.5"]))


@st.composite
def image_files(draw):
    pfm = draw(st.booleans())
    magic = draw(st.sampled_from([b"PF", b"Pf"] if pfm else [b"P6", b"P5"])
                 | st.sampled_from([b"P7", b"", b"pf"]))
    last = _scales if pfm else st.sampled_from([b"255", b"256", b"0"])
    fields = [magic, draw(_token(_dims)), draw(_token(_dims)), draw(_token(last))]
    seps = [draw(st.sampled_from([b"\n", b" ", b"\t", b"\r\n"])) for _ in fields]
    header = b"".join(f + s for f, s in zip(fields, seps))
    raster = draw(st.binary(max_size=6 * 6 * 3 * 4 + 8))
    return pfm, fields, header + raster


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=image_files())
def test_fuzzed_headers_give_an_image_or_value_error(tmp_path_factory, case):
    pfm, (magic, width, height, last), data = case
    path = tmp_path_factory.mktemp("fuzz") / "f.img"
    path.write_bytes(data)
    try:
        img = imageio.read_pfm(path) if pfm else read_ppm(path)
    except ValueError:
        return
    # A result means every header field was valid and the raster complete.
    channels = 3 if magic in (b"PF", b"P6") else 1
    assert img.shape[:2] == (int(height), int(width)) and int(width) >= 1
    assert img.shape[2:] == ((3,) if channels == 3 else ())
    assert img.dtype == (np.float64 if pfm else np.uint8)
    if pfm:
        assert math.isfinite(float(last)) and float(last) != 0.0
        assert np.all(np.isfinite(img))
    else:
        assert last == b"255"

"""PFM file reader and writer, and a PPM writer.

PFM rasters are stored bottom-to-top per the de facto format, so these
helpers flip on read and write; in-memory arrays always have row 0 at the
top. A negative scale in the header means little-endian floats. Files are
written little-endian with scale -1.0.
"""

import math
import os

import numpy as np


class PfmError(ValueError):
    pass


def _read_token(f):
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise PfmError("unexpected end of file in image header")
        if c in b" \t\n\r":
            if tok:
                return tok
            continue
        tok += c


def _header_field(f, path, kind, name, parse):
    """The next header token parsed by parse, or a PfmError naming the field."""
    tok = _read_token(f)
    try:
        return parse(tok)
    except ValueError:
        raise PfmError(f"{path}: malformed {kind} {name} {tok[:32]!r}") from None


def _read_raster(f, path, kind, width, height, channels, itemsize):
    """Check the header's size against the file, then read the raster bytes."""
    for name, value in (("width", width), ("height", height)):
        if value <= 0:
            raise PfmError(f"{path}: {kind} {name} must be positive, got {value}")
    need = width * height * channels * itemsize
    have = os.fstat(f.fileno()).st_size - f.tell()
    if have < need:
        raise PfmError(f"{path}: truncated {kind} raster: header declares {width}x{height} "
                       f"({need} bytes), file holds {have}")
    return f.read(need)


def read_pfm(path):
    """Read a PFM file into a float64 array, shape (H, W, 3) or (H, W).

    NaN or infinite samples are rejected with the image coordinates of
    the first offender.
    """
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic not in (b"PF", b"Pf"):
            raise PfmError(f"{path}: bad PFM magic {magic!r}, expected 'PF' or 'Pf'")
        channels = 3 if magic == b"PF" else 1
        width = _header_field(f, path, "PFM", "width", int)
        height = _header_field(f, path, "PFM", "height", int)
        scale = _header_field(f, path, "PFM", "scale", float)
        if not math.isfinite(scale) or scale == 0.0:
            raise PfmError(f"{path}: PFM scale must be finite and non-zero, got {scale}")
        raw = _read_raster(f, path, "PFM", width, height, channels, 4)
    dtype = "<f4" if scale < 0.0 else ">f4"
    data = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    if abs(scale) != 1.0:
        data = data * abs(scale)
    if channels == 3:
        img = data.reshape(height, width, 3)
    else:
        img = data.reshape(height, width)
    img = img[::-1].copy()
    _require_finite(img, f"{path}: non-finite sample")
    return img


def _require_finite(img, message):
    """Raise PfmError(message + the first non-finite pixel of img, row 0 at the top)."""
    if not np.all(np.isfinite(img)):
        bad = np.argwhere(~np.isfinite(img))
        y, x = int(bad[0][0]), int(bad[0][1])
        raise PfmError(f"{message} at pixel (x={x}, y={y})")


def write_pfm(path, img):
    """Write a (H, W, 3) or (H, W) float array as little-endian PFM.

    The float32 values it writes must be finite: NaN, an infinity or a
    value past float32's range raises PfmError before the file is opened.
    """
    with np.errstate(over="ignore"):
        img = np.asarray(img, dtype=np.float32)
    if img.ndim == 3 and img.shape[2] == 3:
        magic = b"PF"
    elif img.ndim == 2:
        magic = b"Pf"
    else:
        raise ValueError(f"expected (H, W, 3) or (H, W) array, got {img.shape}")
    _require_finite(img, f"{path}: cannot write a sample that is not finite in float32")
    height, width = img.shape[0], img.shape[1]
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{width} {height}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.ascontiguousarray(img[::-1], dtype="<f4").tobytes())


def write_ppm(path, img):
    """Write uint8 pixels as binary PPM (P6 for color, P5 for gray)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("PPM writer expects uint8 pixels")
    if img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    elif img.ndim == 2:
        magic = b"P5"
    else:
        raise ValueError(f"expected (H, W, 3) or (H, W) array, got {img.shape}")
    height, width = img.shape[0], img.shape[1]
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{width} {height}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(img).tobytes())

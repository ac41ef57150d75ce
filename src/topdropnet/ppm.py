"""Binary PPM (P6) and PGM (P5) image files, 8-bit, dependency-free.

These formats are byte-exact, which keeps golden-file tests independent of
any codec library.
"""

import os

import numpy as np


def _read_header(f, magic: bytes, channels: int):
    """Width and height, once the bytes left in the file hold their pixels."""
    got = f.read(2)
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    fields = []
    while len(fields) < 3:
        line = f.readline()
        if not line:
            raise ValueError("truncated header")
        body = line.split(b"#", 1)[0]
        fields.extend(body.split())
    if len(fields) > 3:
        raise ValueError(f"header has {len(fields)} fields, expected width, height and maxval")
    width, height, maxval = (int(x) for x in fields)
    if width <= 0 or height <= 0:
        raise ValueError(f"non-positive image size {width}x{height}")
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    if width * height * channels > os.fstat(f.fileno()).st_size - f.tell():
        raise ValueError("truncated pixel data")
    return width, height


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P6", 3)
        return np.frombuffer(f.read(w * h * 3), dtype=np.uint8).reshape(h, w, 3)


def write_pgm(path, image: np.ndarray) -> None:
    """Write an (h, w) uint8 array as binary PGM."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"expected (h, w) uint8, got {image.shape} {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P5", 1)
        return np.frombuffer(f.read(w * h), dtype=np.uint8).reshape(h, w)

"""Per-frame label maps (0 = background) and their P5 PGM serialization."""

from __future__ import annotations

import re

import numpy as np

from .errors import TrackmergeError
from .mask import Mask


class LabelMap:
    """Dense grid of object ids; 0 is background. Ids must fit in a byte
    because label maps serialize as maxval-255 PGM files."""

    __slots__ = ("width", "height", "labels")

    def __init__(self, width, height, labels):
        arr = np.asarray(labels)
        if arr.shape != (height, width):
            raise TrackmergeError(
                f"label grid shape {arr.shape} does not match {width}x{height}"
            )
        if arr.min() < 0 or arr.max() > 255:
            raise TrackmergeError("labels must lie in [0, 255]")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "labels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LabelMap is immutable")

    def __reduce__(self):
        return (LabelMap, (self.width, self.height, np.array(self.labels)))

    def __eq__(self, other):
        if not isinstance(other, LabelMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.labels, other.labels)
        )

    def object_mask(self, object_id: int) -> Mask:
        return Mask.from_dense(self.labels == object_id)

    @classmethod
    def background(cls, width, height) -> "LabelMap":
        return cls(width, height, np.zeros((height, width), np.uint8))


def write_pgm(lm: LabelMap, path):
    """Write a binary (P5) PGM, maxval 255, pixel value = object id."""
    with open(path, "wb") as f:
        f.write(f"P5\n{lm.width} {lm.height}\n255\n".encode("ascii"))
        f.write(lm.labels.tobytes())


# P5 header: magic, width, height, maxval, separated by whitespace and by
# comments that run from '#' to the end of the line; one whitespace byte ends it
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_P5_HEADER = re.compile(rb"P5" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def read_pgm(path) -> LabelMap:
    with open(path, "rb") as f:
        data = f.read()
    m = _P5_HEADER.match(data)
    if not m:
        raise TrackmergeError(f"{path}: not a binary P5 PGM")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise TrackmergeError(f"{path}: expected maxval 255, got {maxval}")
    pixels = data[m.end() :]
    if len(pixels) != w * h:
        raise TrackmergeError(f"{path}: payload is {len(pixels)} bytes, expected {w * h}")
    return LabelMap(w, h, np.frombuffer(pixels, np.uint8).reshape((h, w)))

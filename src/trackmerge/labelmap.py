"""Per-frame label maps (0 = background), how overlapping masks are painted
into one, and their on-disk form: one P5 PGM per frame, named <t:05d>.pgm."""

from __future__ import annotations

import glob
import os
import re

import numpy as np

from .errors import TrackmergeError, shown
from .mask import Mask, foreground


class LabelMap:
    """Dense grid of object ids; 0 is background. Ids must fit in a byte
    because label maps serialize as maxval-255 PGM files."""

    __slots__ = ("width", "height", "labels")

    def __init__(self, width, height, labels):
        if width <= 0 or height <= 0:
            raise TrackmergeError(f"label map is {width}x{height}, dimensions must be positive")
        arr = np.asarray(labels)
        if arr.shape != (height, width):
            raise TrackmergeError(
                f"label grid shape {arr.shape} does not match {width}x{height}"
            )
        # a uint8 grid holds nothing else
        if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
            raise TrackmergeError("labels must lie in [0, 255]")
        arr = arr.astype(np.uint8, order="C")
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


def paint(width, height, entries) -> LabelMap:
    """entries: (object_id, mask, priority) triples. Overlapping pixels go to
    the highest priority, ties to the lowest object_id."""
    order = sorted(entries, key=lambda e: (-e[2], e[0]))
    flat = np.zeros(width * height, dtype=np.uint8)  # column-major, as masks are
    for object_id, m, _ in reversed(order):
        flat[foreground(m)] = object_id
    return LabelMap(width, height, flat.reshape((height, width), order="F"))


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
    try:
        w, h, maxval = (int(g) for g in m.groups())
    except ValueError as e:  # more digits than int() converts
        raise TrackmergeError(f"{path}: header number too long ({e})") from None
    if maxval != 255:
        raise TrackmergeError(f"{path}: expected maxval 255, got {shown(maxval)}")
    pixels = data[m.end() :]
    if len(pixels) != w * h:
        raise TrackmergeError(f"{path}: payload is {len(pixels)} bytes, expected {shown(w * h)}")
    return LabelMap(w, h, np.frombuffer(pixels, np.uint8).reshape((h, w)))


def write_frames(maps, directory):
    """Write frame t of ``maps`` to ``directory``/<t:05d>.pgm, creating it.
    Any other .pgm file there is removed, so that read_frames reads back
    these frames alone."""
    os.makedirs(directory, exist_ok=True)
    names = [f"{t:05d}.pgm" for t in range(len(maps))]
    for stale in set(glob.glob("*.pgm", root_dir=directory)).difference(names):
        os.remove(os.path.join(directory, stale))
    for name, lm in zip(names, maps):
        write_pgm(lm, os.path.join(directory, name))


def read_frames(directory) -> list:
    """The label maps of ``directory``'s .pgm files, in file-name order; they
    must all have the same size."""
    files = sorted(glob.glob(os.path.join(directory, "*.pgm")))
    if not files:
        raise TrackmergeError(f"no .pgm files in {directory}")
    maps = [read_pgm(f) for f in files]
    for f, lm in zip(files, maps):
        if (lm.width, lm.height) != (maps[0].width, maps[0].height):
            raise TrackmergeError(
                f"{f}: label map is {lm.width}x{lm.height}, {files[0]} is "
                f"{maps[0].width}x{maps[0].height}"
            )
    return maps

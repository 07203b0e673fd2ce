"""Per-frame label maps (0 = background), how overlapping masks are painted
into one, and their on-disk form: one P5 PGM per frame, named <t:05d>.pgm."""

from __future__ import annotations

import glob
import os
import re

import numpy as np

from .errors import TrackmergeError, shown
from .mask import Mask


class LabelMap:
    """Dense grid of object ids; 0 is background. Ids must fit in a byte
    because label maps serialize as maxval-255 PGM files."""

    __slots__ = ("width", "height", "labels", "__weakref__")

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
        _store(self, int(width), int(height), arr.astype(np.uint8, order="C"))

    @classmethod
    def _trusted(cls, width: int, height: int, labels: np.ndarray) -> "LabelMap":
        """A label map of a C-ordered uint8 (height, width) grid, which it
        makes read-only and nothing here checks or copies again."""
        lm = object.__new__(cls)
        _store(lm, width, height, labels)
        return lm

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


def _store(lm: LabelMap, width, height, labels):
    labels.setflags(write=False)
    set_slot = object.__setattr__
    set_slot(lm, "width", width)
    set_slot(lm, "height", height)
    set_slot(lm, "labels", labels)


def paint_order(entries) -> list:
    """(object_id, mask, priority) triples in the order paint() lays them
    down from the top: by priority, highest first, ties to the lowest id."""
    return sorted(entries, key=lambda e: (-e[2], e[0]))


# a mask of at most this many runs (10 foreground runs) paints run by run,
# one of more by one np.copyto of its expanded runs: the two cost the same
# at about 20 runs
_FEW_RUNS = 20

# True, False, True, ...: which of a mask's runs, from its first foreground
# run on, are foreground; grown to the longest such span painted so far
_alternate = np.zeros(0, dtype=bool)


def _foreground_runs(n) -> np.ndarray:
    global _alternate
    if _alternate.size < n:
        _alternate = np.arange(2 * n) % 2 == 0
    return _alternate[:n]


def paint(width, height, entries) -> LabelMap:
    """entries: (object_id, mask, priority) triples. Overlapping pixels go to
    the highest priority, ties to the lowest object_id.

    Masks paint a column-major buffer, as they are stored. Only the column
    strips that hold painted pixels are then copied into the row-major
    grid, which is background elsewhere."""
    size = width * height
    flat = np.zeros(size, dtype=np.uint8)
    strips = []  # per painted mask: the columns from its first to its last pixel
    for object_id, m, _ in reversed(paint_order(entries)):
        runs = m.runs  # background first, then foreground, alternating
        n = len(runs)
        if n < 2:  # empty
            continue
        if n > _FEW_RUNS:
            # the runs from the first foreground run to the last one, expanded
            last = n - 1 if n % 2 == 0 else n - 2
            bounds = m.bounds()[: last + 1]
            np.copyto(flat[bounds[0] : bounds[-1]], object_id,
                      where=np.repeat(_foreground_runs(last), bounds[1:] - bounds[:-1]))
        else:
            bounds = m.bounds().tolist()
            for start, end in zip(bounds[0::2], bounds[1::2]):
                flat[start:end] = object_id
        stop = size - runs[-1] if n % 2 else size  # its last pixel's end
        strips.append((runs[0] // height, (stop - 1) // height + 1))
    labels = np.zeros((height, width), dtype=np.uint8)
    # row x of both is column x of the grid
    rows, columns = labels.T, flat.reshape((width, height))
    for x0, x1 in strips:  # overlapping strips copy the same final values
        rows[x0:x1] = columns[x0:x1]
    return LabelMap._trusted(int(width), int(height), labels)


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
    # the directory's name is not a pattern: it may hold [, ], * or ?
    files = [os.path.join(directory, f) for f in sorted(glob.glob("*.pgm", root_dir=directory))]
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

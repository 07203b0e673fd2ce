"""Middlebury .flo reading/writing and backward-flow mask warping."""

from __future__ import annotations

import struct

import numpy as np

from .errors import FlowError, MaskError
from .mask import Mask, column_major

FLO_MAGIC = 202021.25


class FlowField:
    """Dense per-pixel (dx, dy) displacements, float32.

    Used as a backward field: the vector at pixel (x, y) of frame t points to
    the source location (x + dx, y + dy) in frame t-1.

    The field is stored as ``planes``, a C-contiguous (2, width, height)
    array: one column-major plane per component, the layout of masks and of
    ``source_pairs``. ``vectors`` is its read-only (height, width, 2) view.
    """

    __slots__ = ("width", "height", "planes")

    def __init__(self, width, height, vectors):
        vectors = np.asarray(vectors, dtype=np.float32)
        if width <= 0 or height <= 0:
            raise FlowError(f"flow dimensions must be positive, got {width}x{height}")
        if vectors.shape != (height, width, 2):
            raise FlowError(
                f"flow grid shape {vectors.shape} does not match {width}x{height}"
            )
        # no copy when vectors is already the (h, w, 2) view of such planes
        planes = np.ascontiguousarray(vectors.transpose(2, 1, 0))
        if not np.isfinite(planes).all():
            raise FlowError("flow field contains non-finite values")
        planes.setflags(write=False)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "planes", planes)

    @property
    def vectors(self) -> np.ndarray:
        return self.planes.transpose(2, 1, 0)

    def __setattr__(self, name, value):
        raise AttributeError("FlowField is immutable")

    def __reduce__(self):
        return (FlowField, (self.width, self.height, np.array(self.vectors)))

    @classmethod
    def zero(cls, width, height) -> "FlowField":
        return cls(width, height, np.zeros((2, width, height), np.float32).transpose(2, 1, 0))


def load_flo(path) -> FlowField:
    """Read a Middlebury .flo file (magic 202021.25, LE int32 w/h, LE f32 data)."""
    with open(path, "rb") as f:
        header = f.read(12)
        if len(header) < 12:
            raise FlowError(f"truncated .flo header in {path}")
        magic, w, h = struct.unpack("<fii", header)
        if magic != FLO_MAGIC:
            raise FlowError(f"bad .flo magic {magic!r} in {path}")
        if w <= 0 or h <= 0:
            raise FlowError(f"bad .flo dimensions {w}x{h} in {path}")
        payload = f.read()
    expected = w * h * 2 * 4
    if len(payload) != expected:
        raise FlowError(
            f"truncated .flo payload in {path}: {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape((h, w, 2))
    try:  # the header is checked, so only a non-finite value is left to fail
        return FlowField(w, h, data)
    except FlowError:
        raise FlowError(f"non-finite flow values in {path}") from None


def save_flo(field: FlowField, path):
    """Write a .flo file; load_flo(save_flo(f)) is byte-identical."""
    with open(path, "wb") as f:
        f.write(struct.pack("<fii", FLO_MAGIC, field.width, field.height))
        f.write(field.vectors.astype("<f4", copy=False).tobytes())


def source_pairs(backward_flow: FlowField) -> tuple[np.ndarray, np.ndarray]:
    """(dest, src): the pixels of frame t whose backward-flow sample lies
    inside the image, as ascending column-major flat indices, and the
    column-major flat index of each one's source pixel in frame t-1.

    A sample s = x + dx rounds half away from zero, so it lies inside an
    axis of n pixels iff -0.5 < s < n - 0.5, and there it rounds to
    floor(s + 0.5) = x + (floor(2 dx) + 1) // 2. float32 computes both
    exactly for sides under 2**23. Indices are int32 below 2**31 pixels.
    """
    h, w = backward_flow.height, backward_flow.width
    index = np.int32 if h * w < 2**31 else np.intp
    # the flow's (width, height) planes: every pass runs in column-major order
    dx, dy = backward_flow.planes
    x = np.arange(w, dtype=np.float32)[:, None]
    y = np.arange(h, dtype=np.float32)
    inside = (dx > -0.5 - x) & (dx < w - 0.5 - x) & (dy > -0.5 - y) & (dy < h - 0.5 - y)
    dest = np.flatnonzero(inside).astype(index)

    def rounded(d):  # in place, sparing full-frame temporaries
        q = np.floor(2 * d[inside]).astype(index)
        q += 1
        q >>= 1
        return q

    src = rounded(dx) * h
    src += rounded(dy)
    src += dest
    return dest, src


def warp_mask(m: Mask, backward_flow: FlowField) -> Mask:
    """Warp a frame t-1 mask into frame t by sampling along the backward flow.

    Output pixel (x, y) is foreground iff its rounded source location
    (x + dx, y + dy) lies inside the image and is foreground in ``m``;
    out-of-bounds samples are background.
    """
    if m.width != backward_flow.width or m.height != backward_flow.height:
        raise MaskError(
            f"mask {m.width}x{m.height} does not match flow "
            f"{backward_flow.width}x{backward_flow.height}"
        )
    dest, src = source_pairs(backward_flow)
    out = np.zeros(m.height * m.width, dtype=bool)
    out[dest] = column_major(m)[src]
    return Mask.from_dense(out.reshape((m.height, m.width), order="F"))

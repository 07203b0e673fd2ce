"""Binary masks stored as column-major run-length counts, plus the geometric
primitives (IoU, bounding box, boundary, dilation) everything else builds on.

The RLE layout is COCO-style uncompressed counts: the image is flattened
column by column (down each column first) and stored as alternating run
lengths starting with background, so a mask whose first pixel is foreground
begins with a zero-length background run.

Every encode goes through one encoder, ``Mask.from_patch``. It takes a
Patch, a dense grid placed in an image that is background elsewhere, so its
cost follows the object's box rather than the frame. ``from_dense`` crops a
full grid to its foreground's box and calls it; the boundary and dilation
kernels and the synthetic scenes hand it their boxes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MaskError


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel box, x0/y0 inclusive, x1/y1 exclusive."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise MaskError(f"degenerate bbox {(self.x0, self.y0, self.x1, self.y1)}")
        if self.x0 < 0 or self.y0 < 0:
            raise MaskError("bbox coordinates must be non-negative")


class Mask:
    """Immutable binary mask of shape (height, width)."""

    __slots__ = ("width", "height", "runs", "_dense", "_bounds")

    def __init__(self, width, height, runs):
        if width <= 0 or height <= 0:
            raise MaskError(f"mask dimensions must be positive, got {width}x{height}")
        runs = tuple(map(int, runs))
        if runs and min(runs) < 0:
            raise MaskError("negative run length")
        if 0 in runs[1:]:
            raise MaskError("zero-length interior run (only the first run may be 0)")
        total = sum(runs)
        if total != width * height:
            raise MaskError(
                f"runs sum to {total}, expected {width * height} for {width}x{height}"
            )
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "_dense", None)
        object.__setattr__(self, "_bounds", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mask is immutable")

    def __eq__(self, other):
        if not isinstance(other, Mask):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.runs == other.runs
        )

    def __hash__(self):
        return hash((self.width, self.height, self.runs))

    def __reduce__(self):
        return (Mask, (self.width, self.height, self.runs))

    def __repr__(self):
        return f"Mask({self.width}x{self.height}, area={self.area})"

    @classmethod
    def from_dense(cls, bitmap) -> "Mask":
        """Encode a dense (height, width) boolean grid; canonical output."""
        arr = np.asarray(bitmap, dtype=bool)
        if arr.ndim != 2 or arr.size == 0:
            raise MaskError(f"bitmap must be a non-empty 2D grid, got shape {arr.shape}")
        h, w = arr.shape
        p = patch(arr)
        return cls.empty(w, h) if p is None else cls.from_patch(p, w, h)

    @classmethod
    def from_patch(cls, p: Patch, width, height) -> "Mask":
        """Encode a Patch placed in a (height, width) image that is
        background elsewhere; canonical output, at a cost that follows the
        patch's box, not the image.

        Each box column, padded by one False pixel above and below, changes
        value where a run starts or ends; box pixel (r, c) is image offset
        (x0 + c) * height + y0 + r. Equal adjacent offsets are an end and a
        start that meet where a run goes on from the last row of one column
        to the first row of the next, so both are dropped.
        """
        h, w = p.grid.shape
        if p.y0 < 0 or p.x0 < 0 or p.y0 + h > height or p.x0 + w > width:
            raise MaskError(
                f"patch of {w}x{h} at (x={p.x0}, y={p.y0}) does not fit in {width}x{height}"
            )
        padded = np.zeros((w, h + 2), dtype=bool)
        padded[:, 1:-1] = p.grid.T
        cols, rows = (padded[:, 1:] != padded[:, :-1]).nonzero()
        offsets = cols * height + rows + (p.x0 * height + p.y0)
        if offsets.size == 0:
            return cls.empty(width, height)
        joined = (offsets[1:] == offsets[:-1]).nonzero()[0]
        if joined.size:
            offsets = np.delete(offsets, np.concatenate((joined, joined + 1)))
        runs = [int(offsets[0])] + (offsets[1:] - offsets[:-1]).tolist()
        last = width * height - int(offsets[-1])
        if last:  # else the last pixel is foreground: no trailing run
            runs.append(last)
        return cls(width, height, runs)

    @classmethod
    def empty(cls, width, height) -> "Mask":
        return cls(width, height, [width * height])

    @classmethod
    def full(cls, width, height) -> "Mask":
        return cls(width, height, [0, width * height])

    def dense(self) -> np.ndarray:
        """Decode to a dense (height, width) boolean grid (cached)."""
        if self._dense is None:
            grid = column_major(self).reshape((self.height, self.width), order="F")
            grid.setflags(write=False)
            object.__setattr__(self, "_dense", grid)
        return self._dense

    def bounds(self) -> np.ndarray:
        """Where each run ends, as a column-major offset: the cumulative sum
        of ``runs``, int64 (cached). Foreground run i spans
        [bounds[2i], bounds[2i + 1])."""
        if self._bounds is None:
            bounds = np.fromiter(self.runs, np.int64, len(self.runs)).cumsum()
            bounds.setflags(write=False)
            object.__setattr__(self, "_bounds", bounds)
        return self._bounds

    @property
    def area(self) -> int:
        b = self.bounds()
        return int(b[1::2].sum() - b[0:-1:2].sum())

    @property
    def is_empty(self) -> bool:
        return self.area == 0

    def bbox(self) -> BBox:
        """Tightest box containing all foreground pixels."""
        if self.is_empty:
            raise MaskError("empty mask has no bounding box")
        h, b = self.height, self.bounds()
        first, last = b[0:-1:2], b[1::2] - 1  # per foreground run
        if (first // h != last // h).any():  # a run that wraps spans all rows
            y0, y1 = 0, h
        else:
            y0, y1 = int((first % h).min()), int((last % h).max()) + 1
        return BBox(int(first[0] // h), y0, int(last[-1] // h) + 1, y1)


def check_same_shape(a: Mask, b: Mask):
    if a.width != b.width or a.height != b.height:
        raise MaskError(
            f"mask dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def intersection_area(a: Mask, b: Mask) -> int:
    """Pixel count of a AND b, computed directly on the run lengths."""
    check_same_shape(a, b)
    ca, cb = a.bounds(), b.bounds()
    ends = np.union1d(ca, cb)
    starts = np.concatenate(([0], ends[:-1]))
    lengths = ends - starts
    # run index parity: even runs are background, odd are foreground
    fa = np.searchsorted(ca, starts, side="right") % 2 == 1
    fb = np.searchsorted(cb, starts, side="right") % 2 == 1
    return int(lengths[fa & fb].sum())


def iou(a: Mask, b: Mask, empty_empty: float = 0.0) -> float:
    """Intersection over union.

    ``empty_empty`` sets the value when both masks are empty: 0 in scoring
    contexts (an empty selection earns no credit), 1 in evaluation contexts
    (a correctly-empty prediction is perfect).
    """
    check_same_shape(a, b)
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    if union == 0:
        return float(empty_empty)
    return inter / union


# ---------------------------------------------------------------------------
# Overlap kernel. It scores many masks of one frame against one other mask
# given as the ascending column-major indices of its foreground pixels: a
# mask's overlap is, summed over its foreground runs [start, end), how many
# of those indices each run holds, which two binary searches count. The
# masks' boxes, from the table's runs, bound their IoUs before any count.


def column_major(m: Mask) -> np.ndarray:
    """The mask's pixels as a boolean array in column-major order."""
    b = m.bounds()
    lengths = b.copy()
    lengths[1:] -= b[:-1]
    return np.repeat(np.arange(len(b)) % 2 == 1, lengths)


def foreground(m: Mask) -> np.ndarray:
    """Ascending column-major flat indices of the mask's foreground pixels."""
    b = m.bounds()
    starts, ends = b[0:-1:2], b[1::2]
    lengths = ends - starts
    # the k-th foreground pixel, in run i, is pixel k + ends[i] - cumsum(lengths)[i]
    return np.arange(m.area) + np.repeat(ends - np.cumsum(lengths), lengths)


class RunTable(NamedTuple):
    """The foreground runs of several same-shape masks, as column-major
    [start, end) offsets; mask i owns runs first[i] to first[i + 1]."""

    starts: np.ndarray
    ends: np.ndarray
    first: np.ndarray
    areas: np.ndarray


def run_table(masks) -> RunTable:
    bounds = [m.bounds() for m in masks]
    starts = np.concatenate([b[0:-1:2] for b in bounds])
    ends = np.concatenate([b[1::2] for b in bounds])
    first = np.concatenate(([0], np.cumsum([len(b) // 2 for b in bounds])))
    # each mask's area: the sum of its runs' lengths
    cum = np.concatenate(([0], np.cumsum(ends - starts)))
    return RunTable(starts, ends, first, cum[first[1:]] - cum[first[:-1]])


def sub_table(table: RunTable, rows: np.ndarray) -> RunTable:
    """The table of the masks ``rows`` of ``table``, in that order."""
    lo = table.first[rows]
    counts = table.first[rows + 1] - lo
    first = np.concatenate(([0], np.cumsum(counts)))
    runs = np.arange(first[-1]) + np.repeat(lo - first[:-1], counts)
    return RunTable(table.starts[runs], table.ends[runs], first, table.areas[rows])


def table_boxes(table: RunTable, height: int) -> np.ndarray:
    """Every mask's tight box from its runs, as a (4, n) int64 array whose
    rows are x0, y0, x1, y1: Mask.bbox for a non-empty mask. A run that
    wraps into the next column holds the last row of one column and the
    first row of the next, so its mask spans every row. An empty mask gets
    the box (0, 0, 0, 0), which shares no pixel with any box."""
    boxes = np.zeros((4, len(table.areas)), np.int64)
    if not len(table.starts):
        return boxes
    last = table.ends - 1
    col0, col1 = table.starts // height, last // height
    wraps = col0 != col1
    top = np.where(wraps, 0, table.starts % height)
    bottom = np.where(wraps, height, last % height + 1)
    some = table.areas > 0
    at = table.first[:-1][some]  # each non-empty mask's first run
    # a mask's runs go from its first run to the next non-empty mask's
    boxes[:, some] = (
        col0[at],
        np.minimum.reduceat(top, at),
        col1[table.first[1:][some] - 1] + 1,
        np.maximum.reduceat(bottom, at),
    )
    return boxes


def iou_bounds(table: RunTable, height: int) -> np.ndarray:
    """(n, n) upper bounds on the IoUs of the table's masks, pair by pair,
    from their areas and their boxes alone; 0 where the boxes share no
    pixel (ends are exclusive, so boxes that touch along an edge share
    none). Masks i and j share at most s = min(area i, area j, pixels their
    boxes share) pixels, and IoU grows with the shared count, so
    IoU <= s / (area i + area j - s). Rounding keeps the order, so each
    bound is also >= the IoU that ious returns for the pair."""
    x0, y0, x1, y1 = table_boxes(table, height)[:, :, None]
    w = np.minimum(x1, x1.T) - np.maximum(x0, x0.T)
    h = np.minimum(y1, y1.T) - np.maximum(y0, y0.T)
    a = table.areas
    most = np.minimum(np.minimum.outer(a, a), np.maximum(w, 0) * np.maximum(h, 0))
    union = np.add.outer(a, a) - most
    out = np.zeros(union.shape)
    np.divide(most, union, out=out, where=union > 0)
    return out


def ious(table: RunTable, fg: np.ndarray) -> np.ndarray:
    """IoU of every mask in the table with the mask whose foreground is
    ``fg``, as foreground gives it; 0 where both are empty. Exact integer
    counts, so each value equals iou(mask, other, empty_empty=0.0)."""
    per_run = np.searchsorted(fg, table.ends) - np.searchsorted(fg, table.starts)
    cum = np.concatenate(([0], np.cumsum(per_run)))
    inter = cum[table.first[1:]] - cum[table.first[:-1]]
    union = table.areas + len(fg) - inter
    out = np.zeros(len(inter))
    np.divide(inter, union, out=out, where=union > 0)
    return out


# ---------------------------------------------------------------------------
# Boundary and dilation kernel, in numpy alone. It works on a Patch: a dense
# boolean grid placed at (y0, x0) in an image whose pixels outside the patch
# are all background. Cropping to the foreground's bounding box keeps the
# cost in proportion to the object, not the frame.


class Patch(NamedTuple):
    y0: int
    x0: int
    grid: np.ndarray

    @property
    def area(self) -> int:
        return int(np.count_nonzero(self.grid))

    @property
    def slices(self) -> tuple:
        """The patch's box in the image, as (rows, columns) slices."""
        h, w = self.grid.shape
        return slice(self.y0, self.y0 + h), slice(self.x0, self.x0 + w)


def patch(grid) -> Patch | None:
    """Crop a dense (height, width) grid to its foreground's bounding box;
    None when it has no foreground."""
    rows = grid.any(axis=1).nonzero()[0]
    if rows.size == 0:
        return None
    cols = grid.any(axis=0).nonzero()[0]
    y0, y1, x0, x1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    return Patch(y0, x0, grid[y0:y1, x0:x1])


def boundary_patch(grid) -> Patch | None:
    """Foreground pixels of a dense grid that are 4-adjacent to background or
    to the image border, in the box of the whole foreground. The box is
    padded by one False pixel per side: past the box lies either background
    or the border, which both count as outside."""
    p = patch(grid)
    if p is None:
        return None
    h, w = p.grid.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = p.grid
    interior = (
        padded[:-2, 1:-1]
        & padded[2:, 1:-1]
        & padded[1:-1, :-2]
        & padded[1:-1, 2:]
    )
    return Patch(p.y0, p.x0, p.grid & ~interior)


def dilate_patch(p: Patch, radius: float, height: int, width: int) -> Patch:
    """Dilation by the Euclidean disk dx^2 + dy^2 <= radius^2 in a
    (height, width) image, on the box grown by k = floor(radius) and clipped
    to the image. Offsets longer than the image cannot join two of its
    pixels, so the disk is cut to the image's larger side.

    The disk is one row segment |dx| <= a(dy) per row offset dy in [-k, k].
    Each source row's horizontal dilation by a comes from two slices of its
    prefix sum, once per distinct a, and is ORed into the box shifted by dy.
    """
    k = math.floor(min(radius, max(height, width) - 1))
    if k == 0:
        return p
    h, w = p.grid.shape
    y0, x0 = max(p.y0 - k, 0), max(p.x0 - k, 0)
    y1, x1 = min(p.y0 + h + k, height), min(p.x0 + w + k, width)
    # the row offsets dy >= 0 of each half-width a(dy), by the footprint's
    # test dx^2 + dy^2 <= radius^2 on integer offsets; a falls as dy grows
    r2, a, rows_of = radius * radius, k, {}
    for dy in range(k + 1):
        while a >= 0 and dy * dy + a * a > r2:
            a -= 1
        if a >= 0:
            rows_of.setdefault(a, []).append(dy)
    # prefix[:, j] counts each row's sources left of padded column j; the
    # source sits at padded columns [2k, 2k + w), box column c at c + c0
    prefix = np.empty((h, w + 4 * k + 1), dtype=np.int32)
    prefix[:, : 2 * k + 1] = 0
    np.cumsum(p.grid, axis=1, dtype=np.int32, out=prefix[:, 2 * k + 1 : 2 * k + 1 + w])
    prefix[:, 2 * k + 1 + w :] = prefix[:, 2 * k + w : 2 * k + w + 1]
    c0, box_h, box_w = x0 - p.x0 + 2 * k, y1 - y0, x1 - x0
    out = np.zeros((box_h, box_w), dtype=bool)
    for a, offsets in rows_of.items():
        row = prefix[:, c0 + a + 1 : c0 + a + 1 + box_w] != prefix[:, c0 - a : c0 - a + box_w]
        for shift in {sign * dy for dy in offsets for sign in (1, -1)}:
            top = p.y0 + shift - y0  # box row of source row 0
            i0, i1 = max(0, -top), min(h, box_h - top)
            if i0 < i1:
                out[i0 + top : i1 + top] |= row[i0:i1]
    return Patch(y0, x0, out)


def count_inside(points: Patch, zone: Patch) -> int:
    """Pixels set in both patches, counted on the overlap of their boxes."""
    y0, x0 = max(points.y0, zone.y0), max(points.x0, zone.x0)
    y1 = min(points.y0 + points.grid.shape[0], zone.y0 + zone.grid.shape[0])
    x1 = min(points.x0 + points.grid.shape[1], zone.x0 + zone.grid.shape[1])
    if y0 >= y1 or x0 >= x1:
        return 0
    a = points.grid[y0 - points.y0 : y1 - points.y0, x0 - points.x0 : x1 - points.x0]
    b = zone.grid[y0 - zone.y0 : y1 - zone.y0, x0 - zone.x0 : x1 - zone.x0]
    return int(np.count_nonzero(a & b))


def boundary(m: Mask) -> Mask:
    """Foreground pixels 4-adjacent to background or to the image border."""
    if m.is_empty:
        return m
    return Mask.from_patch(boundary_patch(m.dense()), m.width, m.height)


def dilate(m: Mask, radius: float) -> Mask:
    """Morphological dilation by a Euclidean disk (dx^2 + dy^2 <= r^2)."""
    if not radius >= 0:
        raise MaskError(f"dilation radius must be >= 0, got {radius}")
    if radius == 0 or m.is_empty:
        return m
    p = dilate_patch(patch(m.dense()), radius, m.height, m.width)
    return Mask.from_patch(p, m.width, m.height)

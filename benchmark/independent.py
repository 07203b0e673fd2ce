"""Reference computations the benchmark checks trackmerge's outputs against.

Nothing here calls into trackmerge: masks are decoded from their run
lengths, label maps are parsed from PGM bytes, J and F are recomputed from
dense arrays with a 4-neighbour erosion and a Euclidean distance transform,
and the ensemble vote is recomputed as a per-pixel mode.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

CROSS = ndimage.generate_binary_structure(2, 1)


def decode_rle(runs, width, height) -> np.ndarray:
    """Column-major background-first run lengths to a (height, width) grid."""
    flat = np.zeros(width * height, dtype=bool)
    pos = 0
    for k, r in enumerate(runs):
        if k % 2:
            flat[pos : pos + r] = True
        pos += r
    return flat.reshape((width, height)).T


def read_p5(path) -> np.ndarray:
    """Parse a binary maxval-255 PGM into a (height, width) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic != b"P5" or maxval != 255:
        raise ValueError(f"{path}: not a maxval-255 P5 PGM")
    pixels = data[pos + 1 :]
    if len(pixels) != width * height:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for {width}x{height}")
    return np.frombuffer(pixels, np.uint8).reshape((height, width))


def boundary_tolerance(width, height) -> int:
    return math.ceil(0.008 * math.hypot(width, height))


def boundary(d: np.ndarray) -> np.ndarray:
    """Foreground pixels removed by a 4-neighbour erosion (image border is
    background)."""
    return d & ~ndimage.binary_erosion(d, structure=CROSS, border_value=0)


def j_score(pred: np.ndarray, gt: np.ndarray) -> float:
    union = int((pred | gt).sum())
    return 1.0 if union == 0 else int((pred & gt).sum()) / union


def f_score(pred: np.ndarray, gt: np.ndarray, tol) -> float:
    pb, gb = boundary(pred), boundary(gt)
    np_, ng = int(pb.sum()), int(gb.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    # Both boundaries lie inside this window, so distances to them computed
    # inside it equal the full-frame ones.
    ys, xs = np.nonzero(pb | gb)
    pad = int(math.ceil(tol)) + 1
    win = (
        slice(max(ys.min() - pad, 0), ys.max() + pad + 1),
        slice(max(xs.min() - pad, 0), xs.max() + pad + 1),
    )
    pw, gw = pb[win], gb[win]
    near_g = ndimage.distance_transform_edt(~gw) <= tol
    near_p = ndimage.distance_transform_edt(~pw) <= tol
    precision = int((pw & near_g).sum()) / np_
    recall = int((gw & near_p).sum()) / ng
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def jf_means(pred_labels, gt_masks):
    """Per object (J mean, F mean) over frames 1..T-1, plus the J&F mean.

    ``pred_labels`` holds per-frame (height, width) label arrays and
    ``gt_masks`` per-frame {object_id: boolean array}; frame 0 is the given
    annotation and is not scored.
    """
    h, w = pred_labels[0].shape
    tol = boundary_tolerance(w, h)
    per_object = {}
    for j in sorted(gt_masks[0]):
        js, fs = [], []
        for p, g in zip(pred_labels[1:], gt_masks[1:]):
            pm = p == j
            js.append(j_score(pm, g[j]))
            fs.append(f_score(pm, g[j], tol))
        per_object[j] = (float(np.mean(js)), float(np.mean(fs)))
    j_mean = float(np.mean([v[0] for v in per_object.values()]))
    f_mean = float(np.mean([v[1] for v in per_object.values()]))
    return per_object, (j_mean + f_mean) / 2


def vote(stacked: np.ndarray) -> np.ndarray:
    """Per-pixel mode over axis 0 of an (n, h, w) uint8 stack; ties go to the
    smallest label."""
    counts = np.stack([(stacked == stacked[i]).sum(axis=0) for i in range(len(stacked))])
    key = counts.astype(np.int32) * 256 + (255 - stacked.astype(np.int32))
    return np.take_along_axis(stacked, key.argmax(axis=0)[None], axis=0)[0]


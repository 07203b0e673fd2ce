"""Pixel-wise majority voting over several merged results."""

from __future__ import annotations

import numpy as np

from .errors import TrackmergeError
from .labelmap import LabelMap


def majority_vote(results) -> list:
    """Vote per pixel over N per-frame LabelMap sequences.

    The label with the most votes wins (background 0 is a candidate like any
    other); ties resolve to the smallest label value, so background wins any
    tie it participates in.
    """
    if not results:
        raise TrackmergeError("majority_vote needs at least one result")
    frame_count = len(results[0])
    if frame_count == 0:
        raise TrackmergeError("majority_vote needs at least one frame")
    w, h = results[0][0].width, results[0][0].height
    for r in results:
        if len(r) != frame_count:
            raise TrackmergeError("ensemble inputs have different frame counts")
        for lm in r:
            if lm.width != w or lm.height != h:
                raise TrackmergeError("ensemble inputs have different dimensions")

    count_type = np.min_scalar_type(len(results))  # holds any vote count
    out = []
    for t in range(frame_count):
        maps = [r[t].labels for r in results]
        present = np.flatnonzero(sum(np.bincount(m.ravel(), minlength=256) for m in maps))
        best = best_count = np.zeros((h, w), dtype=count_type)
        for label in present.tolist():  # ascending: with ">" below, ties keep the smaller
            count = sum((m == label for m in maps), np.zeros((h, w), count_type))
            best = np.where(count > best_count, label, best)
            best_count = np.maximum(count, best_count)
        out.append(LabelMap(w, h, best))
    return out

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
        differ = np.zeros((h, w), dtype=bool)
        for m in maps[1:]:
            differ |= m != maps[0]
        voted = maps[0].copy()  # where all inputs agree, their label wins
        if differ.any():
            votes = [m[differ] for m in maps]
            present = np.flatnonzero(sum(np.bincount(v, minlength=256) for v in votes))
            best = best_count = np.zeros(len(votes[0]), dtype=count_type)
            for label in present.tolist():  # ascending: with ">" below, ties keep the smaller
                count = sum((v == label for v in votes), np.zeros(len(votes[0]), count_type))
                best = np.where(count > best_count, label, best)
                best_count = np.maximum(count, best_count)
            voted[differ] = best
        out.append(LabelMap(w, h, voted))
    return out

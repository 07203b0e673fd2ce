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

    out = []
    for t in range(frame_count):
        stack = np.stack([r[t].labels for r in results])  # (n, h, w)
        top = int(stack.max())
        counts = np.zeros((top + 1, h, w), dtype=np.int32)
        for label in range(top + 1):
            counts[label] = (stack == label).sum(axis=0)
        # argmax returns the first (smallest) label among tied leaders
        out.append(LabelMap(w, h, counts.argmax(axis=0)))
    return out

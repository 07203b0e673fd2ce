"""Benchmark scoring: region similarity J, boundary similarity F, and the
per-sequence mean / recall / decay statistics, per object and aggregated.

How this F relates to the DAVIS benchmark's (Perazzi et al., CVPR 2016;
Pont-Tuset et al., arXiv 1704.00675): both take the harmonic mean of
boundary precision and recall with a tolerance of ceil(0.008 * image
diagonal) pixels. They differ in the boundary and in the matching:

- the boundary here is the set of foreground pixels 4-adjacent to
  background or to the image border; DAVIS thins a boundary map of label
  changes (``seg2bmap``), so it does not count the image border;
- a boundary pixel here is matched when the other boundary has a pixel
  inside the Euclidean disk of the tolerance (disk dilation, several pixels
  may match one); DAVIS 2016 matches boundary pixels one-to-one by bipartite
  assignment.

Compare F between runs of this package, not with published DAVIS numbers.

J and F run with numpy alone on crops: each scored object, predicted or GT,
is cut once to its bounding box, a label map's by ``mask.patch`` and a
mask's, from its runs, by ``mask.crop``. J counts the pixels set in
both crops, F applies the boundary and row-segment disk dilation kernel in
``mask`` to them. A GT frame's crops, areas, boundaries and their dilations
are prepared once (``prepare_frame``) and shared by every label map scored
against that frame. ``j_measure`` alone is ``mask.iou`` on the runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import jsonfile
from .errors import TrackmergeError
from .mask import (
    Mask,
    Patch,
    boundary_patch,
    check_same_shape,
    count_inside,
    crop,
    dilate_patch,
    iou,
    patch,
)


def default_boundary_tolerance(width, height) -> int:
    """ceil(0.008 * image diagonal), the usual benchmark convention."""
    return int(math.ceil(0.008 * math.hypot(width, height)))


def j_measure(pred: Mask, gt: Mask) -> float:
    """Region IoU with the evaluation convention empty-empty = 1."""
    return iou(pred, gt, empty_empty=1.0)


def f_measure(pred: Mask, gt: Mask, tolerance: float) -> float:
    """Boundary F: harmonic mean of boundary precision and recall, where a
    boundary pixel counts as matched if it lies within ``tolerance`` pixels
    of the other mask's boundary (dilated-boundary approximation)."""
    _check_tolerance(tolerance)
    check_same_shape(pred, gt)
    return _similarities(crop(pred), _prepare(0, gt, tolerance), tolerance)[1]


def _check_tolerance(tolerance):
    if not tolerance >= 0:
        raise TrackmergeError(f"tolerance must be >= 0, got {tolerance}")


class GTObject(NamedTuple):
    """One object's GT in one frame, prepared for scoring label maps."""

    object_id: int
    mask: Mask
    box: Patch | None  # the mask cropped to its bounding box, for J
    area: int
    boundary: Patch | None
    zone: Patch | None  # the boundary dilated by the tolerance


def _prepare(object_id, gt: Mask, tolerance) -> GTObject:
    box = crop(gt)
    if box is None:
        return GTObject(object_id, gt, None, 0, None, None)
    gb = boundary_patch(box)
    zone = dilate_patch(gb, tolerance, gt.height, gt.width)
    return GTObject(object_id, gt, box, gt.area, gb, zone)


def prepare_frame(gt_frame, ids, tolerance) -> list:
    """The GTObject of each id in ``ids``, in that order, from one frame's
    {object_id: Mask} GT: what score_frame needs of the GT, computed once."""
    return [_prepare(j, gt_frame[j], tolerance) for j in ids]


def _similarities(pred: Patch | None, gt: GTObject, tolerance) -> tuple:
    """(J, F) of a predicted object's crop, None when it is empty, against a
    prepared GT object. An empty mask scores 1 against an empty mask, 0
    against any other."""
    if pred is None or gt.box is None:
        both = 1.0 if pred is None and gt.box is None else 0.0
        return both, both
    inter = count_inside(pred, gt.box)
    pb, gb = boundary_patch(pred), gt.boundary
    h, w = gt.mask.height, gt.mask.width
    precision = count_inside(pb, gt.zone) / pb.area
    recall = count_inside(gb, dilate_patch(pb, tolerance, h, w)) / gb.area
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return inter / (pred.area + gt.area - inter), f


def sequence_stats(per_frame_scores):
    """(mean, recall, decay) over an ordered per-frame score list.

    recall counts frames scoring strictly above 0.5; decay is the mean of the
    first quartile bin minus the mean of the fourth, with the sequence split
    into 4 contiguous bins as equal as possible (remainders to earlier bins).
    """
    scores = np.asarray(per_frame_scores, dtype=np.float64)
    if scores.size == 0:
        raise TrackmergeError("sequence_stats needs at least one score")
    mean = float(scores.mean())
    recall = float((scores > 0.5).mean())
    bins = np.array_split(scores, 4)
    decay = float(bins[0].mean() - bins[3].mean()) if bins[3].size else 0.0
    return mean, recall, decay


@dataclass
class ObjectResult:
    j_mean: float
    j_recall: float
    j_decay: float
    f_mean: float
    f_recall: float
    f_decay: float


@dataclass
class EvalResult:
    """Per-object and aggregate benchmark scores for one video."""

    per_object: dict  # object_id -> ObjectResult
    j_mean: float
    j_recall: float
    j_decay: float
    f_mean: float
    f_recall: float
    f_decay: float
    jf_mean: float


def check_labels(t, lm, ids):
    """Every nonzero label of frame t's label map must be one of ``ids``."""
    if set(range(1, int(lm.labels.max()) + 1)) <= set(ids):
        return  # every label up to the largest is known
    present = np.flatnonzero(np.bincount(lm.labels.ravel())).tolist()
    unknown = set(present) - {0} - set(ids)
    if unknown:
        raise TrackmergeError(f"frame {t}: unknown labels {sorted(unknown)}")


def score_frame(lm, gt, tolerance) -> list:
    """(J, F) of one predicted label map for each object of ``gt``, that
    frame's prepare_frame list made with the same tolerance."""
    out = []
    for obj in gt:
        check_same_shape(lm, obj.mask)
        out.append(_similarities(patch(lm.labels == obj.object_id), obj, tolerance))
    return out


def full_video_gt(gt_all_frames, frame_count, size=None, tolerance=None):
    """Check a full-video GT and return (ids, score): its sorted object ids
    and ``score(t, label_map)``, score_frame's list for frame t.

    The GT is a list of ``frame_count`` {object_id: Mask} frames, at least
    2. Every frame holds frame 0's objects, at least one, and no others: an
    object absent from a frame is an empty mask. Every mask has one size,
    ``size`` (width, height) when given. ``tolerance`` defaults to the
    size's default_boundary_tolerance. Calls in frame order prepare each GT
    frame once.
    """
    if len(gt_all_frames) != frame_count:
        raise TrackmergeError(f"GT has {len(gt_all_frames)} frames, expected {frame_count}")
    if frame_count < 2:
        raise TrackmergeError("need at least 2 frames to evaluate")
    ids = sorted(gt_all_frames[0])
    if not ids:
        raise TrackmergeError("GT frame 0 has no objects")
    first = gt_all_frames[0][ids[0]]
    w, h = size or (first.width, first.height)
    for t, frame in enumerate(gt_all_frames):
        if sorted(frame) != ids:
            raise TrackmergeError(f"GT frame {t} has objects {sorted(frame)}, frame 0 has {ids}")
        for j, m in frame.items():
            if (m.width, m.height) != (w, h):
                raise TrackmergeError(
                    f"GT frame {t} object {j} is {m.width}x{m.height}, video is {w}x{h}"
                )
    if tolerance is None:
        tolerance = default_boundary_tolerance(w, h)
    _check_tolerance(tolerance)
    prepared = lru_cache(1)(lambda t: prepare_frame(gt_all_frames[t], ids, tolerance))
    return ids, lambda t, label_map: score_frame(label_map, prepared(t), tolerance)


def summarize(ids, frame_scores) -> EvalResult:
    """The EvalResult of score_frame's lists for the evaluated frames, in
    frame order."""
    per_object = {}
    for jj, j in enumerate(ids):
        jm, jr, jd = sequence_stats([s[jj][0] for s in frame_scores])
        fm, fr, fd = sequence_stats([s[jj][1] for s in frame_scores])
        per_object[j] = ObjectResult(jm, jr, jd, fm, fr, fd)

    def agg(attr):
        return float(np.mean([getattr(r, attr) for r in per_object.values()]))

    j_mean, f_mean = agg("j_mean"), agg("f_mean")
    return EvalResult(
        per_object=per_object,
        j_mean=j_mean,
        j_recall=agg("j_recall"),
        j_decay=agg("j_decay"),
        f_mean=f_mean,
        f_recall=agg("f_recall"),
        f_decay=agg("f_decay"),
        jf_mean=(j_mean + f_mean) / 2,
    )


def evaluate(pred_label_maps, gt_all_frames, tolerance=None, exclude_last=False) -> EvalResult:
    """Score predicted label maps against a full-video GT (see full_video_gt).

    Frame 0 is excluded (it is the given annotation); the last frame is
    excluded too when ``exclude_last`` is set. Every nonzero label in the
    predictions must be a GT object id.
    """
    ids, score = full_video_gt(gt_all_frames, len(pred_label_maps), tolerance=tolerance)
    for t, lm in enumerate(pred_label_maps):
        check_labels(t, lm, ids)
    stop = len(pred_label_maps) - 1 if exclude_last else len(pred_label_maps)
    if stop < 2:
        raise TrackmergeError("no frames left to evaluate")
    return summarize(ids, [score(t, pred_label_maps[t]) for t in range(1, stop)])


def result_to_dict(res: EvalResult) -> dict:
    return {
        "per_object": {
            str(j): {
                "J": {"mean": r.j_mean, "recall": r.j_recall, "decay": r.j_decay},
                "F": {"mean": r.f_mean, "recall": r.f_recall, "decay": r.f_decay},
            }
            for j, r in res.per_object.items()
        },
        "J": {"mean": res.j_mean, "recall": res.j_recall, "decay": res.j_decay},
        "F": {"mean": res.f_mean, "recall": res.f_recall, "decay": res.f_decay},
        "J&F": {"mean": res.jf_mean},
    }


def write_report(res: EvalResult, json_path, csv_path=None):
    jsonfile.write(json_path, result_to_dict(res))
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["object", "metric", "mean", "recall", "decay"])
            for j, r in sorted(res.per_object.items()):
                writer.writerow([j, "J", r.j_mean, r.j_recall, r.j_decay])
                writer.writerow([j, "F", r.f_mean, r.f_recall, r.f_decay])
            writer.writerow(["all", "J", res.j_mean, res.j_recall, res.j_decay])
            writer.writerow(["all", "F", res.f_mean, res.f_recall, res.f_decay])
            writer.writerow(["all", "J&F", res.jf_mean, "", ""])

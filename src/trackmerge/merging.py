"""Greedy per-frame proposal selection (one track per ground-truth object)
and the oracle-merging upper bound. Overlapping selections go to the higher
score when labelmap.paint builds each frame's label map."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import TrackmergeError
from .flow import source_pairs
from .labelmap import paint, write_frames
from .manifest import VideoManifest
from .mask import Mask, column_major, foreground, ious, run_table
from .scoring import (
    COMPONENTS,
    WeightVector,
    combine,
    compute_video_max_distances,
    effective_weights,
    embedding_distances,
    frame_subscores,
)

ALL_ACTIVE = (True, True, True, True, True)


@dataclass
class TrackSet:
    """Per-object selections and the final non-overlapping label maps.

    ``selections[object_id][t]`` is the chosen proposal index for frame t
    (None for frame 0, which is the given GT, and for zero-proposal frames).
    ``masks[object_id][t]`` is the full selected mask before overlap
    resolution; ``label_maps[t]`` is the resolved per-pixel assignment.
    """

    video_id: str
    object_ids: list
    selections: dict
    masks: dict
    label_maps: list
    report: list = field(default_factory=list)


def _select(manifest: VideoManifest, keys, score_frame) -> TrackSet:
    """The selection loop shared by greedy and oracle merging.

    ``score_frame(t, proposals, previous)`` scores frame t's proposals given
    each track's mask at frame t-1. It returns an (n, J) score array, whose
    argmax per track is selected and ranks overlaps, and ``entry(k, jj)``, the
    report fields ``keys`` of proposal k for track jj. They stay None where
    nothing was selected: frame 0, which is the given GT, and empty frames.
    """
    w, h = manifest.width, manifest.height
    gt = manifest.ground_truth
    ids = [g.object_id for g in gt]
    empty = Mask.empty(w, h)
    blank = dict.fromkeys(("proposal", *keys))

    selections = {j: [None] for j in ids}
    masks = {j: [g.first_frame_mask] for j, g in zip(ids, gt)}
    report = [{"frame": 0, "objects": {str(j): dict(blank) for j in ids}}]
    label_maps = [paint(w, h, [(j, masks[j][0], 0.0) for j in ids])]

    for t in range(1, manifest.frame_count):
        proposals = manifest.proposals[t]
        objects, entries = {}, []
        if proposals:
            scores, entry = score_frame(t, proposals, [masks[j][t - 1] for j in ids])
        for jj, j in enumerate(ids):
            # first max wins: lowest index on ties
            k = int(np.argmax(scores[:, jj])) if proposals else None
            selections[j].append(k)
            if k is None:
                masks[j].append(empty)
                objects[str(j)] = dict(blank)
            else:
                masks[j].append(proposals[k].mask)
                entries.append((j, proposals[k].mask, float(scores[k, jj])))
                objects[str(j)] = {"proposal": k, **entry(k, jj)}
        label_maps.append(paint(w, h, entries))
        report.append({"frame": t, "objects": objects})

    return TrackSet(manifest.video_id, ids, selections, masks, label_maps, report)


class SubScorer:
    """The sub-score kernel of one video, shared by greedy merging and the
    weight search: ``scorer(t, previous)`` is the (n, J, 5) sub-score tensor
    of frame t's n proposals given each track's mask at frame t-1.

    Frame t's run table and flow source pairs depend only on t. Both callers
    visit the frames in order, the search with several track states per
    frame, so the scorer keeps the last frame's and holds one frame at a time.
    """

    def __init__(self, manifest: VideoManifest):
        self.manifest = manifest
        self.distances = embedding_distances(manifest)
        self.max_dist = np.array(
            list(compute_video_max_distances(manifest, self.distances).values())
        )
        self._frame = None  # (t, run table, source_pairs of its flow)

    def __call__(self, t, previous) -> np.ndarray:
        if self._frame is None or self._frame[0] != t:
            table = run_table([p.mask for p in self.manifest.proposals[t]])
            pairs = source_pairs(self.manifest.flow(t))  # shared by all tracks
            self._frame = t, table, pairs
        _, table, (dest, src) = self._frame
        # each track's previous mask warped along the flow, as foreground indices
        prop = np.stack([ious(table, dest[column_major(m)[src]]) for m in previous], axis=1)
        objectness = [p.objectness for p in self.manifest.proposals[t]]
        return frame_subscores(objectness, self.distances[t], self.max_dist, prop)


def greedy_merge(
    manifest: VideoManifest,
    weights: WeightVector = None,
    active=ALL_ACTIVE,
) -> TrackSet:
    """Build one track per GT object by greedy argmax of the combined score.

    ``active`` switches sub-score components on/off for ablation runs;
    inactive components' weights are redistributed equally over active ones.
    """
    weights = weights if weights is not None else WeightVector.equal()
    w = effective_weights(weights, active).as_array()
    scorer = SubScorer(manifest)

    def score_frame(t, proposals, previous):
        sub = scorer(t, previous)
        comb = combine(sub, w)
        return comb, lambda k, jj: {
            "sub_scores": dict(zip(COMPONENTS, (float(x) for x in sub[k, jj]))),
            "combined": float(comb[k, jj]),
        }

    return _select(manifest, ("sub_scores", "combined"), score_frame)


def oracle_merge(manifest: VideoManifest, gt_all_frames) -> TrackSet:
    """Evaluation-only upper bound: per frame and object, pick the proposal
    with the highest IoU against that object's full-video GT mask.

    ``gt_all_frames`` is a list (length frame_count) of {object_id: Mask}.
    """
    if len(gt_all_frames) != manifest.frame_count:
        raise TrackmergeError(
            f"full GT has {len(gt_all_frames)} frames, expected {manifest.frame_count}"
        )
    ids = manifest.object_ids
    w, h = manifest.width, manifest.height
    for t, frame_gt in enumerate(gt_all_frames):
        if set(frame_gt) != set(ids):
            raise TrackmergeError(f"full GT frame {t} object set does not match manifest")
        for j, m in frame_gt.items():
            if (m.width, m.height) != (w, h):
                raise TrackmergeError(
                    f"full GT frame {t} object {j} is {m.width}x{m.height}, video is {w}x{h}"
                )

    def score_frame(t, proposals, previous):
        table = run_table([p.mask for p in proposals])
        scores = np.stack([ious(table, foreground(gt_all_frames[t][j])) for j in ids], axis=1)
        return scores, lambda k, jj: {"iou": float(scores[k, jj])}

    return _select(manifest, ("iou",), score_frame)


def save_trackset(ts: TrackSet, out_dir):
    """Write `<out_dir>/<video_id>/<frame, 5 digits>.pgm` label maps plus a
    selections.json report."""
    video_dir = os.path.join(out_dir, ts.video_id)
    write_frames(ts.label_maps, video_dir)
    with open(os.path.join(video_dir, "selections.json"), "w", encoding="utf-8") as f:
        json.dump(
            {"video_id": ts.video_id, "object_ids": ts.object_ids, "frames": ts.report},
            f,
            sort_keys=True,
            indent=2,
        )
        f.write("\n")

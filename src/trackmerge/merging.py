"""Greedy per-frame proposal selection (one track per ground-truth object)
and the oracle-merging upper bound. Overlapping selections go to the higher
score when labelmap.paint builds each frame's label map.

merge_walk is the one greedy selection loop. It merges a video under any
number of weight rows at once: greedy_merge walks its one row, and the weight
search walks all of its candidates, so the search's merges are greedy_merge's
by construction. Frame t's sub-scores depend only on what the tracks selected
at frame t-1, never on the weights, so the walk goes frame by frame. The
states of frame t are the distinct selections at t-1 among the rows. A state
builds its sub-score tensor once, splits its rows by what they select and by
the paint order of overlapping selections (_decide), and paints each distinct
label map once.

What a frame computes without the weights lives in the manifest's per-frame
memo (VideoManifest.frame_memo): the flow's source pairs, the frame's run
table, each state's maskprop IoUs, keyed by its selection row at t-1, and
whether two proposals overlap. A manifest with preloaded flows keeps it, so
repeated merges of one in-memory manifest (the top-k merges, or merges after
a search of it) compute these once per state, and each later walk computes
only the states no earlier walk reached. A kept memo also shares painted
label maps (FrameMemo.paint), keyed by each track's selected proposal and
the tracks' paint order, all a label map depends on. It holds them weakly:
the top-k TrackSets share their maps, and the maps a search scores and
drops are not kept. A manifest cannot change, so an entry never goes stale; a
manifest derived with dataclasses.replace starts with an empty memo. The
sub-scores, combine() and the argmax run on every walk, so every output is
as without the memo. A manifest that reads its flows from disk keeps
nothing and paints every label map.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import jsonfile
from .errors import TrackmergeError
from .labelmap import paint, write_frames
from .manifest import FrameMemo, VideoManifest
from .mask import Mask, column_major, foreground, ious, run_table
from .metrics import full_video_gt
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
    ``label_maps[t]`` is the resolved per-pixel assignment.
    """

    video_id: str
    object_ids: list
    selections: dict
    label_maps: list
    report: list = field(default_factory=list)


def _track_set(manifest: VideoManifest, keys, frames) -> TrackSet:
    """The TrackSet of one merge. ``frames`` gives, for t = 1, 2, ..., frame
    t's label map and per track (k, *values): the selected proposal k and the
    values of its report fields ``keys``, or (None,) where nothing was
    selected. Frame 0 is the given GT, with no selections."""
    ids = manifest.object_ids
    fields = ("proposal", *keys)
    selections = {j: [None] for j in ids}
    # frame 0's label map: the given GT masks, shared pixels to the lowest id
    first = [(g.object_id, g.first_frame_mask, 0.0) for g in manifest.ground_truth]
    label_maps = [paint(manifest.width, manifest.height, first)]
    report = [{"frame": 0, "objects": {str(j): dict.fromkeys(fields) for j in ids}}]
    for t, (label_map, picks) in enumerate(frames, start=1):
        for j, (k, *_) in zip(ids, picks):
            selections[j].append(k)
        label_maps.append(label_map)
        objects = {str(j): dict(zip_longest(fields, pick)) for j, pick in zip(ids, picks)}
        report.append({"frame": t, "objects": objects})
    return TrackSet(manifest.video_id, ids, selections, label_maps, report)


def group_rows(keys):
    """The distinct rows of a 1-D or 2-D integer array, in lexicographic
    order, and for each the ascending indices of the rows equal to it."""
    keys = keys.reshape(len(keys), -1)
    if len(keys) == 1:  # a single row: nothing to sort
        return keys.copy(), [np.zeros(1, dtype=np.intp)]
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return ordered[starts], np.split(order, starts[1:])


def _decide(sub, weights, group, ids, overlaps):
    """What each row of one state selects and paints at its frame.

    ``sub`` is the state's (n, J, 5) sub-score tensor, ``group`` the state's
    indices into the rows of ``weights``, ``ids`` the track object ids and
    ``overlaps(a, b)`` whether the frame's proposals a and b share a pixel.
    Returns one (selections, variants) pair per distinct choice of proposals,
    one per track. Each variant is one label map painted from them: the rows
    that paint it, as positions in ``group``, and the combine() scores of the
    first of them, which it is painted with.

    Every row is scored by combine, the definition of a combined score, so
    selections and paint orders follow exact scores. Two tracks that select
    equal sub-score vectors tie exactly under any weights; the lower object
    id wins, as in labelmap.paint, so such a pair never splits the rows.
    """
    tracks = sub.shape[1]
    if len(group) == 1:  # one label map: nothing to split
        comb = combine(sub, weights[group[0]])
        return [(comb.argmax(axis=0), [(np.arange(1), comb)])]
    scores = combine(sub, weights[group])
    choices = []
    for k, rows in zip(*group_rows(scores.argmax(axis=1))):
        order = []  # per overlapping pair of tracks: is the first on top?
        for a in range(tracks):
            for b in range(a + 1, tracks):
                if overlaps(k[a], k[b]):
                    sa, sb = scores[rows[:, None], k[[a, b]], [a, b]].T  # their selected scores
                    order.append((sa > sb) | ((sa == sb) & (ids[a] < ids[b])))
        variants = [rows[v] for v in group_rows(np.stack(order, axis=1))[1]] if order else [rows]
        choices.append((k, [(v, scores[v[0]]) for v in variants]))
    return choices


def maskprop_ious(memo: FrameMemo, previous) -> np.ndarray:
    """The (n, J) maskprop IoUs of one state: each of the frame's proposals
    against each track's ``previous`` mask warped along the frame's flow,
    the warped mask taken as the destinations whose source is foreground."""
    warped = [memo.dest[column_major(m)[memo.src]] for m in previous]
    prop = np.stack([ious(memo.table, fg) for fg in warped], axis=1)
    prop.setflags(write=False)
    return prop


def merge_walk(manifest: VideoManifest, weights):
    """The greedy merges of ``manifest`` under the rows of the (R, 5) array
    ``weights``, frame by frame from frame 1.

    Yields (t, paints) once per state of frame t. Each paint is one label map
    that some of the state's rows paint at t: (rows, selected, sub, combined,
    label_map), where ``rows`` indexes those rows, ``selected`` holds each
    track's proposal (-1: none), ``sub`` is the state's (n, J, 5) sub-score
    tensor and ``combined`` the combine() scores the label map was painted
    with, the same for each of its rows; both are None on a frame without
    proposals, which reads no flow. The weight-free work of a frame with
    proposals comes from manifest.frame_memo(t), as the module docstring
    describes.
    """
    w, h = manifest.width, manifest.height
    ids = manifest.object_ids
    distances = embedding_distances(manifest)
    max_dist = np.array(list(compute_video_max_distances(manifest, distances).values()))
    empty = Mask.empty(w, h)
    # selected[i]: row i's proposal per track at the last frame walked (-1: none)
    selected = np.full((len(weights), len(ids)), -1)
    for t in range(1, manifest.frame_count):
        proposals = manifest.proposals[t]
        if proposals:  # the memo is shared by all states and tracks
            memo = manifest.frame_memo(t)
            objectness = [p.objectness for p in proposals]
        for key, group in zip(*group_rows(selected)):
            if proposals:
                row = tuple(key.tolist())
                prop = memo.maskprop.get(row)
                if prop is None:
                    previous = memo.previous if t == 1 else [
                        empty if k < 0 else memo.previous[k] for k in row
                    ]
                    prop = memo.maskprop[row] = maskprop_ious(memo, previous)
                sub = frame_subscores(objectness, distances[t], max_dist, prop)
                choices = _decide(sub, weights, group, ids, memo.overlaps)
            else:
                sub = None
                choices = [(np.full(len(ids), -1), [(np.arange(len(group)), None)])]
            paints = []
            for k, variants in choices:
                picked = k.tolist()
                for rows, comb in variants:
                    label_map = paint(w, h, []) if comb is None else memo.paint(w, h, picked, [
                        (j, memo.masks[kj], float(comb[kj, jj]))
                        for jj, (j, kj) in enumerate(zip(ids, picked))
                    ])
                    paints.append((group[rows], k, sub, comb, label_map))
                    selected[group[rows]] = k
            yield t, paints


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
    row = effective_weights(weights, active).as_array()
    frames = []
    for _, [(_, selected, sub, comb, label_map)] in merge_walk(manifest, row[None]):
        frames.append((label_map, [
            (None,) if k < 0 else
            (k, dict(zip(COMPONENTS, map(float, sub[k, jj]))), float(comb[k, jj]))
            for jj, k in enumerate(selected.tolist())
        ]))
    return _track_set(manifest, ("sub_scores", "combined"), frames)


def oracle_merge(manifest: VideoManifest, gt_all_frames) -> TrackSet:
    """Evaluation-only upper bound: per frame and object, pick the proposal
    with the highest IoU against that object's full-video GT mask.

    ``gt_all_frames`` is a full-video GT (see metrics.full_video_gt) of the
    manifest's objects and size.
    """
    w, h = manifest.width, manifest.height
    ids = manifest.object_ids
    gt_ids, _ = full_video_gt(gt_all_frames, manifest.frame_count, (w, h))
    if gt_ids != sorted(ids):
        raise TrackmergeError(f"full GT objects {gt_ids} differ from the manifest's {sorted(ids)}")

    frames = []
    for proposals, frame_gt in zip(manifest.proposals[1:], gt_all_frames[1:]):
        picks, entries = [(None,)] * len(ids), []
        if proposals:
            table = run_table([p.mask for p in proposals])
            scores = np.stack([ious(table, foreground(frame_gt[j])) for j in ids], axis=1)
            # first max wins: lowest index on ties
            picks = [(int(k), float(scores[k, jj])) for jj, k in enumerate(scores.argmax(axis=0))]
            entries = [(j, proposals[k].mask, s) for j, (k, s) in zip(ids, picks)]
        frames.append((paint(w, h, entries), picks))
    return _track_set(manifest, ("iou",), frames)


def save_trackset(ts: TrackSet, out_dir):
    """Write `<out_dir>/<video_id>/<frame, 5 digits>.pgm` label maps plus a
    selections.json report."""
    video_dir = os.path.join(out_dir, ts.video_id)
    write_frames(ts.label_maps, video_dir)
    jsonfile.write(
        os.path.join(video_dir, "selections.json"),
        {"video_id": ts.video_id, "object_ids": ts.object_ids, "frames": ts.report},
    )

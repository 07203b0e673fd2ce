"""Independent straight-from-the-definitions re-implementation of the greedy
merging math, used only as a test oracle. Works on dense boolean grids with
explicit loops; no code is shared with the library's RLE/vectorized paths
beyond the documented conventions (tie breaking, empty-max = 1,
inactive-weight redistribution).

reference_merge is the exception: the per-candidate greedy merge, one weight
vector at a time, over the library's sub-score, overlap and paint kernels. It
holds the whole TrackSet, report included, that greedy_merge must return,
without the many-row walk greedy_merge and the weight search share."""

import functools
import math

import numpy as np

from trackmerge.flow import source_pairs
from trackmerge.labelmap import paint
from trackmerge.mask import Mask, column_major, ious, run_table
from trackmerge.merging import ALL_ACTIVE, TrackSet
from trackmerge.scoring import (
    COMPONENTS,
    WeightVector,
    compute_video_max_distances,
    effective_weights,
    embedding_distances,
    frame_subscores,
)


def naive_round_half_away(v):
    return int(math.trunc(v + math.copysign(0.5, v)))


@functools.lru_cache(maxsize=16)
def _naive_sources(height, width, dtype, flow_bytes):
    """Per pixel of a (height, width, 2) backward flow whose rounded source
    lies inside the image: the arrays (y, x, source y, source x)."""
    flow = np.frombuffer(flow_bytes, dtype=dtype).reshape((height, width, 2))
    inside = []
    for y in range(height):
        for x in range(width):
            dx, dy = flow[y, x]
            sx = naive_round_half_away(x + float(dx))
            sy = naive_round_half_away(y + float(dy))
            if 0 <= sx < width and 0 <= sy < height:
                inside.append((y, x, sy, sx))
    return tuple(np.array(inside, dtype=np.intp).reshape(-1, 4).T)


def naive_warp(src_dense, flow_vectors):
    """Output pixel (y, x) takes the source pixel its flow vector points at,
    rounded half away from zero; background where that lies outside. The
    source coordinates are worked out once per flow field."""
    h, w = src_dense.shape
    vectors = np.ascontiguousarray(flow_vectors)
    y, x, sy, sx = _naive_sources(h, w, vectors.dtype.str, vectors.tobytes())
    out = np.zeros((h, w), dtype=bool)
    out[y, x] = src_dense[sy, sx]
    return out


def naive_iou(a_dense, b_dense):
    inter = int(np.logical_and(a_dense, b_dense).sum())
    union = int(np.logical_or(a_dense, b_dense).sum())
    return inter / union if union else 0.0


def naive_effective_weights(weights5, active5):
    w = [float(x) for x in weights5]
    n_active = sum(active5)
    extra = sum(w[q] for q in range(5) if not active5[q]) / n_active
    return [w[q] + extra if active5[q] else 0.0 for q in range(5)]


def naive_max_distances(manifest):
    out = {}
    for g in manifest.ground_truth:
        best = 0.0
        for frame in manifest.proposals:
            for p in frame:
                d = math.sqrt(float(((p.embedding - g.embedding) ** 2).sum()))
                best = max(best, d)
        out[g.object_id] = best
    return out


def naive_selections(manifest, weights5, active5=(True,) * 5):
    """Greedy per-frame argmax selections, {object_id: [None, k1, k2, ...]}."""
    w = naive_effective_weights(weights5, active5)
    max_dist = naive_max_distances(manifest)
    ids = [g.object_id for g in manifest.ground_truth]
    gt_emb = {g.object_id: g.embedding for g in manifest.ground_truth}

    prev_dense = {
        g.object_id: g.first_frame_mask.dense().copy() for g in manifest.ground_truth
    }
    selections = {j: [None] for j in ids}
    warp_cache = {}

    for t in range(1, manifest.frame_count):
        proposals = manifest.proposals[t]
        if not proposals:
            for j in ids:
                selections[j].append(None)
                prev_dense[j] = np.zeros(
                    (manifest.height, manifest.width), dtype=bool
                )
            continue
        flow = manifest.flow(t).vectors
        warped = {}
        for j in ids:
            key = (t, prev_dense[j].tobytes())
            if key not in warp_cache:
                warp_cache[key] = naive_warp(prev_dense[j], flow)
            warped[j] = warp_cache[key]

        reid = {}
        prop = {}
        for i, p in enumerate(proposals):
            for j in ids:
                d = math.sqrt(float(((p.embedding - gt_emb[j]) ** 2).sum()))
                reid[i, j] = 1.0 if max_dist[j] == 0 else 1.0 - d / max_dist[j]
                prop[i, j] = naive_iou(p.mask.dense(), warped[j])

        new_prev = {}
        for j in ids:
            best_i, best_s = None, None
            for i, p in enumerate(proposals):
                others_r = [reid[i, k] for k in ids if k != j]
                others_m = [prop[i, k] for k in ids if k != j]
                sub = [
                    p.objectness,
                    reid[i, j],
                    prop[i, j],
                    1.0 - max(others_r) if others_r else 1.0,
                    1.0 - max(others_m) if others_m else 1.0,
                ]
                s = sum(w[q] * sub[q] for q in range(5))
                if best_s is None or s > best_s:  # strict: lowest index on ties
                    best_i, best_s = i, s
            selections[j].append(best_i)
            new_prev[j] = proposals[best_i].mask.dense().copy()
        prev_dense = new_prev
    return selections


def per_pair_combine(sub, w):
    """combined_score of every (proposal, track) pair of an (n, J, 5) tensor,
    one np.dot per pair: the definition scoring.combine is held to."""
    out = np.empty(sub.shape[:2])
    for i, jj in np.ndindex(out.shape):
        out[i, jj] = np.dot(sub[i, jj], w)
    return out


def reference_merge(manifest, weights=None, active=ALL_ACTIVE):
    """greedy_merge, one frame and one weight vector at a time: per frame,
    the (n, J, 5) sub-scores, each track's first argmax of their per-pair
    combined scores, and the label map painted with those scores."""
    weights = weights if weights is not None else WeightVector.equal()
    w = effective_weights(weights, active).as_array()
    distances = embedding_distances(manifest)
    max_dist = np.array(list(compute_video_max_distances(manifest, distances).values()))
    width, height = manifest.width, manifest.height
    gt = manifest.ground_truth
    ids = [g.object_id for g in gt]
    empty = Mask.empty(width, height)
    blank = dict.fromkeys(("proposal", "sub_scores", "combined"))

    selections = {j: [None] for j in ids}
    masks = {j: [g.first_frame_mask] for j, g in zip(ids, gt)}
    report = [{"frame": 0, "objects": {str(j): dict(blank) for j in ids}}]
    label_maps = [paint(width, height, [(j, masks[j][0], 0.0) for j in ids])]

    for t in range(1, manifest.frame_count):
        proposals = manifest.proposals[t]
        objects, entries = {}, []
        if proposals:
            table = run_table([p.mask for p in proposals])
            dest, src = source_pairs(manifest.flow(t))
            previous = [masks[j][t - 1] for j in ids]
            prop = np.stack([ious(table, dest[column_major(m)[src]]) for m in previous], axis=1)
            objectness = [p.objectness for p in proposals]
            sub = frame_subscores(objectness, distances[t], max_dist, prop)
            comb = per_pair_combine(sub, w)
        for jj, j in enumerate(ids):
            # first max wins: lowest index on ties
            k = int(np.argmax(comb[:, jj])) if proposals else None
            selections[j].append(k)
            if k is None:
                masks[j].append(empty)
                objects[str(j)] = dict(blank)
            else:
                masks[j].append(proposals[k].mask)
                entries.append((j, proposals[k].mask, float(comb[k, jj])))
                objects[str(j)] = {
                    "proposal": k,
                    "sub_scores": dict(zip(COMPONENTS, (float(x) for x in sub[k, jj]))),
                    "combined": float(comb[k, jj]),
                }
        label_maps.append(paint(width, height, entries))
        report.append({"frame": t, "objects": objects})

    return TrackSet(manifest.video_id, ids, selections, label_maps, report)


def sample_simplex(rng: np.random.Generator) -> WeightVector:
    """Uniform draw on the 4-simplex: five standard-exponential variates
    normalized by their sum. search._candidates draws its rows so, all in
    one call."""
    draws = rng.standard_exponential(5)
    return WeightVector.from_array(draws / draws.sum())

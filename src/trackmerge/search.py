"""Random search over the five merging weights: uniform samples on the
probability simplex, each scored by greedy merging and benchmark scoring,
with the equal-weights vector always force-included as candidate 0.

Candidates share almost all of that work: frame t's sub-scores depend only
on what the tracks selected at frame t-1, never on the weights. So each
video is walked frame by frame. The states of frame t are the distinct
selections at t-1 among the candidates. A state builds its sub-score tensor
once and splits its candidates by what they select and by the paint order
of overlapping selections; each distinct label map of a state is scored
once, and each leaf, one distinct sequence of scored label maps over the
video, is summarized once. The scores equal those of greedy_merge then
evaluate, bit for bit (see _decide).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat

import numpy as np

from .errors import TrackmergeError
from .labelmap import paint
from .mask import Mask, foreground, ious, run_table
from .merging import SubScorer
from .metrics import (
    check_labels,
    default_boundary_tolerance,
    prepare_frame,
    score_frame,
    summarize,
)
from .scoring import WeightVector, combine

OBJECTIVES = ("jf_mean", "j_mean", "f_mean")


@dataclass(frozen=True)
class SearchConfig:
    sample_count: int = 25000
    seed: int = 0
    top_k: int = 11
    objective: str = "jf_mean"

    def __post_init__(self):
        if self.sample_count < 1:
            raise TrackmergeError("sample_count must be positive")
        if not (1 <= self.top_k <= self.sample_count):
            raise TrackmergeError("top_k must lie in [1, sample_count]")
        if self.objective not in OBJECTIVES:
            raise TrackmergeError(f"objective must be one of {OBJECTIVES}")


@dataclass
class SearchResult:
    """Candidates ranked by objective (non-increasing; ties keep sampling order)."""

    ranked: list  # list of (candidate_index, WeightVector, score)
    best_weights: WeightVector
    best_score: float
    top_k_weights: list
    trace: list = field(default_factory=list)  # evaluation order audit
    states: int = 0  # merge states walked: one sub-score tensor each
    leaves: int = 0  # distinct whole-video merges: one summary each


def sample_simplex(rng: np.random.Generator) -> WeightVector:
    """Uniform draw on the 4-simplex: five standard-exponential variates
    normalized by their sum."""
    draws = rng.standard_exponential(5)
    return WeightVector.from_array(draws / draws.sum())


def _candidates(cfg: SearchConfig) -> np.ndarray:
    """The (sample_count, 5) candidate weights. Row 0 is always the
    equal-weights vector; the rest are seeded uniform simplex samples (PCG64
    stream from the configured seed), drawn as sample_simplex draws them, in
    one call."""
    draws = np.random.default_rng(cfg.seed).standard_exponential((cfg.sample_count - 1, 5))
    draws /= draws.sum(axis=1, keepdims=True)
    return np.vstack([WeightVector.equal().as_array(), draws])


# Matrix-product scores closer than this to a tie are redone with
# scoring.combine, the definition of a combined score.
TIE = 1e-9


def _approx_scores(weights, sub) -> np.ndarray:
    """The (g, n, J) combined scores of g weight rows by one matrix product:
    within a few ulps of combine's np.dot, but not always equal to it."""
    n, tracks = sub.shape[:2]
    return (weights @ sub.reshape(n * tracks, 5).T).reshape(len(weights), n, tracks)


def _group_rows(keys):
    """The distinct rows of a 1-D or 2-D integer array, in lexicographic
    order, and for each the ascending indices of the rows equal to it."""
    keys = keys.reshape(len(keys), -1)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return ordered[starts], np.split(order, starts[1:])


def _decide(sub, weights, group, ids, overlaps):
    """What each candidate of one state selects and paints at its frame.

    ``sub`` is the state's (n, J, 5) sub-score tensor, ``group`` the
    candidates' indices into the rows of ``weights``, ``ids`` the track
    object ids and ``overlaps(a, b)`` whether the frame's proposals a and b
    share a pixel. Returns one
    (selections, variants) pair per distinct choice of proposals, one per
    track; each variant lists the candidates, as positions in ``group``,
    that paint one label map from them.

    _approx_scores scores every candidate at once. It may round differently
    from combine's np.dot, which defines the scores, so a candidate is scored
    again by combine where the product is within TIE of a tie: a track's
    top-2 margin, or the selected scores of two overlapping tracks, whose
    order decides the shared pixels. Two tracks that select equal sub-score
    vectors tie exactly under any weights; the lower object id wins, as in
    labelmap.paint, with no rescoring.
    """
    n, tracks = sub.shape[:2]
    scores = _approx_scores(weights[group], sub)
    select = scores.argmax(axis=1)
    top = np.take_along_axis(scores, select[:, None, :], axis=1)[:, 0, :]
    exact = np.zeros(len(group), dtype=bool)

    def rescore(rows):
        for i in rows:
            comb = combine(sub, weights[group[i]])
            select[i] = comb.argmax(axis=0)
            top[i] = comb[select[i], np.arange(tracks)]
        exact[rows] = True

    if n > 1:
        ranked = np.partition(scores, n - 2, axis=1)
        margin = ranked[:, n - 1] - ranked[:, n - 2]
        rescore(np.flatnonzero((margin < TIE).any(axis=1)))

    choices = []
    for k, rows in zip(*_group_rows(select)):
        order = []  # per overlapping pair of tracks: is the first on top?
        for a in range(tracks):
            for b in range(a + 1, tracks):
                if not overlaps(k[a], k[b]):
                    continue  # no shared pixel
                if np.array_equal(sub[k[a], a], sub[k[b], b]):
                    continue  # an exact tie for every candidate
                close = ~exact[rows] & (np.abs(top[rows, a] - top[rows, b]) < TIE)
                rescore(rows[close])
                sa, sb = top[rows, a], top[rows, b]
                order.append((sa > sb) | ((sa == sb) & (ids[a] < ids[b])))
        variants = [rows[v] for v in _group_rows(np.stack(order, axis=1))[1]] if order else [rows]
        choices.append((k, variants))
    return choices


@dataclass
class _Walk:
    """One video's walk: each candidate's leaf and each leaf's score."""

    leaf: np.ndarray
    scores: list
    states: int


def _walk(video, weights, objective) -> _Walk:
    """Score every candidate, one row of ``weights`` each, on one (manifest,
    full-video GT) pair."""
    manifest, gt = video
    frames = manifest.frame_count
    # the checks evaluate() makes of every candidate's merge
    if len(gt) != frames:
        raise TrackmergeError(f"prediction has {frames} frames, GT has {len(gt)}")
    if frames < 2:
        raise TrackmergeError("need at least 2 frames to evaluate")
    w, h = manifest.width, manifest.height
    gt_ids = sorted(gt[0])
    tolerance = default_boundary_tolerance(w, h)
    ids = manifest.object_ids
    scorer = SubScorer(manifest)
    empty = Mask.empty(w, h)
    first = [g.first_frame_mask for g in manifest.ground_truth]
    check_labels(0, paint(w, h, [(j, m, 0.0) for j, m in zip(ids, first)]), gt_ids)

    # selected[i]: candidate i's proposal per track at the last frame walked
    # (-1: none); painted[t - 1, i]: the index in ``scored`` of the label map
    # candidate i paints at frame t. A state is one distinct row of selected.
    selected = np.full((len(weights), len(ids)), -1)
    painted = np.empty((frames - 1, len(weights)), dtype=np.int32)
    scored, states, before = [], 0, []
    for t in range(1, frames):
        prepared = prepare_frame(gt[t], gt_ids, tolerance)
        masks = [p.mask for p in manifest.proposals[t]]

        @cache  # the frame's states share it
        def overlaps(a, b, masks=masks):
            return ious(run_table([masks[a]]), foreground(masks[b]))[0] > 0

        for key, group in zip(*_group_rows(selected)):
            states += 1
            if masks:
                previous = first if t == 1 else [empty if k < 0 else before[k] for k in key]
                sub = scorer(t, previous)
                choices = _decide(sub, weights, group, ids, overlaps)
            else:
                choices = [(np.full(len(ids), -1), [np.arange(len(group))])]
            for k, variants in choices:
                for rows in variants:
                    entries = []
                    if masks:  # every candidate here orders the overlaps alike
                        comb = combine(sub, weights[group[rows[0]]])
                        entries = [(j, masks[kj], float(comb[kj, jj]))
                                   for jj, (j, kj) in enumerate(zip(ids, k))]
                    lm = paint(w, h, entries)
                    check_labels(t, lm, gt_ids)
                    painted[t - 1, group[rows]] = len(scored)
                    scored.append(score_frame(lm, prepared, tolerance))
                    selected[group[rows]] = k
        before = masks

    # a leaf is one distinct row of painted.T: one distinct merge of the video
    leaf, scores = np.empty(len(weights), dtype=np.intp), []
    for i, (row, group) in enumerate(zip(*_group_rows(painted.T))):
        leaf[group] = i
        scores.append(getattr(summarize(gt_ids, [scored[m] for m in row]), objective))
    return _Walk(leaf, scores, states)


def random_search(videos, cfg: SearchConfig, jobs: int = 1) -> SearchResult:
    """Evaluate cfg.sample_count weight vectors on the given corpus.

    ``videos`` is a list of (VideoManifest, full-video GT) pairs; the GT is a
    per-frame {object_id: Mask} list as accepted by evaluate(). A candidate's
    score is the mean over videos of evaluate()'s objective for its
    greedy_merge. With ``jobs`` > 1 the videos are walked in that many
    processes; results are combined in video order, so every ``jobs`` gives
    the same result.
    """
    if not videos:
        raise TrackmergeError("random_search needs at least one video")
    # all components are active in the search, so these are the effective weights
    weights = _candidates(cfg)
    shared = repeat(weights), repeat(cfg.objective)
    if jobs > 1 and len(videos) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(videos))) as pool:
            walks = list(pool.map(_walk, videos, *shared))
    else:
        walks = list(map(_walk, videos, *shared))

    # candidates with the same leaf in every video share one mean
    scores = [0.0] * len(weights)
    for leaves, members in zip(*_group_rows(np.stack([wk.leaf for wk in walks], axis=1))):
        mean = float(np.mean([wk.scores[i] for wk, i in zip(walks, leaves)]))
        for i in members.tolist():
            scores[i] = mean

    rows = weights.tolist()
    order = sorted(range(len(rows)), key=lambda i: (-scores[i], i))
    ranked = [(i, WeightVector(*rows[i]), scores[i]) for i in order]
    trace = [{"index": i, "weights": row, "score": scores[i]} for i, row in enumerate(rows)]
    return SearchResult(
        ranked=ranked,
        best_weights=ranked[0][1],
        best_score=ranked[0][2],
        top_k_weights=[w for _, w, _ in ranked[: cfg.top_k]],
        trace=trace,
        states=sum(wk.states for wk in walks),
        leaves=sum(len(wk.scores) for wk in walks),
    )


def result_to_dict(res: SearchResult) -> dict:
    return {
        "best": {"weights": res.best_weights.as_array().tolist(), "score": res.best_score},
        "ranked": [
            {"index": i, "weights": w.as_array().tolist(), "score": s}
            for i, w, s in res.ranked
        ],
        "top_k": [w.as_array().tolist() for w in res.top_k_weights],
        "trace": res.trace,
    }


def save_search_result(res: SearchResult, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result_to_dict(res), f, sort_keys=True, indent=2)
        f.write("\n")


def load_top_k_weights(path) -> list:
    """Re-load the top-k weight vectors written by save_search_result."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return [WeightVector.from_array(w) for w in data["top_k"]]

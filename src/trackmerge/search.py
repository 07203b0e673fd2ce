"""Random search over the five merging weights: uniform samples on the
probability simplex, each scored by greedy merging and benchmark scoring,
with the equal-weights vector always force-included as candidate 0.

Candidates share almost all of that work. Each video is merged under all of
them in one merging.merge_walk, the walk greedy_merge takes with one row, so
a candidate's merge is its greedy_merge by construction. Each distinct label
map the walk paints is scored once against its frame's GT, and each leaf,
one distinct sequence of scored label maps over the video, is summarized
once, so the scores equal those of greedy_merge then evaluate, bit for bit.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import TrackmergeError
from .merging import first_label_map, group_rows, merge_walk
from .metrics import (
    check_labels,
    default_boundary_tolerance,
    prepare_frame,
    score_frame,
    summarize,
)
from .scoring import WeightVector

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
    gt_ids = sorted(gt[0])
    tolerance = default_boundary_tolerance(manifest.width, manifest.height)
    check_labels(0, first_label_map(manifest), gt_ids)
    prepared = lru_cache(1)(lambda t: prepare_frame(gt[t], gt_ids, tolerance))

    # painted[t - 1, i]: the index in ``scored`` of the label map candidate i
    # paints at frame t
    painted = np.empty((frames - 1, len(weights)), dtype=np.int32)
    scored, states = [], 0
    for t, paints in merge_walk(manifest, weights):
        states += 1
        for rows, *_, label_map in paints:
            check_labels(t, label_map, gt_ids)
            painted[t - 1, rows] = len(scored)
            scored.append(score_frame(label_map, prepared(t), tolerance))

    # a leaf is one distinct row of painted.T: one distinct merge of the video
    leaf, scores = np.empty(len(weights), dtype=np.intp), []
    for i, (row, group) in enumerate(zip(*group_rows(painted.T))):
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
    for leaves, members in zip(*group_rows(np.stack([wk.leaf for wk in walks], axis=1))):
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
    """Re-load the top-k weight vectors written by save_search_result;
    TrackmergeError when the file holds no such list."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise TrackmergeError(f"{path}: not valid JSON ({e})") from e
    rows = data.get("top_k") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(w, list) and all(type(x) in (int, float) for x in w) for w in rows
    ):
        raise TrackmergeError(f"{path}: top_k must be an array of weight arrays")
    return [WeightVector.from_array(w) for w in rows]

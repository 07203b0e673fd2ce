"""Random search over the five merging weights: uniform samples on the
probability simplex, each scored by greedy merging and benchmark scoring,
with the equal-weights vector always force-included as candidate 0.

Candidates share almost all of that work. Each video is merged under all of
them in one merging.merge_walk, the walk greedy_merge takes with one row, so
a candidate's merge is its greedy_merge by construction. The GT is checked
and each distinct label map the walk paints is scored by evaluate's own
metrics.full_video_gt, and each leaf, one distinct sequence of scored label
maps over the video, is summarized by evaluate's summarize, so a
candidate's scores are evaluate's of its greedy_merge by construction.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import jsonfile
from .errors import TrackmergeError
from .jsonfile import SLOT
from .merging import group_rows, merge_walk
from .metrics import full_video_gt, summarize
from .scoring import WeightVector

OBJECTIVES = ("jf_mean", "j_mean", "f_mean")


@dataclass(frozen=True)
class SearchConfig:
    sample_count: int = 25000
    seed: int = 0
    top_k: int = 11
    objective: str = "jf_mean"

    def __post_init__(self):
        if self.seed < 0:
            raise TrackmergeError(f"seed must be non-negative, got {self.seed}")
        if self.sample_count < 1:
            raise TrackmergeError("sample_count must be positive")
        if not (1 <= self.top_k <= self.sample_count):
            raise TrackmergeError("top_k must lie in [1, sample_count]")
        if self.objective not in OBJECTIVES:
            raise TrackmergeError(f"objective must be one of {OBJECTIVES}")


@dataclass(frozen=True)
class SearchResult:
    """The candidates, their scores and their ranking by objective
    (non-increasing; ties keep sampling order). The other views of the
    outcome are built from these on demand."""

    weights: np.ndarray  # (candidates, 5) float64, candidate i's weights in row i
    scores: list  # candidate i's score
    order: list  # the candidate indices, best first
    top_k: int
    states: int = 0  # merge states walked: one sub-score tensor each
    leaves: int = 0  # distinct whole-video merges: one summary each

    @property
    def ranked(self) -> list:
        """(candidate_index, WeightVector, score) of each candidate, best first."""
        rows = self.weights.tolist()
        return [(i, WeightVector(*rows[i]), self.scores[i]) for i in self.order]

    @property
    def best_weights(self) -> WeightVector:
        return WeightVector(*self.weights[self.order[0]].tolist())

    @property
    def best_score(self) -> float:
        return self.scores[self.order[0]]

    @property
    def top_k_weights(self) -> list:
        rows = self.weights.tolist()
        return [WeightVector(*rows[i]) for i in self.order[: self.top_k]]

    @property
    def trace(self) -> list:
        """{index, weights, score} of each candidate, in sampling order."""
        return [
            {"index": i, "weights": row, "score": s}
            for i, (row, s) in enumerate(zip(self.weights.tolist(), self.scores))
        ]


def _candidates(cfg: SearchConfig) -> np.ndarray:
    """The (sample_count, 5) candidate weights. Row 0 is always the
    equal-weights vector; the rest are seeded uniform draws on the simplex,
    each five standard-exponential variates normalized by their sum, all
    from one PCG64 stream of the configured seed in one call. Read-only."""
    draws = np.random.default_rng(cfg.seed).standard_exponential((cfg.sample_count - 1, 5))
    draws /= draws.sum(axis=1, keepdims=True)
    weights = np.vstack([WeightVector.equal().as_array(), draws])
    weights.flags.writeable = False
    return weights


@dataclass
class _Walk:
    """One video's walk: each candidate's score and the work shared."""

    scores: np.ndarray
    states: int
    leaves: int


def _walk(video, weights, objective) -> _Walk:
    """Score every candidate, one row of ``weights`` each, on one (manifest,
    full-video GT) pair."""
    manifest, gt = video
    frames = manifest.frame_count
    gt_ids, score = full_video_gt(gt, frames, (manifest.width, manifest.height))
    # the walk paints manifest ids only, so no label map needs checking
    unknown = set(manifest.object_ids) - set(gt_ids)
    if unknown:
        raise TrackmergeError(f"manifest objects {sorted(unknown)} are not GT objects")

    # painted[t - 1, i]: the index in ``scored`` of the label map candidate i
    # paints at frame t
    painted = np.empty((frames - 1, len(weights)), dtype=np.int32)
    scored, states = [], 0
    for t, paints in merge_walk(manifest, weights):
        states += 1
        for rows, *_, label_map in paints:
            painted[t - 1, rows] = len(scored)
            scored.append(score(t, label_map))

    # a leaf is one distinct row of painted.T: one distinct merge of the video
    scores = np.empty(len(weights))
    leaves = list(zip(*group_rows(painted.T)))
    for row, group in leaves:
        scores[group] = getattr(summarize(gt_ids, [scored[m] for m in row]), objective)
    return _Walk(scores, states, len(leaves))


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

    # row-wise, as np.mean of each candidate's list of video scores
    scores = np.stack([wk.scores for wk in walks], axis=1).mean(axis=1).tolist()

    return SearchResult(
        weights=weights,
        scores=scores,
        order=sorted(range(len(scores)), key=lambda i: (-scores[i], i)),
        top_k=cfg.top_k,
        states=sum(wk.states for wk in walks),
        leaves=sum(wk.leaves for wk in walks),
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


# a ranked or trace entry of result_to_dict, laid out as an item of its list
_CANDIDATE = jsonfile.template({"index": SLOT, "score": SLOT, "weights": [SLOT] * 5}, depth=2)


def save_search_result(res: SearchResult, path):
    """Write result_to_dict(res) as JSON. Each candidate's six numbers are
    formatted once and laid out once, through _CANDIDATE; the trace lists
    those texts in sampling order and the ranking in rank order."""
    rows = res.weights.tolist()
    texts = jsonfile.numbers([x for row, s in zip(rows, res.scores) for x in (s, *row)])
    candidates = [_CANDIDATE(str(i), *texts[6 * i : 6 * i + 6]) for i in range(len(rows))]
    best = res.order[0]
    jsonfile.write(path, {
        "best": {"weights": rows[best], "score": res.scores[best]},
        "ranked": jsonfile.array([candidates[i] for i in res.order], depth=1),
        "top_k": [rows[i] for i in res.order[: res.top_k]],
        "trace": jsonfile.array(candidates, depth=1),
    })


def load_top_k_weights(path) -> list:
    """Re-load the top-k weight vectors written by save_search_result;
    TrackmergeError when the file holds no such list."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, or nested too deep
            raise TrackmergeError(f"{path}: not valid JSON ({e})") from e
    rows = data.get("top_k") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(w, list) and all(type(x) in (int, float) for x in w) for w in rows
    ):
        raise TrackmergeError(f"{path}: top_k must be an array of weight arrays")
    try:
        return [WeightVector.from_array(w) for w in rows]
    except OverflowError as e:  # an integer beyond the float range
        raise TrackmergeError(f"{path}: top_k: {e}") from e

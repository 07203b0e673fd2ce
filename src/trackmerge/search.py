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
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter, is_

import numpy as np

from . import jsonfile
from .errors import TrackmergeError
from .jsonfile import SLOT
from .merging import group_rows, merge_walk
from .metrics import full_video_gt, summarize
from .scoring import COMPONENTS, WeightVector

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


def _candidates(cfg: SearchConfig) -> np.ndarray:
    """The (sample_count, 5) candidate weights. Row 0 is always the
    equal-weights vector; the rest are seeded uniform draws on the simplex,
    each five standard-exponential variates normalized by their sum, all
    from one PCG64 stream of the configured seed in one call."""
    draws = np.random.default_rng(cfg.seed).standard_exponential((cfg.sample_count - 1, 5))
    draws /= draws.sum(axis=1, keepdims=True)
    return np.vstack([WeightVector.equal().as_array(), draws])


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


# a WeightVector's weights in as_array()'s order
_weights = attrgetter(*COMPONENTS)

# a ranked or trace entry of result_to_dict, laid out as an item of its list
_CANDIDATE = jsonfile.template({"index": SLOT, "score": SLOT, "weights": [SLOT] * 5}, depth=2)


def _candidate_texts(entries):
    """The ranked or trace entries, (index, weights, score) each, laid out
    by _CANDIDATE; None unless every entry has a list of five weights."""
    if not all(type(w) is list and len(w) == 5 for _, w, _ in entries):
        return None
    texts = jsonfile.numbers([x for _, w, s in entries for x in (s, *w)])
    return [
        _CANDIDATE(jsonfile.number(i), *texts[6 * k : 6 * k + 6])
        for k, (i, _, _) in enumerate(entries)
    ]


def _reused(ranked, trace, texts):
    """The texts of the ranked entries, each that of the trace entry of its
    candidate index; None unless each ranked entry holds its trace entry's
    very number objects, as random_search's results do, so that equal
    numbers with other texts (0.0 and -0.0, 0 and 0.0) never share one."""
    at = {i: k for k, (i, _, _) in enumerate(trace)}
    order = [at.get(i) for i, _, _ in ranked]
    if len(at) != len(trace) or None in order:
        return None
    for (_, w, s), k in zip(ranked, order):
        _, tw, ts = trace[k]
        if s is not ts or not all(map(is_, w, tw)):
            return None
    return [texts[k] for k in order]


def save_search_result(res: SearchResult, path):
    """Write result_to_dict(res) as JSON, each candidate through a template.
    A ranked candidate of random_search holds the numbers of its trace
    entry, so its text is formatted once, for the trace, and reused."""
    # each weight as as_array().tolist() gives it, without an array per
    # candidate; float() of a float is that float itself
    ranked = [(i, list(map(float, _weights(w))), s) for i, w, s in res.ranked]
    trace, ranked_texts = res.trace, None
    if all(t.keys() == {"index", "weights", "score"} for t in trace):
        entries = [(t["index"], t["weights"], t["score"]) for t in trace]
        texts = _candidate_texts(entries)
        if texts is not None:
            ranked_texts = _reused(ranked, entries, texts)
            trace = jsonfile.array(texts, depth=1)
    if ranked_texts is None:
        ranked_texts = _candidate_texts(ranked)
    jsonfile.write(path, {
        **result_to_dict(replace(res, ranked=[], trace=[])),
        "ranked": jsonfile.array(ranked_texts, depth=1),
        "trace": trace,
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

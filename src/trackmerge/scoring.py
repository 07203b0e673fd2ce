"""The five per-(proposal, track) sub-scores and their weighted combination.

Sub-scores are: objectness, ReID similarity, mask propagation IoU, and the
two inverse scores penalizing similarity to competing tracks. All live in
[0, 1]; the combination is an affine sum with non-negative weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrackmergeError

COMPONENTS = ("objectness", "reid", "maskprop", "inv_reid", "inv_maskprop")


@dataclass(frozen=True)
class WeightVector:
    """Five non-negative merging coefficients on the probability simplex."""

    objectness: float
    reid: float
    maskprop: float
    inv_reid: float
    inv_maskprop: float

    def __post_init__(self):
        vals = [self.objectness, self.reid, self.maskprop, self.inv_reid, self.inv_maskprop]
        # NaN fails both comparisons; no weight above 1 sums to 1 with the
        # others, and huge ones would overflow the sum
        if not all(0 <= v <= 1 + 1e-9 for v in vals):
            raise TrackmergeError(f"weights must lie in [0, 1]: {[float(v) for v in vals]}")
        total = math.fsum(vals)
        if abs(total - 1.0) > 1e-9:
            raise TrackmergeError(f"weights must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.objectness, self.reid, self.maskprop, self.inv_reid, self.inv_maskprop],
            dtype=np.float64,
        )

    @classmethod
    def from_array(cls, arr) -> "WeightVector":
        a = np.asarray(arr, dtype=np.float64)
        if a.shape != (5,):
            raise TrackmergeError(f"expected 5 weights, got shape {a.shape}")
        return cls(*(float(x) for x in a))

    @classmethod
    def equal(cls) -> "WeightVector":
        return cls(0.2, 0.2, 0.2, 0.2, 0.2)


def effective_weights(w: WeightVector, active) -> WeightVector:
    """Redistribute inactive components' weight equally over active ones.

    ``active`` is a 5-tuple of booleans in COMPONENTS order; at least one
    component must stay active.
    """
    act = np.asarray(active, dtype=bool)
    if act.shape != (5,):
        raise TrackmergeError("component mask must have 5 entries")
    if not act.any():
        raise TrackmergeError("at least one component must be active")
    arr = w.as_array()
    extra = arr[~act].sum() / act.sum()
    out = np.where(act, arr + extra, 0.0)
    return WeightVector.from_array(out)


def reid_score(proposal_embedding, gt_embedding, video_max_distance: float) -> float:
    """1 - ||r(c) - r(f)|| / max-distance-in-video; 1.0 in the degenerate
    all-identical case (max distance 0)."""
    a = np.asarray(proposal_embedding, np.float64)
    b = np.asarray(gt_embedding, np.float64)
    if a.shape != b.shape:
        raise TrackmergeError(
            f"embedding length mismatch: {a.shape} vs {b.shape}"
        )
    if video_max_distance == 0:
        return 1.0
    return 1.0 - float(np.linalg.norm(a - b)) / video_max_distance


def embedding_distances(manifest) -> list:
    """Per frame, the (proposals, objects) array of Euclidean distances from
    each proposal embedding to each GT object embedding.

    Each is sqrt(d.dot(d)) of the difference d, what np.linalg.norm gives
    for a 1-D real vector: np.vecdot runs np.dot's kernel pair by pair over
    the contiguous (n, J, dim) differences (see combine)."""
    gt = np.array([g.embedding for g in manifest.ground_truth])
    distances = []
    for frame in manifest.proposals:
        emb = np.array([p.embedding for p in frame]).reshape(len(frame), gt.shape[1])
        d = emb[:, None, :] - gt
        distances.append(np.sqrt(np.vecdot(d, d)))
    return distances


def compute_video_max_distances(manifest, distances=None) -> dict:
    """Per GT object, the max Euclidean distance from its embedding to any
    proposal embedding across all frames; 0 if the video has no proposals.
    ``distances`` may pass in embedding_distances(manifest)."""
    if distances is None:
        distances = embedding_distances(manifest)
    best = np.concatenate(distances).max(axis=0, initial=0.0)
    return {g.object_id: float(d) for g, d in zip(manifest.ground_truth, best)}


def inverse_scores(per_track_reid, per_track_maskprop, track_index: int):
    """Complements of the best score against all *other* tracks.

    Returns (inv_reid, inv_maskprop) for the track at ``track_index`` given
    this proposal's reid and maskprop scores to every track. With a single
    track the max is empty and both default to 1.0.
    """
    others_r = [s for k, s in enumerate(per_track_reid) if k != track_index]
    others_m = [s for k, s in enumerate(per_track_maskprop) if k != track_index]
    inv_r = 1.0 - max(others_r) if others_r else 1.0
    inv_m = 1.0 - max(others_m) if others_m else 1.0
    return inv_r, inv_m


def combined_score(sub_scores, w: WeightVector) -> float:
    """Affine combination of the five sub-scores (COMPONENTS order)."""
    s = np.asarray(sub_scores, np.float64)
    if s.shape != (5,):
        raise TrackmergeError(f"expected 5 sub-scores, got shape {s.shape}")
    return float(np.dot(s, w.as_array()))


def frame_subscores(objectness, distances, max_distances, maskprop) -> np.ndarray:
    """The (n, J, 5) sub-scores of n proposals against J tracks in one frame,
    each equal to what reid_score and inverse_scores give. ``distances`` and
    ``maskprop`` are (n, J) arrays, ``max_distances`` has J entries."""
    n, tracks = maskprop.shape
    quotient = np.zeros((n, tracks))
    np.divide(distances, max_distances, out=quotient, where=max_distances != 0)
    sub = np.empty((n, tracks, 5))
    sub[:, :, 0] = np.asarray(objectness)[:, None]
    sub[:, :, 1] = 1.0 - quotient
    sub[:, :, 2] = maskprop
    sub[:, :, 3:] = 1.0  # a single track has no competitors
    for jj in range(tracks):
        others = np.delete(sub[:, :, 1:3], jj, axis=1)
        if others.shape[1]:
            sub[:, jj, 3:] = 1.0 - others.max(axis=1)
    return sub


def combine(sub, w) -> np.ndarray:
    """combined_score of every (proposal, track) pair of an (n, J, 5) tensor
    under the weight row ``w`` (WeightVector.as_array order), as an (n, J)
    array, or under each row of an (R, 5) array, as an (R, n, J) array.

    np.vecdot runs np.dot's kernel pair by pair, so every score equals
    combined_score's, bit for bit; a matrix product may round differently
    and flip ties. Both operands are made contiguous first: over a strided
    last axis the kernel may round differently too."""
    sub, w = np.ascontiguousarray(sub), np.ascontiguousarray(w)
    return np.vecdot(sub, w[..., None, None, :])

"""Video manifest schema (frames, proposals, ground truth, flow references)
and proposal filtering: score threshold plus mask-IoU non-maximum suppression.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ManifestError, TrackmergeError
from .flow import FlowField, load_flo
from .mask import (
    BBox,
    Mask,
    check_same_shape,
    foreground,
    iou_bounds,
    ious,
    run_table,
    sub_table,
)


@dataclass(frozen=True, eq=False)
class Proposal:
    """One candidate object in one frame. Identity equality (embeddings are
    arrays); filtering returns the original objects."""

    frame_index: int
    mask: Mask
    bbox: BBox
    objectness: float
    embedding: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.objectness <= 1.0):
            raise ManifestError(f"objectness {self.objectness} outside [0, 1]")
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or not np.isfinite(emb).all():
            raise ManifestError("embedding must be a 1D finite vector")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)


@dataclass(frozen=True, eq=False)
class GroundTruthObject:
    """First-frame annotation for one tracked object."""

    object_id: int
    first_frame_mask: Mask
    first_frame_bbox: BBox
    embedding: np.ndarray

    def __post_init__(self):
        # label maps store object ids in one byte (see LabelMap)
        if not 1 <= self.object_id <= 255:
            raise ManifestError(f"object_id must lie in 1..255, got {self.object_id}")
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or not np.isfinite(emb).all():
            raise ManifestError("embedding must be a 1D finite vector")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)


@dataclass
class VideoManifest:
    """All per-video inputs: proposals per frame, GT objects, flow references.

    ``flow_paths[t-1]`` names the backward t -> t-1 field for frame t.
    Flow fields may be preloaded (synthetic data) or loaded lazily from disk.
    """

    video_id: str
    width: int
    height: int
    frame_count: int
    embedding_dim: int
    proposals: list  # list (len frame_count) of list[Proposal]
    ground_truth: list  # list[GroundTruthObject]
    flow_paths: list  # list (len frame_count - 1) of str
    preloaded_flows: list | None = field(default=None, repr=False)
    base_dir: str = "."

    def __post_init__(self):
        # video_id names the video's result directory
        v = self.video_id
        if not isinstance(v, str) or v in ("", ".", "..") or any(c in v for c in "/\\\0"):
            raise ManifestError(f"video_id must be a plain directory name, got {v!r}")
        if self.frame_count <= 0:
            raise ManifestError("frame_count must be positive")
        if self.embedding_dim <= 0:
            raise ManifestError("embedding_dim must be positive")
        if len(self.proposals) != self.frame_count:
            raise ManifestError(
                f"frames has {len(self.proposals)} entries, expected {self.frame_count}"
            )
        if len(self.flow_paths) != self.frame_count - 1:
            raise ManifestError(
                f"flows has {len(self.flow_paths)} entries, expected {self.frame_count - 1}"
            )
        if not self.ground_truth:
            raise ManifestError("ground_truth must contain at least one object")
        ids = [g.object_id for g in self.ground_truth]
        if len(set(ids)) != len(ids):
            raise ManifestError(f"duplicate object_ids in ground_truth: {ids}")
        for g in self.ground_truth:
            self._check_mask(g.first_frame_mask, f"ground_truth[{g.object_id}]")
            if len(g.embedding) != self.embedding_dim:
                raise ManifestError(
                    f"ground_truth[{g.object_id}].embedding has length "
                    f"{len(g.embedding)}, expected {self.embedding_dim}"
                )
        for t, frame in enumerate(self.proposals):
            for i, p in enumerate(frame):
                self._check_mask(p.mask, f"frames[{t}][{i}]")
                if len(p.embedding) != self.embedding_dim:
                    raise ManifestError(
                        f"frames[{t}][{i}].embedding has length "
                        f"{len(p.embedding)}, expected {self.embedding_dim}"
                    )

    def _check_mask(self, m: Mask, where: str):
        if m.width != self.width or m.height != self.height:
            raise ManifestError(
                f"{where}: mask is {m.width}x{m.height}, video is "
                f"{self.width}x{self.height}"
            )

    def flow(self, t: int) -> FlowField:
        """Backward flow for frame t (1 <= t < frame_count)."""
        if not (1 <= t < self.frame_count):
            raise ManifestError(f"no flow for frame {t}")
        if self.preloaded_flows is not None:
            return self.preloaded_flows[t - 1]
        f = load_flo(os.path.join(self.base_dir, self.flow_paths[t - 1]))
        if f.width != self.width or f.height != self.height:
            raise ManifestError(
                f"flow {self.flow_paths[t - 1]} is {f.width}x{f.height}, "
                f"video is {self.width}x{self.height}"
            )
        return f

    @property
    def object_ids(self):
        return [g.object_id for g in self.ground_truth]


def _require(obj, key, where):
    if not isinstance(obj, dict):
        raise ManifestError(f"{where}: expected an object")
    if key not in obj:
        raise ManifestError(f"{where}: missing key '{key}'")
    return obj[key]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_int(obj, key, where) -> int:
    v = _require(obj, key, where)
    if not _is_int(v):
        raise ManifestError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _require_list(obj, key, where, is_item=None) -> list:
    """A JSON array, optionally with every item passing ``is_item``."""
    v = _require(obj, key, where)
    if not isinstance(v, list) or (is_item is not None and not all(map(is_item, v))):
        raise ManifestError(f"{where}.{key}: not an array of the expected items")
    return v


def _mask_from_rle(rle, width, height, where) -> Mask:
    # one C-level pass over the element types; bool is a type of its own
    if not isinstance(rle, list) or not set(map(type, rle)) <= {int}:
        raise ManifestError(f"{where}.rle: expected an integer array")
    try:
        return Mask(width, height, rle)
    except TrackmergeError as e:
        raise ManifestError(f"{where}.rle: {e}") from e


def _proposal_from_json(obj, t, i, width, height) -> Proposal:
    where = f"frames[{t}][{i}]"
    mask = _mask_from_rle(_require(obj, "rle", where), width, height, where)
    tight = None if mask.is_empty else mask.bbox()
    if "bbox" in obj and obj["bbox"] is not None:
        box = obj["bbox"]
        if not (isinstance(box, list) and len(box) == 4 and all(map(_is_int, box))):
            raise ManifestError(f"{where}.bbox: expected 4 integers, got {box!r}")
        box = BBox(*box)
        if box != tight:
            raise ManifestError(f"{where}.bbox: not the tight bbox of the mask")
    else:
        if tight is None:
            raise ManifestError(f"{where}: empty proposal mask has no bbox")
        box = tight
    objectness = _require(obj, "objectness", where)
    if not _is_real(objectness):
        raise ManifestError(f"{where}.objectness: expected a number, got {objectness!r}")
    return Proposal(
        frame_index=t,
        mask=mask,
        bbox=box,
        objectness=float(objectness),
        embedding=np.asarray(_require_list(obj, "embedding", where, _is_real), np.float64),
    )


def manifest_to_json(m: VideoManifest) -> dict:
    """Serializable dict in the manifest schema (inverse of the loader)."""
    return {
        "video_id": m.video_id,
        "width": m.width,
        "height": m.height,
        "frame_count": m.frame_count,
        "embedding_dim": m.embedding_dim,
        "ground_truth": [
            {
                "object_id": g.object_id,
                "rle": list(g.first_frame_mask.runs),
                "embedding": g.embedding.tolist(),
            }
            for g in m.ground_truth
        ],
        "frames": [
            [
                {
                    "rle": list(p.mask.runs),
                    "bbox": [p.bbox.x0, p.bbox.y0, p.bbox.x1, p.bbox.y1],
                    "objectness": p.objectness,
                    "embedding": p.embedding.tolist(),
                }
                for p in frame
            ]
            for frame in m.proposals
        ],
        "flows": list(m.flow_paths),
    }


def save_manifest(m: VideoManifest, path):
    with open(path, "w", encoding="utf-8") as f:
        # dumps encodes in C; dump would stream through the Python encoder
        f.write(json.dumps(manifest_to_json(m), sort_keys=True, separators=(",", ":")))
        f.write("\n")


def load_manifest(path) -> VideoManifest:
    """Load and validate a manifest JSON file; every flow file must exist.

    Raises ManifestError naming the offending field on any schema violation.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ManifestError(f"{path}: not valid JSON ({e})") from e
    base_dir = os.path.dirname(os.path.abspath(path))
    width = _require_int(data, "width", "manifest")
    height = _require_int(data, "height", "manifest")
    gts = []
    for k, obj in enumerate(_require_list(data, "ground_truth", "manifest")):
        where = f"ground_truth[{k}]"
        mask = _mask_from_rle(_require(obj, "rle", where), width, height, where)
        gts.append(
            GroundTruthObject(
                object_id=_require_int(obj, "object_id", where),
                first_frame_mask=mask,
                first_frame_bbox=mask.bbox(),
                embedding=np.asarray(_require_list(obj, "embedding", where, _is_real), np.float64),
            )
        )
    frames = [
        [_proposal_from_json(p, t, i, width, height) for i, p in enumerate(frame)]
        for t, frame in enumerate(
            _require_list(data, "frames", "manifest", lambda f: isinstance(f, list))
        )
    ]
    flow_paths = _require_list(data, "flows", "manifest", lambda p: isinstance(p, str))
    for p in flow_paths:
        if not os.path.isfile(os.path.join(base_dir, p)):
            raise ManifestError(f"flows: missing flow file '{p}'")
    return VideoManifest(
        video_id=_require(data, "video_id", "manifest"),
        width=width,
        height=height,
        frame_count=_require_int(data, "frame_count", "manifest"),
        embedding_dim=_require_int(data, "embedding_dim", "manifest"),
        proposals=frames,
        ground_truth=gts,
        flow_paths=flow_paths,
        base_dir=base_dir,
    )


def filter_proposals(frame_proposals, score_min: float = 0.05, nms_iou: float = 0.66):
    """Score thresholding then greedy mask-IoU NMS.

    Drops proposals with objectness <= score_min (strictly-greater rule), then
    walks the rest in descending objectness (ties by original index) and
    suppresses any proposal whose mask IoU with an already-kept one is
    >= nms_iou. Output is in descending-score order.

    The NMS is box-pruned. One run table of the frame gives every
    candidate's tight box (``Proposal.bbox`` is not read), and the boxes and
    areas give each pair an upper bound on its IoU (mask.iou_bounds). A kept
    proposal counts its exact integer IoUs, as mask.iou would, only with
    the later candidates that are still alive and whose bound reaches
    nms_iou, on a sub-table of their runs; unless nms_iou is 0, their boxes
    share a pixel with its box. No other candidate can reach nms_iou, so
    the kept lists are those of the pairwise walk, at a cost that follows
    the overlapping proposals.
    """
    if not (0.0 <= score_min <= 1.0 and 0.0 <= nms_iou <= 1.0):
        raise ManifestError("filter thresholds must lie in [0, 1]")
    candidates = [
        (i, p) for i, p in enumerate(frame_proposals) if p.objectness > score_min
    ]
    if not candidates:
        return []
    candidates.sort(key=lambda ip: (-ip[1].objectness, ip[0]))
    masks = [p.mask for _, p in candidates]
    for m in masks[1:]:
        check_same_shape(masks[0], m)
    table = run_table(masks)
    near = np.triu(iou_bounds(table, masks[0].height) >= nms_iou, 1)
    alive = np.ones(len(candidates), dtype=bool)
    kept = []
    for i, (_, p) in enumerate(candidates):
        if alive[i]:
            kept.append(p)
            rows = np.flatnonzero(near[i] & alive)
            if rows.size:
                alive[rows] = ious(sub_table(table, rows), foreground(p.mask)) < nms_iou
    return kept


def filter_manifest(m: VideoManifest, score_min: float = 0.05, nms_iou: float = 0.66):
    """Apply filter_proposals to every frame, returning a new manifest."""
    proposals = [filter_proposals(f, score_min, nms_iou) for f in m.proposals]
    return replace(m, proposals=proposals)

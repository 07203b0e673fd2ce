"""Video manifest schema (frames, proposals, ground truth, flow references)
and proposal filtering: score threshold plus mask-IoU non-maximum suppression.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, islice, repeat, starmap

import numpy as np

from .errors import ManifestError, TrackmergeError, shown
from .flow import FlowField, load_flo, source_pairs
from .mask import (
    BBox,
    Mask,
    RunTable,
    check_same_shape,
    foreground,
    intersection_area,
    iou_bounds,
    ious,
    masks_from_runs,
    run_table,
    sub_table,
    table_boxes,
    tight_boxes,
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

    @classmethod
    def _trusted(cls, frame_index, mask, bbox, objectness, embedding) -> "Proposal":
        """A proposal of fields that passed these checks already, its
        embedding a read-only float64 vector."""
        p = object.__new__(cls)
        p.__dict__.update(
            frame_index=frame_index, mask=mask, bbox=bbox, objectness=objectness,
            embedding=embedding,
        )
        return p


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
            raise ManifestError(f"object_id must lie in 1..255, got {shown(self.object_id)}")
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or not np.isfinite(emb).all():
            raise ManifestError("embedding must be a 1D finite vector")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)


@dataclass(eq=False)
class FrameMemo:
    """What merging.merge_walk computes at one frame t that no weight
    changes: frame t's proposal ``masks``, the ``previous`` masks (frame
    t-1's, or the GT first-frame masks at t = 1), the read-only
    flow.source_pairs ``dest`` and ``src`` of the frame's flow, and the run
    ``table`` of ``masks``. The two dicts fill as merges walk the frame:
    ``maskprop`` maps each state's selection row at t-1 (one proposal index
    per track, -1: none) to its read-only (n, J) maskprop IoUs, and
    ``overlap`` each pair of proposals asked about to whether they share a
    pixel."""

    masks: tuple
    previous: tuple
    dest: np.ndarray
    src: np.ndarray
    table: RunTable
    maskprop: dict = field(default_factory=dict)
    overlap: dict = field(default_factory=dict)

    def overlaps(self, a, b) -> bool:
        """Whether the frame's proposals a and b share a pixel."""
        hit = self.overlap.get((a, b))
        if hit is None:
            hit = self.overlap[a, b] = intersection_area(self.masks[a], self.masks[b]) > 0
        return hit


@dataclass(frozen=True)
class VideoManifest:
    """All per-video inputs: proposals per frame, GT objects, flow references.

    ``flow_paths[t-1]`` names the backward t -> t-1 field for frame t.
    Flow fields may be preloaded (synthetic data) or loaded lazily from disk.
    A manifest is immutable and checked once, when made; its sequences are
    stored as tuples. Derive another with ``dataclasses.replace``, which
    checks it again.
    """

    video_id: str
    width: int
    height: int
    frame_count: int
    embedding_dim: int
    proposals: tuple  # tuple (len frame_count) of tuple[Proposal]
    ground_truth: tuple  # tuple[GroundTruthObject]
    flow_paths: tuple  # tuple (len frame_count - 1) of str
    preloaded_flows: tuple | None = field(default=None, repr=False)
    base_dir: str = "."
    # frame_memo's memo for preloaded flows: t -> FrameMemo
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        store = partial(object.__setattr__, self)
        store("proposals", tuple(map(tuple, self.proposals)))
        store("ground_truth", tuple(self.ground_truth))
        store("flow_paths", tuple(self.flow_paths))
        # video_id names the video's result directory
        v = self.video_id
        if not isinstance(v, str) or v in ("", ".", "..") or any(c in v for c in "/\\\0"):
            raise ManifestError(f"video_id must be a plain directory name, got {shown(v)}")
        if self.frame_count <= 0:
            raise ManifestError("frame_count must be positive")
        if self.embedding_dim <= 0:
            raise ManifestError("embedding_dim must be positive")
        if len(self.proposals) != self.frame_count:
            raise ManifestError(
                f"frames has {len(self.proposals)} entries, expected {shown(self.frame_count)}"
            )
        if len(self.flow_paths) != self.frame_count - 1:
            raise ManifestError(
                f"flows has {len(self.flow_paths)} entries, "
                f"expected {shown(self.frame_count - 1)}"
            )
        if self.preloaded_flows is not None:
            flows = tuple(self.preloaded_flows)
            store("preloaded_flows", flows)
            if len(flows) != self.frame_count - 1:
                raise ManifestError(
                    f"preloaded_flows has {len(flows)} entries, "
                    f"expected {shown(self.frame_count - 1)}"
                )
            for t, f in enumerate(flows, 1):
                self._check_flow(f, f"preloaded flow for frame {t}")
        if not self.ground_truth:
            raise ManifestError("ground_truth must contain at least one object")
        ids = [g.object_id for g in self.ground_truth]
        if len(set(ids)) != len(ids):
            raise ManifestError(f"duplicate object_ids in ground_truth: {ids}")
        for k, g in enumerate(self.ground_truth):
            self._check_mask(g.first_frame_mask, f"ground_truth[{k}]")
            if len(g.embedding) != self.embedding_dim:
                raise ManifestError(
                    f"ground_truth[{k}].embedding has length "
                    f"{len(g.embedding)}, expected {shown(self.embedding_dim)}"
                )
        for t, frame in enumerate(self.proposals):
            for i, p in enumerate(frame):
                self._check_mask(p.mask, f"frames[{t}][{i}]")
                if len(p.embedding) != self.embedding_dim:
                    raise ManifestError(
                        f"frames[{t}][{i}].embedding has length "
                        f"{len(p.embedding)}, expected {shown(self.embedding_dim)}"
                    )

    def _check_mask(self, m: Mask, where: str):
        if m.width != self.width or m.height != self.height:
            raise ManifestError(
                f"{where}: mask is {m.width}x{m.height}, video is "
                f"{self.width}x{self.height}"
            )

    def _check_flow(self, f: FlowField, what: str):
        if not isinstance(f, FlowField):
            raise ManifestError(f"{what} is not a FlowField")
        if f.width != self.width or f.height != self.height:
            raise ManifestError(
                f"{what} is {f.width}x{f.height}, video is {self.width}x{self.height}"
            )

    def flow(self, t: int) -> FlowField:
        """Backward flow for frame t (1 <= t < frame_count)."""
        if not (1 <= t < self.frame_count):
            raise ManifestError(f"no flow for frame {t}")
        if self.preloaded_flows is not None:
            return self.preloaded_flows[t - 1]
        f = load_flo(os.path.join(self.base_dir, self.flow_paths[t - 1]))
        self._check_flow(f, f"flow {self.flow_paths[t - 1]}")
        return f

    def frame_memo(self, t: int) -> FrameMemo:
        """The FrameMemo of frame t, which must have proposals.

        With preloaded flows it is kept, so every merge of this manifest
        shares it. With flows read from disk nothing is kept: each call
        reads and sweeps the flow again."""
        memo = self._memo.get(t)
        if memo is None:
            dest, src = source_pairs(self.flow(t))
            dest.setflags(write=False)
            src.setflags(write=False)
            masks = tuple(p.mask for p in self.proposals[t])
            previous = (tuple(g.first_frame_mask for g in self.ground_truth) if t == 1
                        else tuple(p.mask for p in self.proposals[t - 1]))
            memo = FrameMemo(masks, previous, dest, src, run_table(masks))
            if self.preloaded_flows is not None:
                self._memo[t] = memo
        return memo

    def __getstate__(self):  # pickles and copies leave the memo behind
        state = dict(self.__dict__)
        del state["_memo"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, _memo={})

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


_REALS = frozenset({int, float})  # the JSON numbers, as _require_list's types


def _require_int(obj, key, where) -> int:
    v = _require(obj, key, where)
    if not _is_int(v):
        raise ManifestError(f"{where}.{key}: expected an integer, got {shown(v)}")
    return v


def _require_list(obj, key, where, types=None) -> list:
    """A JSON array, optionally with every item's type in the set ``types``
    (one C-level pass; json makes no subclasses, and bool is not int)."""
    v = _require(obj, key, where)
    if not isinstance(v, list) or (types is not None and not set(map(type, v)) <= types):
        raise ManifestError(f"{where}.{key}: not an array of the expected items")
    return v


def _require_reals(obj, key, where) -> np.ndarray:
    """A JSON array of numbers as float64."""
    v = _require_list(obj, key, where, _REALS)
    try:
        return np.asarray(v, np.float64)
    except OverflowError as e:  # an integer beyond the float range
        raise ManifestError(f"{where}.{key}: {e}") from e


def _mask_from_rle(rle, width, height, where) -> Mask:
    # one C-level pass over the element types; bool is a type of its own
    if not isinstance(rle, list) or not set(map(type, rle)) <= {int}:
        raise ManifestError(f"{where}.rle: expected an integer array")
    try:
        return Mask(width, height, rle)
    except TrackmergeError as e:
        raise ManifestError(f"{where}.rle: {e}") from e


def _made(cls, where, **fields):
    """cls(**fields), with ``where`` before the message of its ManifestError."""
    try:
        return cls(**fields)
    except ManifestError as e:
        raise ManifestError(f"{where}: {e}") from e


def _proposal_from_json(obj, t, i, mask, tight) -> Proposal:
    """Proposal i of frame t, with its parsed ``mask`` and the mask's tight
    box ``tight`` (None for an empty mask)."""
    where = f"frames[{t}][{i}]"
    if "bbox" in obj and obj["bbox"] is not None:
        box = obj["bbox"]
        if not (isinstance(box, list) and len(box) == 4 and all(map(_is_int, box))):
            raise ManifestError(f"{where}.bbox: expected 4 integers, got {shown(box)}")
        if tight is None or box != [tight.x0, tight.y0, tight.x1, tight.y1]:
            raise ManifestError(f"{where}.bbox: not the tight bbox of the mask")
    elif tight is None:
        raise ManifestError(f"{where}: empty proposal mask has no bbox")
    objectness = _require(obj, "objectness", where)
    if not _is_real(objectness):
        raise ManifestError(f"{where}.objectness: expected a number, got {shown(objectness)}")
    try:
        objectness = float(objectness)
    except OverflowError as e:
        raise ManifestError(f"{where}.objectness: {e}") from e
    return _made(
        Proposal, where,
        frame_index=t,
        mask=mask,
        bbox=tight,
        objectness=objectness,
        embedding=_require_reals(obj, "embedding", where),
    )


def _frame_from_json(frame, t, width, height) -> list:
    """The proposals of frame t. Every stored box is checked against the
    tight boxes of the frame's masks, from one run table."""
    masks = []
    for i, obj in enumerate(frame):
        where = f"frames[{t}][{i}]"
        masks.append(_mask_from_rle(_require(obj, "rle", where), width, height, where))
    return [
        _proposal_from_json(obj, t, i, m, box)
        for i, (obj, m, box) in enumerate(zip(frame, masks, tight_boxes(masks)))
    ]


_KEYS = frozenset({"rle", "objectness", "embedding"})  # what every proposal must have


def _frames_at_once(frames, width, height) -> list | None:
    """The proposals of every frame, with the checks of _frame_from_json made
    once for all of them, in array form: the masks from one concatenation
    of all their runs (mask.masks_from_runs), their boxes from one run
    table, and one array each of the objectness values and the embeddings.
    None if any check fails, so that _frame_from_json, frame by frame, finds
    and names the first bad entry; also None when the embeddings' lengths
    differ, which VideoManifest names, and when there are no proposals."""
    objs = list(chain.from_iterable(frames))
    if not all(type(obj) is dict and obj.keys() >= _KEYS for obj in objs):
        return None
    masks = masks_from_runs([obj["rle"] for obj in objs], width, height)
    if masks is None:
        return None
    table = run_table(masks)
    if not table.areas.all():  # an empty mask has no bbox
        return None
    tight = table_boxes(table, height).T.tolist()
    given = [obj.get("bbox") for obj in objs]
    stored = [b for b in given if b is not None]
    objectness = [obj["objectness"] for obj in objs]
    embeddings = [obj["embedding"] for obj in objs]
    # one C-level pass over each set of item types; bool is a type of its own
    if not (
        all(type(b) is list for b in stored)
        and set(map(type, chain.from_iterable(stored))) <= {int}
        and all(b is None or b == tb for b, tb in zip(given, tight))
        and set(map(type, objectness)) <= _REALS
        and set(map(type, embeddings)) == {list}
        and set(map(type, chain.from_iterable(embeddings))) <= _REALS
        and len(set(map(len, embeddings))) == 1
    ):
        return None
    try:
        objectness = np.array(objectness, np.float64)
        embeddings = np.array(embeddings, np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    if not (((objectness >= 0) & (objectness <= 1)).all() and np.isfinite(embeddings).all()):
        return None
    embeddings.setflags(write=False)
    proposals = map(
        Proposal._trusted,
        chain.from_iterable(repeat(t, len(f)) for t, f in enumerate(frames)),
        masks, starmap(BBox, tight), objectness.tolist(), embeddings,
    )
    return [list(islice(proposals, len(f))) for f in frames]


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
        except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, or nested too deep
            raise ManifestError(f"{path}: not valid JSON ({e})") from e
    base_dir = os.path.dirname(os.path.abspath(path))
    width = _require_int(data, "width", "manifest")
    height = _require_int(data, "height", "manifest")
    gts = []
    for k, obj in enumerate(_require_list(data, "ground_truth", "manifest")):
        where = f"ground_truth[{k}]"
        mask = _mask_from_rle(_require(obj, "rle", where), width, height, where)
        if mask.is_empty:
            raise ManifestError(f"{where}.rle: empty first-frame mask has no bounding box")
        gts.append(
            _made(
                GroundTruthObject, where,
                object_id=_require_int(obj, "object_id", where),
                first_frame_mask=mask,
                first_frame_bbox=mask.bbox(),
                embedding=_require_reals(obj, "embedding", where),
            )
        )
    frames = _require_list(data, "frames", "manifest", {list})
    proposals = _frames_at_once(frames, width, height)
    if proposals is None:
        proposals = [_frame_from_json(frame, t, width, height) for t, frame in enumerate(frames)]
    flow_paths = _require_list(data, "flows", "manifest", {str})
    for p in flow_paths:
        if not os.path.isfile(os.path.join(base_dir, p)):
            raise ManifestError(f"flows: missing flow file '{p}'")
    return VideoManifest(
        video_id=_require(data, "video_id", "manifest"),
        width=width,
        height=height,
        frame_count=_require_int(data, "frame_count", "manifest"),
        embedding_dim=_require_int(data, "embedding_dim", "manifest"),
        proposals=proposals,
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

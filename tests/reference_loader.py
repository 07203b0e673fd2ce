"""The manifest loader as it was before it checked and converted proposals
in array form: every check made one proposal at a time, through the Mask
constructor. Used only as a test oracle. tests/test_loader_fuzz.py holds
the library's load_manifest to it: an equal manifest, or a ManifestError
with the same message. Kept unchanged; do not edit it to match the
library."""

import json
import os

import numpy as np

from trackmerge.errors import ManifestError, TrackmergeError, shown
from trackmerge.manifest import GroundTruthObject, Proposal, VideoManifest
from trackmerge.mask import Mask, tight_boxes


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
    frames = [
        _frame_from_json(frame, t, width, height)
        for t, frame in enumerate(_require_list(data, "frames", "manifest", {list}))
    ]
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
        proposals=frames,
        ground_truth=gts,
        flow_paths=flow_paths,
        base_dir=base_dir,
    )


"""Batch command-line front end.

Subcommands: synth, filter, merge, oracle, eval, search, ensemble. Usage
problems exit with code 2; runtime/data failures exit with code 1 and a
machine-readable JSON error line on stderr. All commands are deterministic
given their flags and seed, including under --jobs parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import repeat

import numpy as np

from .ensemble import majority_vote
from .errors import TrackmergeError
from .labelmap import read_frames, write_frames
from .manifest import filter_manifest, load_manifest, save_manifest
from .mask import Mask, Patch
from .merging import greedy_merge, oracle_merge, save_trackset
from .metrics import evaluate, write_report
from .scoring import COMPONENTS, WeightVector, effective_weights
from .search import OBJECTIVES, SearchConfig, load_top_k_weights, random_search, save_search_result
from .synth import (
    crossing_scenario,
    generate,
    random_scenario,
    save_scenario,
    single_object_scenario,
)

_COMPONENT_ALIASES = {
    "obj": "objectness",
    "objectness": "objectness",
    "reid": "reid",
    "maskprop": "maskprop",
    "inv_reid": "inv_reid",
    "invreid": "inv_reid",
    "inv_maskprop": "inv_maskprop",
    "invmaskprop": "inv_maskprop",
}


class UsageError(Exception):
    pass


def _jobs(args) -> int:
    """--jobs, else TRACKMERGE_JOBS, else 1; at least 1."""
    name, jobs = "--jobs", args.jobs
    if jobs is None:
        name, raw = "TRACKMERGE_JOBS", os.environ.get("TRACKMERGE_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise UsageError(f"TRACKMERGE_JOBS must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise UsageError(f"{name} must be at least 1, got {jobs}")
    return jobs


def _in_range(args, flag, lo, hi=math.inf):
    """The value of --flag; a usage error unless lo <= value <= hi, as NaN is not."""
    value = getattr(args, flag.replace("-", "_"))
    if not lo <= value <= hi:
        bounds = f"at least {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise UsageError(f"--{flag} must be {bounds}, got {value}")
    return value


def _filter_flags(args) -> tuple:
    return _in_range(args, "score-min", 0, 1), _in_range(args, "nms-iou", 0, 1)


def parse_weights(text: str) -> WeightVector:
    """'equal' or five comma-separated reals; sums within 1% of 1 are
    normalized, anything further off is rejected as a typo."""
    if text == "equal":
        return WeightVector.equal()
    parts = text.split(",")
    if len(parts) != 5:
        raise UsageError(f"expected 5 comma-separated weights, got {len(parts)}")
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError as e:
        raise UsageError(f"bad weight value: {e}") from e
    if not np.isfinite(vals).all():  # NaN would pass every test below
        raise UsageError("weights must be finite")
    if (vals < 0).any():
        raise UsageError("weights must be non-negative")
    with np.errstate(over="ignore"):  # huge weights sum to inf, rejected below
        total = vals.sum()
    if abs(total - 1.0) > 0.01:
        raise UsageError(f"weights sum to {total}, expected 1 (within 1%)")
    return WeightVector.from_array(vals / total)


def parse_components(text: str):
    names = set()
    for raw in text.split(","):
        key = raw.strip().lower()
        if key not in _COMPONENT_ALIASES:
            raise UsageError(f"unknown component '{raw}'")
        names.add(_COMPONENT_ALIASES[key])
    if not names:
        raise UsageError("component list is empty")
    return tuple(c in names for c in COMPONENTS)


def load_gt_dir(path):
    """Read a directory of per-frame GT label-map PGMs into the per-frame
    {object_id: Mask} layout used by evaluation and oracle merging. One
    compare over all the frames finds an object's pixels; the rows and
    columns that hold any give its box in each frame, and it is encoded
    from its crop there (Mask.from_patch), which its mask keeps for J and
    F."""
    maps = read_frames(path)
    w, h = maps[0].width, maps[0].height
    labels = np.stack([lm.labels for lm in maps])
    frames = [{} for _ in maps]
    for j in range(1, int(labels.max()) + 1):
        pixels = labels == j
        if not pixels.any():
            continue
        rows, cols = pixels.any(axis=2), pixels.any(axis=1)  # (frames, h), (frames, w)
        present = rows.any(axis=1).tolist()
        y0, x0 = rows.argmax(axis=1).tolist(), cols.argmax(axis=1).tolist()
        y1 = (h - rows[:, ::-1].argmax(axis=1)).tolist()
        x1 = (w - cols[:, ::-1].argmax(axis=1)).tolist()
        for t, frame in enumerate(frames):  # where j is absent its box is the whole frame
            crop = Patch(y0[t], x0[t], pixels[t, y0[t] : y1[t], x0[t] : x1[t]])
            frame[j] = Mask.from_patch(crop, w, h, tight=True) if present[t] else Mask.empty(w, h)
    if not frames[0]:
        raise TrackmergeError(f"{path}: ground truth contains no objects")
    return frames


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    frames, preset, seed = args.frames, args.preset, _in_range(args, "seed", 0)
    if frames is not None and preset == "crossing":
        raise UsageError("--frames does not apply to --preset crossing (10 frames)")
    least = 2 if preset == "random" else 1
    if frames is not None and frames < least:
        raise UsageError(f"--frames must be at least {least} for --preset {preset}, got {frames}")
    if preset == "single":
        spec = single_object_scenario(seed, frame_count=frames or 5)
    elif preset == "crossing":
        spec = crossing_scenario(seed)
    else:
        spec = random_scenario(seed, max_frames=frames or 6)
    save_scenario(generate(spec), args.out)


def cmd_filter(args):
    score_min, nms_iou = _filter_flags(args)
    m = load_manifest(args.manifest)
    save_manifest(filter_manifest(m, score_min, nms_iou), args.out)


def _resolve_weights(args) -> WeightVector:
    if args.weights_file:
        top = load_top_k_weights(args.weights_file)
        if not (0 <= args.weights_index < len(top)):
            raise UsageError(
                f"--weights-index {args.weights_index} out of range (file has {len(top)})"
            )
        return top[args.weights_index]
    return parse_weights(args.weights)


def cmd_merge(args):
    weights = _resolve_weights(args)
    active = parse_components(args.components) if args.components else (True,) * 5
    effective_weights(weights, active)  # reject empty/invalid combos up front
    jobs = _jobs(args)
    # load and merge every manifest before the first write, so that a bad
    # manifest or flow file leaves --out alone
    manifests = [load_manifest(p) for p in args.manifest]
    shared = repeat(weights), repeat(active)
    if jobs > 1 and len(manifests) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(manifests))) as pool:
            merged = list(pool.map(greedy_merge, manifests, *shared))
    else:
        merged = list(map(greedy_merge, manifests, *shared))
    for ts in merged:
        save_trackset(ts, args.out)


def cmd_oracle(args):
    m = load_manifest(args.manifest)
    gt = load_gt_dir(args.gt)
    save_trackset(oracle_merge(m, gt), args.out)


def cmd_eval(args):
    if args.tolerance is not None:
        _in_range(args, "tolerance", 0)
    pred = read_frames(args.pred)
    gt = load_gt_dir(args.gt)
    res = evaluate(pred, gt, tolerance=args.tolerance, exclude_last=args.exclude_last)
    write_report(res, args.out, args.csv)


def cmd_search(args):
    jobs, seed = _jobs(args), _in_range(args, "seed", 0)
    samples = _in_range(args, "samples", 1)
    top_k = _in_range(args, "top-k", 1, samples)
    score_min, nms_iou = _filter_flags(args)
    cfg = SearchConfig(sample_count=samples, seed=seed, top_k=top_k, objective=args.objective)
    videos = []
    for d in args.data:
        m = load_manifest(os.path.join(d, "manifest.json"))
        m = filter_manifest(m, score_min, nms_iou)
        videos.append((m, load_gt_dir(os.path.join(d, "gt"))))
    save_search_result(random_search(videos, cfg, jobs=jobs), args.out)


def _video_dirs(root) -> list:
    return sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))


def cmd_ensemble(args):
    first, *rest = args.inputs
    video_ids = _video_dirs(first)
    if not video_ids:
        raise TrackmergeError(f"no video subdirectories in {first}")
    for inp in rest:  # check every input before writing anything
        differ = sorted(set(_video_dirs(inp)) ^ set(video_ids))
        if differ:
            raise TrackmergeError(f"inputs {first} and {inp} differ in videos {differ}")
    # vote every video before writing any, so a bad input leaves --out alone
    voted = [
        majority_vote([read_frames(os.path.join(inp, vid)) for inp in args.inputs])
        for vid in video_ids
    ]
    for vid, maps in zip(video_ids, voted):
        write_frames(maps, os.path.join(args.out, vid))


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="trackmerge",
        description="Select and link per-frame mask proposals into multi-object video tracks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic scenario directory")
    sp.add_argument("--out", required=True)
    sp.add_argument("--preset", choices=["single", "crossing", "random"], default="single")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--frames", type=int, default=None, help="single: 5; random: at most 6")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("filter", help="score-threshold + NMS proposal filtering")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--score-min", type=float, default=0.05)
    sp.add_argument("--nms-iou", type=float, default=0.66)
    sp.set_defaults(func=cmd_filter)

    sp = sub.add_parser("merge", help="greedy track building; writes PGMs + selections.json")
    sp.add_argument("--manifest", required=True, nargs="+")
    sp.add_argument("--out", required=True)
    sp.add_argument("--weights", default="equal")
    sp.add_argument("--weights-file", default=None, help="search result JSON")
    sp.add_argument("--weights-index", type=int, default=0, help="row of the top-k list")
    sp.add_argument("--components", default=None, help="comma list, e.g. obj,reid,maskprop")
    sp.add_argument("--jobs", type=int, default=None, help="default: $TRACKMERGE_JOBS or 1")
    sp.set_defaults(func=cmd_merge)

    sp = sub.add_parser("oracle", help="upper-bound merging against full-video GT")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--gt", required=True, help="directory of GT label-map PGMs")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("eval", help="J/F mean-recall-decay report")
    sp.add_argument("--pred", required=True, help="video directory of predicted PGMs")
    sp.add_argument("--gt", required=True, help="directory of GT label-map PGMs")
    sp.add_argument("--out", required=True, help="JSON report path")
    sp.add_argument("--csv", default=None)
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--exclude-last", action="store_true")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("search", help="random-search weight optimization")
    sp.add_argument("--data", required=True, nargs="+", help="scenario directories")
    sp.add_argument("--out", required=True)
    sp.add_argument("--samples", type=int, default=25000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--top-k", type=int, default=11)
    sp.add_argument("--objective", choices=OBJECTIVES, default="jf_mean")
    sp.add_argument("--score-min", type=float, default=0.05)
    sp.add_argument("--nms-iou", type=float, default=0.66)
    sp.add_argument("--jobs", type=int, default=None, help="default: $TRACKMERGE_JOBS or 1")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("ensemble", help="pixel-wise majority vote over result trees")
    sp.add_argument("--inputs", required=True, nargs="+", help="merge output directories")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ensemble)

    return p


_parser = cache(build_parser)  # one per process: main may run many times


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as e:
        print(json.dumps({"error": "usage", "message": str(e)}), file=sys.stderr)
        return 2
    except (TrackmergeError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

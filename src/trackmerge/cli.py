"""Batch command-line front end.

Subcommands: synth, filter, merge, oracle, eval, search, ensemble. Usage
problems exit with code 2; runtime/data failures exit with code 1 and a
machine-readable JSON error line on stderr. All commands are deterministic
given their flags and seed, including under --jobs parallelism.
"""

from __future__ import annotations

import argparse
import json
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
from .merging import greedy_merge, oracle_merge, save_trackset
from .metrics import evaluate, write_report
from .scoring import COMPONENTS, WeightVector, effective_weights
from .search import SearchConfig, load_top_k_weights, random_search, save_search_result
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
    """--jobs, else TRACKMERGE_JOBS, else 1."""
    if args.jobs is not None:
        return args.jobs
    raw = os.environ.get("TRACKMERGE_JOBS", "1")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"TRACKMERGE_JOBS must be an integer, got {raw!r}") from None


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
    {object_id: Mask} layout used by evaluation and oracle merging."""
    maps = read_frames(path)
    present = np.zeros(256, dtype=bool)  # labels are bytes
    for lm in maps:
        present |= np.bincount(lm.labels.ravel(), minlength=256) > 0
    ids = np.flatnonzero(present[1:]) + 1
    if not ids.size:
        raise TrackmergeError(f"{path}: ground truth contains no objects")
    return [{int(j): lm.object_mask(int(j)) for j in ids} for lm in maps]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    if args.preset == "single":
        spec = single_object_scenario(args.seed, frame_count=args.frames or 5)
    elif args.preset == "crossing":
        spec = crossing_scenario(args.seed)
    else:
        spec = random_scenario(args.seed, max_frames=args.frames or 6)
    save_scenario(generate(spec), args.out)


def cmd_filter(args):
    m = load_manifest(args.manifest)
    save_manifest(filter_manifest(m, args.score_min, args.nms_iou), args.out)


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
    pred = read_frames(args.pred)
    gt = load_gt_dir(args.gt)
    res = evaluate(pred, gt, tolerance=args.tolerance, exclude_last=args.exclude_last)
    write_report(res, args.out, args.csv)


def cmd_search(args):
    jobs = _jobs(args)
    videos = []
    for d in args.data:
        m = load_manifest(os.path.join(d, "manifest.json"))
        m = filter_manifest(m, args.score_min, args.nms_iou)
        videos.append((m, load_gt_dir(os.path.join(d, "gt"))))
    cfg = SearchConfig(
        sample_count=args.samples,
        seed=args.seed,
        top_k=args.top_k,
        objective=args.objective,
    )
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
    sp.add_argument("--frames", type=int, default=None)
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
    sp.add_argument("--objective", choices=["jf_mean", "j_mean", "f_mean"], default="jf_mean")
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

"""Per-layer timers and counters around trackmerge's public functions.

A Tracer replaces every binding of each traced function inside the
trackmerge package (``merging.warp_mask`` as well as ``flow.warp_mask``)
with a wrapper, and puts the originals back on exit. Nothing in the package
itself changes. Statistics go into the current bucket, so the benchmark can
keep set-up and each job apart.
"""

from __future__ import annotations

import os
import sys
import time

# layer name -> (module, attribute); "Class.method" names a method.
LAYERS = {
    "mask.intersection_area": ("trackmerge.mask", "intersection_area"),
    "mask.from_dense": ("trackmerge.mask", "Mask.from_dense"),
    "mask.boundary": ("trackmerge.mask", "boundary"),
    "mask.dilate": ("trackmerge.mask", "dilate"),
    "flow.warp_mask": ("trackmerge.flow", "warp_mask"),
    "flow.load_flo": ("trackmerge.flow", "load_flo"),
    "scoring.compute_video_max_distances": ("trackmerge.scoring", "compute_video_max_distances"),
    "scoring.reid_score": ("trackmerge.scoring", "reid_score"),
    "scoring.inverse_scores": ("trackmerge.scoring", "inverse_scores"),
    "scoring.combined_score": ("trackmerge.scoring", "combined_score"),
    "merging.greedy_merge": ("trackmerge.merging", "greedy_merge"),
    "merging.save_trackset": ("trackmerge.merging", "save_trackset"),
    "metrics.evaluate": ("trackmerge.metrics", "evaluate"),
    "metrics.f_measure": ("trackmerge.metrics", "f_measure"),
    "metrics.j_measure": ("trackmerge.metrics", "j_measure"),
    "labelmap.object_mask": ("trackmerge.labelmap", "LabelMap.object_mask"),
    "labelmap.read_pgm": ("trackmerge.labelmap", "read_pgm"),
    "labelmap.write_pgm": ("trackmerge.labelmap", "write_pgm"),
    "ensemble.majority_vote": ("trackmerge.ensemble", "majority_vote"),
    "search.random_search": ("trackmerge.search", "random_search"),
    "manifest.load_manifest": ("trackmerge.manifest", "load_manifest"),
    "manifest.filter_proposals": ("trackmerge.manifest", "filter_proposals"),
    "synth.generate": ("trackmerge.synth", "generate"),
    "synth.save_scenario": ("trackmerge.synth", "save_scenario"),
    **{
        f"cli.{c}": ("trackmerge.cli", f"cmd_{c}")
        for c in ("synth", "filter", "merge", "oracle", "eval", "search", "ensemble")
    },
}


class LayerStat:
    __slots__ = ("calls", "s", "self_s", "bytes", "kept", "offered", "results")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.bytes = 0
        self.kept = 0
        self.offered = 0
        self.results = set()


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _tree_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _count_bytes(size_of):
    def hook(st, args, result):
        st.bytes += size_of(args)
    return hook


def _count_distinct(key):
    def hook(st, args, result):
        st.results.add(key(result))
    return hook


def _count_kept(st, args, result):
    st.offered += len(args[0])
    st.kept += len(result)


# layer name -> hook(stat, args, result), run after a successful call
_HOOKS = {
    "flow.load_flo": _count_bytes(lambda a: _file_bytes(a[0])),
    "manifest.load_manifest": _count_bytes(lambda a: _file_bytes(a[0])),
    "labelmap.read_pgm": _count_bytes(lambda a: _file_bytes(a[0])),
    "labelmap.write_pgm": _count_bytes(lambda a: _file_bytes(a[1])),
    "merging.save_trackset": _count_bytes(
        lambda a: _tree_bytes(os.path.join(a[1], a[0].video_id))
    ),
    "merging.greedy_merge": _count_distinct(
        lambda ts: (ts.video_id, tuple((j, tuple(s)) for j, s in sorted(ts.selections.items())))
    ),
    "metrics.evaluate": _count_distinct(
        lambda res: tuple((j, r.j_mean, r.f_mean) for j, r in sorted(res.per_object.items()))
    ),
    "manifest.filter_proposals": _count_kept,
}


class Tracer:
    """Context manager that installs the wrappers; ``bucket`` receives stats."""

    def __init__(self):
        self.bucket = {}
        self._stack = []
        self._undo = []

    def new_bucket(self) -> dict:
        self.bucket = {}
        return self.bucket

    def _wrap(self, name, func):
        hook = _HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = self.bucket.get(name)
                if st is None:
                    st = self.bucket[name] = LayerStat()
                st.calls += 1
                st.s += dt
                st.self_s += dt - children[0]
            if hook is not None:
                hook(st, args, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "trackmerge"]
        for name, (module_name, attr) in LAYERS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        return False


def per_job(setup: dict, jobs: list) -> dict:
    """Layer metrics for one set-up plus the mean of the traced jobs.

    Counts, times and bytes add the set-up bucket to the per-job mean.
    ``distinct_frac`` is taken within each job (every job repeats the same
    work, so pooling jobs would shrink it) and ``kept_frac`` over all calls.
    """
    out = {}
    n = len(jobs)
    for name in LAYERS:
        parts = [b[name] for b in jobs if name in b]
        s0 = setup.get(name, LayerStat())
        calls = s0.calls + sum(p.calls for p in parts) / n
        distinct = [len(p.results) / p.calls for p in parts if p.calls]
        offered = s0.offered + sum(p.offered for p in parts)
        out[name] = {
            "calls": calls,
            "s": s0.s + sum(p.s for p in parts) / n,
            "self_s": s0.self_s + sum(p.self_s for p in parts) / n,
            "bytes": s0.bytes + sum(p.bytes for p in parts) / n,
            "distinct_frac": sum(distinct) / len(distinct) if distinct else 0.0,
            "kept_frac": (s0.kept + sum(p.kept for p in parts)) / offered if offered else 0.0,
        }
    return out

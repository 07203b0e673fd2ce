"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), hands every job a
cold copy of them (``prepare``: no decoded-mask caches, no earlier outputs),
runs one whole job (``run``, which also fingerprints the job's outputs so
that runs can be compared) and checks the last job against independent
references (``check``, which returns a list of problems).
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from trackmerge import cli, ensemble, merging, metrics, search, synth
from trackmerge import manifest as mf
from trackmerge.mask import Mask
from trackmerge.scoring import WeightVector

import independent as ind
from naive_reference import naive_selections

TOL = 1e-12


@dataclass
class Job:
    """Timings, work counts and outputs of one job."""

    stage_s: dict = field(default_factory=lambda: dict.fromkeys(("search", "merge", "eval"), 0.0))
    work: dict = field(default_factory=lambda: dict.fromkeys(("search", "merge", "eval"), 0))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    digest: str = ""
    out: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def stage(self, name, work):
        t0 = time.perf_counter()
        yield
        self.stage_s[name] += time.perf_counter() - t0
        self.work[name] += work


# ---------------------------------------------------------------------------
# scenes


def place_objects(rng, width, height, frames, shapes, max_speed):
    """ShapeSpecs moving inside the frame whose bounding boxes stay pairwise
    disjoint on every frame, so no two objects ever overlap."""
    for _ in range(1000):
        specs = []
        for shape, (w, h) in shapes:
            vx, vy = (int(v) for v in rng.integers(-max_speed, max_speed + 1, size=2))
            span_x, span_y = (frames - 1) * vx, (frames - 1) * vy
            lo_x, hi_x = max(0, -span_x), width - w - max(0, span_x)
            lo_y, hi_y = max(0, -span_y), height - h - max(0, span_y)
            if hi_x < lo_x or hi_y < lo_y:
                break
            start = (int(rng.integers(lo_x, hi_x + 1)), int(rng.integers(lo_y, hi_y + 1)))
            specs.append(synth.ShapeSpec(shape, (w, h), start, (vx, vy)))
        else:
            if _boxes_disjoint(specs, frames):
                return tuple(specs)
    raise RuntimeError("no disjoint object layout found")


def _boxes_disjoint(specs, frames) -> bool:
    for t in range(frames):
        boxes = [(*s.position(t), *s.size) for s in specs]
        for a, (x1, y1, w1, h1) in enumerate(boxes):
            for x2, y2, w2, h2 in boxes[a + 1 :]:
                if x1 < x2 + w2 and x2 < x1 + w1 and y1 < y2 + h2 and y2 < y1 + h1:
                    return False
    return True


def scene_spec(rng, video_id, width, height, frames, shapes, max_speed,
               distractors, spurious_rate, noise, planted=0):
    """A ScenarioSpec from the benchmark's own RNG. Objects keep the default
    objectness 0.9, above every distractor (at most 0.85) and planted shape
    (0.8), so filtering always keeps the ground-truth proposals."""
    objects = place_objects(rng, width, height, frames, shapes, max_speed)
    still = []
    for _ in range(planted):
        w, h = shapes[0][1]
        start = (int(rng.integers(0, width - w + 1)), int(rng.integers(0, height - h + 1)))
        still.append(synth.ShapeSpec("rect", (w, h), start, (0, 0), objectness=0.8))
    return synth.ScenarioSpec(
        seed=int(rng.integers(0, 2**31)),
        frame_count=frames,
        width=width,
        height=height,
        objects=objects,
        planted=tuple(still),
        distractor_count=distractors,
        embedding_noise=noise,
        spurious_rate=spurious_rate,
        video_id=video_id,
    )


def cold_copy(m):
    """The same manifest built from fresh Mask objects (nothing decoded)."""
    def fresh(mask):
        return Mask(mask.width, mask.height, mask.runs)

    return mf.VideoManifest(
        video_id=m.video_id,
        width=m.width,
        height=m.height,
        frame_count=m.frame_count,
        embedding_dim=m.embedding_dim,
        proposals=[
            [mf.Proposal(p.frame_index, fresh(p.mask), p.bbox, p.objectness, p.embedding)
             for p in frame]
            for frame in m.proposals
        ],
        ground_truth=[
            mf.GroundTruthObject(g.object_id, fresh(g.first_frame_mask),
                                 g.first_frame_bbox, g.embedding)
            for g in m.ground_truth
        ],
        flow_paths=m.flow_paths,
        preloaded_flows=m.preloaded_flows,
        base_dir=m.base_dir,
    )


def cold_gt(gt_all_frames):
    return [{j: Mask(m.width, m.height, m.runs) for j, m in f.items()} for f in gt_all_frames]


def dense_gt(gt_all_frames):
    """GT masks decoded by the benchmark's own RLE decoder."""
    return [
        {j: ind.decode_rle(m.runs, m.width, m.height) for j, m in f.items()}
        for f in gt_all_frames
    ]


def labels_digest(*sequences) -> str:
    h = hashlib.sha256()
    for seq in sequences:
        for lm in seq:
            h.update(lm.labels.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# shared checks


def check_eval(got, got_jf, pred_labels, gt_masks, where):
    """Reported per-object (J mean, F mean) and J&F against the reference."""
    problems = []
    per_object, jf = ind.jf_means(pred_labels, gt_masks)
    for j, want in per_object.items():
        if any(abs(a - b) > TOL for a, b in zip(got[j], want)):
            problems.append(f"{where} object {j}: J/F means {got[j]}, reference {want}")
    if abs(got_jf - jf) > TOL:
        problems.append(f"{where}: J&F {got_jf}, reference {jf}")
    return problems


def check_evaluate(res, pred_labels, gt_masks, where):
    got = {j: (r.j_mean, r.f_mean) for j, r in res.per_object.items()}
    return check_eval(got, res.jf_mean, pred_labels, gt_masks, where)


def check_sampled_frames(rng, pred_labels, gt_masks, proposals, where, count):
    """metrics.j_measure / f_measure on sampled (frame, object) pairs: the
    prediction, and the two proposals that overlap the object most without
    matching it, against the ground truth."""
    problems = []
    h, w = pred_labels[0].shape
    tol = ind.boundary_tolerance(w, h)
    ids = sorted(gt_masks[0])
    for _ in range(count):
        t = int(rng.integers(1, len(pred_labels)))
        j = ids[int(rng.integers(len(ids)))]
        gt = gt_masks[t][j]
        scored = [(ind.j_score(m, gt), m) for m in
                  (ind.decode_rle(p.mask.runs, w, h) for p in proposals[t])]
        near = sorted((x for x in scored if x[0] < 1), key=lambda x: -x[0])[:2]
        for pred in [pred_labels[t] == j] + [m for _, m in near]:
            got = (
                metrics.j_measure(Mask.from_dense(pred), Mask.from_dense(gt)),
                metrics.f_measure(Mask.from_dense(pred), Mask.from_dense(gt), tol),
            )
            want = (ind.j_score(pred, gt), ind.f_score(pred, gt, tol))
            if abs(got[0] - want[0]) > TOL or abs(got[1] - want[1]) > TOL:
                problems.append(f"{where} frame {t} object {j}: J/F {got}, reference {want}")
    return problems


def check_vote(inputs, voted, where):
    """Majority vote against the reference mode, frame by frame."""
    for t, got in enumerate(voted):
        want = ind.vote(np.stack([seq[t] for seq in inputs]))
        if not np.array_equal(got, want):
            return [f"{where} frame {t}: vote differs from the per-pixel mode"]
    return []


def check_oracle(oracle_jf, greedy_jfs, where):
    if oracle_jf < max(greedy_jfs) - TOL:
        return [f"{where}: oracle J&F {oracle_jf} below greedy {max(greedy_jfs)}"]
    return []


def check_ranked(ranked, candidate0_weights):
    """Problems with a search ranking given as (index, weights, score) rows."""
    problems = []
    if sorted(i for i, _, _ in ranked) != list(range(len(ranked))):
        problems.append("ranking is not a permutation of the candidates")
    for (i1, _, s1), (i2, _, s2) in zip(ranked, ranked[1:]):
        if s2 > s1 or (s2 == s1 and i2 < i1):
            problems.append(f"ranking out of order at candidates {i1}, {i2}")
            break
    if list(candidate0_weights) != [0.2] * 5:
        problems.append(f"candidate 0 is {list(candidate0_weights)}, not equal weights")
    return problems


def check_selections(m, weights, selections, where):
    want = naive_selections(m, weights.as_array())
    if selections != want:
        return [f"{where}: selections differ from the naive reference"]
    return []


# ---------------------------------------------------------------------------
# search_corpus


class SearchCorpus:
    """In-process random_search over crossing plus three small scenes, then
    the top-11 merges, their vote (the paper's procedure), the oracle and
    evaluation."""

    name = "search_corpus"
    candidates = 32
    top_k = 11
    scenes = (  # video_id, width, height, frames, shapes, distractors, spurious, planted
        ("small_a", 48, 32, 8, (("rect", (7, 6)), ("ellipse", (8, 7))), 3, 0.4, 0),
        ("small_b", 40, 40, 8, (("rect", (6, 6)), ("rect", (5, 7)), ("ellipse", (7, 7))), 2, 0.3, 1),
        ("small_c", 56, 28, 8, (("ellipse", (9, 6)), ("rect", (6, 8))), 4, 0.5, 0),
    )

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        specs = [synth.crossing_scenario(0)] + [
            scene_spec(rng, vid, w, h, n, shapes, 2, d, sp, 0.1, planted)
            for vid, w, h, n, shapes, d, sp, planted in self.scenes
        ]
        videos = []
        for spec in specs:
            r = synth.generate(spec)
            videos.append((mf.filter_manifest(r.manifest), r.gt_all_frames))
        return {"videos": videos}

    def prepare(self, inputs):
        return [(cold_copy(m), cold_gt(gt)) for m, gt in inputs["videos"]]

    def run(self, videos, seed, job):
        cfg = search.SearchConfig(sample_count=self.candidates, seed=seed, top_k=self.top_k)
        with job.stage("search", self.candidates):
            res = search.random_search(videos, cfg, jobs=1)
        job.attempted += 1
        frames = sum(m.frame_count for m, _ in videos)
        with job.stage("merge", self.top_k * frames):
            merged = [[merging.greedy_merge(m, w) for w in res.top_k_weights] for m, _ in videos]
        job.attempted += self.top_k * len(videos)
        voted = [ensemble.majority_vote([ts.label_maps for ts in tss]) for tss in merged]
        oracles = [merging.oracle_merge(m, gt) for m, gt in videos]
        job.attempted += 2 * len(videos)
        with job.stage("eval", (self.top_k + 2) * (frames - len(videos))):
            evals = [
                (
                    [metrics.evaluate(ts.label_maps, gt) for ts in tss],
                    metrics.evaluate(v, gt),
                    metrics.evaluate(o.label_maps, gt),
                )
                for tss, v, o, (_, gt) in zip(merged, voted, oracles, videos)
            ]
        job.attempted += (self.top_k + 2) * len(videos)
        job.out = {"res": res, "merged": merged, "voted": voted, "oracles": oracles, "evals": evals}
        job.digest = labels_digest(*voted, *(o.label_maps for o in oracles)) + repr(
            [ts.selections for tss in merged for ts in tss]
        )

    def check(self, inputs, job, rng):
        res, out = job.out["res"], job.out
        problems = check_ranked(res.ranked, res.trace[0]["weights"])
        greedy_jf = np.zeros((len(inputs["videos"]), self.top_k))
        for v, (m, gt) in enumerate(inputs["videos"]):
            gt_masks = dense_gt(gt)
            ev_merged, ev_voted, ev_oracle = out["evals"][v]
            merged = [[lm.labels for lm in ts.label_maps] for ts in out["merged"][v]]
            for k, (w, ts) in enumerate(zip(res.top_k_weights, out["merged"][v])):
                where = f"{m.video_id} top-{k}"
                problems += check_selections(m, w, ts.selections, where)
                problems += check_evaluate(ev_merged[k], merged[k], gt_masks, where)
                greedy_jf[v, k] = ev_merged[k].jf_mean
            voted = [lm.labels for lm in out["voted"][v]]
            oracle = [lm.labels for lm in out["oracles"][v].label_maps]
            problems += check_vote(merged, voted, m.video_id)
            problems += check_evaluate(ev_voted, voted, gt_masks, f"{m.video_id} vote")
            problems += check_evaluate(ev_oracle, oracle, gt_masks, f"{m.video_id} oracle")
            problems += check_oracle(ev_oracle.jf_mean, greedy_jf[v], m.video_id)
            problems += check_sampled_frames(rng, voted, gt_masks, m.proposals, m.video_id, 2)
        for k, (_, _, score) in enumerate(res.ranked[: self.top_k]):
            want = float(np.mean(greedy_jf[:, k]))
            if abs(score - want) > TOL:
                problems.append(f"search score of rank {k} is {score}, reference {want}")
        return problems


# ---------------------------------------------------------------------------
# davis_scene


class DavisScene:
    """One 854x480, 20-frame scene with 3 objects and ~27 proposals per frame
    after filtering: greedy merges with fixed weights on all frames, their
    vote and the oracle, evaluate of the vote on its first frames, and a
    2-candidate search on the first 2 frames. Evaluating all 20 frames takes
    about 15 s, so a run would hold one job and each rate one sample; the
    shorter job puts several samples of every stage into a run."""

    name = "davis_scene"
    weights = (
        WeightVector.equal(),
        WeightVector(0.1, 0.2, 0.5, 0.1, 0.1),
        WeightVector(0.3, 0.3, 0.2, 0.1, 0.1),
    )
    clip_frames = 2
    clip_candidates = 2
    eval_frames = 4

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        spec = scene_spec(
            rng, "davis", 854, 480, 20,
            (("ellipse", (150, 110)), ("rect", (110, 150)), ("ellipse", (120, 120))),
            6, 23, 0.5, 0.05, planted=1,
        )
        r = synth.generate(spec)
        return {"manifest": mf.filter_manifest(r.manifest), "gt": r.gt_all_frames}

    def clip(self, m):
        """The first frames of the scene, for the small search."""
        n = self.clip_frames
        return mf.VideoManifest(
            video_id=f"{m.video_id}_clip",
            width=m.width,
            height=m.height,
            frame_count=n,
            embedding_dim=m.embedding_dim,
            proposals=m.proposals[:n],
            ground_truth=m.ground_truth,
            flow_paths=m.flow_paths[: n - 1],
            preloaded_flows=m.preloaded_flows[: n - 1],
        )

    def prepare(self, inputs):
        m, gt = cold_copy(inputs["manifest"]), cold_gt(inputs["gt"])
        return m, gt, self.clip(m), gt[: self.clip_frames]

    def run(self, fresh, seed, job):
        m, gt, clip, clip_gt = fresh
        cfg = search.SearchConfig(sample_count=self.clip_candidates, seed=seed, top_k=1)
        with job.stage("search", self.clip_candidates):
            res = search.random_search([(clip, clip_gt)], cfg, jobs=1)
        job.attempted += 1
        with job.stage("merge", len(self.weights) * m.frame_count):
            merged = [merging.greedy_merge(m, w) for w in self.weights]
        job.attempted += len(self.weights)
        voted = ensemble.majority_vote([ts.label_maps for ts in merged])
        oracle = merging.oracle_merge(m, gt)
        job.attempted += 2
        n = self.eval_frames
        with job.stage("eval", n - 1):
            ev = metrics.evaluate(voted[:n], gt[:n])
        job.attempted += 1
        job.out = {"res": res, "merged": merged, "voted": voted, "oracle": oracle, "eval": ev}
        job.digest = labels_digest(voted, oracle.label_maps, *(ts.label_maps for ts in merged))

    def check(self, inputs, job, rng):
        out, res = job.out, job.out["res"]
        m, gt_masks = inputs["manifest"], dense_gt(inputs["gt"])
        problems = check_ranked(res.ranked, res.trace[0]["weights"])
        clip = self.clip(m)
        clip_gt = gt_masks[: self.clip_frames]
        for i, w, score in res.ranked:
            ts = merging.greedy_merge(clip, w)
            _, want = ind.jf_means([lm.labels for lm in ts.label_maps], clip_gt)
            if abs(score - want) > TOL:
                problems.append(f"clip search score of candidate {i} is {score}, reference {want}")
        merged = [[lm.labels for lm in ts.label_maps] for ts in out["merged"]]
        voted = [lm.labels for lm in out["voted"]]
        oracle = [lm.labels for lm in out["oracle"].label_maps]
        _, oracle_jf = ind.jf_means(oracle, gt_masks)
        if abs(oracle_jf - 1.0) > TOL:
            problems.append(f"oracle J&F is {oracle_jf}, expected 1.0")
        problems += check_oracle(oracle_jf, [ind.jf_means(s, gt_masks)[1] for s in merged], m.video_id)
        problems += check_vote(merged, voted, m.video_id)
        n = self.eval_frames
        problems += check_evaluate(out["eval"], voted[:n], gt_masks[:n], f"{m.video_id} vote")
        problems += check_sampled_frames(rng, voted, gt_masks, m.proposals, m.video_id, 2)
        return problems


# ---------------------------------------------------------------------------
# cli_pipeline


def _run_cli(argv, job=None):
    """trackmerge.cli.main(argv), counted as one of the job's operations; any
    exit code but 0 is an error."""
    if job is not None:
        job.attempted += 1
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"trackmerge {argv[0]} exited {code}: {err.getvalue().strip()}")


def _expect_data_error(argv):
    """None if main() reports the bad input as promised (exit 1 and a JSON
    error line on stderr), else what it did instead."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # the failure this operation exists to count
        return f"raised {type(e).__name__}: {e}"
    lines = err.getvalue().strip().splitlines()
    try:
        reported = bool(lines) and "error" in json.loads(lines[-1])
    except ValueError:
        reported = False
    if code == 1 and reported:
        return None
    return f"exited {code} with stderr {err.getvalue().strip()!r}"


def _read_dir(path):
    return [ind.read_p5(f) for f in sorted(glob.glob(os.path.join(path, "*.pgm")))]


class CliPipeline:
    """trackmerge.cli.main over scenario directories on disk: filter, search,
    four merges, ensemble, oracle, eval of every result, and one merge of a
    manifest with object_id 300 that must end in a data error."""

    name = "cli_pipeline"
    samples = 12
    top_k = 3
    # Merges fed to the ensemble: the two best searched vectors and two
    # single-cue vectors. Their outputs differ, so the vote meets ties.
    merges = ((None, "0"), (None, "1"), ("1,0,0,0,0", None), ("0,1,0,0,0", None))
    mid_shapes = (("rect", (20, 16)), ("ellipse", (24, 20)), ("rect", (16, 22)))

    def setup(self, seed, workdir):
        crossing, mid = os.path.join(workdir, "crossing"), os.path.join(workdir, "mid")
        _run_cli(["synth", "--out", crossing, "--preset", "crossing", "--seed", str(seed)])
        rng = np.random.default_rng([seed, 3])
        spec = scene_spec(rng, "mid", 160, 120, 10, self.mid_shapes, 4, 8, 0.3, 0.08, planted=1)
        synth.save_scenario(synth.generate(spec), mid)
        with open(os.path.join(crossing, "manifest.json"), encoding="utf-8") as f:
            bad = json.load(f)
        bad["ground_truth"][0]["object_id"] = 300
        with open(os.path.join(crossing, "manifest_id300.json"), "w", encoding="utf-8") as f:
            json.dump(bad, f)
        videos = []
        for d in (crossing, mid):
            with open(os.path.join(d, "manifest.json"), encoding="utf-8") as f:
                data = json.load(f)
            videos.append((d, data["video_id"], data["frame_count"]))
        return {"videos": videos, "bad": os.path.join(crossing, "manifest_id300.json"),
                "job_dir": os.path.join(workdir, "job")}

    def prepare(self, inputs):
        shutil.rmtree(inputs["job_dir"], ignore_errors=True)
        os.makedirs(inputs["job_dir"])
        return inputs

    def run(self, inputs, seed, job):
        out = inputs["job_dir"]
        dirs = [d for d, _, _ in inputs["videos"]]
        filtered = [os.path.join(d, "filtered.json") for d in dirs]
        for d, f in zip(dirs, filtered):
            _run_cli(["filter", "--manifest", os.path.join(d, "manifest.json"), "--out", f], job)
        search_json = os.path.join(out, "search.json")
        with job.stage("search", self.samples):
            _run_cli(["search", "--data", *dirs, "--out", search_json, "--samples",
                      str(self.samples), "--seed", str(seed), "--top-k", str(self.top_k),
                      "--jobs", "1"], job)
        frames = sum(n for _, _, n in inputs["videos"])
        merges = [os.path.join(out, f"merge_{i}") for i in range(len(self.merges))]
        with job.stage("merge", len(self.merges) * frames):
            for d, (weights, index) in zip(merges, self.merges):
                how = ["--weights", weights] if weights else [
                    "--weights-file", search_json, "--weights-index", index]
                _run_cli(["merge", "--manifest", *filtered, "--out", d, *how, "--jobs", "1"], job)
        _run_cli(["ensemble", "--inputs", *merges, "--out", os.path.join(out, "voted")], job)
        for f, d in zip(filtered, dirs):
            _run_cli(["oracle", "--manifest", f, "--gt", os.path.join(d, "gt"), "--out",
                      os.path.join(out, "oracle")], job)
        results = [os.path.basename(r) for r in merges] + ["voted", "oracle"]
        with job.stage("eval", len(results) * (frames - len(dirs))):
            for r in results:
                for d, vid, _ in inputs["videos"]:
                    _run_cli(["eval", "--pred", os.path.join(out, r, vid), "--gt",
                              os.path.join(d, "gt"), "--out",
                              os.path.join(out, f"eval_{r}_{vid}.json")], job)
        failure = _expect_data_error(["merge", "--manifest", inputs["bad"], "--out",
                                      os.path.join(out, "bad"), "--jobs", "1"])
        job.attempted += 1
        if failure is not None:
            job.failed += 1
            job.failures.append(f"merge of a manifest with object_id 300 {failure}")
        h = hashlib.sha256()
        for path in sorted(glob.glob(os.path.join(out, "**", "*"), recursive=True)):
            if os.path.isfile(path):
                with open(path, "rb") as f:
                    h.update(path.encode() + f.read())
        job.digest = h.hexdigest()

    def check(self, inputs, job, rng):
        out = inputs["job_dir"]
        with open(os.path.join(out, "search.json"), encoding="utf-8") as f:
            sr = json.load(f)
        ranked = [(r["index"], r["weights"], r["score"]) for r in sr["ranked"]]
        problems = check_ranked(ranked, sr["trace"][0]["weights"])
        if sr["top_k"] != [w for _, w, _ in ranked[: self.top_k]]:
            problems.append("search top_k is not the head of the ranking")
        weights = [
            [float(x) for x in w.split(",")] if w else sr["top_k"][int(i)] for w, i in self.merges
        ]
        greedy_jf = np.zeros((len(inputs["videos"]), len(self.merges)))
        for v, (d, vid, _) in enumerate(inputs["videos"]):
            gt_labels = _read_dir(os.path.join(d, "gt"))
            ids = sorted(set(np.unique(np.stack(gt_labels))) - {0})
            gt_masks = [{int(j): g == j for j in ids} for g in gt_labels]
            m = mf.load_manifest(os.path.join(d, "filtered.json"))
            labels = {}
            for k, w in enumerate(weights):
                vdir = os.path.join(out, f"merge_{k}", vid)
                with open(os.path.join(vdir, "selections.json"), encoding="utf-8") as f:
                    frames = json.load(f)["frames"]
                got = {j: [fr["objects"][str(j)]["proposal"] for fr in frames] for j in m.object_ids}
                problems += check_selections(m, WeightVector.from_array(w), got, f"{vid} merge_{k}")
                labels[f"merge_{k}"] = _read_dir(vdir)
            merged = list(labels.values())
            for r in ("voted", "oracle"):
                labels[r] = _read_dir(os.path.join(out, r, vid))
            problems += check_vote(merged, labels["voted"], vid)
            problems += check_sampled_frames(rng, labels["voted"], gt_masks, m.proposals, vid, 2)
            reported = {}
            for r, pred in labels.items():
                with open(os.path.join(out, f"eval_{r}_{vid}.json"), encoding="utf-8") as f:
                    report = json.load(f)
                got = {int(j): (o["J"]["mean"], o["F"]["mean"]) for j, o in report["per_object"].items()}
                reported[r] = report["J&F"]["mean"]
                problems += check_eval(got, reported[r], pred, gt_masks, f"{vid} eval of {r}")
            greedy_jf[v] = [reported[f"merge_{k}"] for k in range(len(self.merges))]
            problems += check_oracle(reported["oracle"], greedy_jf[v], vid)
        for k, (_, _, score) in enumerate(ranked[:2]):
            want = float(np.mean(greedy_jf[:, k]))
            if abs(score - want) > TOL:
                problems.append(f"search score of rank {k} is {score}, reference {want}")
        return problems


WORKLOADS = {w.name: w for w in (SearchCorpus(), DavisScene(), CliPipeline())}

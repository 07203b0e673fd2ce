"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line on
success; a failure surfaces as an ordinary assertion error.  Criteria:

1. greedy merging matches a naive straight-from-the-definitions reference
   exactly on 200 random instances x 20 weight vectors
2. oracle merging dominates greedy merging; search-best >= equal weights
3. component ablation ordering on the crossing scenario
4. proposal filtering thresholds and idempotence
5. region and boundary metrics against hand-computed values
6. warping and file-format bit-exactness
7. majority-vote ensemble properties
8. search reproducibility and simplex sampling statistics
9. end-to-end pipeline determinism, serial vs parallel
"""

import json
import os
import time

import numpy as np

from trackmerge.cli import main as cli_main
from trackmerge.ensemble import majority_vote
from trackmerge.flow import FlowField, load_flo, save_flo, warp_mask
from trackmerge.labelmap import LabelMap
from trackmerge.manifest import Proposal, filter_manifest, filter_proposals
from trackmerge.mask import Mask, iou
from trackmerge.merging import greedy_merge, oracle_merge
from trackmerge.metrics import evaluate, f_measure, j_measure, sequence_stats
from trackmerge.scoring import WeightVector
from trackmerge.search import SearchConfig, random_search, result_to_dict
from trackmerge.synth import generate, crossing_scenario, gt_label_maps, random_scenario

from naive_reference import naive_selections, sample_simplex


def _ok(n, label):
    print(f"ACCEPTANCE {n} {label}: PASS")


def small_instance(seed):
    spec = random_scenario(
        seed, max_frames=6, max_objects=3, max_distractors=2, spurious_rate=0.0
    )
    result = generate(spec)
    return filter_manifest(result.manifest), result.gt_all_frames


def test_1_merging_matches_naive_reference():
    start = time.time()
    rng = np.random.default_rng(999)
    for seed in range(200):
        manifest, _ = small_instance(seed)
        for _ in range(20):
            w = sample_simplex(rng)
            got = {
                j: sel
                for j, sel in greedy_merge(manifest, w).selections.items()
            }
            expected = naive_selections(manifest, w.as_array(), [True] * 5)
            assert got == expected, f"seed {seed} weights {w}"
    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _ok(1, f"merging equivalence (200 instances x 20 weights, {elapsed:.1f}s)")


def test_2_oracle_dominance_and_search_best():
    start = time.time()
    rng = np.random.default_rng(1000)
    corpus = []
    for seed in range(25):
        manifest, gt = small_instance(seed)
        corpus.append((manifest, gt))
        oracle_jf = evaluate(oracle_merge(manifest, gt).label_maps, gt).jf_mean
        for _ in range(8):
            w = sample_simplex(rng)
            greedy_jf = evaluate(greedy_merge(manifest, w).label_maps, gt).jf_mean
            assert oracle_jf >= greedy_jf - 1e-12, f"seed {seed}"
    res = random_search(corpus[:6], SearchConfig(sample_count=40, seed=4, top_k=3))
    equal_score = next(s for i, _, s in res.ranked if i == 0)
    assert res.best_score >= equal_score - 1e-12
    elapsed = time.time() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _ok(2, f"oracle dominance and search-best >= equal ({elapsed:.1f}s)")


def test_3_ablation_ordering_on_crossing_scenario():
    start = time.time()
    result = generate(crossing_scenario())
    m, gt = result.manifest, result.gt_all_frames

    def jf(active):
        ts = greedy_merge(m, active=active)
        return evaluate(ts.label_maps, gt).jf_mean

    all_five = jf((True, True, True, True, True))
    no_maskprop = jf((True, True, False, True, True))
    maskprop_only = jf((False, False, True, False, False))
    objectness_only = jf((True, False, False, False, False))
    assert all_five > no_maskprop
    assert maskprop_only >= 0.9
    assert objectness_only <= 0.5
    elapsed = time.time() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _ok(3, f"ablation ordering (all5={all_five:.2f} > no-prop={no_maskprop:.2f}, "
           f"prop-only={maskprop_only:.2f}, obj-only={objectness_only:.2f})")


def _proposal(mask, score, rng):
    return Proposal(
        frame_index=0,
        mask=mask,
        bbox=mask.bbox(),
        objectness=score,
        embedding=rng.random(4),
    )


def test_4_filtering_thresholds_and_idempotence():
    rng = np.random.default_rng(42)
    full = Mask.full(10, 6)

    # boundary case: score exactly at the cutoff is dropped
    kept = filter_proposals([_proposal(full, 0.05, rng)])
    assert kept == []
    kept = filter_proposals([_proposal(full, 0.05 + 1e-9, rng)])
    assert len(kept) == 1

    # boundary case: overlap exactly at the suppression threshold is removed
    a = Mask.from_dense(np.pad(np.ones((6, 7), bool), ((0, 0), (0, 3))))
    b = Mask.from_dense(np.pad(np.ones((6, 7), bool), ((0, 0), (1, 2))))
    assert iou(a, b) == 0.75  # 36 / 48, above the 0.66 cutoff
    survivors = filter_proposals([_proposal(a, 0.9, rng), _proposal(b, 0.8, rng)])
    assert len(survivors) == 1 and survivors[0].mask == a

    for trial in range(100):
        props = []
        for _ in range(rng.integers(0, 8)):
            dense = rng.random((6, 10)) < rng.uniform(0.2, 0.7)
            if not dense.any():
                continue
            props.append(_proposal(Mask.from_dense(dense), rng.uniform(0, 1), rng))
        once = filter_proposals(props)
        twice = filter_proposals(once)
        assert once == twice, f"trial {trial}"
        for i in range(len(once)):
            assert once[i].objectness > 0.05
            for k in range(i + 1, len(once)):
                assert iou(once[i].mask, once[k].mask) < 0.66
    _ok(4, "filtering thresholds and idempotence")


def _block(w, h, x0, y0, x1, y1):
    g = np.zeros((h, w), bool)
    g[y0:y1, x0:x1] = True
    return Mask.from_dense(g)


def test_5_metric_hand_values():
    j_cases = [
        (_block(6, 6, 0, 0, 3, 3), _block(6, 6, 0, 0, 3, 3), 1.0),
        (_block(6, 6, 0, 0, 3, 3), _block(6, 6, 3, 3, 6, 6), 0.0),
        (_block(6, 6, 0, 0, 2, 2), _block(6, 6, 1, 1, 3, 3), 1 / 7),
        (_block(6, 6, 0, 0, 6, 6), _block(6, 6, 0, 0, 3, 6), 1 / 2),
        (_block(5, 5, 0, 0, 5, 1), _block(5, 5, 0, 0, 1, 5), 1 / 9),
        (_block(8, 4, 0, 0, 4, 2), _block(8, 4, 2, 0, 6, 2), 1 / 3),
        (Mask.empty(4, 4), _block(4, 4, 0, 0, 2, 2), 0.0),
        (Mask.empty(4, 4), Mask.empty(4, 4), 1.0),
        (_block(4, 4, 0, 0, 4, 4), _block(4, 4, 1, 1, 3, 3), 1 / 4),
        (_block(12, 3, 0, 0, 6, 1), _block(12, 3, 3, 0, 9, 1), 1 / 3),
    ]
    for pred, gt, expected in j_cases:
        assert j_measure(pred, gt) == expected

    sq = _block(8, 8, 2, 2, 6, 6)
    f_cases = [
        (sq, sq, 1, 1.0),
        (sq, _block(8, 8, 3, 2, 7, 6), 1, 1.0),          # 1 px shift, tol 1
        (_block(16, 8, 2, 2, 6, 6), _block(16, 8, 8, 2, 12, 6), 1, 0.0),
        (Mask.empty(6, 6), _block(6, 6, 1, 1, 4, 4), 2, 0.0),
        (Mask.empty(6, 6), Mask.empty(6, 6), 2, 1.0),
        (_block(10, 10, 0, 0, 2, 2), _block(10, 10, 7, 7, 10, 10), 20, 1.0),
    ]
    for pred, gt, tol, expected in f_cases:
        assert f_measure(pred, gt, tol) == expected

    # shifted single-pixel-wide bars with tolerance 0: boundary is the whole
    # bar (8 px); 4 of pred's 8 boundary pixels coincide with gt's, so
    # P = R = 1/2 and F = 1/2
    bar_a = _block(16, 1, 0, 0, 8, 1)
    bar_b = _block(16, 1, 4, 0, 12, 1)
    assert f_measure(bar_a, bar_b, 0) == 0.5

    assert sequence_stats([1.0, 1.0, 0.0, 0.0]) == (0.5, 0.5, 1.0)
    mean, recall, decay = sequence_stats([1.0, 0.8, 0.6, 0.4, 0.2])
    assert abs(mean - 0.6) < 1e-12 and recall == 0.6
    assert abs(decay - 0.7) < 1e-12  # bins 2,1,1,1 -> mean(first) - mean(last)

    result = generate(random_scenario(77))
    res = evaluate(gt_label_maps(result), result.gt_all_frames)
    assert res.jf_mean == 1.0 and res.j_decay == 0.0 and res.f_decay == 0.0
    _ok(5, "metric hand values, sequence stats, self-evaluation")


def test_6_warping_and_format_bit_exactness(tmp_path):
    rng = np.random.default_rng(6)
    for _ in range(100):
        h, w = rng.integers(1, 12, 2)
        m = Mask.from_dense(rng.random((h, w)) < rng.uniform(0, 1))
        zero = FlowField(w, h, np.zeros((h, w, 2), np.float32))
        assert warp_mask(m, zero) == m

    field = FlowField(7, 5, rng.standard_normal((5, 7, 2)).astype(np.float32))
    save_flo(field, tmp_path / "a.flo")
    save_flo(load_flo(tmp_path / "a.flo"), tmp_path / "b.flo")
    assert (tmp_path / "a.flo").read_bytes() == (tmp_path / "b.flo").read_bytes()

    for _ in range(1000):
        h, w = rng.integers(1, 10, 2)
        dense = rng.random((h, w)) < rng.uniform(0, 1)
        assert np.array_equal(Mask.from_dense(dense).dense(), dense)

    for seed in (0, 1, 2, 3):
        result = generate(random_scenario(seed, noise=0.0))
        m = result.manifest
        for t in range(1, m.frame_count):
            for j in m.object_ids:
                warped = warp_mask(result.gt_all_frames[t - 1][j], m.flow(t))
                assert warped == result.gt_all_frames[t][j]
    _ok(6, "warp identity, .flo and run-length round trips, exact transport")


def test_7_ensemble_properties():
    rng = np.random.default_rng(7)

    def rand_result():
        return [
            LabelMap(6, 5, rng.choice([0, 1, 2], size=(5, 6)).astype(np.uint8))
            for _ in range(2)
        ]

    for trial in range(100):
        triple = [rand_result() for _ in range(3)]
        voted = majority_vote(triple)
        perm = [triple[i] for i in rng.permutation(3)]
        assert majority_vote(perm) == voted, f"trial {trial}"
        assert majority_vote([voted]) == voted  # idempotence
        assert majority_vote([triple[0]] * 3) == triple[0]  # unanimity

    one = [LabelMap(1, 1, np.array([[1]], np.uint8))]
    two = [LabelMap(1, 1, np.array([[2]], np.uint8))]
    assert majority_vote([one, two])[0].labels[0, 0] == 1  # tie -> lowest label
    _ok(7, "ensemble permutation invariance, unanimity, idempotence, ties")


def test_8_search_reproducibility_and_sampling():
    corpus = [small_instance(s) for s in (60, 61)]
    cfg = SearchConfig(sample_count=10, seed=13, top_k=3)
    serial = json.dumps(result_to_dict(random_search(corpus, cfg, jobs=1)))
    parallel = json.dumps(result_to_dict(random_search(corpus, cfg, jobs=4)))
    assert serial == parallel

    rng = np.random.default_rng(8)
    draws = np.stack([sample_simplex(rng).as_array() for _ in range(100_000)])
    assert (draws >= 0).all()
    assert np.abs(draws.sum(axis=1) - 1).max() <= 1e-9
    means = draws.mean(axis=0)
    assert np.all(means >= 0.19) and np.all(means <= 0.21), means
    _ok(8, f"search serial==parallel, simplex means {np.round(means, 4).tolist()}")


def test_9_pipeline_determinism(tmp_path):
    def pipeline(root, jobs):
        data = root / "data"
        assert cli_main(["synth", "--out", str(data), "--preset", "random",
                         "--seed", "21"]) == 0
        assert cli_main(["filter", "--manifest", str(data / "manifest.json"),
                         "--out", str(data / "filtered.json")]) == 0
        merged = root / "merged"
        assert cli_main(["merge", "--manifest", str(data / "filtered.json"),
                         "--out", str(merged), "--jobs", str(jobs)]) == 0
        report = root / "report.json"
        assert cli_main(["eval", "--pred", str(merged / "rand_21"),
                         "--gt", str(data / "gt"), "--out", str(report)]) == 0
        out = {}
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    out[os.path.relpath(path, root)] = f.read()
        return out

    first = pipeline(tmp_path / "run1", jobs=1)
    second = pipeline(tmp_path / "run2", jobs=1)
    assert first == second
    eight = pipeline(tmp_path / "run8", jobs=8)
    assert first == eight
    _ok(9, "pipeline byte-identical across reruns and jobs 1 vs 8")

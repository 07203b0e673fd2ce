from dataclasses import replace

import numpy as np
import pytest

from naive_reference import naive_selections, sample_simplex
from trackmerge.errors import TrackmergeError
from trackmerge.flow import warp_mask
from trackmerge.manifest import filter_manifest
from trackmerge.mask import Mask, iou
from trackmerge.merging import ALL_ACTIVE, greedy_merge, oracle_merge
from trackmerge.metrics import evaluate
from trackmerge.scoring import (
    COMPONENTS,
    WeightVector,
    combined_score,
    compute_video_max_distances,
    effective_weights,
    inverse_scores,
    reid_score,
)
from trackmerge.synth import (
    ScenarioSpec,
    ShapeSpec,
    crossing_scenario,
    generate,
    random_scenario,
    single_object_scenario,
)


def with_frame(manifest, t, proposals):
    """The manifest with frame t's proposals replaced."""
    frames = manifest.proposals
    return replace(manifest, proposals=(*frames[:t], proposals, *frames[t + 1:]))


def selected_mask(manifest, ts, j, t):
    """Track j's full mask at frame t, before overlap resolution: the GT at
    frame 0, the selected proposal's mask after, empty where none was."""
    if t == 0:
        return {g.object_id: g.first_frame_mask for g in manifest.ground_truth}[j]
    k = ts.selections[j][t]
    return Mask.empty(manifest.width, manifest.height) if k is None else manifest.proposals[t][k].mask


class TestGreedy:
    def test_singleton_proposals_always_selected(self):
        result = generate(single_object_scenario(seed=1))
        rng = np.random.default_rng(0)
        for _ in range(5):
            ts = greedy_merge(result.manifest, sample_simplex(rng))
            assert ts.selections[1][1:] == [0] * (result.manifest.frame_count - 1)
            assert evaluate(ts.label_maps, result.gt_all_frames).j_mean == 1.0

    def test_zero_proposal_frame(self):
        result = generate(single_object_scenario(seed=2, frame_count=4))
        manifest = with_frame(result.manifest, 2, ())
        ts = greedy_merge(manifest)
        assert ts.selections[1][2] is None
        assert selected_mask(manifest, ts, 1, 2).is_empty
        assert not np.any(ts.label_maps[2].labels)
        # frame 3 still selects (maskprop against the empty mask is 0,
        # the remaining components carry the decision)
        assert ts.selections[1][3] is not None

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(42)
        for seed in range(12):
            result = generate(random_scenario(seed))
            manifest = filter_manifest(result.manifest)
            for _ in range(3):
                w = sample_simplex(rng)
                ts = greedy_merge(manifest, w)
                expected = naive_selections(manifest, w.as_array())
                assert ts.selections == expected, f"seed {seed}"

    def test_determinism(self):
        result = generate(random_scenario(7))
        a = greedy_merge(result.manifest)
        b = greedy_merge(result.manifest)
        assert a.selections == b.selections
        assert all(x == y for x, y in zip(a.label_maps, b.label_maps))

    def test_label_maps_partition(self):
        result = generate(random_scenario(8, require_disjoint=False))
        ts = greedy_merge(result.manifest)
        for t, lm in enumerate(ts.label_maps):
            # reading back per-object masks never overlaps by construction
            total = np.zeros(lm.labels.shape, dtype=int)
            for j in ts.object_ids:
                total += lm.object_mask(j).dense()
            assert total.max() <= 1
            assert set(np.unique(lm.labels)) <= {0} | set(ts.object_ids)

    def test_resolved_masks_subset_of_selected(self):
        result = generate(random_scenario(9, require_disjoint=False))
        ts = greedy_merge(result.manifest)
        for j in ts.object_ids:
            for t, lm in enumerate(ts.label_maps):
                resolved = lm.object_mask(j).dense()
                assert not (resolved & ~selected_mask(result.manifest, ts, j, t).dense()).any()

    def test_frame0_is_ground_truth(self):
        result = generate(random_scenario(10))
        ts = greedy_merge(result.manifest)
        for j, g in zip(ts.object_ids, result.manifest.ground_truth):
            assert selected_mask(result.manifest, ts, j, 0) == g.first_frame_mask
            assert ts.label_maps[0].object_mask(j) == g.first_frame_mask  # disjoint GT
            assert ts.selections[j][0] is None

    def test_maskprop_only_follows_flow_chain(self):
        # proposals are exact flow-consistent continuations: the merger must
        # follow them even with a tempting high-objectness distractor around
        spec = crossing_scenario(seed=3)
        result = generate(spec)
        ts = greedy_merge(result.manifest, active=(False, False, True, False, False))
        for t in range(1, result.manifest.frame_count):
            assert ts.selections[1][t] == 0
            assert ts.selections[2][t] == 1

    def test_shared_selection_resolved_at_pixel_level(self):
        # two tracks may pick the same proposal; pixels then go to one track
        dim = 4
        arch = tuple(np.eye(dim)[0])
        spec = ScenarioSpec(
            seed=0,
            frame_count=2,
            width=12,
            height=8,
            objects=(
                ShapeSpec("rect", (3, 3), (1, 1), (0, 0), archetype=arch),
                ShapeSpec("rect", (3, 3), (7, 4), (0, 0), archetype=arch),
            ),
            embedding_dim=dim,
        )
        result = generate(spec)
        # only object 1's mask at frame 1
        manifest = with_frame(result.manifest, 1, result.manifest.proposals[1][:1])
        ts = greedy_merge(manifest)
        assert ts.selections[1][1] == 0 and ts.selections[2][1] == 0
        lm = ts.label_maps[1]
        total = (lm.labels != 0).sum()
        assert total == selected_mask(manifest, ts, 1, 1).area  # each pixel assigned exactly once


class TestReport:
    """Every reported float equals (==) what the public scalar helpers give,
    so the array form of the frame step matches them on any machine."""

    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_greedy_report_equals_scalar_helpers(self, seed):
        manifest = filter_manifest(generate(random_scenario(seed)).manifest)
        manifest = with_frame(manifest, 2, ())
        rng = np.random.default_rng(seed)
        runs = [
            (WeightVector.equal(), ALL_ACTIVE),
            (sample_simplex(rng), ALL_ACTIVE),
            (sample_simplex(rng), (True, False, True, True, False)),
        ]
        gt = manifest.ground_truth
        max_dist = compute_video_max_distances(manifest)
        for w, active in runs:
            ts = greedy_merge(manifest, w, active)
            for t in range(1, manifest.frame_count):
                for jj, g in enumerate(gt):
                    entry = ts.report[t]["objects"][str(g.object_id)]
                    if not manifest.proposals[t]:
                        assert entry == dict.fromkeys(("proposal", "sub_scores", "combined"))
                        continue
                    p = manifest.proposals[t][entry["proposal"]]
                    reid = [reid_score(p.embedding, o.embedding, max_dist[o.object_id]) for o in gt]
                    prop = [
                        iou(p.mask, warp_mask(selected_mask(manifest, ts, o.object_id, t - 1),
                                              manifest.flow(t)), empty_empty=0.0)
                        for o in gt
                    ]
                    sub = (p.objectness, reid[jj], prop[jj], *inverse_scores(reid, prop, jj))
                    assert entry["sub_scores"] == dict(zip(COMPONENTS, sub))
                    assert entry["combined"] == combined_score(sub, effective_weights(w, active))

    def test_oracle_report_and_empty_frame(self):
        result = generate(random_scenario(4))
        manifest = with_frame(result.manifest, 1, ())
        ts = oracle_merge(manifest, result.gt_all_frames)
        for t in range(1, manifest.frame_count):
            for j in manifest.object_ids:
                entry = ts.report[t]["objects"][str(j)]
                if t == 1:
                    assert entry == {"proposal": None, "iou": None}
                    assert ts.selections[j][1] is None
                    assert selected_mask(manifest, ts, j, 1).is_empty
                    continue
                p = manifest.proposals[t][entry["proposal"]]
                assert entry["iou"] == iou(p.mask, result.gt_all_frames[t][j])
        assert not ts.label_maps[1].labels.any()


class TestOracle:
    def test_exact_proposals_recovered(self):
        result = generate(random_scenario(13, noise=0.1))
        ts = oracle_merge(result.manifest, result.gt_all_frames)
        res = evaluate(ts.label_maps, result.gt_all_frames)
        assert res.j_mean == pytest.approx(1.0)

    def test_argmax_by_iou(self):
        result = generate(single_object_scenario(seed=4))
        manifest = result.manifest
        ts = oracle_merge(manifest, result.gt_all_frames)
        for t in range(1, manifest.frame_count):
            k = ts.selections[1][t]
            ious = [
                _iou_dense(p.mask.dense(), result.gt_all_frames[t][1].dense())
                for p in manifest.proposals[t]
            ]
            assert k == int(np.argmax(ious))

    def test_missing_gt_rejected(self):
        result = generate(random_scenario(14))
        with pytest.raises(TrackmergeError):
            oracle_merge(result.manifest, result.gt_all_frames[:-1])

    def test_gt_of_another_size_rejected(self):
        result = generate(crossing_scenario(0))
        wider = [
            {j: Mask.from_dense(np.pad(m.dense(), ((0, 0), (0, 3)))) for j, m in frame.items()}
            for frame in result.gt_all_frames
        ]
        with pytest.raises(TrackmergeError, match="is 43x26, video is 40x26"):
            oracle_merge(result.manifest, wider)

    def test_oracle_dominates_greedy(self):
        rng = np.random.default_rng(77)
        for seed in range(8):
            result = generate(random_scenario(seed + 100))
            manifest = filter_manifest(result.manifest)
            oracle_jf = evaluate(
                oracle_merge(manifest, result.gt_all_frames).label_maps,
                result.gt_all_frames,
            ).jf_mean
            for _ in range(3):
                w = sample_simplex(rng)
                greedy_jf = evaluate(
                    greedy_merge(manifest, w).label_maps, result.gt_all_frames
                ).jf_mean
                assert oracle_jf >= greedy_jf - 1e-12


def _iou_dense(a, b):
    union = np.logical_or(a, b).sum()
    return np.logical_and(a, b).sum() / union if union else 0.0

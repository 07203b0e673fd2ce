import tracemalloc

import numpy as np
import pytest

from trackmerge.errors import TrackmergeError
from trackmerge.labelmap import LabelMap
from trackmerge.mask import Mask
from trackmerge.metrics import (
    default_boundary_tolerance,
    evaluate,
    f_measure,
    j_measure,
    sequence_stats,
)
from trackmerge.synth import generate, gt_label_maps, random_scenario


def block(w, h, x0, y0, x1, y1):
    g = np.zeros((h, w), bool)
    g[y0:y1, x0:x1] = True
    return Mask.from_dense(g)


class TestJ:
    def test_identity(self):
        m = block(6, 6, 1, 1, 4, 4)
        assert j_measure(m, m) == 1.0

    def test_both_empty_is_perfect(self):
        e = Mask.empty(4, 4)
        assert j_measure(e, e) == 1.0

    def test_half_overlap(self):
        a = block(8, 4, 0, 0, 4, 2)  # 8 px
        b = block(8, 4, 2, 0, 6, 2)  # 8 px, intersection 4
        assert j_measure(a, b) == pytest.approx(4 / 12)

    def test_hand_computed_table(self):
        cases = [
            (block(6, 6, 0, 0, 3, 3), block(6, 6, 0, 0, 3, 3), 1.0),
            (block(6, 6, 0, 0, 3, 3), block(6, 6, 3, 3, 6, 6), 0.0),
            (block(6, 6, 0, 0, 2, 2), block(6, 6, 1, 1, 3, 3), 1 / 7),
            (block(6, 6, 0, 0, 6, 6), block(6, 6, 0, 0, 3, 6), 1 / 2),
            (block(5, 5, 0, 0, 5, 1), block(5, 5, 0, 0, 1, 5), 1 / 9),
            (Mask.empty(4, 4), block(4, 4, 0, 0, 2, 2), 0.0),
        ]
        for pred, gt, expected in cases:
            assert j_measure(pred, gt) == pytest.approx(expected)
            assert j_measure(gt, pred) == pytest.approx(expected)  # symmetric


class TestF:
    def test_identity(self):
        m = block(8, 8, 2, 2, 6, 6)
        assert f_measure(m, m, 1) == 1.0

    def test_one_empty(self):
        assert f_measure(Mask.empty(6, 6), block(6, 6, 1, 1, 4, 4), 2) == 0.0
        assert f_measure(block(6, 6, 1, 1, 4, 4), Mask.empty(6, 6), 2) == 0.0

    def test_both_empty(self):
        assert f_measure(Mask.empty(6, 6), Mask.empty(6, 6), 2) == 1.0

    def test_one_pixel_shift_within_tolerance(self):
        gt = block(8, 8, 2, 2, 6, 6)
        pred = block(8, 8, 3, 2, 7, 6)
        assert f_measure(pred, gt, 1) == 1.0

    def test_shift_beyond_tolerance_drops(self):
        gt = block(16, 8, 2, 2, 6, 6)
        pred = block(16, 8, 8, 2, 12, 6)  # 6 px shift, tolerance 1
        assert f_measure(pred, gt, 1) == 0.0

    def test_brute_force_distance_oracle(self):
        # P/R computed by explicit pairwise boundary distances on small grids
        from trackmerge.mask import boundary

        rng = np.random.default_rng(11)
        for _ in range(10):
            pred = Mask.from_dense(rng.random((10, 12)) < 0.35)
            gt = Mask.from_dense(rng.random((10, 12)) < 0.35)
            for tol in (0, 1, 2):
                got = f_measure(pred, gt, tol)
                pb = np.argwhere(boundary(pred).dense())
                gb = np.argwhere(boundary(gt).dense())
                if len(pb) == 0 and len(gb) == 0:
                    expected = 1.0
                elif len(pb) == 0 or len(gb) == 0:
                    expected = 0.0
                else:
                    d2 = ((pb[:, None, :] - gb[None, :, :]) ** 2).sum(-1)
                    p = (d2.min(axis=1) <= tol * tol).mean()
                    r = (d2.min(axis=0) <= tol * tol).mean()
                    expected = 2 * p * r / (p + r) if p + r else 0.0
                assert got == pytest.approx(expected), f"tol={tol}"

    def test_huge_tolerance_saturates(self):
        pred = block(10, 10, 0, 0, 2, 2)
        gt = block(10, 10, 7, 7, 10, 10)
        assert f_measure(pred, gt, 20) == 1.0

    def test_symmetric(self):
        a = block(9, 9, 1, 1, 4, 5)
        b = block(9, 9, 3, 2, 8, 7)
        for tol in (0, 1, 2):
            assert f_measure(a, b, tol) == pytest.approx(f_measure(b, a, tol))


class TestSequenceStats:
    def test_constant(self):
        assert sequence_stats([0.8, 0.8, 0.8, 0.8]) == (
            pytest.approx(0.8),
            1.0,
            pytest.approx(0.0),
        )

    def test_step_down(self):
        mean, recall, decay = sequence_stats([1.0, 1.0, 0.0, 0.0])
        assert mean == 0.5 and recall == 0.5 and decay == 1.0

    def test_recall_strict_inequality(self):
        assert sequence_stats([0.5, 0.5, 0.4])[1] == 0.0

    def test_uneven_bins_remainder_to_earlier(self):
        # 5 scores -> bins of sizes 2,1,1,1
        mean, _, decay = sequence_stats([1.0, 0.8, 0.6, 0.4, 0.2])
        assert decay == pytest.approx(0.9 - 0.2)

    def test_non_increasing_has_nonneg_decay(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            s = np.sort(rng.random(rng.integers(1, 12)))[::-1]
            assert sequence_stats(s)[2] >= -1e-12

    def test_empty_rejected(self):
        with pytest.raises(TrackmergeError):
            sequence_stats([])


class TestEvaluate:
    def test_perfect_prediction(self):
        result = generate(random_scenario(31))
        maps = gt_label_maps(result)
        res = evaluate(maps, result.gt_all_frames)
        assert res.jf_mean == 1.0
        assert res.j_decay == 0.0 and res.f_decay == 0.0

    def test_all_background(self):
        result = generate(random_scenario(32))
        w, hgt = result.manifest.width, result.manifest.height
        maps = [LabelMap.background(w, hgt) for _ in range(result.manifest.frame_count)]
        res = evaluate(maps, result.gt_all_frames)
        assert res.j_mean == 0.0 and res.f_mean == 0.0
        assert res.j_recall == 0.0

    def test_jf_is_mean_of_means(self):
        result = generate(random_scenario(33))
        from trackmerge.merging import greedy_merge

        res = evaluate(greedy_merge(result.manifest).label_maps, result.gt_all_frames)
        assert res.jf_mean == pytest.approx((res.j_mean + res.f_mean) / 2)

    def test_unknown_label_rejected(self):
        result = generate(random_scenario(34))
        w, hgt = result.manifest.width, result.manifest.height
        labels = np.zeros((hgt, w), np.uint8)
        labels[0, 0] = 200
        maps = [LabelMap(w, hgt, labels)] * result.manifest.frame_count
        with pytest.raises(TrackmergeError, match="unknown"):
            evaluate(maps, result.gt_all_frames)

    def test_relabeling_invariance(self):
        result = generate(random_scenario(35))
        from trackmerge.merging import greedy_merge

        ts = greedy_merge(result.manifest)
        res1 = evaluate(ts.label_maps, result.gt_all_frames)
        remap = {j: j + 10 for j in ts.object_ids}
        new_maps = []
        for lm in ts.label_maps:
            labels = np.zeros_like(lm.labels)
            for old, new in remap.items():
                labels[lm.labels == old] = new
            new_maps.append(LabelMap(lm.width, lm.height, labels))
        new_gt = [
            {remap[j]: m for j, m in frame.items()} for frame in result.gt_all_frames
        ]
        res2 = evaluate(new_maps, new_gt)
        assert res1.jf_mean == pytest.approx(res2.jf_mean)

    def test_exclude_last(self):
        from trackmerge.synth import single_object_scenario

        result = generate(single_object_scenario(36, frame_count=5))
        maps = gt_label_maps(result)
        res = evaluate(maps, result.gt_all_frames, exclude_last=True)
        assert res.jf_mean == 1.0

    def test_default_tolerance(self):
        assert default_boundary_tolerance(854, 480) == 8

    def test_scored_gt_keeps_no_grids(self):
        # every GT mask scored is decoded to a full grid; the caller keeps the
        # GT, so a grid kept with its mask would outlive the evaluation
        w, h, frames = 854, 480, 5
        gt = [{j: block(w, h, 100 * j + t, 50, 100 * j + t + 80, 300) for j in (1, 2, 3)}
              for t in range(frames)]
        labels = np.zeros((h, w), np.uint8)
        for j in (1, 2, 3):
            labels[60:310, 100 * j : 100 * j + 80] = j
        maps = [LabelMap(w, h, labels)] * frames
        tracemalloc.start()
        try:
            res = evaluate(maps, gt)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < res.j_mean < 1
        assert kept < 2**20  # one 854x480 grid alone is 410 kB

"""The prefix-shared weight search against the per-candidate definition of a
candidate's score: the greedy merge then evaluate on every video, averaged.
The merge is tests/naive_reference.reference_merge, one candidate at a time,
not the walk that greedy_merge and the search share; greedy_merge is held to
it here too."""

from dataclasses import replace

import naive_reference
import numpy as np
import pytest

from naive_reference import reference_merge, sample_simplex
from trackmerge import merging
from trackmerge.errors import TrackmergeError
from trackmerge.flow import FlowField
from trackmerge.labelmap import paint
from trackmerge.manifest import GroundTruthObject, Proposal, VideoManifest, filter_manifest
from trackmerge.mask import Mask
from trackmerge.merging import greedy_merge, oracle_merge
from trackmerge.metrics import evaluate
from trackmerge.search import SearchConfig, random_search, result_to_dict
from trackmerge.scoring import WeightVector, combined_score, frame_subscores
from trackmerge.synth import (
    ScenarioSpec,
    ShapeSpec,
    crossing_scenario,
    generate,
    random_scenario,
)


# a score error far below any gap between distinct sub-scores of the corpora
GUARD = 1e-9


def candidates(cfg):
    """The search's candidates, drawn one at a time."""
    rng = np.random.default_rng(cfg.seed)
    return [WeightVector.equal()] + [sample_simplex(rng) for _ in range(cfg.sample_count - 1)]


def reference_scores(videos, cfg):
    """Each candidate merged and scored on its own."""
    return [
        float(np.mean([
            getattr(evaluate(reference_merge(m, w).label_maps, gt), cfg.objective)
            for m, gt in videos
        ]))
        for w in candidates(cfg)
    ]


def searched_scores(videos, cfg):
    return [e["score"] for e in random_search(videos, cfg).trace]


def video(spec):
    result = generate(spec)
    return filter_manifest(result.manifest), result.gt_all_frames


def small_instance(seed):
    """The instances of the acceptance tests."""
    return video(
        random_scenario(seed, max_frames=6, max_objects=3, max_distractors=2, spurious_rate=0.0)
    )


def rect(x0, y0, x1, y1, width=16, height=10):
    grid = np.zeros((height, width), dtype=bool)
    grid[y0:y1, x0:x1] = True
    return Mask.from_dense(grid)


def empty_frame_instance():
    """crossing_scenario(0) with no proposals at frame 2: every track selects
    nothing there and takes maskprop from an empty mask at frame 3."""
    manifest, gt = video(crossing_scenario(0))
    proposals = manifest.proposals[:2] + ((),) + manifest.proposals[3:]
    return replace(manifest, proposals=proposals), gt


def davis_sized():
    """An 854x480, 20-frame scene with 3 objects, a still distractor shape and
    27 proposals per frame after filtering."""
    spec = ScenarioSpec(
        seed=11, frame_count=20, width=854, height=480,
        objects=(
            ShapeSpec("ellipse", (150, 110), (40, 30), (5, 3)),
            ShapeSpec("rect", (110, 150), (650, 40), (-4, 4)),
            ShapeSpec("ellipse", (120, 120), (300, 330), (6, -2)),
        ),
        planted=(ShapeSpec("rect", (150, 110), (600, 300), (0, 0), objectness=0.8),),
        distractor_count=23, embedding_noise=0.05, spurious_rate=0.5, video_id="davis",
    )
    return video(spec)


def tie_instance():
    """Two tracks whose sub-scores tie exactly, listed with the higher object
    id first. Both start from the same mask with the same embedding, so every
    proposal scores the same for both, and they select and paint the same
    proposal: the lower id must win its pixels. At frame 2 two distractors
    tie within each track, and the lower index must be selected."""
    a, b = rect(6, 3, 10, 7), rect(6, 3, 9, 6)
    left, right = rect(0, 0, 3, 3), rect(13, 7, 16, 10)
    e, d = np.eye(4)[0], np.eye(4)[1]

    def proposal(t, m, objectness, emb):
        return Proposal(t, m, m.bbox(), objectness, emb)

    frames = [
        [],
        [proposal(1, a, 0.9, e), proposal(1, left, 0.5, d), proposal(1, right, 0.5, d)],
        [proposal(2, left, 0.5, d), proposal(2, right, 0.5, d)],
    ]
    gt = [GroundTruthObject(j, a, a.bbox(), e) for j in (5, 2)]
    manifest = VideoManifest(
        video_id="tie", width=16, height=10, frame_count=3, embedding_dim=4,
        proposals=frames, ground_truth=gt, flow_paths=["f1", "f2"],
        preloaded_flows=[FlowField.zero(16, 10)] * 2,
    )
    gt_all_frames = [{5: a, 2: a}, {5: a, 2: b}, {5: right, 2: left}]
    return manifest, gt_all_frames


def order_instance(objectness=0.9):
    """Two tracks whose frame-1 selections overlap; which one is painted on
    top of the shared pixels depends on the weights: ``objectness`` favors
    track 2, mask propagation and its inverse favor track 1."""
    e = np.eye(4)
    frames = [
        [],
        [Proposal(1, m, m.bbox(), o, emb) for m, o, emb in (
            (rect(2, 2, 9, 8), 0.5, e[0]), (rect(6, 2, 12, 8), objectness, e[1]),
        )],
    ]
    first = [rect(2, 2, 8, 8), rect(8, 2, 14, 8)]
    manifest = VideoManifest(
        video_id="order", width=16, height=10, frame_count=2, embedding_dim=4,
        proposals=frames,
        ground_truth=[GroundTruthObject(j, m, m.bbox(), e[j - 1]) for j, m in zip((1, 2), first)],
        flow_paths=["f1"], preloaded_flows=[FlowField.zero(16, 10)],
    )
    gt_all_frames = [dict(zip((1, 2), first)), {1: frames[1][0].mask, 2: frames[1][1].mask}]
    return manifest, gt_all_frames


CORPORA = {
    "crossing": (lambda: [video(crossing_scenario(0))], 300),
    "random_3": (lambda: [video(random_scenario(3))], 150),
    "random_5": (lambda: [video(random_scenario(5))], 150),
    "random_8": (lambda: [video(random_scenario(8))], 150),
    "small_0_5": (lambda: [small_instance(s) for s in range(6)], 60),
    "tie": (lambda: [tie_instance()], 100),
    "empty_frame": (lambda: [empty_frame_instance()], 100),
    "order": (lambda: [order_instance()], 100),
    # the selected sub-scores of the two tracks sum to the same real number
    # (1/2 + 6/7 + 11/12 on one side), so equal weights tie them up to rounding
    "near_tie": (lambda: [order_instance(0.5 + 6 / 7 + 11 / 12 - 1.3)], 100),
}


class TestScoresEqualPerCandidate:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_scores_equal(self, name):
        make, count = CORPORA[name]
        videos = make()
        cfg = SearchConfig(sample_count=count, seed=7, top_k=3)
        assert searched_scores(videos, cfg) == reference_scores(videos, cfg)

    @pytest.mark.parametrize("objective", ["j_mean", "f_mean"])
    def test_other_objectives(self, objective):
        videos = [small_instance(s) for s in range(2)]
        cfg = SearchConfig(sample_count=40, seed=1, top_k=2, objective=objective)
        assert searched_scores(videos, cfg) == reference_scores(videos, cfg)

    def test_tie_rules(self):
        manifest, gt = tie_instance()
        ts = greedy_merge(manifest)
        assert ts.selections == {5: [None, 0, 0], 2: [None, 0, 0]}
        assert set(np.unique(ts.label_maps[1].labels)) == {0, 2}

    @pytest.mark.parametrize("name", ["crossing", "random_5", "small_0_5", "tie", "near_tie"])
    def test_paints_carry_exact_scores(self, name):
        # no approximate pass: every row of a paint selects the argmax of its
        # own combined_score values and paints the label map with them, and
        # the paint's scores are those of its first row, pair by pair
        make, count = CORPORA[name]
        cands = candidates(SearchConfig(sample_count=count, seed=7, top_k=3))
        weights = np.stack([w.as_array() for w in cands])
        for m, _ in make():
            for t, paints in merging.merge_walk(m, weights):
                for rows, selected, sub, comb, label_map in paints:
                    if comb is None:
                        continue
                    masks = [m.proposals[t][k].mask for k in selected]
                    for r in rows:
                        exact = np.array([[combined_score(s, cands[r]) for s in ss] for ss in sub])
                        assert (selected == exact.argmax(axis=0)).all()
                        entries = [
                            (j, mask, exact[k, jj])
                            for jj, (j, mask, k) in enumerate(zip(m.object_ids, masks, selected))
                        ]
                        painted = paint(m.width, m.height, entries)
                        assert np.array_equal(painted.labels, label_map.labels)
                        if r == rows[0]:
                            assert comb.tolist() == exact.tolist()

    def test_decide_scores_every_row_exactly(self):
        # a matrix product over this frame rounds 50 of its 54,000 scores
        # differently from np.dot (numpy 2.4, OpenBLAS). Each call puts
        # another row first in the group, so every row's scores are the
        # ones some variant carries
        rng = np.random.default_rng(0)
        sub = rng.random((300, 3, 5))
        weights = rng.dirichlet(np.ones(5), size=60)
        exact = [naive_reference.per_pair_combine(sub, w) for w in weights]
        for first in range(len(weights)):
            group = np.roll(np.arange(len(weights)), -first)
            choices = merging._decide(sub, weights, group, (1, 2, 3), lambda a, b: False)
            seen = []
            for k, variants in choices:
                [(rows, comb)] = variants  # no overlaps: one label map per choice
                for r in group[rows]:
                    assert k.tolist() == exact[r].argmax(axis=0).tolist()
                assert comb.tolist() == exact[group[rows[0]]].tolist()
                seen.extend(rows.tolist())
            assert sorted(seen) == list(range(len(weights)))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("name", ["crossing", "random_5", "small_0_5", "tie", "near_tie"])
    def test_products_off_by_less_than_the_guard(self, name, sign, monkeypatch):
        # every combined score, the dot product of a weight row with a
        # sub-score vector, is moved off by less than GUARD, far less than
        # any real sub-score gap, and the walk still agrees with the
        # per-candidate merge on selections and paint order. Every sub-score
        # is moved by a fixed error, random plus a shift that lifts even
        # tracks and lowers odd ones (or the reverse), so exact and near ties
        # between tracks go both ways
        table = np.random.default_rng(0).uniform(-0.2, 0.2, (256, 8, 5))

        def perturbed(*args):
            sub = frame_subscores(*args)
            n, tracks, _ = sub.shape
            shift = sign * (-1) ** np.arange(tracks)
            return sub + (table[:n, :tracks] + 0.2 * shift[:, None]) * GUARD

        make, count = CORPORA[name]
        videos = make()
        cfg = SearchConfig(sample_count=count, seed=7, top_k=3)
        monkeypatch.setattr(merging, "frame_subscores", perturbed)
        monkeypatch.setattr(naive_reference, "frame_subscores", perturbed)
        assert searched_scores(videos, cfg) == reference_scores(videos, cfg)
        for w in candidates(cfg)[:10]:
            for m, _ in videos:
                assert greedy_merge(m, w) == reference_merge(m, w)


class TestGreedyMergeEqualsReference:
    """greedy_merge, one row of the shared walk, against the merge it replaced:
    selections, masks, label maps and report."""

    @pytest.mark.parametrize("active", [(True,) * 5, (True, False, True, False, True)])
    @pytest.mark.parametrize("name", ["tie", "near_tie", "order", "empty_frame", "random_5"])
    def test_whole_track_sets(self, name, active):
        [(manifest, _)] = CORPORA[name][0]()
        for w in candidates(SearchConfig(sample_count=20, seed=3, top_k=1)):
            assert greedy_merge(manifest, w, active) == reference_merge(manifest, w, active)


class TestSharing:
    def test_paint_order_splits_leaves(self):
        videos = [order_instance()]
        cfg = SearchConfig(sample_count=100, seed=7, top_k=3)
        assert len(set(reference_scores(videos, cfg))) > 1
        assert random_search(videos, cfg).leaves > 1

    def test_davis_sized_states_and_leaves(self):
        """Measured before the search and greedy_merge shared one walk."""
        res = random_search([davis_sized()], SearchConfig(sample_count=2000, seed=1))
        assert (res.states, res.leaves) == (148, 56)

    def test_crossing_states_and_leaves(self):
        res = random_search([video(crossing_scenario(0))], SearchConfig(sample_count=2000))
        assert (res.states, res.leaves) == (17, 2)

    @pytest.mark.parametrize(
        "seed, counts", [(0, (19, 27)), (4, (15, 16)), (5, (11, 14)), (7, (19, 23))]
    )
    def test_random_states_and_leaves(self, seed, counts):
        """The work a 2,000-candidate search does: a change to the sub-score
        kernel that moves a tie or a selection shows here as a count."""
        cfg = SearchConfig(sample_count=2000, seed=0, top_k=3)
        res = random_search([video(random_scenario(seed, max_frames=8))], cfg)
        assert (res.states, res.leaves) == counts

    def test_one_state_per_frame_and_selections_before_it(self):
        manifest, gt = video(random_scenario(0, max_frames=6, max_objects=3, max_distractors=3))
        cfg = SearchConfig(sample_count=300, seed=1)
        keys = set()
        for w in candidates(cfg):
            sel = greedy_merge(manifest, w).selections
            for t in range(1, manifest.frame_count):
                keys.add((t, tuple(-1 if sel[j][t - 1] is None else sel[j][t - 1] for j in sel)))
        assert random_search([(manifest, gt)], cfg).states == len(keys) == 11

    def test_counts_stay_out_of_the_file(self):
        res = random_search([small_instance(0)], SearchConfig(sample_count=5, top_k=2))
        assert set(result_to_dict(res)) == {"best", "ranked", "top_k", "trace"}


class TestSharedLabelMaps:
    """Merges of one manifest share painted label maps through its frame
    memo; each equals the same merge of a fresh copy, report included."""

    @pytest.mark.parametrize("name", ["tie", "near_tie", "order", "empty_frame"])
    def test_shared_merges_equal_fresh_ones(self, name):
        [(manifest, gt)] = CORPORA[name][0]()
        res = random_search([(manifest, gt)], SearchConfig(sample_count=50, seed=3, top_k=3))
        weights = [*candidates(SearchConfig(sample_count=20, seed=3, top_k=1)), *res.top_k_weights]
        shared = [greedy_merge(manifest, w) for w in weights]
        maps = {id(lm) for ts in shared for lm in ts.label_maps[1:]}
        assert len(maps) < len(shared) * (manifest.frame_count - 1)  # some are shared
        for w, ts in zip(weights, shared):
            fresh = greedy_merge(replace(manifest), w)
            assert ts == fresh and ts.report == fresh.report

    def test_same_proposals_in_two_paint_orders(self):
        """Inverse mask propagation alone puts track 1 on top of the pixels
        the two selections share; a quarter of the weight moved to
        objectness puts track 2 there. The same proposals give two label
        maps."""
        manifest, _ = order_instance()
        top = {}
        for j, w in ((1, WeightVector(0, 0, 0, 0, 1)), (2, WeightVector(0.25, 0, 0, 0, 0.75))):
            ts = greedy_merge(manifest, w)
            assert ts.selections == {1: [None, 0], 2: [None, 1]}
            fresh = greedy_merge(replace(manifest), w)
            assert ts == fresh and ts.report == fresh.report
            top[j] = ts.label_maps[1].labels
        # the selections share columns 6-8 of rows 2-7
        assert (top[1][2:8, 6:9] == 1).all() and (top[2][2:8, 6:9] == 2).all()
        assert (top[1] != top[2]).sum() == 6 * 3


class TestSameErrors:
    """The search and oracle_merge raise TrackmergeError wherever scoring each
    candidate on its own does."""

    def check(self, videos):
        cfg = SearchConfig(sample_count=3, top_k=1)
        with pytest.raises(TrackmergeError):
            reference_scores(videos, cfg)
        with pytest.raises(TrackmergeError):
            random_search(videos, cfg)
        with pytest.raises(TrackmergeError):
            for manifest, gt in videos:
                oracle_merge(manifest, gt)

    def test_frame_count_mismatch(self):
        manifest, gt = small_instance(0)
        self.check([(manifest, gt[:-1])])

    def test_fewer_than_two_frames(self):
        manifest, gt = tie_instance()
        one = VideoManifest(
            video_id="one", width=16, height=10, frame_count=1, embedding_dim=4,
            proposals=manifest.proposals[:1], ground_truth=manifest.ground_truth,
            flow_paths=[], preloaded_flows=[],
        )
        self.check([(one, gt[:1])])

    def test_manifest_ids_missing_from_gt(self):
        manifest, gt = small_instance(1)
        dropped = manifest.object_ids[0]
        self.check([(manifest, [{j: m for j, m in g.items() if j != dropped} for g in gt])])

    def test_gt_frame_missing_an_object(self):
        manifest, gt = small_instance(1)
        dropped = manifest.object_ids[0]
        gt[2] = {j: m for j, m in gt[2].items() if j != dropped}
        self.check([(manifest, gt)])

    def test_gt_frame_with_an_extra_object(self):
        manifest, gt = small_instance(1)
        gt[3] = {**gt[3], 99: Mask.empty(manifest.width, manifest.height)}
        self.check([(manifest, gt)])

    def test_gt_without_objects(self):
        manifest, gt = small_instance(1)
        self.check([(manifest, [{} for _ in gt])])

    def test_bad_later_video(self):
        good = small_instance(0)
        manifest, gt = small_instance(1)
        self.check([good, (manifest, gt[:-1])])

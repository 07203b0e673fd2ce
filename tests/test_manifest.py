import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmerge import manifest as manifest_module
from trackmerge.errors import ManifestError, MaskError
from trackmerge.manifest import (
    Proposal,
    filter_proposals,
    load_manifest,
    save_manifest,
)
from trackmerge.mask import BBox, Mask, iou
from trackmerge.synth import (
    ScenarioSpec,
    ShapeSpec,
    crossing_scenario,
    generate,
    random_scenario,
    save_scenario,
)


def make_proposal(grid, objectness, dim=4, frame=0):
    m = Mask.from_dense(np.asarray(grid, bool))
    return Proposal(frame, m, m.bbox(), objectness, np.zeros(dim))


def block(w, h, x0, y0, x1, y1):
    g = np.zeros((h, w), bool)
    g[y0:y1, x0:x1] = True
    return g


MINIMAL = {
    "video_id": "v",
    "width": 4,
    "height": 3,
    "frame_count": 1,
    "embedding_dim": 2,
    "ground_truth": [{"object_id": 1, "rle": [0, 3, 9], "embedding": [1.0, 0.0]}],
    "frames": [[]],
    "flows": [],
}


class TestLoad:
    def test_minimal(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(MINIMAL))
        m = load_manifest(path)
        assert m.frame_count == 1
        assert m.proposals == [[]]
        assert m.ground_truth[0].first_frame_mask.area == 3

    def test_embedding_length_mismatch(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["ground_truth"][0]["embedding"] = [1.0, 0.0, 0.0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ManifestError, match="embedding"):
            load_manifest(path)

    def test_bad_rle(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["ground_truth"][0]["rle"] = [5]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ManifestError, match="rle"):
            load_manifest(path)

    def test_missing_flow_file(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["frame_count"] = 2
        bad["frames"] = [[], []]
        bad["flows"] = ["flows/00001.flo"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ManifestError, match="flow"):
            load_manifest(path)

    def test_wrong_bbox_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["frames"] = [
            [{"rle": [0, 3, 9], "bbox": [0, 0, 2, 3], "objectness": 0.5, "embedding": [0, 0]}]
        ]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ManifestError, match="bbox"):
            load_manifest(path)

    @pytest.mark.parametrize("object_id", [0, -3, 256, 300])
    def test_object_id_outside_byte_range_rejected(self, tmp_path, object_id):
        bad = json.loads(json.dumps(MINIMAL))
        bad["ground_truth"][0]["object_id"] = object_id
        path = tmp_path / "m.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ManifestError, match="object_id"):
            load_manifest(path)

    def test_ground_truth_bbox_read_from_its_mask(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(MINIMAL))
        gt = load_manifest(path).ground_truth[0]
        assert gt.first_frame_bbox == gt.first_frame_mask.bbox()
        assert (gt.first_frame_bbox.x0, gt.first_frame_bbox.x1) == (0, 1)

    def test_width_not_an_integer(self, tmp_path):
        self.check_rejected(tmp_path, lambda m: m.update(width="abc"), "width")

    def test_bbox_with_three_elements(self, tmp_path):
        self.check_rejected(
            tmp_path, lambda m: m["frames"][0][0].update(bbox=[0, 0, 1]), "bbox"
        )

    def test_objectness_not_a_number(self, tmp_path):
        self.check_rejected(
            tmp_path, lambda m: m["frames"][0][0].update(objectness="x"), "objectness"
        )

    def test_embedding_not_an_array(self, tmp_path):
        self.check_rejected(
            tmp_path, lambda m: m["frames"][0][0].update(embedding="x"), "embedding"
        )

    @pytest.mark.parametrize(
        "rle", [[0, True, 11], [0, 3.0, 9], [0, "3", 9], [[0], 3, 9], [0, None, 12], "0 3 9"]
    )
    def test_rle_elements_not_integers(self, tmp_path, rle):
        self.check_rejected(
            tmp_path,
            lambda m: m["frames"][0][0].update(rle=rle),
            r"frames\[0\]\[0\]\.rle: expected an integer array",
        )

    def test_ground_truth_rle_with_a_boolean(self, tmp_path):
        self.check_rejected(
            tmp_path,
            lambda m: m["ground_truth"][0].update(rle=[False, 3, 9]),
            r"ground_truth\[0\]\.rle: expected an integer array",
        )

    def test_frames_not_a_list_of_lists(self, tmp_path):
        self.check_rejected(tmp_path, lambda m: m.update(frames=5), "frames")

    def test_fractional_object_id(self, tmp_path):
        self.check_rejected(
            tmp_path, lambda m: m["ground_truth"][0].update(object_id=1.5), "object_id"
        )

    @pytest.mark.parametrize(
        "video_id", ["../escaped", "a/b", "a\\b", "a\0b", "", ".", "..", {"a": 1}, 7, None]
    )
    def test_video_id_not_a_directory_name(self, tmp_path, video_id):
        self.check_rejected(tmp_path, lambda m: m.update(video_id=video_id), "video_id")

    @pytest.mark.parametrize("video_id", ["v", "..v", "a.b", "rand 1"])
    def test_video_id_plain_name_accepted(self, tmp_path, video_id):
        ok = json.loads(json.dumps(MINIMAL))
        ok["video_id"] = video_id
        path = tmp_path / "m.json"
        path.write_text(json.dumps(ok))
        assert load_manifest(path).video_id == video_id

    @staticmethod
    def check_rejected(tmp_path, corrupt, field):
        """A valid one-proposal manifest loads; with ``corrupt`` applied it
        raises a ManifestError naming ``field``."""
        good = json.loads(json.dumps(MINIMAL))
        good["frames"] = [
            [{"rle": [0, 3, 9], "bbox": [0, 0, 1, 3], "objectness": 0.5, "embedding": [0, 0]}]
        ]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(good))
        load_manifest(path)
        corrupt(good)
        path.write_text(json.dumps(good))
        with pytest.raises(ManifestError, match=field):
            load_manifest(path)

    def test_bbox_derived_when_omitted(self, tmp_path):
        ok = json.loads(json.dumps(MINIMAL))
        ok["frames"] = [[{"rle": [0, 3, 9], "objectness": 0.5, "embedding": [0, 0]}]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(ok))
        p = load_manifest(path).proposals[0][0]
        assert (p.bbox.x0, p.bbox.y0, p.bbox.x1, p.bbox.y1) == (0, 0, 1, 3)

    def test_synth_round_trip(self, tmp_path):
        result = generate(random_scenario(11))
        save_scenario(result, tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        save_manifest(loaded, tmp_path / "again.json")
        assert (tmp_path / "manifest.json").read_bytes() == (
            tmp_path / "again.json"
        ).read_bytes()


class TestFilter:
    def test_nms_at_threshold_suppresses(self):
        # IoU(a, b) = 36/48 = 0.75 >= 0.66: the lower-scored one goes
        a = make_proposal(block(10, 6, 0, 0, 7, 6), 0.9)
        b = make_proposal(block(10, 6, 1, 0, 8, 6), 0.8)
        from trackmerge.mask import iou

        assert iou(a.mask, b.mask) >= 0.66
        assert filter_proposals([a, b], 0.05, 0.66) == [a]

    def test_score_at_threshold_dropped(self):
        p = make_proposal(block(4, 4, 0, 0, 2, 2), 0.05)
        assert filter_proposals([p], 0.05, 0.66) == []

    def test_disjoint_both_kept(self):
        a = make_proposal(block(8, 4, 0, 0, 3, 4), 0.5)
        b = make_proposal(block(8, 4, 4, 0, 8, 4), 0.5)
        assert filter_proposals([a, b]) == [a, b]

    def test_output_sorted_descending(self):
        props = [
            make_proposal(block(20, 4, 5 * i, 0, 5 * i + 3, 4), s)
            for i, s in enumerate([0.3, 0.9, 0.6, 0.7])
        ]
        out = filter_proposals(props)
        assert [p.objectness for p in out] == [0.9, 0.7, 0.6, 0.3]

    def test_idempotent_random(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            props = []
            for _ in range(rng.integers(0, 10)):
                w = int(rng.integers(2, 6))
                x = int(rng.integers(0, 12 - w))
                props.append(
                    make_proposal(block(12, 6, x, 0, x + w, 6), float(rng.random()))
                )
            once = filter_proposals(props)
            assert filter_proposals(once) == once
            assert all(p in props for p in once)

    def test_surviving_pairs_below_threshold(self):
        from trackmerge.mask import iou

        rng = np.random.default_rng(9)
        for _ in range(20):
            props = []
            for _ in range(8):
                w = int(rng.integers(2, 8))
                x = int(rng.integers(0, 16 - w))
                props.append(
                    make_proposal(block(16, 6, x, 0, x + w, 6), float(rng.random()))
                )
            kept = filter_proposals(props, 0.05, 0.66)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert iou(a.mask, b.mask) < 0.66

    def test_equal_score_tie_by_index(self):
        a = make_proposal(block(8, 4, 0, 0, 4, 4), 0.5)
        b = make_proposal(block(8, 4, 1, 0, 5, 4), 0.5)  # IoU 3/5 < 0.66
        c = make_proposal(block(8, 4, 0, 0, 4, 4), 0.5)  # duplicate of a
        out = filter_proposals([a, b, c], 0.05, 0.66)
        assert out == [a, b]


def pairwise_nms(proposals, score_min, nms_iou):
    """Greedy NMS as documented, one mask.iou per (candidate, kept) pair."""
    order = sorted(
        (i for i, p in enumerate(proposals) if p.objectness > score_min),
        key=lambda i: (-proposals[i].objectness, i),
    )
    kept = []
    for i in order:
        if all(iou(proposals[i].mask, q.mask) < nms_iou for q in kept):
            kept.append(proposals[i])
    return kept


def crowded_scenario(seed):
    """48x32, two objects, many overlapping distractors and near-copies."""
    return ScenarioSpec(
        seed=seed,
        frame_count=3,
        width=48,
        height=32,
        objects=(
            ShapeSpec("rect", (10, 8), (4, 4), (2, 1)),
            ShapeSpec("ellipse", (9, 11), (30, 12), (-2, 1)),
        ),
        distractor_count=25,
        embedding_noise=0.1,
        spurious_rate=0.9,
    )


def rect(w, h, x0, y0, x1, y1, objectness, bbox="tight"):
    """A rectangle proposal; bbox "tight", None or a BBox to store as is."""
    m = Mask.from_dense(block(w, h, x0, y0, x1, y1))
    box = m.bbox() if bbox == "tight" else bbox
    return Proposal(0, m, box, objectness, np.zeros(4))


@st.composite
def crowded_frames(draw):
    """One frame of many rectangles and ellipses, some clipped by the
    border, some empty, repeated or sharing a score."""
    w, h = draw(st.integers(1, 24)), draw(st.integers(1, 16))
    ys, xs = np.mgrid[0:h, 0:w]
    scores = st.one_of(st.sampled_from([0.05, 0.5, 0.9]), st.floats(0, 1))
    frame = []
    for _ in range(draw(st.integers(0, 24))):
        if frame and draw(st.integers(0, 5)) == 0:  # an earlier mask again
            m = draw(st.sampled_from(frame)).mask
        else:
            x0, y0 = draw(st.integers(-3, w)), draw(st.integers(-3, h))
            x1, y1 = x0 + draw(st.integers(0, w)), y0 + draw(st.integers(0, h))
            if draw(st.booleans()):
                grid = (x0 <= xs) & (xs < x1) & (y0 <= ys) & (ys < y1)
            else:
                cx, cy, rx, ry = (x0 + x1) / 2, (y0 + y1) / 2, (x1 - x0) / 2, (y1 - y0) / 2
                grid = ((xs + 0.5 - cx) * ry) ** 2 + ((ys + 0.5 - cy) * rx) ** 2 <= (rx * ry) ** 2
            m = Mask.from_dense(grid)
        frame.append(Proposal(0, m, None, draw(scores), np.zeros(4)))
    return frame


class TestFilterMatchesPairwiseNms:
    THRESHOLDS = (0.0, 0.3, 0.66, 1.0)
    SCORES = (0.05, 0.5)

    def check(self, frames):
        for frame in frames:
            for score_min in self.SCORES:
                for nms_iou in self.THRESHOLDS:
                    kept = filter_proposals(frame, score_min, nms_iou)
                    expected = pairwise_nms(frame, score_min, nms_iou)
                    assert [id(p) for p in kept] == [id(p) for p in expected]

    def test_random_scenarios(self):
        for seed in range(40):
            self.check(generate(random_scenario(seed)).manifest.proposals)

    def test_crossing_and_crowded_scenarios(self):
        for seed in (1, 2, 3):
            self.check(generate(crossing_scenario(seed)).manifest.proposals)
            self.check(generate(crowded_scenario(seed)).manifest.proposals)

    def test_empty_and_duplicate_masks(self):
        empty = Mask.empty(6, 4)
        props = [
            Proposal(0, empty, None, 0.9, np.zeros(4)),
            make_proposal(block(6, 4, 0, 0, 3, 4), 0.8),
            Proposal(0, empty, None, 0.7, np.zeros(4)),
            make_proposal(block(6, 4, 0, 0, 3, 4), 0.6),
            make_proposal(block(6, 4, 0, 0, 6, 4), 0.5),
        ]
        self.check([props, props[::-1], []])

    def test_boxes_touching_or_sharing_one_row_or_column(self):
        # 12x10 image: one-pixel-wide bars and 3x3 blocks next to a kept
        # one, touching it along an edge or sharing one column or row
        bars = [
            rect(12, 10, 4, 0, 5, 10, 0.9),
            rect(12, 10, 5, 0, 6, 10, 0.8),  # touches: x1 == x0'
            rect(12, 10, 3, 0, 4, 10, 0.7),  # touches on the left
            rect(12, 10, 4, 0, 6, 10, 0.6),  # shares column 4: IoU 1/2
            rect(12, 10, 0, 4, 12, 5, 0.5),  # crosses it: IoU 1/21
        ]
        blocks = [
            rect(12, 10, 3, 3, 6, 6, 0.9),
            rect(12, 10, 3, 6, 6, 9, 0.8),  # touches: y1 == y0'
            rect(12, 10, 6, 3, 9, 6, 0.8),  # touches: x1 == x0'
            rect(12, 10, 3, 5, 6, 8, 0.7),  # shares row 5: IoU 3/15
            rect(12, 10, 5, 3, 8, 6, 0.7),  # shares column 5: IoU 3/15
            rect(12, 10, 6, 6, 9, 9, 0.6),  # touches at a corner
        ]
        self.check([bars, bars[::-1], blocks, blocks[::-1], bars[:1] + blocks])

    def test_full_height_masks_with_runs_across_columns(self):
        # 7x5 image; runs that go on from the last row of one column into
        # the next, whole columns, and runs that wrap more than one column
        runs = [[3, 4, 28], [0, 10, 25], [5, 15, 15], [8, 13, 14], [12, 3, 20],
                [0, 35], [4, 2, 29], [9, 20, 6], [30, 5]]
        props = [Proposal(0, Mask(7, 5, r), None, s, np.zeros(4))
                 for r, s in zip(runs, (0.9, 0.8, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2))]
        self.check([props, props[::-1], props[1::2] + props[::2]])

    def test_bbox_missing_or_wrong_is_not_read(self):
        # each stored box misses its mask, or is None; the boxes of the
        # masks decide, so the first suppresses the second (IoU 0.8)
        wrong = BBox(0, 0, 1, 1)
        a = rect(10, 6, 4, 0, 8, 6, 0.9, bbox=wrong)
        b = rect(10, 6, 3, 0, 8, 6, 0.8, bbox=None)
        c = rect(10, 6, 0, 0, 2, 6, 0.7, bbox=BBox(4, 0, 8, 6))
        d = Proposal(0, Mask.empty(10, 6), BBox(0, 0, 10, 6), 0.6, np.zeros(4))
        assert filter_proposals([a, b, c, d]) == [a, c, d]
        self.check([[a, b, c, d], [d, c, b, a]])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(crowded_frames())
    def test_crowded_random_frames(self, frame):
        self.check([frame])

    def test_counts_only_where_the_iou_bound_reaches_the_threshold(self, monkeypatch):
        counted = []
        real = manifest_module.ious
        monkeypatch.setattr(
            manifest_module,
            "ious",
            lambda table, fg: counted.append(len(table.areas)) or real(table, fg),
        )
        # one-pixel-wide bars: touching ones share no pixel, so none is
        # counted; the one sharing a column is
        bars = [rect(12, 10, x, 0, x + 1, 10, 0.9 - x / 100) for x in range(12)]
        assert filter_proposals(bars, 0.05, 0.3) == bars
        assert counted == []
        wide = rect(12, 10, 4, 0, 6, 10, 0.95)
        assert filter_proposals([wide] + bars, 0.05, 0.3) == [wide] + bars[:4] + bars[6:]
        assert counted == [2]

    def test_mismatched_shapes_rejected(self):
        a = make_proposal(block(6, 4, 0, 0, 3, 4), 0.9)
        b = make_proposal(block(8, 4, 0, 0, 3, 4), 0.8)
        with pytest.raises(MaskError, match="dimension mismatch"):
            filter_proposals([a, b])

import hashlib

import numpy as np
import pytest

from naive_reference import sample_simplex
from trackmerge.errors import TrackmergeError
from trackmerge.flow import warp_mask
from trackmerge.manifest import load_manifest, save_manifest
from trackmerge.merging import greedy_merge
from trackmerge.metrics import evaluate
from trackmerge.synth import (
    ScenarioSpec,
    ShapeSpec,
    crossing_scenario,
    generate,
    random_scenario,
    save_scenario,
    single_object_scenario,
)


class TestGenerate:
    def test_flow_transports_gt_exactly(self):
        for seed in range(6):
            result = generate(random_scenario(seed, noise=0.0))
            m = result.manifest
            for t in range(1, m.frame_count):
                for j in m.object_ids:
                    warped = warp_mask(result.gt_all_frames[t - 1][j], m.flow(t))
                    assert warped == result.gt_all_frames[t][j], f"seed {seed} t {t}"

    def test_manifests_pass_validation(self, tmp_path):
        for seed in (0, 5, 9):
            result = generate(random_scenario(seed))
            save_scenario(result, tmp_path / str(seed))
            load_manifest(tmp_path / str(seed) / "manifest.json")

    def test_same_seed_byte_identical_manifest(self, tmp_path):
        spec = random_scenario(17)
        save_manifest(generate(spec).manifest, tmp_path / "a.json")
        save_manifest(generate(spec).manifest, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_single_clean_object_any_weights(self):
        result = generate(single_object_scenario(3))
        rng = np.random.default_rng(0)
        for _ in range(4):
            ts = greedy_merge(result.manifest, sample_simplex(rng))
            assert evaluate(ts.label_maps, result.gt_all_frames).j_mean == 1.0

    def test_oversized_object_rejected(self):
        with pytest.raises(TrackmergeError):
            ScenarioSpec(
                seed=0,
                frame_count=2,
                width=8,
                height=8,
                objects=(ShapeSpec("rect", (10, 2), (0, 0), (0, 0)),),
            )

    @pytest.mark.parametrize("size", [(0, 2), (2, 0), (-1, 3)])
    def test_empty_shape_rejected(self, size):
        with pytest.raises(TrackmergeError, match="must be positive"):
            ScenarioSpec(
                seed=0,
                frame_count=2,
                width=8,
                height=8,
                objects=(ShapeSpec("rect", size, (0, 0), (0, 0)),),
            )

    def test_escaping_trajectory_rejected(self):
        with pytest.raises(TrackmergeError):
            ScenarioSpec(
                seed=0,
                frame_count=5,
                width=8,
                height=8,
                objects=(ShapeSpec("rect", (3, 3), (4, 0), (2, 0)),),
            )

    def test_crossing_confuses_appearance_only_merging(self):
        result = generate(crossing_scenario())
        reid_only = greedy_merge(
            result.manifest, active=(False, True, False, True, False)
        )
        all_five = greedy_merge(result.manifest)
        jf_reid = evaluate(reid_only.label_maps, result.gt_all_frames).jf_mean
        jf_all = evaluate(all_five.label_maps, result.gt_all_frames).jf_mean
        assert jf_reid < jf_all

    def test_ellipse_shape(self):
        spec = ScenarioSpec(
            seed=0,
            frame_count=2,
            width=12,
            height=12,
            objects=(ShapeSpec("ellipse", (6, 4), (2, 3), (1, 0)),),
        )
        result = generate(spec)
        m = result.gt_all_frames[0][1]
        assert 0 < m.area < 24  # inside the 6x4 bounding box


def generate_digest(result):
    """sha256 over everything generate() returns: each proposal's runs,
    bbox, objectness and embedding, the GT objects, the flow fields and the
    full-video GT masks."""
    h = hashlib.sha256()
    m = result.manifest
    h.update(repr((m.video_id, m.width, m.height, m.frame_count)).encode())
    for frame in m.proposals:
        for p in frame:
            b = p.bbox
            box = (b.x0, b.y0, b.x1, b.y1)
            h.update(repr((p.mask.width, p.mask.height, p.mask.runs, box, p.objectness)).encode())
            h.update(np.asarray(p.embedding, np.float64).tobytes())
    for g in m.ground_truth:
        h.update(repr((g.object_id, g.first_frame_mask.runs)).encode())
        h.update(np.asarray(g.embedding, np.float64).tobytes())
    for f in m.preloaded_flows:
        h.update(f.vectors.tobytes())
    for frame in result.gt_all_frames:
        for j, mask in sorted(frame.items()):
            h.update(repr((j, mask.runs)).encode())
    return h.hexdigest()


def wide_spec():
    """854x480, three objects touching the top, left and bottom borders,
    a planted rectangle, distractors and frequent spurious copies."""
    return ScenarioSpec(
        seed=5,
        frame_count=4,
        width=854,
        height=480,
        objects=(
            ShapeSpec("ellipse", (150, 110), (0, 40), (4, 2)),
            ShapeSpec("rect", (110, 150), (742, 330), (-6, 0)),
            ShapeSpec("ellipse", (120, 120), (360, 0), (0, 3)),
        ),
        planted=(ShapeSpec("rect", (150, 110), (500, 200), (0, 0), objectness=0.8),),
        distractor_count=6,
        embedding_noise=0.05,
        spurious_rate=0.6,
        video_id="wide",
    )


def tall_spec():
    """Objects as tall as the image, so their runs join across columns."""
    return ScenarioSpec(
        seed=3,
        frame_count=3,
        width=12,
        height=8,
        objects=(
            ShapeSpec("rect", (3, 8), (0, 0), (1, 0)),
            ShapeSpec("ellipse", (4, 8), (8, 0), (-1, 0)),
        ),
        distractor_count=3,
        embedding_noise=0.05,
        spurious_rate=0.8,
        video_id="tall",
    )


class TestGoldenDigests:
    """generate() output, pinned before the shapes were drawn in their
    boxes instead of over the whole frame."""

    CROSSING = [
        "8f03f48bb082ced8c6001599b220640303db251f6736dce01a47fc71fd09041d",
        "7e2eb0962627fd45b6a7c2006e75d781d14686289f87a3f34eb29373a4ff6b6f",
        "deb2095caccc64dfa55d455e43b5da4a953204ea7b5efa72fea1abd5294be3c7",
    ]
    RANDOM = [
        "5d45cc6a6a6d564d358a5febd32cf66240a823184456076adb55dd41b3960d93",
        "22f4c4120368159dfc227cf261cca35e948009e42971588505dcdae020b4d3dd",
        "fbe5d1221814cdcaab02df2f40a9d2a225ccc70095f99483c3a2da7ce41426cb",
        "51fcc2a2c52d5f75192884e33503fb47690efac0f6335320e4a5039cd545824b",
        "f03afdea8a98f5b6e816d7d4616a04d974490865079a5c6887c1d91f140a5db6",
        "c8150cb79176095c276680b2ef5974a5cc08b8bb2fdee2e3459ba8b6dd8a7b51",
        "5d1b9f6b0f3c739d2bb7a1f0352b333d584f9707d3fc0aa843c2e464b7a7548b",
        "5fa05185f75f65ea8198edeb0047e171af978d480bf21d050e3fd795239bd7b7",
        "9acbe25a6aac29f92a096acb1ab81f7871286c3c7d5e3e02e68e3265f2c984bd",
        "1cccb3eb4850426cee222f0989a07892febcc6504eb0020a19bade4cc4f2bd23",
    ]

    @pytest.mark.parametrize("seed", range(3))
    def test_crossing(self, seed):
        assert generate_digest(generate(crossing_scenario(seed))) == self.CROSSING[seed]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_scenario(self, seed):
        assert generate_digest(generate(random_scenario(seed))) == self.RANDOM[seed]

    def test_wide_three_objects(self):
        assert generate_digest(generate(wide_spec())) == (
            "11afc56ec2de79234011a9f3bda8892e3e6623f57b8cc3344921b7c42bb82fe3"
        )

    def test_full_height_objects(self):
        assert generate_digest(generate(tall_spec())) == (
            "488f76a8506d7b0e0a8ef6f160613f26ffc224ef6cc33b3316e6f4dc57d20a97"
        )


class TestRandomScenario:
    # sha256 over repr(random_scenario(seed, **kwargs)) for seeds 0-999,
    # recorded before the speeds were capped: the specs that the
    # tests and demos draw (max_frames <= 6) must not change
    DIGESTS = [
        ({}, "70aaade714fcd451e6114def30195f59d039eb89151be8e70f08f052955d83b4"),
        ({"max_frames": 2}, "71d672ad2df4be1b1d65d9abf5c8c21965531479af7495253672975401c5b40c"),
        ({"max_frames": 3}, "014479e386fae282230c4ed1d905ab25c23ddc9794ed64d154738e8c2d93b23e"),
        ({"max_frames": 4}, "ecb2345c2f10ffcfd14b5764b7d43a0de2ff55ea2b8f88bd22832faf249794bc"),
        ({"max_frames": 5}, "5b0706d96110783f3fc9503082655a91da83ce2d2327f8c2f02c6c8d6c5dbd1b"),
        (
            {"max_frames": 4, "max_objects": 2},
            "250383474e19a9671912bc3717548cb89f8fc25054c5d373b8e00db5f77b388f",
        ),
        (
            {"require_disjoint": False},
            "1132ec05ae0cec86086a9c4c963c3f3e59ff8945c9cd558d8d0287f977431362",
        ),
        (
            {"max_frames": 6, "max_objects": 3, "max_distractors": 2, "spurious_rate": 0.0},
            "c11c5feff3f3a4732a866304a87e002638ee45409c90dabb3347b3da69c3916a",
        ),
    ]

    @pytest.mark.parametrize(
        "kwargs,digest",
        DIGESTS,
        ids=[",".join(f"{k}={v}" for k, v in kw.items()) or "defaults" for kw, _ in DIGESTS],
    )
    def test_small_specs_unchanged(self, kwargs, digest):
        h = hashlib.sha256()
        for seed in range(1000):
            h.update(repr(random_scenario(seed, **kwargs)).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("max_frames", [1, 0, -3])
    def test_fewer_than_two_frames_rejected(self, max_frames):
        # the frame count is drawn from 2..max_frames
        with pytest.raises(TrackmergeError, match="max_frames must be at least 2"):
            random_scenario(0, max_frames=max_frames)

    @pytest.mark.parametrize("max_frames", [20, 30])
    def test_long_videos_keep_the_drawn_object_count(self, max_frames):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            frame_count = int(rng.integers(2, max_frames + 1))
            drawn = int(rng.integers(1, 4))
            spec = random_scenario(seed, max_frames=max_frames)
            assert (spec.frame_count, len(spec.objects)) == (frame_count, drawn)

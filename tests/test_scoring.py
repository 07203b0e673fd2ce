import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_reference import sample_simplex
from trackmerge.errors import TrackmergeError
from trackmerge.flow import FlowField, warp_mask
from trackmerge.manifest import filter_manifest
from trackmerge.mask import Mask, iou
from trackmerge.scoring import (
    WeightVector,
    combine,
    combined_score,
    compute_video_max_distances,
    effective_weights,
    embedding_distances,
    frame_subscores,
    inverse_scores,
    reid_score,
)
from trackmerge.synth import crossing_scenario, generate, random_scenario


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(TrackmergeError):
            WeightVector(-0.1, 0.3, 0.3, 0.3, 0.2)

    def test_rejects_bad_sum(self):
        with pytest.raises(TrackmergeError):
            WeightVector(0.3, 0.3, 0.3, 0.3, 0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails no "< 0" test, and a NaN sum fails no "> tolerance" test
        with pytest.raises(TrackmergeError, match=r"lie in \[0, 1\]"):
            WeightVector(bad, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(TrackmergeError, match=r"lie in \[0, 1\]"):
            WeightVector.from_array([0.0, 0.0, 1.0, 0.0, bad])

    @pytest.mark.filterwarnings("error")
    def test_huge_weights_rejected_without_overflow_warning(self):
        with pytest.raises(TrackmergeError, match=r"lie in \[0, 1\]"):
            WeightVector.from_array([1e308, 1e308, 0.0, 0.0, 0.0])

    def test_equal(self):
        assert WeightVector.equal().as_array().sum() == pytest.approx(1.0)

    def test_effective_weights_redistribution(self):
        w = effective_weights(WeightVector.equal(), (True, False, True, False, True))
        arr = w.as_array()
        assert arr[1] == arr[3] == 0.0
        assert np.allclose(arr[[0, 2, 4]], 1 / 3)

    def test_effective_weights_all_active_noop(self):
        w = WeightVector(0.19, 0.18, 0.22, 0.14, 0.27)
        assert effective_weights(w, (True,) * 5) == w

    def test_effective_weights_needs_one_active(self):
        with pytest.raises(TrackmergeError):
            effective_weights(WeightVector.equal(), (False,) * 5)


class TestReid:
    def test_identical_embeddings(self):
        assert reid_score([1, 2, 3], [1, 2, 3], 5.0) == 1.0

    def test_max_distance_endpoint(self):
        assert reid_score([0, 0], [3, 4], 5.0) == 0.0

    def test_distance_three_of_four(self):
        assert reid_score([0, 3], [0, 0], 4.0) == pytest.approx(0.25)

    def test_degenerate_zero_max(self):
        assert reid_score([1, 1], [1, 1], 0.0) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(TrackmergeError):
            reid_score([1, 2], [1, 2, 3], 1.0)

    def test_rotation_invariance(self):
        # jointly rotating every embedding preserves all reid scores
        result = generate(random_scenario(21, noise=0.1))
        manifest = result.manifest
        dim = manifest.embedding_dim
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        before = compute_video_max_distances(manifest)
        scores_before = [
            reid_score(p.embedding, g.embedding, before[g.object_id])
            for frame in manifest.proposals
            for p in frame
            for g in manifest.ground_truth
        ]
        for frame in manifest.proposals:
            for p in frame:
                object.__setattr__(p, "embedding", q @ p.embedding)
        for g in manifest.ground_truth:
            object.__setattr__(g, "embedding", q @ g.embedding)
        after = compute_video_max_distances(manifest)
        scores_after = [
            reid_score(p.embedding, g.embedding, after[g.object_id])
            for frame in manifest.proposals
            for p in frame
            for g in manifest.ground_truth
        ]
        assert np.allclose(scores_before, scores_after)


class TestMaxDistances:
    def test_brute_force_oracle(self):
        result = generate(random_scenario(22, noise=0.2))
        manifest = result.manifest
        computed = compute_video_max_distances(manifest)
        for g in manifest.ground_truth:
            expected = 0.0
            for frame in manifest.proposals:
                for p in frame:
                    expected = max(
                        expected, float(np.linalg.norm(p.embedding - g.embedding))
                    )
            assert computed[g.object_id] == pytest.approx(expected)

    def test_simple_max(self):
        result = generate(random_scenario(23, noise=0.0))
        # all proposals carry the exact archetype for noiseless single runs;
        # distances are still >= 0 and finite
        d = compute_video_max_distances(result.manifest)
        assert all(v >= 0 for v in d.values())


def propagated_iou(candidate, previous, flow):
    """The maskprop sub-score: IoU of the candidate with the previous
    selection warped along the flow, 0 when both are empty."""
    return iou(candidate, warp_mask(previous, flow), empty_empty=0.0)


class TestMaskprop:
    def test_identity_under_zero_flow(self):
        grid = np.zeros((4, 4), bool)
        grid[1:3, 1:3] = True
        m = Mask.from_dense(grid)
        flow = FlowField.zero(4, 4)
        assert propagated_iou(m, m, flow) == 1.0

    def test_empty_previous_selection(self):
        flow = FlowField.zero(4, 4)
        assert propagated_iou(Mask.full(4, 4), Mask.empty(4, 4), flow) == 0.0

    def test_half_overlap_after_shift(self):
        # warped single pixel lands inside a 2-pixel candidate: IoU 1/2
        prev = np.zeros((5, 5), bool)
        prev[2, 2] = True
        vec = np.zeros((5, 5, 2), np.float32)
        vec[:, :, 0] = -1  # content moves right by one
        cand = np.zeros((5, 5), bool)
        cand[2, 3] = True
        cand[2, 4] = True
        score = propagated_iou(
            Mask.from_dense(cand), Mask.from_dense(prev), FlowField(5, 5, vec)
        )
        assert score == pytest.approx(0.5)


class TestInverse:
    def test_single_track_convention(self):
        assert inverse_scores([0.9], [0.4], 0) == (1.0, 1.0)

    def test_two_tracks(self):
        inv_r, _ = inverse_scores([0.9, 0.3], [0.0, 0.0], 0)
        assert inv_r == pytest.approx(0.7)

    def test_perfect_competitor_match(self):
        _, inv_m = inverse_scores([0.5, 0.5], [0.2, 1.0], 0)
        assert inv_m == 0.0


class TestCombined:
    def test_all_ones(self):
        assert combined_score([1, 1, 1, 1, 1], WeightVector.equal()) == pytest.approx(1.0)

    def test_single_component(self):
        assert combined_score([1, 0, 0, 0, 0], WeightVector.equal()) == pytest.approx(0.2)

    def test_published_optimized_weights(self):
        w = WeightVector(0.19, 0.18, 0.22, 0.14, 0.27)
        assert combined_score([1, 1, 0, 1, 0], w) == pytest.approx(0.51)

    def test_bounded_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = sample_simplex(rng)
            s = rng.random(5)
            v = combined_score(s, w)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_monotone_in_each_subscore(self):
        rng = np.random.default_rng(4)
        w = sample_simplex(rng)
        s = rng.random(5)
        base = combined_score(s, w)
        for q in range(5):
            bumped = s.copy()
            bumped[q] = min(1.0, bumped[q] + 0.1)
            assert combined_score(bumped, w) >= base - 1e-12

    def test_argmax_invariant_under_scaling(self):
        rng = np.random.default_rng(5)
        w = sample_simplex(rng)
        subs = rng.random((6, 5))
        scores = [combined_score(s, w) for s in subs]
        scaled = [combined_score(s * 0.37, w) for s in subs]
        assert int(np.argmax(scores)) == int(np.argmax(scaled))


class TestFrameArrays:
    """The array form of one frame step equals the scalar helpers exactly."""

    @pytest.mark.parametrize("tracks", [1, 2, 4])
    def test_subscores_and_combination(self, tracks):
        rng = np.random.default_rng(tracks)
        n = 6
        objectness = rng.random(n).tolist()
        distances = rng.random((n, tracks)) * 0.8
        max_distances = distances.max(axis=0)
        max_distances[0] = 0.0  # all embeddings equal: reid is 1
        maskprop = rng.random((n, tracks))
        maskprop[0] = 0.0
        sub = frame_subscores(objectness, distances, max_distances, maskprop)
        w = sample_simplex(rng)
        comb = combine(sub, w.as_array())
        for i in range(n):
            reid = [
                reid_score([distances[i, jj]], [0.0], max_distances[jj]) for jj in range(tracks)
            ]
            for jj in range(tracks):
                want = (objectness[i], reid[jj], maskprop[i, jj])
                want += inverse_scores(reid, maskprop[i].tolist(), jj)
                assert sub[i, jj].tolist() == list(want)
                assert comb[i, jj] == combined_score(want, w)

    def test_distances_feed_max_distances(self):
        manifest = generate(random_scenario(5)).manifest
        distances = embedding_distances(manifest)
        assert [d.shape for d in distances] == [
            (len(frame), len(manifest.ground_truth)) for frame in manifest.proposals
        ]
        assert compute_video_max_distances(manifest, distances) == compute_video_max_distances(
            manifest
        )


def per_pair_distances(manifest):
    """Each proposal's distance to each GT embedding, one pair at a time."""
    return [
        [[math.sqrt((p.embedding - g.embedding).dot(p.embedding - g.embedding))
          for g in manifest.ground_truth] for p in frame]
        for frame in manifest.proposals
    ]


def empty_frame_manifest():
    """crossing_scenario(0), filtered, with no proposals at frame 2."""
    manifest = filter_manifest(generate(crossing_scenario(0)).manifest)
    return replace(manifest, proposals=manifest.proposals[:2] + ((),) + manifest.proposals[3:])


class TestEmbeddingDistances:
    """One vecdot per frame equals math.sqrt(d.dot(d)) pair by pair, bit for bit."""

    def check(self, manifest):
        distances = embedding_distances(manifest)
        tracks = len(manifest.ground_truth)
        assert [d.shape for d in distances] == [(len(f), tracks) for f in manifest.proposals]
        assert [d.tolist() for d in distances] == per_pair_distances(manifest)

    def test_empty_frame_corpus(self):
        manifest = empty_frame_manifest()
        assert embedding_distances(manifest)[2].shape == (0, 2)
        self.check(manifest)

    @pytest.mark.parametrize("dim", [1, 2, 16, 128, 257])
    def test_embedding_dims(self, dim):
        rng = np.random.default_rng(dim)
        manifest = empty_frame_manifest()

        def drawn(item):  # scales far apart, and some embeddings repeated
            emb = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            return replace(item, embedding=emb if rng.random() < 0.8 else np.ones(dim))

        self.check(replace(
            manifest,
            embedding_dim=dim,
            proposals=[[drawn(p) for p in frame] for frame in manifest.proposals],
            ground_truth=[drawn(g) for g in manifest.ground_truth],
        ))


# sub-scores and weights, with the values where rounding is easiest to get wrong
EDGES = st.sampled_from((0.0, 1.0, 5e-324, 1 / 3))
VALUES = st.one_of(EDGES, st.floats(0.0, 1.0))


@st.composite
def scored_frames(draw):
    """An (n, J, 5) sub-score tensor and an (R, 5) array of simplex rows.
    Some pairs share one sub-score vector; the tensor may be a view with a
    strided last axis, and the weights may be in Fortran order."""
    n, tracks, count = (draw(st.integers(1, 5)) for _ in range(3))
    sub = np.array(draw(st.lists(VALUES, min_size=n * tracks * 5, max_size=n * tracks * 5)))
    sub = sub.reshape(n, tracks, 5)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, tracks - 1))
    for a, b in draw(st.lists(st.tuples(pair, pair), max_size=3)):
        sub[b] = sub[a]  # equal sub-score vectors
    if draw(st.booleans()):
        wide = np.zeros((n, tracks, 10))
        wide[..., ::2] = sub
        sub = wide[..., ::2]
    row = st.lists(VALUES, min_size=5, max_size=5)
    rows = np.array(draw(st.lists(row, min_size=count, max_size=count)))
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    weights = rows / rows.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        weights = np.asfortranarray(weights)
    return sub, weights


def per_pair(sub, w):
    """combined_score of every pair, each on a fresh contiguous vector."""
    return [[combined_score(s, w) for s in ss] for ss in sub.tolist()]


class TestCombine:
    """combine, one kernel over every pair and weight row, equals
    combined_score pair by pair, bit for bit."""

    KERNEL = settings(max_examples=300, deadline=None, derandomize=True)

    @KERNEL
    @given(scored_frames())
    def test_one_row(self, frame):
        sub, weights = frame
        out = combine(sub, weights[0])  # a strided row of Fortran-order weights
        assert out.shape == sub.shape[:2]
        assert out.tolist() == per_pair(sub, WeightVector.from_array(weights[0]))

    @KERNEL
    @given(scored_frames())
    def test_many_rows(self, frame):
        sub, weights = frame
        out = combine(sub, weights)
        assert out.shape == (len(weights), *sub.shape[:2])
        for r, w in enumerate(weights):
            assert out[r].tolist() == per_pair(sub, WeightVector.from_array(w))

    def test_many_rows_over_a_large_frame(self):
        # a matrix product over these rounds 50 of the 54,000 scores
        # differently from np.dot (numpy 2.4, OpenBLAS), einsum about 20,000
        rng = np.random.default_rng(0)
        sub = rng.random((300, 3, 5))
        weights = rng.dirichlet(np.ones(5), size=60)
        out = combine(sub, weights)
        for r, w in enumerate(weights):
            assert out[r].tolist() == per_pair(sub, WeightVector.from_array(w))

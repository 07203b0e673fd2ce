"""Repeated merges of one manifest share each frame's weight-free work
(VideoManifest.frame_memo): a manifest with preloaded flows sweeps each flow
(flow.source_pairs) once and computes each state's maskprop IoUs
(merging.maskprop_ious) once, one that reads its flows from disk sweeps them
on every merge and keeps nothing, and both merge as before."""

import pickle
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from naive_reference import reference_merge
from trackmerge import manifest as manifest_module
from trackmerge import merging
from trackmerge.flow import FlowField, source_pairs
from trackmerge.manifest import GroundTruthObject, Proposal, filter_manifest, load_manifest
from trackmerge.mask import Mask
from trackmerge.merging import greedy_merge
from trackmerge.scoring import WeightVector
from trackmerge.search import SearchConfig, random_search
from trackmerge.synth import (
    ScenarioSpec,
    ShapeSpec,
    crossing_scenario,
    generate,
    save_scenario,
)

WEIGHTS = (
    WeightVector.equal(),
    WeightVector(0.1, 0.2, 0.5, 0.1, 0.1),
    WeightVector(0.0, 0.0, 1.0, 0.0, 0.0),
)
EMPTY = 2  # the frame left without proposals
T = 5  # the frame whose inputs TestReplaced replaces
# a 50-candidate search of the scene: its states, and those on frames with proposals
SEARCH_STATES, SEARCHED = 9, 8


def without_frame(manifest):
    """The filtered manifest with no proposals at frame EMPTY."""
    manifest = filter_manifest(manifest)
    return replace(manifest, proposals=put(manifest.proposals, (EMPTY,), ()))


@pytest.fixture
def scene():
    result = generate(crossing_scenario(0))
    return without_frame(result.manifest), result.gt_all_frames


@pytest.fixture
def sweeps(monkeypatch):
    """The flows that flow.source_pairs is called with by the manifest,
    counted by their bytes: disk flows are new objects on every read."""
    seen = Counter()

    def spy(flow):
        seen[flow.planes.tobytes()] += 1
        return source_pairs(flow)

    monkeypatch.setattr(manifest_module, "source_pairs", spy)
    return seen


def frames_with_proposals(manifest, times):
    """Each flow of a frame with proposals, as ``sweeps`` counts it, ``times``
    times."""
    return Counter({
        key: count * times
        for key, count in Counter(
            manifest.flow(t).planes.tobytes()
            for t in range(1, manifest.frame_count)
            if manifest.proposals[t]
        ).items()
    })


def search_then_merge(manifest, gt):
    """A search of the manifest, then its merges under WEIGHTS and the
    search's top 3: (weights, merges)."""
    res = random_search([(manifest, gt)], SearchConfig(sample_count=50, seed=3, top_k=3))
    weights = (*WEIGHTS, *res.top_k_weights)
    return weights, [greedy_merge(manifest, w) for w in weights]


@pytest.fixture
def computed(monkeypatch):
    """One entry per call of merging.maskprop_ious: per state whose
    maskprop IoUs a walk computes, the frame's memo."""
    calls = []
    real = merging.maskprop_ious

    def spy(memo, previous):
        calls.append(memo)
        return real(memo, previous)

    monkeypatch.setattr(merging, "maskprop_ious", spy)
    return calls


def shifted(mask):
    """The mask moved 4 pixels to the right, wrapping round."""
    return Mask.from_dense(np.roll(mask.dense(), 4, axis=1))


# Each change below names one input of the manifest as (field, path, value):
# the item at ``path`` in the field's nested tuples becomes ``value``.


def reorder_frame(manifest, merged):
    """proposals[T] becomes the same proposals, reversed."""
    return "proposals", (T,), manifest.proposals[T][::-1]


def move_previous_proposal(manifest, merged):
    """The proposal the first track selects at T - 1 becomes one whose mask
    is moved."""
    k = merged.selections[merged.object_ids[0]][T - 1]
    p = manifest.proposals[T - 1][k]
    m = shifted(p.mask)
    return "proposals", (T - 1, k), Proposal(p.frame_index, m, m.bbox(), p.objectness, p.embedding)


def move_gt_object(manifest, merged):
    """The first GT object becomes one whose mask is moved."""
    g = manifest.ground_truth[0]
    m = shifted(g.first_frame_mask)
    return "ground_truth", (0,), GroundTruthObject(g.object_id, m, m.bbox(), g.embedding)


def shift_flow(manifest, merged):
    """The preloaded flow of frame T becomes one shifted 2 pixels."""
    vectors = manifest.flow(T).vectors + 2
    return "preloaded_flows", (T - 1,), FlowField(manifest.width, manifest.height, vectors)


def put(seq, path, value):
    """``seq`` as nested lists, with the item at ``path`` set to ``value``."""
    head, *rest = path
    out = list(seq)
    out[head] = put(seq[head], rest, value) if rest else value
    return out


def davis_scene_seed_1():
    """The filtered davis_scene scene of the benchmark at seed 1: the spec
    that benchmark/workloads.py draws for it, written out."""
    spec = ScenarioSpec(
        seed=1401275225, frame_count=20, width=854, height=480,
        objects=(
            ShapeSpec("ellipse", (150, 110), (293, 336), (-5, -5)),
            ShapeSpec("rect", (110, 150), (578, 60), (-1, 2)),
            ShapeSpec("ellipse", (120, 120), (90, 356), (-3, 0)),
        ),
        planted=(ShapeSpec("rect", (150, 110), (628, 329), (0, 0), objectness=0.8),),
        distractor_count=23, embedding_noise=0.05, spurious_rate=0.5, video_id="davis",
    )
    return filter_manifest(generate(spec).manifest)


class TestSweepsShared:
    def test_preloaded_flows_swept_once(self, scene, sweeps):
        manifest, gt = scene
        search_then_merge(manifest, gt)
        assert sweeps == frames_with_proposals(manifest, 1)
        assert manifest.proposals[EMPTY] == ()

    def test_disk_flows_swept_on_every_merge(self, scene, sweeps, tmp_path):
        result = generate(crossing_scenario(0))
        save_scenario(result, tmp_path)
        manifest = without_frame(load_manifest(tmp_path / "manifest.json"))
        _, merged = search_then_merge(manifest, result.gt_all_frames)
        assert sweeps == frames_with_proposals(scene[0], len(merged) + 1)
        assert manifest._memo == {}

    def test_replaced_flow_swept_again(self, scene, sweeps):
        manifest, _ = scene
        before = greedy_merge(manifest)
        shifted = FlowField(manifest.width, manifest.height, manifest.flow(1).vectors + 2)
        moved = replace(manifest, preloaded_flows=put(manifest.preloaded_flows, (0,), shifted))
        after = greedy_merge(moved)
        assert sweeps[shifted.planes.tobytes()] == 1
        assert after == greedy_merge(moved) == reference_merge(moved)
        assert after != before

    def test_merges_equal_reference(self, scene):
        manifest, _ = scene
        for w in WEIGHTS:
            first = greedy_merge(manifest, w)
            assert greedy_merge(manifest, w) == first
            assert greedy_merge(replace(manifest), w) == first
            assert first == reference_merge(manifest, w)
            assert first.report == reference_merge(manifest, w).report

    def test_search_then_merge_equals_fresh_copies(self, scene):
        manifest, gt = scene
        for w, ts in zip(*search_then_merge(manifest, gt)):
            assert ts == greedy_merge(replace(manifest), w)


CHANGES = [reorder_frame, move_previous_proposal, move_gt_object, shift_flow]


class TestReplaced:
    """A manifest's inputs cannot be replaced in place. After merges have
    filled the memo, a manifest with one input replaced through
    dataclasses.replace starts with an empty memo and merges as the
    reference does, report included. The scene keeps all its frames, so
    every track's maskprop is 1 before."""

    @pytest.mark.parametrize("change", CHANGES)
    def test_edit_in_place_raises(self, change):
        manifest = filter_manifest(generate(crossing_scenario(0)).manifest)
        before = greedy_merge(manifest)
        name, (*outer, last), value = change(manifest, before)
        container = getattr(manifest, name)
        for i in outer:
            container = container[i]
        with pytest.raises(TypeError):
            container[last] = value
        with pytest.raises(FrozenInstanceError):
            setattr(manifest, name, put(getattr(manifest, name), (*outer, last), value))
        assert greedy_merge(manifest) == before

    @pytest.mark.parametrize("change", CHANGES)
    def test_merges_after_replacing(self, change):
        result = generate(crossing_scenario(0))
        manifest = filter_manifest(result.manifest)
        # the search also fills each memo's overlap answers
        random_search([(manifest, result.gt_all_frames)], SearchConfig(sample_count=50, seed=3))
        before = [greedy_merge(manifest, w) for w in WEIGHTS]
        assert manifest._memo and all(memo.overlap for memo in manifest._memo.values())
        name, path, value = change(manifest, before[0])
        changed = replace(manifest, **{name: put(getattr(manifest, name), path, value)})
        assert changed._memo == {}
        after = [greedy_merge(changed, w) for w in WEIGHTS]
        for w, ts in zip(WEIGHTS, after):
            want = reference_merge(changed, w)
            assert ts == want and ts.report == want.report
        assert after[0] != before[0]
        assert [greedy_merge(manifest, w) for w in WEIGHTS] == before


class TestWorkCounts:
    """Exact counts of the per-state maskprop computation."""

    def test_davis_scene_merges_share_states(self, computed):
        """The benchmark's three merges of one manifest walk the same 19
        states: each computed once, not 57 times."""
        manifest = davis_scene_seed_1()
        weights = (
            WeightVector.equal(),
            WeightVector(0.1, 0.2, 0.5, 0.1, 0.1),
            WeightVector(0.3, 0.3, 0.2, 0.1, 0.1),
        )
        merged = [greedy_merge(manifest, w) for w in weights]
        assert len(computed) == 19
        assert merged[1] == greedy_merge(replace(manifest), weights[1])
        assert len(computed) == 38  # a fresh copy computes its own

    def test_top_k_merges_after_search_compute_nothing(self, scene, computed):
        manifest, gt = scene
        res = random_search([(manifest, gt)], SearchConfig(sample_count=50, seed=3))
        searched = len(computed)
        assert (searched, res.states) == (SEARCHED, SEARCH_STATES)
        for w in res.top_k_weights:
            greedy_merge(manifest, w)
        assert len(computed) == searched


class TestMemo:
    def test_held_pairs_read_only(self, scene):
        manifest, _ = scene
        greedy_merge(manifest)
        memo = manifest.frame_memo(1)
        held = [memo.dest, memo.src, *memo.maskprop.values()]
        assert len(held) == 3
        for a in held:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        again = manifest.frame_memo(1)
        assert again is memo and again.dest is memo.dest and again.src is memo.src

    def test_memo_not_in_eq_repr_or_pickle(self, scene):
        manifest, _ = scene
        fresh = replace(manifest)
        size = len(pickle.dumps(manifest))
        greedy_merge(manifest)
        assert manifest._memo and fresh._memo == {}
        assert manifest == fresh
        assert repr(manifest) == repr(fresh)
        assert "_memo" not in repr(manifest)
        assert len(pickle.dumps(manifest)) == size
        copy = pickle.loads(pickle.dumps(manifest))
        assert copy._memo == {}
        assert greedy_merge(copy) == greedy_merge(manifest)

"""Repeated merges of one manifest share its flow sweeps: a manifest with
preloaded flows sweeps each (VideoManifest.flow_pairs, flow.source_pairs)
once, one that reads its flows from disk sweeps them on every merge, and
both merge as before."""

import pickle
from collections import Counter
from dataclasses import replace

import pytest

from naive_reference import reference_merge
from trackmerge import manifest as manifest_module
from trackmerge.flow import FlowField, source_pairs
from trackmerge.manifest import filter_manifest, load_manifest
from trackmerge.merging import greedy_merge
from trackmerge.scoring import WeightVector
from trackmerge.search import SearchConfig, random_search
from trackmerge.synth import crossing_scenario, generate, save_scenario

WEIGHTS = (
    WeightVector.equal(),
    WeightVector(0.1, 0.2, 0.5, 0.1, 0.1),
    WeightVector(0.0, 0.0, 1.0, 0.0, 0.0),
)
EMPTY = 2  # the frame left without proposals


def without_frame(manifest):
    """The filtered manifest with no proposals at frame EMPTY."""
    manifest = filter_manifest(manifest)
    manifest.proposals[EMPTY] = []
    return manifest


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
    random_search([(manifest, gt)], SearchConfig(sample_count=50, seed=3, top_k=3))
    return [greedy_merge(manifest, w) for w in WEIGHTS]


class TestSweepsShared:
    def test_preloaded_flows_swept_once(self, scene, sweeps):
        manifest, gt = scene
        search_then_merge(manifest, gt)
        assert sweeps == frames_with_proposals(manifest, 1)
        assert manifest.proposals[EMPTY] == []

    def test_disk_flows_swept_on_every_merge(self, scene, sweeps, tmp_path):
        result = generate(crossing_scenario(0))
        save_scenario(result, tmp_path)
        manifest = without_frame(load_manifest(tmp_path / "manifest.json"))
        search_then_merge(manifest, result.gt_all_frames)
        assert sweeps == frames_with_proposals(scene[0], len(WEIGHTS) + 1)
        assert manifest._pairs == {}

    def test_replaced_flow_swept_again(self, scene, sweeps):
        manifest, _ = scene
        before = greedy_merge(manifest)
        shifted = FlowField(manifest.width, manifest.height, manifest.flow(1).vectors + 2)
        manifest.preloaded_flows[0] = shifted
        after = greedy_merge(manifest)
        assert sweeps[shifted.planes.tobytes()] == 1
        assert after == greedy_merge(replace(manifest))
        assert after != before

    def test_merges_equal_reference(self, scene):
        manifest, _ = scene
        for w in WEIGHTS:
            first = greedy_merge(manifest, w)
            assert greedy_merge(manifest, w) == first
            assert greedy_merge(replace(manifest), w) == first
            assert first == reference_merge(manifest, w)
            assert first.report == reference_merge(manifest, w).report


class TestMemo:
    def test_held_pairs_read_only(self, scene):
        manifest, _ = scene
        dest, src = manifest.flow_pairs(1)
        assert not dest.flags.writeable and not src.flags.writeable
        with pytest.raises(ValueError):
            dest[0] = 0
        again = manifest.flow_pairs(1)
        assert again[0] is dest and again[1] is src

    def test_memo_not_in_eq_repr_or_pickle(self, scene):
        manifest, _ = scene
        fresh = replace(manifest)
        size = len(pickle.dumps(manifest))
        greedy_merge(manifest)
        assert manifest._pairs and fresh._pairs == {}
        assert manifest == fresh
        assert repr(manifest) == repr(fresh)
        assert "_pairs" not in repr(manifest)
        assert len(pickle.dumps(manifest)) == size
        copy = pickle.loads(pickle.dumps(manifest))
        assert copy._pairs == {}
        assert greedy_merge(copy) == greedy_merge(manifest)

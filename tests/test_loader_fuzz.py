"""Differential fuzzing of load_manifest against tests/reference_loader.py,
the loader that made every check one proposal at a time.

Each example mutates a valid manifest's JSON: element types, negative or
zero interior runs, wrong run sums, boxes, objectness values, embeddings,
huge integers and missing keys, one to three of them. Both loaders read the
file. They must return equal manifests (masks and their bounds, boxes,
objectness, embeddings, flows), or raise the same exception with the same
message.
"""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loader
from trackmerge import manifest, synth
from trackmerge.manifest import load_manifest

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# values that a number array, an integer or a number may be turned into
ODD_ITEMS = (
    True, False, 0, -1, 1, 0.5, -0.0, 2.0, "7", None, [], {}, 10**30, -(10**30), 2**63,
    2**64, 10**400, float("nan"), float("inf"), -float("inf"),
)
ODD_VALUES = ODD_ITEMS + ([1, 2], [[1]], "rle", [True, 5], [0, 0])


def mid_spec():
    """A 160x120 scene: three moving objects, a planted distractor and a
    few random proposals per frame, about 13 proposals a frame."""
    objects = (
        synth.ShapeSpec("rect", (20, 16), (10, 10), (4, 2)),
        synth.ShapeSpec("ellipse", (24, 20), (90, 60), (-3, 1), objectness=0.8),
        synth.ShapeSpec("rect", (16, 22), (60, 80), (2, -3), objectness=0.7),
    )
    planted = (synth.ShapeSpec("rect", (12, 12), (130, 10), (0, 0), objectness=0.8),)
    return synth.ScenarioSpec(
        seed=3, frame_count=10, width=160, height=120, objects=objects, planted=planted,
        distractor_count=6, embedding_noise=0.3, spurious_rate=0.3, video_id="mid",
    )


class Scenes(dict):
    """name -> (directory, manifest JSON text) of the saved scenes."""

    def __repr__(self):  # Hypothesis shows the arguments of a failing example
        return f"Scenes({sorted(self)})"


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    out = Scenes()
    for name, spec in (("crossing", synth.crossing_scenario(1)), ("mid", mid_spec())):
        d = str(tmp_path_factory.mktemp(name))
        synth.save_scenario(synth.generate(spec), d)
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as f:
            out[name] = (d, f.read())
    return out


@st.composite
def mutations(draw, proposals, objects):
    """One change to a manifest's JSON that holds the (frame, index) pairs
    ``proposals`` and ``objects`` GT objects, as a function that applies it
    in place."""
    where = draw(st.sampled_from(["proposal"] * 6 + ["gt", "manifest"]))
    if where == "proposal":
        t, i = draw(st.sampled_from(proposals))
        key = draw(st.sampled_from(["rle", "rle", "rle", "bbox", "objectness", "embedding",
                                    "embedding", None]))

        def owner(d):
            return d["frames"][t], i
    elif where == "gt":
        k = draw(st.integers(0, objects - 1))
        key = draw(st.sampled_from(["rle", "object_id", "embedding", None]))

        def owner(d):
            return d["ground_truth"], k
    else:
        field = draw(st.sampled_from(["width", "height", "frame_count", "embedding_dim",
                                      "video_id", "flows", "frames"]))
        key = None

        def owner(d):
            return d, field
    how = draw(st.sampled_from(["item", "item", "shift", "shift", "drop", "append", "value",
                                "delete"]))
    pick = draw(st.integers(0, 10**6))
    odd_item, odd_value = draw(st.sampled_from(ODD_ITEMS)), draw(st.sampled_from(ODD_VALUES))
    step = draw(st.sampled_from([-2, -1, 1, 2, 5]))

    def apply(d):
        try:
            parent, name = owner(d)
            if key is not None:
                parent, name = parent[name], key
        except (TypeError, IndexError, KeyError):  # an earlier change replaced what held it
            return
        if isinstance(parent, dict):
            value = parent.get(name)
        elif isinstance(parent, list) and isinstance(name, int) and name < len(parent):
            value = parent[name]
        else:
            return
        if how == "delete":
            if name in parent or isinstance(parent, list):
                del parent[name]
        elif how == "value" or not isinstance(value, list) or not value:
            parent[name] = odd_value
        elif how == "item":
            value[pick % len(value)] = odd_item
        elif how == "shift":  # move pixels from one run to the next, or change a sum
            j = pick % len(value)
            numbers = [type(v) in (int, float) for v in value]
            if numbers[j]:
                value[j] += step
                if j + 1 < len(value) and numbers[j + 1] and pick % 3:
                    value[j + 1] -= step
                if key == "rle" and pick % 2:  # a new mask, with no stored box to contradict
                    parent.pop("bbox", None)
        elif how == "drop":
            del value[pick % len(value)]
        else:
            value.append(odd_item if pick % 2 else 1)

    place = f"frames[{t}][{i}]" if where == "proposal" else (
        f"ground_truth[{k}]" if where == "gt" else field)
    return Change(f"{place}.{key} {how} (pick={pick}, item={odd_item!r}, value={odd_value!r}, "
                  f"step={step})", apply)


class Change:
    """A mutation, shown by what it does when Hypothesis reports it."""

    def __init__(self, text, apply):
        self.text, self.apply = text, apply

    def __call__(self, data):
        self.apply(data)

    def __repr__(self):
        return self.text


def outcome(loader, path):
    try:
        return loader(path), None
    except Exception as e:  # noqa: BLE001 - both loaders must fail alike, whatever the failure
        return None, (type(e).__name__, str(e))


def same_float(a, b):
    return a == b and math.copysign(1, a) == math.copysign(1, b)


def assert_same_manifest(a, b):
    assert (a.video_id, a.width, a.height, a.frame_count, a.embedding_dim) == (
        b.video_id, b.width, b.height, b.frame_count, b.embedding_dim)
    assert a.flow_paths == b.flow_paths and a.base_dir == b.base_dir
    assert len(a.ground_truth) == len(b.ground_truth)
    for ga, gb in zip(a.ground_truth, b.ground_truth):
        assert ga.object_id == gb.object_id
        assert ga.first_frame_mask == gb.first_frame_mask
        assert ga.first_frame_bbox == gb.first_frame_bbox
        assert np.array_equal(ga.embedding, gb.embedding)
    assert [len(f) for f in a.proposals] == [len(f) for f in b.proposals]
    for fa, fb in zip(a.proposals, b.proposals):
        for pa, pb in zip(fa, fb):
            assert pa.frame_index == pb.frame_index
            assert pa.mask == pb.mask
            assert np.array_equal(pa.mask.bounds(), pb.mask.bounds())
            assert pa.mask.bounds().dtype == np.int64 and not pa.mask.bounds().flags.writeable
            assert pa.bbox == pb.bbox
            assert type(pa.objectness) is float and same_float(pa.objectness, pb.objectness)
            assert pa.embedding.dtype == np.float64 and pa.embedding.shape == pb.embedding.shape
            assert np.array_equal(pa.embedding, pb.embedding)
            assert not pa.embedding.flags.writeable


def check_against_reference(scenes, name, changes):
    d, text = scenes[name]
    data = json.loads(text)
    for change in changes:
        change(data)
    path = os.path.join(d, "fuzzed.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)
    got, got_error = outcome(load_manifest, path)
    want, want_error = outcome(reference_loader.load_manifest, path)
    assert got_error == want_error
    if want is not None:
        assert_same_manifest(got, want)
    return want_error


def shape_of(spec):
    """The (frame, index) pairs of a scene's proposals, and its GT object count."""
    m = synth.generate(spec).manifest
    return [(t, i) for t, f in enumerate(m.proposals) for i in range(len(f))], len(m.ground_truth)


CROSSING = shape_of(synth.crossing_scenario(1))
MID = shape_of(mid_spec())


@FUZZ
@given(changes=st.lists(mutations(*CROSSING), min_size=1, max_size=3))
def test_crossing_mutations_load_as_the_reference_loads_them(scenes, changes):
    check_against_reference(scenes, "crossing", changes)


@settings(FUZZ, max_examples=60)
@given(changes=st.lists(mutations(*MID), min_size=1, max_size=3))
def test_mid_mutations_load_as_the_reference_loads_them(scenes, changes):
    check_against_reference(scenes, "mid", changes)


@pytest.mark.parametrize("name", ["crossing", "mid"])
def test_unmutated_manifests_load_equal(scenes, name):
    assert check_against_reference(scenes, name, []) is None


def test_the_mutations_reach_both_outcomes_and_many_messages(scenes):
    """The fuzzing is worth something only if it hits both valid and
    invalid manifests, and many different checks."""
    errors = []

    @FUZZ
    @given(changes=st.lists(mutations(*CROSSING), min_size=1, max_size=3))
    def collect(changes):
        errors.append(check_against_reference(scenes, "crossing", changes))

    collect()
    kinds = {re.sub(r"[-\d]+", "#", e[1].split(": ")[-1]) for e in errors if e}
    assert None in errors
    assert len(kinds) >= 12, kinds


def edit_runs(runs, size):
    """Named edits of one mask's RLE counts that keep or break each check."""
    a, b, *rest = runs
    return {
        "interior zero": [a, 0, 0, b, *rest],
        "trailing zero": [*runs, 0],
        "negative, same sum": [a + b + 1, -1, *rest],
        "sum one short": [a, b - 1, *rest] if b > 1 else [a - 1, b, *rest],
        "int64 overflow": [2**63, *runs],
        "beyond int64, negative": [-(2**64), *runs],
        "float count": [float(a), b, *rest],
        "bool count": [True, a - 1, b, *rest] if a > 1 else [True, *runs],
        "empty list": [],
        "one zero": [0],
        "all background": [size],
        "all foreground": [0, size],
        "first run zero": [0, a, b, *rest],
    }


@pytest.mark.parametrize("edit", list(edit_runs([5, 6, 7], 18)))
@pytest.mark.parametrize("second", [False, True])
def test_rle_edits_load_as_the_reference_loads_them(scenes, edit, second):
    """Each edit of the RLE of one proposal, the first of its frame or not,
    with no stored box to contradict the new mask."""
    d, text = scenes["crossing"]
    data = json.loads(text)
    size = data["width"] * data["height"]
    frame = data["frames"][4]
    p = frame[1 if second else 0]
    p["rle"] = edit_runs(p["rle"], size)[edit]
    del p["bbox"]

    def change(data_):
        data_["frames"][4] = frame

    check_against_reference(scenes, "crossing", [change])


def test_two_masks_whose_sums_cancel_are_rejected(scenes):
    """One mask a pixel long and the next a pixel short add up to two
    images; each mask is still checked on its own."""
    d, text = scenes["crossing"]
    data = json.loads(text)
    a, b = data["frames"][4][:2]
    a["rle"][-1] += 1
    b["rle"][-1] -= 1
    del a["bbox"], b["bbox"]

    def change(data_):
        data_["frames"][4][:2] = [a, b]

    assert "runs sum to" in check_against_reference(scenes, "crossing", [change])[1]


def test_valid_proposals_are_made_at_once(scenes):
    """The array-form path holds every proposal of a valid manifest; the
    per-proposal checks only name errors."""
    for d, text in scenes.values():
        data = json.loads(text)
        at_once = manifest._frames_at_once(data["frames"], data["width"], data["height"])
        assert at_once is not None
        assert [len(f) for f in at_once] == [len(f) for f in data["frames"]]


def edit_box(box):
    """Named edits of a stored box; the first keeps the box's values but
    not their types, which json.load keeps apart."""
    x0, y0, x1, y1 = box
    return {
        "float coordinate": [float(x0), y0, x1, y1],
        "bool coordinate": [x0, y0, x1, y1] if y0 > 1 else [x0, bool(y0), x1, y1],
        "huge coordinate": [x0, y0, x1, 10**30],
        "five numbers": [x0, y0, x1, y1, 0],
        "shifted": [x0 + 1, y0, x1, y1],
        "null": None,
        "text": "box",
    }


@pytest.mark.parametrize("edit", list(edit_box([1, 2, 3, 4])))
def test_box_edits_load_as_the_reference_loads_them(scenes, edit):
    d, text = scenes["crossing"]
    data = json.loads(text)
    frame = data["frames"][3]
    frame[1]["bbox"] = edit_box(frame[1]["bbox"])[edit]

    def change(data_):
        data_["frames"][3] = frame

    check_against_reference(scenes, "crossing", [change])


def test_a_box_of_floats_is_rejected(scenes):
    d, text = scenes["crossing"]
    data = json.loads(text)
    frame = data["frames"][3]
    frame[1]["bbox"] = [float(v) for v in frame[1]["bbox"]]

    def change(data_):
        data_["frames"][3] = frame

    assert "expected 4 integers" in check_against_reference(scenes, "crossing", [change])[1]

"""The indented JSON writer: every file it writes is byte for byte what
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` gives, the reference
kept here, and a NaN or an infinity raises instead of writing an invalid
token."""

import dataclasses
import json
import math
import os
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmerge import jsonfile
from trackmerge.cli import load_gt_dir
from trackmerge.errors import TrackmergeError
from trackmerge.merging import greedy_merge, oracle_merge, save_trackset
from trackmerge.metrics import EvalResult, ObjectResult, evaluate, result_to_dict, write_report
from trackmerge.scoring import WeightVector
from trackmerge.search import (
    SearchConfig,
    SearchResult,
    random_search,
    save_search_result,
)
from trackmerge.search import result_to_dict as search_to_dict
from trackmerge.synth import crossing_scenario, generate, save_scenario

# floats whose text is easy to get wrong: zero's sign, the smallest
# subnormal, a repeating fraction and a value that float.__repr__ writes
# with an exponent
AWKWARD = (0.0, -0.0, 1.0, 5e-324, 1 / 3, 1e16)


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def read(path) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


# ---------------------------------------------------------------------------
# the layout kernels


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=json_values, depth=st.integers(0, 3))
def test_dumps_lays_out_any_value_as_json_does(value, depth):
    want = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)
    assert jsonfile.dumps(value, depth) == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(leaves=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
       depth=st.integers(0, 3))
def test_a_template_lays_out_its_shape_as_json_does(leaves, depth):
    fill = jsonfile.template({"z": jsonfile.SLOT, "a": [jsonfile.SLOT, {"k{": jsonfile.SLOT}],
                              "m": {"}": jsonfile.SLOT}}, depth)
    value = {"z": leaves[0], "a": [leaves[1], {"k{": leaves[2]}], "m": {"}": leaves[3]}}
    want = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)
    assert fill(*map(jsonfile.number, leaves)) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_and_infinities_raise(bad):
    with pytest.raises(TrackmergeError, match="is not a JSON number"):
        jsonfile.dumps({"a": [1.0, bad]})


# ---------------------------------------------------------------------------
# search.json


def hand_search(scores, weights, top_k=None, trace=True) -> SearchResult:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranked = [(i, WeightVector(*weights[i]), scores[i]) for i in order]
    return SearchResult(
        ranked=ranked,
        best_weights=ranked[0][1],
        best_score=ranked[0][2],
        top_k_weights=[w for _, w, _ in ranked[: len(ranked) if top_k is None else top_k]],
        trace=[{"index": i, "weights": list(w), "score": s}
               for i, (w, s) in enumerate(zip(weights, scores))] if trace else [],
    )


AWKWARD_WEIGHTS = [
    (0.0, -0.0, 1.0, 5e-324, 0.0),
    (1 / 3, 1 / 3, 1 / 3, 0.0, 0.0),
    (0.2, 0.2, 0.2, 0.2, 0.2),
]


@pytest.mark.parametrize("res", [
    hand_search([AWKWARD[k] for k in (0, 3, 5)], AWKWARD_WEIGHTS),
    hand_search([1 / 3, -0.0, 1.0], AWKWARD_WEIGHTS, top_k=0),
    hand_search([0.5], AWKWARD_WEIGHTS[:1]),  # one candidate
    hand_search([0.5, 1e16], AWKWARD_WEIGHTS[1:], trace=False),  # no trace
    hand_search([0.5], [(1, 0, 0, 0, 0)]),  # ints, which ranked writes as floats
], ids=["awkward", "no-top-k", "one-candidate", "no-trace", "int-weights"])
def test_search_json_is_json_dumps(tmp_path, res):
    path = tmp_path / "search.json"
    save_search_result(res, path)
    assert read(path) == reference(search_to_dict(res))


@pytest.mark.parametrize("entry", [
    {"index": 0, "weights": [1.0, 0.0, 0.0, 0.0], "score": 0.5},  # four weights
    {"index": 0, "weights": [1, 0, 0, 0, 0], "score": 1},  # ints
    {"index": 0, "weights": [1.0, 0.0, 0.0, 0.0, 0.0], "score": 0.5, "note": "x"},  # a key more
], ids=["four-weights", "ints", "extra-key"])
def test_search_json_of_other_trace_shapes_is_json_dumps(tmp_path, entry):
    res = dataclasses.replace(hand_search([0.5], AWKWARD_WEIGHTS[:1]), trace=[entry])
    save_search_result(res, tmp_path / "search.json")
    assert read(tmp_path / "search.json") == reference(search_to_dict(res))


def test_search_json_of_a_real_search_is_json_dumps(tmp_path):
    m = generate(crossing_scenario(1))
    res = random_search([(m.manifest, m.gt_all_frames)], SearchConfig(sample_count=30, seed=2))
    save_search_result(res, tmp_path / "search.json")
    assert read(tmp_path / "search.json") == reference(search_to_dict(res))


def edit_trace(res, k, **fields):
    """res with fields of trace entry k replaced."""
    trace = [dict(t) for t in res.trace]
    trace[k].update(fields)
    return dataclasses.replace(res, trace=trace)


AGREEING = hand_search([0.0, 1 / 3, 0.5], AWKWARD_WEIGHTS)


@pytest.mark.parametrize("res", [
    edit_trace(AGREEING, 0, score=-0.0),
    edit_trace(AGREEING, 0, score=0),
    edit_trace(AGREEING, 1, weights=[1, 0.0, 0.0, 0.0, 0.0]),
    edit_trace(AGREEING, 2, weights=[0.2, 0.2, 0.2, 0.2, 0.2000000000000001]),
    edit_trace(AGREEING, 2, index=7),
    edit_trace(AGREEING, 2, index=0),
    dataclasses.replace(AGREEING, trace=AGREEING.trace[::-1]),
    dataclasses.replace(AGREEING, trace=AGREEING.trace[1:]),
], ids=["minus-zero-score", "int-score", "int-weight", "other-weight", "unknown-index",
        "repeated-index", "reversed", "fewer"])
def test_ranked_reuses_trace_text_only_where_it_is_the_same(tmp_path, res):
    """A ranked candidate's text is its trace entry's only where the two
    hold the same numbers: equal values such as 0.0 and -0.0, or 0 and 0.0,
    are written as json writes each."""
    save_search_result(res, tmp_path / "search.json")
    assert read(tmp_path / "search.json") == reference(search_to_dict(res))


def test_each_candidate_formatted_once(tmp_path, monkeypatch):
    m = generate(crossing_scenario(1))
    res = random_search([(m.manifest, m.gt_all_frames)], SearchConfig(sample_count=30, seed=2))
    formatted = []
    real = jsonfile.numbers

    def spy(values):
        formatted.append(len(values))
        return real(values)

    monkeypatch.setattr(jsonfile, "numbers", spy)
    save_search_result(res, tmp_path / "search.json")
    assert formatted == [30 * 6]
    assert read(tmp_path / "search.json") == reference(search_to_dict(res))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_search_json_refuses_a_nan_score(tmp_path, bad):
    res = hand_search([0.5, bad], AWKWARD_WEIGHTS[1:])
    with pytest.raises(TrackmergeError, match="is not a JSON number"):
        save_search_result(res, tmp_path / "search.json")


# ---------------------------------------------------------------------------
# the eval report


def hand_report(values) -> EvalResult:
    v = cycle(values)
    per_object = {j: ObjectResult(*(next(v) for _ in range(6))) for j in (2, 10)}
    return EvalResult(per_object, *(next(v) for _ in range(7)))


@pytest.mark.parametrize("values", [list(AWKWARD), list(AWKWARD[::-1]), [0.0]])
def test_report_is_json_dumps(tmp_path, values):
    res = hand_report(values)
    write_report(res, tmp_path / "eval.json")
    text = read(tmp_path / "eval.json")
    assert text == reference(result_to_dict(res))
    assert text.index('"10"') < text.index('"2"')  # ids sort as strings


def test_report_of_a_real_evaluation_is_json_dumps(tmp_path):
    m = generate(crossing_scenario(1))
    res = evaluate(greedy_merge(m.manifest).label_maps, m.gt_all_frames)
    write_report(res, tmp_path / "eval.json")
    assert read(tmp_path / "eval.json") == reference(result_to_dict(res))


def test_report_refuses_a_nan(tmp_path):
    res = dataclasses.replace(hand_report(list(AWKWARD)), j_mean=math.nan)
    with pytest.raises(TrackmergeError, match="nan is not a JSON number"):
        write_report(res, tmp_path / "eval.json")


# ---------------------------------------------------------------------------
# selections.json


def selections(ts) -> dict:
    return {"video_id": ts.video_id, "object_ids": ts.object_ids, "frames": ts.report}


@pytest.fixture(scope="module")
def crossing(tmp_path_factory):
    d = tmp_path_factory.mktemp("crossing")
    result = generate(crossing_scenario(1))
    save_scenario(result, d)
    return result.manifest, load_gt_dir(os.path.join(d, "gt"))


@pytest.mark.parametrize("merge", ["greedy", "oracle"])
def test_selections_are_json_dumps(tmp_path, crossing, merge):
    m, gt = crossing
    ts = greedy_merge(m) if merge == "greedy" else oracle_merge(m, gt)
    assert any(None in f["objects"][str(j)].values()
               for f in ts.report for j in ts.object_ids)  # null picks
    save_trackset(ts, tmp_path)
    assert read(tmp_path / ts.video_id / "selections.json") == reference(selections(ts))


@pytest.mark.parametrize("video_id", ['say "cheese"', "café", "tab\there"])
def test_selections_escape_the_video_id_as_json_does(tmp_path, crossing, video_id):
    ts = dataclasses.replace(greedy_merge(crossing[0]), video_id=video_id)
    save_trackset(ts, tmp_path)
    assert read(tmp_path / video_id / "selections.json") == reference(selections(ts))


def test_selections_of_ids_2_and_10_sort_as_strings(tmp_path, crossing):
    ts = greedy_merge(crossing[0])
    a, b = ts.object_ids
    renamed = {str(a): "2", str(b): "10"}
    report = [
        {"frame": f["frame"], "objects": {renamed[k]: dict(v, combined=x) if v["combined"] is not None
                                          else v for k, v in f["objects"].items()}}
        for f, x in zip(ts.report, AWKWARD * 3)
    ]
    ts = dataclasses.replace(ts, object_ids=[2, 10], report=report)
    save_trackset(ts, tmp_path)
    text = read(tmp_path / ts.video_id / "selections.json")
    assert text == reference(selections(ts))
    assert text.index('"10"') < text.index('"2"')


def test_selections_refuse_a_nan(tmp_path, crossing):
    ts = greedy_merge(crossing[0])
    frame = ts.report[1]["objects"]
    entry = next(v for v in frame.values() if v["combined"] is not None)
    entry["combined"] = math.nan
    with pytest.raises(TrackmergeError, match="nan is not a JSON number"):
        save_trackset(ts, tmp_path)

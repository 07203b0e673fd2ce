import json
from dataclasses import replace

import numpy as np
import pytest

from naive_reference import sample_simplex
from trackmerge import search
from trackmerge.errors import TrackmergeError
from trackmerge.manifest import filter_manifest
from trackmerge.scoring import WeightVector
from trackmerge.search import (
    SearchConfig,
    SearchResult,
    random_search,
    result_to_dict,
)
from trackmerge.synth import generate, random_scenario


def small_corpus(seeds=(50, 51)):
    corpus = []
    for s in seeds:
        result = generate(random_scenario(s, max_frames=4, max_objects=2))
        corpus.append((filter_manifest(result.manifest), result.gt_all_frames))
    return corpus


class TestSampling:
    def test_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = sample_simplex(rng).as_array()
            assert (w >= 0).all()
            assert abs(w.sum() - 1) <= 1e-9

    def test_deterministic_stream(self):
        a = [sample_simplex(np.random.default_rng(9)).as_array() for _ in range(5)]
        b = [sample_simplex(np.random.default_rng(9)).as_array() for _ in range(5)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("count, seed", [(25000, 7), (2000, 0), (12, 3)])
    def test_one_draw_matches_per_sample_draws(self, count, seed):
        rng = np.random.default_rng(seed)
        want = [WeightVector.equal()] + [sample_simplex(rng) for _ in range(count - 1)]
        got = search._candidates(SearchConfig(sample_count=count, seed=seed, top_k=1))
        assert got.shape == (count, 5)
        assert [row.tobytes() for row in got] == [w.as_array().tobytes() for w in want]

    def test_marginal_means_uniform(self):
        rng = np.random.default_rng(1)
        draws = np.stack([sample_simplex(rng).as_array() for _ in range(20000)])
        assert np.all(draws.mean(axis=0) > 0.19)
        assert np.all(draws.mean(axis=0) < 0.21)


class TestSearch:
    def test_sample_count_one_is_equal_weights(self):
        res = random_search(small_corpus(), SearchConfig(sample_count=1, top_k=1))
        assert res.best_weights == WeightVector.equal()

    def test_best_dominates_equal_weights(self):
        corpus = small_corpus()
        res = random_search(corpus, SearchConfig(sample_count=12, seed=3, top_k=4))
        equal_score = next(s for i, _, s in res.ranked if i == 0)
        assert res.best_score >= equal_score

    def test_ranking_is_permutation_and_topk(self):
        res = random_search(small_corpus(), SearchConfig(sample_count=10, seed=5, top_k=3))
        ranked_scores = [s for _, _, s in res.ranked]
        trace_scores = [e["score"] for e in res.trace]
        assert sorted(ranked_scores) == sorted(trace_scores)
        assert ranked_scores == sorted(ranked_scores, reverse=True)
        assert len(res.top_k_weights) == 3

    def test_same_seed_bit_identical(self):
        corpus = small_corpus()
        cfg = SearchConfig(sample_count=8, seed=7, top_k=2)
        a = json.dumps(result_to_dict(random_search(corpus, cfg)), sort_keys=True)
        b = json.dumps(result_to_dict(random_search(corpus, cfg)), sort_keys=True)
        assert a == b

    def test_serial_matches_parallel(self):
        corpus = small_corpus()
        cfg = SearchConfig(sample_count=6, seed=11, top_k=2)
        a = json.dumps(result_to_dict(random_search(corpus, cfg, jobs=1)))
        b = json.dumps(result_to_dict(random_search(corpus, cfg, jobs=3)))
        assert a == b

    @pytest.mark.parametrize(
        "config",
        [{"seed": -1}, {"sample_count": 0}, {"top_k": 0}, {"objective": "f_recall"}],
    )
    def test_bad_config_rejected(self, config):
        with pytest.raises(TrackmergeError):
            SearchConfig(**config)

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrackmergeError):
            random_search([], SearchConfig(sample_count=2))

    def test_decisive_component_gets_extra_mass(self):
        # fixture where only the appearance cue separates the objects from a
        # high-objectness distractor: flow is deliberately useless, so the
        # motion scores are constant and objectness points the wrong way
        res = random_search(
            [reid_decisive_instance()], SearchConfig(sample_count=60, seed=2, top_k=5)
        )
        assert res.best_score >= 0.99
        assert res.best_weights.reid > 0.2  # above the uniform simplex mean


def hand_built():
    """Tied scores, 0.0 against -0.0, and a ranking given as it is."""
    weights = np.array([(0.2,) * 5, (1.0, -0.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.5, -0.0, 0.0),
                        (-0.0, 0.0, 0.0, 0.0, 1.0)])
    weights.flags.writeable = False
    return SearchResult(weights, [0.5, 1.0, 0.5, -0.0], [1, 0, 2, 3], top_k=2, states=4, leaves=3)


def real_search():
    return random_search(small_corpus(), SearchConfig(sample_count=10, seed=5, top_k=3))


@pytest.mark.parametrize("make", [real_search, hand_built])
class TestViews:
    """ranked, best_*, top_k_weights and trace are built from the weights,
    the scores and the order alone."""

    def test_ranked_is_the_order_applied_to_weights_and_scores(self, make):
        res = make()
        got = [(i, w.as_array().tobytes(), repr(s)) for i, w, s in res.ranked]
        assert got == [(i, res.weights[i].tobytes(), repr(res.scores[i])) for i in res.order]
        assert sorted(res.order) == list(range(len(res.scores)))

    def test_best_is_ranked_first(self, make):
        res = make()
        (_, w, s), *_ = res.ranked
        assert (res.best_weights, repr(res.best_score)) == (w, repr(s))

    def test_top_k_weights_lead_the_ranking(self, make):
        res = make()
        assert res.top_k_weights == [w for _, w, _ in res.ranked[: res.top_k]]
        assert len(res.top_k_weights) == res.top_k

    def test_trace_is_in_sampling_order(self, make):
        res = make()
        assert [t["index"] for t in res.trace] == list(range(len(res.weights)))
        assert [(np.array(t["weights"]).tobytes(), repr(t["score"])) for t in res.trace] == [
            (row.tobytes(), repr(s)) for row, s in zip(res.weights, res.scores)
        ]

    def test_weights_are_read_only(self, make):
        res = make()
        with pytest.raises(ValueError, match="read-only"):
            res.weights[0, 0] = 0.5


def test_a_real_ranking_is_by_score_then_sampling_order():
    res = real_search()
    assert res.order == sorted(range(10), key=lambda i: (-res.scores[i], i))


def reid_decisive_instance():
    from trackmerge.flow import FlowField
    from trackmerge.synth import ScenarioSpec, ShapeSpec

    dim = 8
    e0 = np.eye(dim)[0]
    e1 = np.eye(dim)[1]
    # distractor embedding: a small rotation of e0 away from e1, so reid
    # separates it from object 1 only narrowly and inverse-reid actually
    # favors it; objectness favors it outright
    theta = 2 * np.arcsin(0.125)
    d = np.cos(theta) * e0 - np.sin(theta) * e1
    spec = ScenarioSpec(
        seed=1,
        frame_count=5,
        width=24,
        height=16,
        objects=(
            ShapeSpec("rect", (4, 4), (2, 2), (0, 0), objectness=0.9, archetype=tuple(e0)),
            ShapeSpec("rect", (4, 4), (2, 10), (0, 0), objectness=0.9, archetype=tuple(e1)),
        ),
        planted=(
            ShapeSpec("rect", (4, 4), (16, 6), (0, 0), objectness=0.99,
                      archetype=tuple(d)),
        ),
        embedding_dim=dim,
    )
    result = generate(spec)
    far = np.full((16, 24, 2), (80.0, 0.0), dtype=np.float32)
    manifest = replace(result.manifest, preloaded_flows=[
        FlowField(24, 16, far) for _ in range(spec.frame_count - 1)
    ])
    return filter_manifest(manifest), result.gt_all_frames

import numpy as np
import pytest

from trackmerge.ensemble import majority_vote
from trackmerge.errors import TrackmergeError
from trackmerge.labelmap import LabelMap


def lm(grid):
    arr = np.asarray(grid, np.uint8)
    return LabelMap(arr.shape[1], arr.shape[0], arr)


def random_result(rng, frames=3, w=6, h=5, labels=(0, 1, 2)):
    return [
        lm(rng.choice(labels, size=(h, w)).astype(np.uint8)) for _ in range(frames)
    ]


class TestVote:
    def test_single_input_identity(self):
        rng = np.random.default_rng(0)
        r = random_result(rng)
        assert majority_vote([r]) == r

    def test_strict_majority(self):
        a = lm([[1]])
        b = lm([[1]])
        c = lm([[0]])
        assert majority_vote([[a], [b], [c]])[0].labels[0, 0] == 1

    def test_two_way_tie_excludes_background(self):
        # votes {1, 2}: background has zero votes; tie resolves to label 1
        a = lm([[1]])
        b = lm([[2]])
        assert majority_vote([[a], [b]])[0].labels[0, 0] == 1

    def test_background_wins_ties_it_joins(self):
        a = lm([[0]])
        b = lm([[2]])
        assert majority_vote([[a], [b]])[0].labels[0, 0] == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        results = [random_result(rng) for _ in range(5)]
        base = majority_vote(results)
        perm = [results[i] for i in (3, 0, 4, 2, 1)]
        assert majority_vote(perm) == base

    def test_unanimity(self):
        rng = np.random.default_rng(2)
        r = random_result(rng)
        assert majority_vote([r, r, r]) == r  # also idempotence over copies

    def test_shape_mismatch_rejected(self):
        a = [lm(np.zeros((4, 4), np.uint8))]
        b = [lm(np.zeros((3, 4), np.uint8))]
        with pytest.raises(TrackmergeError):
            majority_vote([a, b])

    def test_zero_frames_rejected(self):
        with pytest.raises(TrackmergeError, match="frame"):
            majority_vote([[]])
        with pytest.raises(TrackmergeError):
            majority_vote([[], [lm([[1]])]])

    def test_random_triples_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            results = [random_result(rng, frames=2) for _ in range(3)]
            voted = majority_vote(results)
            assert majority_vote(list(reversed(results))) == voted
            for t in range(2):
                stack = np.stack([r[t].labels for r in results])
                agree = (stack == stack[0]).all(axis=0)
                assert np.array_equal(
                    voted[t].labels[agree], stack[0][agree]
                )  # unanimity per pixel

    def test_sparse_high_ids_against_per_pixel_mode(self):
        # ids {1, 255} plus background; even input counts make many ties
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 6):
            results = [random_result(rng, frames=2, w=7, h=4, labels=(0, 1, 255)) for _ in range(n)]
            voted = majority_vote(results)
            for t in range(2):
                for y in range(4):
                    for x in range(7):
                        votes = [int(r[t].labels[y, x]) for r in results]
                        # the most votes; among tied leaders, the smallest label
                        mode = min(set(votes), key=lambda v: (-votes.count(v), v))
                        assert voted[t].labels[y, x] == mode, (n, t, y, x, votes)
        assert majority_vote([[lm([[1, 255]])], [lm([[255, 1]])]])[0].labels.tolist() == [[1, 1]]
        # more than 255 votes for one label
        many = [[lm([[1]])]] * 260 + [[lm([[2]])]] * 40
        assert majority_vote(many)[0].labels.tolist() == [[1]]


def per_pixel_mode(results, t):
    """The most votes at each pixel; among tied leaders, the smallest label."""
    stack = np.stack([r[t].labels for r in results])
    out = np.zeros(stack.shape[1:], np.uint8)
    for y, x in np.ndindex(*out.shape):
        votes = stack[:, y, x].tolist()
        out[y, x] = min(set(votes), key=lambda v: (-votes.count(v), v))
    return out


class TestDisagreementVote:
    """The vote runs only where the inputs differ; each case against the
    per-pixel mode."""

    @staticmethod
    def check(results):
        voted = majority_vote(results)
        for t in range(len(results[0])):
            assert np.array_equal(voted[t].labels, per_pixel_mode(results, t))

    def test_all_agree(self):
        r = random_result(np.random.default_rng(5), labels=(0, 3, 9))
        self.check([r] * 4)

    def test_none_agree(self):
        # at every pixel, input i votes label (i + pixel) % 5 + 1: all differ
        h, w, n = 4, 6, 5
        grid = np.add.outer(np.arange(h), np.arange(w))
        results = [[lm((grid + i) % n + 1), lm((grid + 2 * i) % n + 1)] for i in range(n)]
        for t in range(2):
            stack = np.stack([r[t].labels for r in results])
            assert all(len(set(stack[:, y, x])) == n for y, x in np.ndindex(h, w))
        self.check(results)

    def test_ties(self):
        # two inputs against two, pixel by pixel, with some unanimous pixels
        rng = np.random.default_rng(6)
        a, b = random_result(rng, labels=(0, 2, 4)), random_result(rng, labels=(1, 2, 7))
        self.check([a, b, b, a])
        self.check([b, a])

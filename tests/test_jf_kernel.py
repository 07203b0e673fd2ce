"""The bounding-box-cropped boundary and dilation kernel behind J and F,
checked for exact equality against a brute-force dense reference."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmerge.errors import MaskError, TrackmergeError
from trackmerge.labelmap import LabelMap
from trackmerge.mask import (
    Mask,
    Patch,
    boundary,
    boundary_patch,
    crop,
    dilate,
    dilate_patch,
    patch,
)
from trackmerge.metrics import (
    ObjectResult,
    check_labels,
    evaluate,
    f_measure,
    j_measure,
    prepare_frame,
    score_frame,
    sequence_stats,
)

TOLERANCES = (0, 0.5, 1, 2, 2.5, 3, 8, 40, math.inf)
KERNEL = settings(max_examples=300, deadline=None, derandomize=True)
# radii just inside or outside an integer offset's length
EDGE_RADII = (0.49999997, 1.0000001, math.sqrt(2), math.sqrt(5), 2.9999)


# ---------------------------------------------------------------------------
# brute-force reference, pixel by pixel over the whole frame


def ref_boundary(g):
    h, w = g.shape
    out = np.zeros_like(g)
    for y in range(h):
        for x in range(w):
            if not g[y, x]:
                continue
            for yy, xx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if not (0 <= yy < h and 0 <= xx < w) or not g[yy, xx]:
                    out[y, x] = True
    return out


def ref_dilate(g, radius):
    h, w = g.shape
    out = np.zeros_like(g)
    sources = np.argwhere(g)
    for y in range(h):
        for x in range(w):
            out[y, x] = any((y - sy) ** 2 + (x - sx) ** 2 <= radius * radius for sy, sx in sources)
    return out


def ref_j(a, b):
    inter = int((a & b).sum())
    union = int(a.sum()) + int(b.sum()) - inter
    return inter / union if union else 1.0


def ref_f(a, b, tolerance):
    pb, gb = ref_boundary(a), ref_boundary(b)
    if not pb.any() and not gb.any():
        return 1.0
    if not pb.any() or not gb.any():
        return 0.0
    precision = int((pb & ref_dilate(gb, tolerance)).sum()) / int(pb.sum())
    recall = int((gb & ref_dilate(pb, tolerance)).sum()) / int(gb.sum())
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def grids(draw, shape):
    h, w = shape
    kind = draw(st.sampled_from(["random", "box", "pixel", "empty", "full"]))
    g = np.zeros((h, w), bool)
    if kind == "random":
        g[:] = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))).reshape(
            h, w
        )
    elif kind == "box":
        y0 = draw(st.integers(0, h - 1))
        x0 = draw(st.integers(0, w - 1))
        g[y0 : draw(st.integers(y0 + 1, h)), x0 : draw(st.integers(x0 + 1, w))] = True
    elif kind == "pixel":
        g[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    elif kind == "full":
        g[:] = True
    return g


shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
single = shapes.flatmap(grids)
pairs = shapes.flatmap(lambda hw: st.tuples(grids(hw), grids(hw)))


def edge_grids(h=7, w=9):
    """Masks touching each image border, single pixels, empty and full."""
    out = []
    for rows, cols in (
        (slice(0, 2), slice(2, 5)),  # top
        (slice(h - 2, h), slice(2, 5)),  # bottom
        (slice(2, 5), slice(0, 2)),  # left
        (slice(2, 5), slice(w - 2, w)),  # right
        (slice(0, h), slice(3, 4)),  # top to bottom, one column
        (slice(3, 4), slice(0, w)),  # left to right, one row
        (slice(0, 1), slice(0, 1)),  # corner pixel
        (slice(3, 4), slice(4, 5)),  # interior pixel
        (slice(0, 0), slice(0, 0)),  # empty
        (slice(0, h), slice(0, w)),  # full frame
    ):
        g = np.zeros((h, w), bool)
        g[rows, cols] = True
        out.append(g)
    return out


# ---------------------------------------------------------------------------


class TestAgainstReference:
    @KERNEL
    @given(single)
    def test_boundary(self, g):
        assert boundary(Mask.from_dense(g)) == Mask.from_dense(ref_boundary(g))

    @KERNEL
    @given(single, st.sampled_from(TOLERANCES))
    def test_dilate(self, g, radius):
        assert dilate(Mask.from_dense(g), radius) == Mask.from_dense(ref_dilate(g, radius))

    @KERNEL
    @given(pairs)
    def test_j_measure(self, pair):
        a, b = pair
        assert j_measure(Mask.from_dense(a), Mask.from_dense(b)) == ref_j(a, b)

    @KERNEL
    @given(pairs, st.sampled_from(TOLERANCES))
    def test_f_measure(self, pair, tolerance):
        a, b = pair
        assert f_measure(Mask.from_dense(a), Mask.from_dense(b), tolerance) == ref_f(
            a, b, tolerance
        )

    @pytest.mark.parametrize("tolerance", [0, 2.5, 100])
    def test_edge_masks(self, tolerance):
        cases = edge_grids()
        for g in cases:
            m = Mask.from_dense(g)
            assert boundary(m) == Mask.from_dense(ref_boundary(g))
            assert dilate(m, tolerance) == Mask.from_dense(ref_dilate(g, tolerance))
            for g2 in cases:
                m2 = Mask.from_dense(g2)
                assert j_measure(m, m2) == ref_j(g, g2)
                assert f_measure(m, m2, tolerance) == ref_f(g, g2, tolerance)


class TestDilatePatch:
    """dilate_patch's box and grid: the patch's box grown by floor(radius)
    and clipped to the image, holding exactly ref_dilate of the frame."""

    @staticmethod
    def check(g, radius):
        h, w = g.shape
        p = patch(g)
        d = dilate_patch(p, radius, h, w)
        k = math.floor(min(radius, max(h, w) - 1))
        ph, pw = p.grid.shape
        y0, x0 = max(p.y0 - k, 0), max(p.x0 - k, 0)
        y1, x1 = min(p.y0 + ph + k, h), min(p.x0 + pw + k, w)
        assert (d.y0, d.x0, d.grid.shape) == (y0, x0, (y1 - y0, x1 - x0))
        frame = np.zeros_like(g)
        frame[y0:y1, x0:x1] = d.grid
        assert np.array_equal(frame, ref_dilate(g, radius))

    @pytest.mark.parametrize("radius", EDGE_RADII + (50, 1e9, math.inf))
    def test_edge_masks(self, radius):
        for g in edge_grids():
            if g.any():
                self.check(g, radius)

    @pytest.mark.parametrize("radius", EDGE_RADII + (1, 8, 1e9))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1)])
    def test_thin_images(self, shape, radius):
        for i in range(max(shape)):
            g = np.zeros(shape, bool)
            g.flat[i] = True
            self.check(g, radius)
        g = np.zeros(shape, bool)
        g.flat[::3] = True
        self.check(g, radius)

    @KERNEL
    @given(single, st.sampled_from(EDGE_RADII + TOLERANCES))
    def test_random(self, g, radius):
        if g.any():
            self.check(g, radius)


@st.composite
def videos(draw):
    h, w = draw(shapes)
    frames = draw(st.integers(2, 4))
    label_grid = st.lists(st.integers(0, 2), min_size=h * w, max_size=h * w)
    preds = [
        LabelMap(w, h, np.array(draw(label_grid), np.uint8).reshape(h, w)) for _ in range(frames)
    ]
    gts = [{j: draw(grids((h, w))) for j in (1, 2)} for _ in range(frames)]
    return preds, gts


class TestEvaluateAgainstReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(videos(), st.sampled_from((None, 0, 2.5, 40)))
    def test_evaluate(self, video, tolerance):
        preds, gts = video
        res = evaluate(
            preds,
            [{j: Mask.from_dense(g) for j, g in frame.items()} for frame in gts],
            tolerance=tolerance,
        )
        h, w = preds[0].labels.shape
        tol = math.ceil(0.008 * math.hypot(w, h)) if tolerance is None else tolerance
        for j in (1, 2):
            pairs = [(preds[t].labels == j, gts[t][j]) for t in range(1, len(preds))]
            js = [ref_j(p, g) for p, g in pairs]
            fs = [ref_f(p, g, tol) for p, g in pairs]
            assert res.per_object[j] == ObjectResult(*sequence_stats(js), *sequence_stats(fs))
        assert res.j_mean == float(np.mean([r.j_mean for r in res.per_object.values()]))
        assert res.f_mean == float(np.mean([r.f_mean for r in res.per_object.values()]))


class TestScoreFrame:
    @staticmethod
    def check(lm, frame, tolerance):
        gt = prepare_frame({j: Mask.from_dense(g) for j, g in frame.items()}, (1, 2), tolerance)
        expected = [
            (ref_j(lm.labels == j, frame[j]), ref_f(lm.labels == j, frame[j], tolerance))
            for j in (1, 2)
        ]
        assert score_frame(lm, gt, tolerance) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(videos(), st.sampled_from((0, 1, 2.5, 40)))
    def test_prepared_frame(self, video, tolerance):
        preds, gts = video
        for lm, frame in zip(preds, gts):
            self.check(lm, frame, tolerance)

    @pytest.mark.parametrize("tolerance", [0, 1, 2.5, 40])
    def test_edge_masks(self, tolerance):
        # object 1 predicted as a and labelled b, object 2 predicted as
        # what b keeps outside a and labelled a
        cases = edge_grids()
        for a in cases:
            for b in cases:
                labels = np.where(a, 1, np.where(b, 2, 0)).astype(np.uint8)
                h, w = labels.shape
                self.check(LabelMap(w, h, labels), {1: b, 2: a}, tolerance)


class TestBoundaryPatch:
    """boundary_patch takes any Patch: background margins inside the patch
    change nothing, and its box is the patch's box."""

    @staticmethod
    def check(p: Patch, g):
        b = boundary_patch(p)
        assert (b.y0, b.x0, b.grid.shape) == (p.y0, p.x0, p.grid.shape)
        frame = np.zeros_like(g)
        frame[b.slices] = b.grid
        assert np.array_equal(frame, ref_boundary(g))

    def test_edge_masks(self):
        # the edge grids of a 7x9 image, and of single-row and single-column images
        for g in [*edge_grids(), *edge_grids(1, 9), *edge_grids(7, 1)]:
            self.check(Patch(0, 0, g), g)  # the whole frame
            ys, xs = g.nonzero()
            p = patch(g)
            if not ys.size:
                assert p is None
                continue
            # patch crops exactly to the foreground's box, as a copy
            y0, y1, x0, x1 = ys.min(), ys.max() + 1, xs.min(), xs.max() + 1
            assert (p.y0, p.x0) == (y0, x0)
            assert np.array_equal(p.grid, g[y0:y1, x0:x1])
            assert not np.shares_memory(p.grid, g)
            self.check(p, g)

    @KERNEL
    @given(single, st.integers(0, 3), st.integers(0, 3))
    def test_margins(self, g, dy, dx):
        p = patch(g)
        if p is None:
            return
        h, w = g.shape
        y0, x0 = max(p.y0 - dy, 0), max(p.x0 - dx, 0)
        y1, x1 = min(p.y0 + p.grid.shape[0] + dy, h), min(p.x0 + p.grid.shape[1] + dx, w)
        self.check(Patch(y0, x0, g[y0:y1, x0:x1]), g)


class TestCrop:
    """mask.crop, the crop of a mask from its runs, and the tight crop a
    mask encoded from one keeps: each is patch() of the dense grid."""

    @staticmethod
    def same(a, b):
        if a is None or b is None:
            assert a is None and b is None
            return
        assert (a.y0, a.x0) == (b.y0, b.x0)
        assert a.grid.dtype == bool and np.array_equal(a.grid, b.grid)

    @KERNEL
    @given(single)
    def test_from_runs(self, g):
        self.same(crop(Mask.from_dense(g)), patch(g))

    def test_edge_masks(self):
        for g in [*edge_grids(), *edge_grids(1, 9), *edge_grids(7, 1)]:
            self.same(crop(Mask.from_dense(g)), patch(g))

    @KERNEL
    @given(single)
    def test_kept(self, g):
        p = patch(g)
        if p is None:
            return
        h, w = g.shape
        m = Mask.from_patch(p, w, h, tight=True)
        assert m == Mask.from_dense(g)
        kept = crop(m)
        self.same(kept, p)
        assert not kept.grid.flags.writeable and not np.shares_memory(kept.grid, p.grid)
        # a copy or a pickle decodes its crop from the runs again
        self.same(crop(Mask(m.width, m.height, m.runs)), p)


class TestRejected:
    def test_evaluate_dimension_mismatch(self):
        # a 1xW prediction against HxW ground truth would broadcast as dense
        # grids; it must still be rejected
        gt = np.zeros((5, 6), bool)
        gt[1:3, 1:4] = True
        gts = [{1: Mask.from_dense(gt)}] * 3
        preds = [LabelMap(6, 1, np.ones((1, 6), np.uint8))] * 3
        with pytest.raises(MaskError, match="dimension mismatch"):
            evaluate(preds, gts)

    def test_measures_dimension_mismatch(self):
        a, b = Mask.full(6, 1), Mask.full(6, 5)
        with pytest.raises(MaskError):
            j_measure(a, b)
        with pytest.raises(MaskError):
            f_measure(a, b, 1)

    @pytest.mark.parametrize("tolerance", [-1, -0.5, math.nan])
    def test_bad_tolerance(self, tolerance):
        m = Mask.full(4, 4)
        with pytest.raises(TrackmergeError, match="tolerance"):
            f_measure(m, m, tolerance)
        lm = LabelMap(4, 4, np.ones((4, 4), np.uint8))
        with pytest.raises(TrackmergeError, match="tolerance"):
            evaluate([lm, lm], [{1: m}, {1: m}], tolerance=tolerance)

    def test_bad_dilation_radius(self):
        with pytest.raises(MaskError):
            dilate(Mask.full(3, 3), -1)
        with pytest.raises(MaskError):
            dilate(Mask.full(3, 3), math.nan)

    def test_gt_without_objects(self):
        # every label is background, so no label check catches it
        lm = LabelMap.background(4, 4)
        with pytest.raises(TrackmergeError, match="no objects"):
            evaluate([lm, lm, lm], [{}, {}, {}])

    def test_unknown_label_message(self):
        m = Mask.full(4, 4)
        lm = LabelMap(4, 4, np.full((4, 4), 7, np.uint8))
        with pytest.raises(TrackmergeError, match=r"frame 0: unknown labels \[7\]"):
            evaluate([lm, lm], [{1: m}, {1: m}])

    def test_unknown_label_below_largest(self):
        labels = np.array([[0, 1, 2, 3]], np.uint8)
        with pytest.raises(TrackmergeError, match=r"frame 4: unknown labels \[2\]"):
            check_labels(4, LabelMap(4, 1, labels), [1, 3])
        with pytest.raises(TrackmergeError, match=r"frame 4: unknown labels \[3\]"):
            check_labels(4, LabelMap(4, 1, labels), [1, 2])
        check_labels(4, LabelMap(4, 1, labels), [1, 2, 3])
        check_labels(4, LabelMap(4, 1, labels), [3, 2, 1, 7])


def test_evaluate_loads_no_scipy():
    code = (
        "import sys, numpy as np\n"
        "import trackmerge\n"
        "from trackmerge.labelmap import LabelMap\n"
        "from trackmerge.mask import Mask\n"
        "from trackmerge.metrics import evaluate\n"
        "g = np.zeros((6, 8), bool); g[1:4, 2:6] = True\n"
        "lm = LabelMap(8, 6, g.astype(np.uint8))\n"
        "evaluate([lm, lm, lm], [{1: Mask.from_dense(g)}] * 3, tolerance=2.5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackmerge.errors import MaskError
from trackmerge.mask import (
    BBox,
    Mask,
    Patch,
    boundary,
    column_major,
    dilate,
    foreground,
    intersection_area,
    iou,
    run_table,
)

ENCODER = settings(max_examples=300, deadline=None, derandomize=True)


def random_mask(rng, w=16, h=16, p=0.4):
    return Mask.from_dense(rng.random((h, w)) < p)


class TestRLE:
    def test_all_background(self):
        assert Mask.from_dense(np.zeros((2, 2), bool)).runs == (4,)

    def test_all_foreground(self):
        assert Mask.from_dense(np.ones((2, 2), bool)).runs == (0, 4)

    def test_single_pixel_column_major(self):
        grid = np.zeros((3, 3), bool)
        grid[0, 0] = True
        assert Mask.from_dense(grid).runs == (0, 1, 8)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            grid = rng.random((rng.integers(1, 12), rng.integers(1, 12))) < rng.random()
            m = Mask.from_dense(grid)
            assert np.array_equal(m.dense(), grid)

    def test_bad_run_total(self):
        with pytest.raises(MaskError):
            Mask(2, 2, [3])

    def test_zero_interior_run(self):
        with pytest.raises(MaskError):
            Mask(2, 2, [1, 0, 3])

    def test_leading_zero_allowed(self):
        m = Mask(2, 2, [0, 4])
        assert m.area == 4


def ref_encode(grid):
    """The flatten-and-diff encoder: cut the column-major pixels where their
    value changes, with a leading 0 when the first pixel is foreground."""
    flat = grid.flatten(order="F")
    changes = np.flatnonzero(np.diff(flat)) + 1
    runs = np.diff(np.concatenate(([0], changes, [flat.size]))).tolist()
    return [0] + runs if flat[0] else runs


def placed(p, width, height):
    """The full (height, width) grid of a Patch."""
    grid = np.zeros((height, width), bool)
    grid[p.y0 : p.y0 + p.grid.shape[0], p.x0 : p.x0 + p.grid.shape[1]] = p.grid
    return grid


@st.composite
def placed_patches(draw):
    """(Patch, width, height): a box anywhere in a 1..10 x 1..10 image,
    mostly foreground or of random content."""
    height, width = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    y0, x0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    h, w = draw(st.integers(1, height - y0)), draw(st.integers(1, width - x0))
    if draw(st.booleans()):
        grid = np.ones((h, w), bool)
        for y, x in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)))):
            grid[y, x] = False
    else:
        grid = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)), bool)
    return Patch(y0, x0, grid.reshape(h, w)), width, height


class TestFromPatch:
    # (height, width, y0, x0, h, w): each border, full-height boxes whose
    # runs join across columns, the whole image, 1x1, 1xN and Nx1 images
    BOXES = [
        (7, 9, 0, 3, 2, 4),  # top
        (7, 9, 5, 3, 2, 4),  # bottom
        (7, 9, 2, 0, 3, 2),  # left
        (7, 9, 2, 7, 3, 2),  # right
        (7, 9, 0, 0, 1, 1),  # top-left pixel
        (7, 9, 6, 8, 1, 1),  # bottom-right pixel
        (7, 9, 0, 2, 7, 4),  # full height
        (7, 9, 0, 0, 7, 3),  # full height from the left border
        (7, 9, 0, 6, 7, 3),  # full height to the right border
        (7, 9, 0, 0, 7, 9),  # the whole image
        (1, 1, 0, 0, 1, 1),
        (1, 6, 0, 2, 1, 3),  # one row: every column is full height
        (1, 6, 0, 0, 1, 6),
        (6, 1, 1, 0, 3, 1),  # one column
        (6, 1, 0, 0, 6, 1),
    ]

    @pytest.mark.parametrize("height,width,y0,x0,h,w", BOXES)
    def test_equals_from_dense_of_the_placed_grid(self, height, width, y0, x0, h, w):
        rng = np.random.default_rng(height * 100 + y0 * 10 + x0)
        grids = [np.ones((h, w), bool), rng.random((h, w)) < 0.5, rng.random((h, w)) < 0.9]
        for grid in grids:
            p = Patch(y0, x0, grid)
            m = Mask.from_patch(p, width, height)
            assert m == Mask.from_dense(placed(p, width, height))
            assert list(m.runs) == ref_encode(placed(p, width, height))

    def test_full_height_runs_join(self):
        m = Mask.from_patch(Patch(0, 2, np.ones((7, 4), bool)), 9, 7)
        assert m.runs == (14, 28, 21)
        assert Mask.from_patch(Patch(0, 0, np.ones((7, 9), bool)), 9, 7).runs == (0, 63)

    @ENCODER
    @given(placed_patches())
    def test_random_boxes(self, case):
        p, width, height = case
        m = Mask.from_patch(p, width, height)
        assert list(m.runs) == ref_encode(placed(p, width, height))
        assert np.array_equal(m.dense(), placed(p, width, height))

    @pytest.mark.parametrize("y0,x0,h,w", [(0, 0, 3, 4), (2, 5, 1, 1), (0, 0, 5, 9)])
    def test_all_false_patch_is_empty(self, y0, x0, h, w):
        m = Mask.from_patch(Patch(y0, x0, np.zeros((h, w), bool)), 9, 5)
        assert m == Mask.empty(9, 5)

    @pytest.mark.parametrize(
        "y0,x0,h,w", [(-1, 0, 2, 2), (0, -1, 2, 2), (4, 0, 2, 2), (0, 8, 2, 2), (0, 0, 6, 9)]
    )
    def test_patch_outside_the_image_rejected(self, y0, x0, h, w):
        with pytest.raises(MaskError, match="does not fit in 9x5"):
            Mask.from_patch(Patch(y0, x0, np.ones((h, w), bool)), 9, 5)


class TestFromDense:
    @ENCODER
    @given(placed_patches())
    def test_equals_the_flatten_and_diff_encoder(self, case):
        p, width, height = case
        grid = placed(p, width, height)
        assert list(Mask.from_dense(grid).runs) == ref_encode(grid)
        assert list(Mask.from_dense(np.asfortranarray(grid)).runs) == ref_encode(grid)

    def test_empty_grid(self):
        assert Mask.from_dense(np.zeros((3, 5), bool)) == Mask.empty(5, 3)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,), (2, 2, 2)])
    def test_not_a_non_empty_2d_grid(self, shape):
        with pytest.raises(MaskError, match="non-empty 2D grid"):
            Mask.from_dense(np.ones(shape, bool))


class TestConstructor:
    @pytest.mark.parametrize(
        "width,height,runs,message",
        [
            (0, 2, [0], "dimensions must be positive, got 0x2"),
            (2, -1, [], "dimensions must be positive, got 2x-1"),
            (2, 2, [1, -1, 4], "negative run length"),
            (2, 2, [-1, 5], "negative run length"),
            (2, 2, [1, 0, 3], r"zero-length interior run \(only the first run may be 0\)"),
            (2, 2, [0, 0, 4], "zero-length interior run"),
            (2, 2, [3], r"runs sum to 3, expected 4 for 2x2"),
            (2, 2, [], r"runs sum to 0, expected 4 for 2x2"),
            (3, 2, [2, 5], r"runs sum to 7, expected 6 for 3x2"),
        ],
    )
    def test_messages(self, width, height, runs, message):
        with pytest.raises(MaskError, match=message):
            Mask(width, height, runs)

    def test_numpy_integer_runs(self):
        for runs in (np.array([1, 2, 1]), [np.int32(1), np.int64(2), np.uint8(1)]):
            m = Mask(2, 2, runs)
            assert m.runs == (1, 2, 1)
            assert all(type(r) is int for r in m.runs)
            assert m == Mask(2, 2, [1, 2, 1])


class TestRunBounds:
    GRIDS = [np.eye(4, 5, dtype=bool), np.ones((3, 2), bool), np.zeros((2, 3), bool)]

    @staticmethod
    def built(runs, width, height):
        """The same mask from a tuple, a list and numpy-integer runs."""
        return [
            Mask(width, height, tuple(runs)),
            Mask(width, height, list(runs)),
            Mask(width, height, np.array(runs, dtype=np.int32)),
            Mask(width, height, [np.int64(r) for r in runs]),
        ]

    @pytest.mark.parametrize("grid", GRIDS + [np.random.default_rng(8).random((6, 7)) < 0.4])
    def test_kernels_agree(self, grid):
        h, w = grid.shape
        flat = grid.flatten(order="F")
        masks = self.built(Mask.from_dense(grid).runs, w, h)
        table = run_table(masks)
        assert table.areas.tolist() == [int(flat.sum())] * len(masks)
        for m in masks:
            assert np.array_equal(column_major(m), flat)
            assert foreground(m).tolist() == np.flatnonzero(flat).tolist()
            assert m.area == int(flat.sum())
            if flat.any():
                ys, xs = np.nonzero(grid)
                assert m.bbox() == BBox(xs.min(), ys.min(), xs.max() + 1, ys.max() + 1)
        for name in ("starts", "ends", "first"):
            rows = [getattr(run_table([m]), name).tolist() for m in masks]
            assert all(r == rows[0] for r in rows)

    def test_bounds_read_only_and_not_pickled(self):
        m = Mask(3, 2, [1, 2, 2, 1])
        b = m.bounds()
        assert b.dtype == np.int64 and b.tolist() == [1, 3, 5, 6]
        assert m.bounds() is b
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0] = 0
        assert pickle.loads(pickle.dumps(m))._bounds is None
        assert m.__reduce__() == (Mask, (3, 2, (1, 2, 2, 1)))


class TestIoU:
    def test_identity(self):
        rng = np.random.default_rng(2)
        m = random_mask(rng)
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        a[0, 0] = True
        b[3, 3] = True
        assert iou(Mask.from_dense(a), Mask.from_dense(b)) == 0.0

    def test_hand_counted_columns(self):
        # A = columns 0-1, B = columns 1-2 on a 4x4 grid: 4 / 12
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        a[:, 0:2] = True
        b[:, 1:3] = True
        assert iou(Mask.from_dense(a), Mask.from_dense(b)) == pytest.approx(4 / 12)

    def test_empty_empty_conventions(self):
        e = Mask.empty(3, 3)
        assert iou(e, e, empty_empty=0.0) == 0.0
        assert iou(e, e, empty_empty=1.0) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(MaskError):
            iou(Mask.empty(2, 2), Mask.empty(3, 3))

    def test_rle_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        pairs = [(random_mask(rng, p=rng.random()), random_mask(rng, p=rng.random()))
                 for _ in range(100)]
        # runs that wrap into the next column, empty and full masks
        edge = [Mask(4, 4, [3, 2, 6, 3, 2]), Mask(4, 4, [0, 5, 2, 9]),
                Mask.empty(4, 4), Mask.full(4, 4)]
        pairs += [(a, b) for a in edge for b in edge]
        for w, h in ((1, 1), (1, 9), (9, 1)):  # one row: longer runs wrap
            masks = [Mask.empty(w, h), Mask.full(w, h),
                     *(random_mask(rng, w, h, p) for p in (0.3, 0.7) for _ in range(3))]
            pairs += [(a, b) for a in masks for b in masks]
        for a, b in pairs:
            inter = np.logical_and(a.dense(), b.dense()).sum()
            union = np.logical_or(a.dense(), b.dense()).sum()
            expected = inter / union if union else 0.0
            assert iou(a, b) == pytest.approx(expected, abs=1e-15)
            assert intersection_area(a, b) == inter

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = random_mask(rng)
            b = random_mask(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)


class TestBoundary:
    def test_empty(self):
        assert boundary(Mask.empty(5, 5)).is_empty

    def test_single_pixel(self):
        grid = np.zeros((5, 5), bool)
        grid[2, 2] = True
        m = Mask.from_dense(grid)
        assert boundary(m) == m

    def test_solid_block_ring(self):
        grid = np.zeros((8, 8), bool)
        grid[2:6, 2:6] = True
        ring = boundary(Mask.from_dense(grid))
        assert ring.area == 12
        inner = np.zeros((8, 8), bool)
        inner[3:5, 3:5] = True
        assert not np.logical_and(ring.dense(), inner).any()

    def test_border_pixels_count(self):
        m = Mask.full(3, 3)
        assert boundary(m).area == 8  # center pixel is interior

    def test_subset_of_mask(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = random_mask(rng)
            assert not (boundary(m).dense() & ~m.dense()).any()


class TestDilate:
    def test_radius_zero_identity(self):
        rng = np.random.default_rng(6)
        m = random_mask(rng)
        assert dilate(m, 0) == m

    def test_plus_shape(self):
        grid = np.zeros((5, 5), bool)
        grid[2, 2] = True
        d = dilate(Mask.from_dense(grid), 1)
        expected = np.zeros((5, 5), bool)
        expected[2, 1:4] = True
        expected[1:4, 2] = True
        assert np.array_equal(d.dense(), expected)

    def test_empty_stays_empty(self):
        assert dilate(Mask.empty(4, 4), 3).is_empty

    def test_euclidean_disk_oracle(self):
        # brute-force distance check on a single seed point
        grid = np.zeros((11, 11), bool)
        grid[5, 5] = True
        for r in (1, 2, 2.5, 3):
            d = dilate(Mask.from_dense(grid), r).dense()
            yy, xx = np.mgrid[0:11, 0:11]
            expected = (yy - 5) ** 2 + (xx - 5) ** 2 <= r * r
            assert np.array_equal(d, expected)

    def test_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_mask(rng, p=0.2)
            d1 = dilate(m, 1)
            d2 = dilate(m, 2)
            assert not (m.dense() & ~d1.dense()).any()
            assert not (d1.dense() & ~d2.dense()).any()


class TestBBox:
    def test_tight(self):
        grid = np.zeros((6, 8), bool)
        grid[2, 3] = True
        grid[4, 5] = True
        assert Mask.from_dense(grid).bbox() == BBox(3, 2, 6, 5)

    def test_empty_rejected(self):
        with pytest.raises(MaskError):
            Mask.empty(4, 4).bbox()

    def test_degenerate_rejected(self):
        with pytest.raises(MaskError):
            BBox(2, 2, 2, 3)

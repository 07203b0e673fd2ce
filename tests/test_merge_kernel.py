"""The merge frame kernel: the per-frame flow source pairs and the
sorted-index overlap of many proposals with one mask, checked for exact
equality against the pixel-by-pixel naive reference; and the boxes and IoU
bounds that prune the proposal NMS."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_reference import naive_iou, naive_round_half_away, naive_warp
from trackmerge.flow import FlowField, source_pairs, warp_mask
from trackmerge.mask import (
    Mask,
    column_major,
    foreground,
    iou,
    iou_bounds,
    ious,
    run_table,
    sub_table,
    table_boxes,
    tight_boxes,
)

KERNEL = settings(max_examples=300, deadline=None, derandomize=True)

# exact half steps round away from zero; the large ones leave the image.
# 0.49999997 is the largest float32 below 0.5, and 3.4e38 is near the
# float32 maximum.
EDGES = [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -1.0, 3.0, -20.0, 20.0, 1e6,
         0.49999997, -0.49999997, 3.4e38, -3.4e38]
assert np.float32(0.49999997) == np.nextafter(np.float32(0.5), np.float32(0))


def components(shape):
    """Flow components for an image of this shape, with the out-of-image
    value the synthetic scenarios use, 2 * (w + h)."""
    h, w = shape
    return st.one_of(st.sampled_from(EDGES + [2.0 * (w + h)]), st.floats(-12, 12, width=32))


@st.composite
def grids(draw, shape):
    h, w = shape
    kind = draw(st.sampled_from(["random", "box", "border", "empty", "full"]))
    g = np.zeros((h, w), bool)
    if kind == "random":
        cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
        g[:] = np.array(cells).reshape(h, w)
    elif kind == "box":
        y0 = draw(st.integers(0, h - 1))
        x0 = draw(st.integers(0, w - 1))
        g[y0 : draw(st.integers(y0 + 1, h)), x0 : draw(st.integers(x0 + 1, w))] = True
    elif kind == "border":  # the ring of pixels along the image border
        g[:] = True
        g[1:-1, 1:-1] = False
    elif kind == "full":
        g[:] = True
    return g


@st.composite
def flows(draw, shape):
    h, w = shape
    mode = draw(st.sampled_from(["uniform", "per_pixel"]))
    if mode == "uniform":
        vec = np.empty((h, w, 2), np.float32)
        vec[:, :, 0] = draw(components(shape))
        vec[:, :, 1] = draw(components(shape))
    else:
        count = 2 * h * w
        values = draw(st.lists(components(shape), min_size=count, max_size=count))
        vec = np.array(values, np.float32).reshape(h, w, 2)
    return FlowField(w, h, vec)


shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
scenes = shapes.flatmap(
    lambda hw: st.tuples(grids(hw), st.lists(grids(hw), min_size=1, max_size=5), flows(hw))
)
frames = shapes.flatmap(lambda hw: st.lists(grids(hw), min_size=1, max_size=8))


def naive_box(g):
    """(x0, y0, x1, y1) of a grid's foreground, None when it has none."""
    ys, xs = np.nonzero(g)
    return (xs.min(), ys.min(), xs.max() + 1, ys.max() + 1) if xs.size else None


def naive_source_index(vectors):
    """Column-major output order; h * w marks a source outside the image."""
    h, w = vectors.shape[:2]
    out = []
    for x in range(w):
        for y in range(h):
            dx, dy = vectors[y, x]
            sx = naive_round_half_away(x + float(dx))
            sy = naive_round_half_away(y + float(dy))
            out.append(sx * h + sy if 0 <= sx < w and 0 <= sy < h else h * w)
    return out


def pairs_as_map(flow):
    """source_pairs expanded to naive_source_index's form, after checking
    that the destinations ascend."""
    dest, src = source_pairs(flow)
    assert dest.dtype == src.dtype == np.int32
    assert (np.diff(dest) > 0).all()
    size = flow.height * flow.width
    full = np.full(size, size, dtype=np.intp)
    full[dest] = src
    return full.tolist()


class TestSourcePairs:
    @KERNEL
    @given(scenes)
    def test_source_pairs_and_warp(self, scene):
        previous, _, flow = scene
        assert pairs_as_map(flow) == naive_source_index(flow.vectors)
        warped = warp_mask(Mask.from_dense(previous), flow)
        assert np.array_equal(warped.dense(), naive_warp(previous, flow.vectors))

    def test_half_steps_and_exits(self):
        # 1x4 image: sources x + dx = -0.5, 1.5, 1.5, 3.5 round half away
        # from zero to -1, 2, 2, 4; -1 and 4 lie outside
        vec = np.zeros((1, 4, 2), np.float32)
        vec[0, :, 0] = [-0.5, 0.5, -0.5, 0.5]
        assert pairs_as_map(FlowField(4, 1, vec)) == [4, 2, 2, 4]
        dest, src = source_pairs(FlowField(4, 1, vec))
        assert dest.tolist() == [1, 2] and src.tolist() == [2, 2]

    def test_one_pixel_image(self):
        values = EDGES + [4.0, 0.25, -0.25]  # 4.0 = 2 * (w + h)
        for dx in values:
            for dy in values:
                flow = FlowField(1, 1, np.array([[[dx, dy]]], np.float32))
                assert pairs_as_map(flow) == naive_source_index(flow.vectors), (dx, dy)
                warped = warp_mask(Mask.full(1, 1), flow).dense()
                assert np.array_equal(warped, naive_warp(np.ones((1, 1), bool), flow.vectors))


class TestOverlap:
    @KERNEL
    @given(scenes)
    def test_ious_against_naive(self, scene):
        previous, proposals, flow = scene
        masks = [Mask.from_dense(g) for g in proposals]
        table = run_table(masks)
        warped = naive_warp(previous, flow.vectors)
        dest, src = source_pairs(flow)
        got = ious(table, dest[column_major(Mask.from_dense(previous))[src]])
        assert got.tolist() == [naive_iou(g, warped) for g in proposals]
        plain = ious(table, foreground(Mask.from_dense(previous)))
        assert plain.tolist() == [naive_iou(g, previous) for g in proposals]
        assert plain.tolist() == [iou(m, Mask.from_dense(previous)) for m in masks]

    @KERNEL
    @given(shapes.flatmap(grids))
    def test_foreground_indices(self, g):
        m = Mask.from_dense(g)
        assert foreground(m).tolist() == np.flatnonzero(column_major(m)).tolist()
        assert foreground(m).tolist() == np.flatnonzero(g.flatten(order="F")).tolist()

    def test_empty_against_empty_is_zero(self):
        empty = Mask.empty(3, 2)
        table = run_table([empty, Mask.full(3, 2)])
        assert ious(table, foreground(empty)).tolist() == [0.0, 0.0]

    def test_sub_table_rows(self):
        masks = [Mask(3, 2, [1, 2, 2, 1]), Mask.empty(3, 2), Mask.full(3, 2), Mask(3, 2, [4, 2])]
        table = run_table(masks)
        for rows in ([3, 0], [1], [2, 1, 3], [0, 0]):
            got = sub_table(table, np.array(rows))
            want = run_table([masks[i] for i in rows])
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), rows

    def test_run_table_offsets(self):
        # column-major 2x3 grid: foreground at flat offsets 1-2 and 5
        m = Mask(3, 2, [1, 2, 2, 1])
        table = run_table([Mask.empty(3, 2), m])
        assert table.starts.tolist() == [1, 5]
        assert table.ends.tolist() == [3, 6]
        assert table.first.tolist() == [0, 0, 2]
        assert table.areas.tolist() == [0, 3]
        assert foreground(m).tolist() == [1, 2, 5]


class TestBoxes:
    @KERNEL
    @given(frames)
    def test_table_boxes_match_bbox(self, grids_):
        masks = [Mask.from_dense(g) for g in grids_]
        boxes = table_boxes(run_table(masks), masks[0].height)
        assert boxes.shape == (4, len(masks)) and boxes.dtype == np.int64
        for m, g, box, tight in zip(masks, grids_, boxes.T.tolist(), tight_boxes(masks)):
            if m.is_empty:
                assert box == [0, 0, 0, 0] and tight is None
            else:
                b = m.bbox()
                assert box == [b.x0, b.y0, b.x1, b.y1] == list(naive_box(g))
                assert tight == b

    def test_tight_boxes_of_no_masks(self):
        assert tight_boxes([]) == []

    def test_wrapping_runs_span_every_row(self):
        # 4x3 image: one run from the last row of column 0 into column 1,
        # one from column 2 into the first row of column 3
        masks = [Mask(4, 3, [2, 2, 8]), Mask(4, 3, [7, 3, 2]), Mask(4, 3, [4, 1, 7])]
        assert table_boxes(run_table(masks), 3).T.tolist() == [
            [0, 0, 2, 3], [2, 0, 4, 3], [1, 1, 2, 2]
        ]

    @KERNEL
    @given(frames)
    def test_iou_bounds_hold(self, grids_):
        masks = [Mask.from_dense(g) for g in grids_]
        bounds = iou_bounds(run_table(masks), masks[0].height)
        assert np.array_equal(bounds, bounds.T)
        for i, (a, ga) in enumerate(zip(masks, grids_)):
            for j, (b, gb) in enumerate(zip(masks, grids_)):
                assert bounds[i, j] >= iou(a, b)
                boxes = naive_box(ga), naive_box(gb)
                meet = None not in boxes and all(
                    max(boxes[0][k], boxes[1][k]) < min(boxes[0][k + 2], boxes[1][k + 2])
                    for k in (0, 1)
                )
                assert (bounds[i, j] > 0) == meet

    def test_iou_bounds_at_box_edges(self):
        # 8x6 image: a (3, 2)-(6, 5) box and boxes that touch it along an
        # edge, share one column or one row, or hold it
        def rect(x0, y0, x1, y1):
            g = np.zeros((6, 8), bool)
            g[y0:y1, x0:x1] = True
            return Mask.from_dense(g)

        masks = [rect(3, 2, 6, 5), rect(6, 2, 8, 5), rect(0, 5, 8, 6), rect(3, 0, 6, 2),
                 rect(5, 2, 8, 5), rect(3, 4, 6, 6), rect(0, 0, 8, 6), Mask.empty(8, 6)]
        bounds = iou_bounds(run_table(masks), 6)[0]
        # touching: no shared pixel; one shared column: 3 of 9 + 9 - 3; one
        # shared row of a 3x2 box: 3 of 9 + 6 - 3; holding it: 9 of 48
        assert bounds.tolist() == [1.0, 0.0, 0.0, 0.0, 3 / 15, 3 / 12, 9 / 48, 0.0]


class TestBBox:
    @KERNEL
    @given(shapes.flatmap(grids))
    def test_bbox_from_runs(self, g):
        m = Mask.from_dense(g)
        if not g.any():
            return
        ys, xs = np.nonzero(g)
        box = m.bbox()
        assert (box.x0, box.y0, box.x1, box.y1) == (
            xs.min(), ys.min(), xs.max() + 1, ys.max() + 1
        )

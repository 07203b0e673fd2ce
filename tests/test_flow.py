import pickle
import struct

import numpy as np
import pytest

from naive_reference import naive_round_half_away
from trackmerge.errors import FlowError, MaskError
from trackmerge.flow import FLO_MAGIC, FlowField, load_flo, save_flo, source_pairs, warp_mask
from trackmerge.mask import Mask


def uniform_flow(w, h, dx, dy):
    vec = np.empty((h, w, 2), np.float32)
    vec[:, :, 0] = dx
    vec[:, :, 1] = dy
    return FlowField(w, h, vec)


class TestFloIO:
    def test_minimal_round_trip(self, tmp_path):
        f = FlowField(1, 1, np.zeros((1, 1, 2), np.float32))
        path = tmp_path / "a.flo"
        save_flo(f, path)
        loaded = load_flo(path)
        assert loaded.width == 1 and loaded.height == 1
        assert np.array_equal(loaded.vectors, f.vectors)

    def test_bytes_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        f = FlowField(5, 3, rng.standard_normal((3, 5, 2)).astype(np.float32))
        p1, p2 = tmp_path / "a.flo", tmp_path / "b.flo"
        save_flo(f, p1)
        save_flo(load_flo(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_hand_built_2x1(self, tmp_path):
        payload = struct.pack("<fii", FLO_MAGIC, 2, 1) + struct.pack(
            "<4f", 1.0, 0.0, -1.0, 0.0
        )
        path = tmp_path / "f.flo"
        path.write_bytes(payload)
        f = load_flo(path)
        assert f.vectors[0, 0, 0] == 1.0
        assert f.vectors[0, 1, 0] == -1.0

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(struct.pack("<fii", 0.0, 1, 1) + b"\0" * 8)
        with pytest.raises(FlowError):
            load_flo(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.flo"
        path.write_bytes(struct.pack("<fii", FLO_MAGIC, 2, 2) + b"\0" * 8)
        with pytest.raises(FlowError):
            load_flo(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.flo"
        path.write_bytes(
            struct.pack("<fii", FLO_MAGIC, 1, 1) + struct.pack("<2f", np.nan, 0.0)
        )
        with pytest.raises(FlowError):
            load_flo(path)


class TestWarp:
    def test_zero_flow_identity(self):
        rng = np.random.default_rng(1)
        flow = uniform_flow(9, 7, 0, 0)
        for _ in range(20):
            m = Mask.from_dense(rng.random((7, 9)) < 0.4)
            assert warp_mask(m, flow) == m

    def test_single_pixel_shift(self):
        # backward dx = -1 moves content one pixel to the right
        grid = np.zeros((5, 5), bool)
        grid[2, 2] = True
        out = warp_mask(Mask.from_dense(grid), uniform_flow(5, 5, -1, 0))
        expected = np.zeros((5, 5), bool)
        expected[2, 3] = True
        assert np.array_equal(out.dense(), expected)

    def test_all_out_of_bounds(self):
        m = Mask.full(4, 4)
        assert warp_mask(m, uniform_flow(4, 4, 100, 0)).is_empty

    def test_dimension_mismatch(self):
        with pytest.raises(MaskError):
            warp_mask(Mask.full(3, 3), uniform_flow(4, 4, 0, 0))

    def test_every_output_pixel_traces_to_source(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = Mask.from_dense(rng.random((8, 10)) < 0.3)
            vec = rng.uniform(-3, 3, (8, 10, 2)).astype(np.float32)
            flow = FlowField(10, 8, vec)
            out = warp_mask(m, flow).dense()
            src = m.dense()
            for y, x in zip(*np.nonzero(out)):
                dx, dy = vec[y, x]
                sx = int(np.trunc(x + dx + np.copysign(0.5, x + dx)))
                sy = int(np.trunc(y + dy + np.copysign(0.5, y + dy)))
                assert src[sy, sx]

    def test_half_rounding_away_from_zero(self):
        # source sample at x + dx = 0.5 rounds to 1, not 0
        grid = np.zeros((1, 3), bool)
        grid[0, 1] = True
        out = warp_mask(Mask.from_dense(grid), uniform_flow(3, 1, 0.5, 0))
        assert bool(out.dense()[0, 0])


# the same (h, w, 2) field as C-ordered, Fortran-ordered, float64 and
# transposed-view arrays
LAYOUTS = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "float64": lambda v: v.astype(np.float64),
    "planes view": lambda v: np.ascontiguousarray(v.transpose(2, 1, 0)).transpose(2, 1, 0),
    "swapped view": lambda v: np.ascontiguousarray(v.transpose(1, 0, 2)).transpose(1, 0, 2),
}


class TestLayout:
    vec = np.random.default_rng(3).uniform(-4, 4, (3, 5, 2)).astype(np.float32)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_vectors_equal_the_input(self, layout):
        f = FlowField(5, 3, LAYOUTS[layout](self.vec))
        assert f.vectors.shape == (3, 5, 2) and f.vectors.dtype == np.float32
        assert np.array_equal(f.vectors, self.vec)
        assert f.vectors.tobytes() == self.vec.tobytes()
        assert f.planes.shape == (2, 5, 3) and f.planes.flags.c_contiguous

    def test_read_only(self):
        f = FlowField(5, 3, self.vec.copy())
        assert not f.vectors.flags.writeable and not f.planes.flags.writeable
        with pytest.raises(ValueError):
            f.vectors[0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            f.vectors = self.vec

    def test_pickle(self):
        f = pickle.loads(pickle.dumps(FlowField(5, 3, self.vec)))
        assert np.array_equal(f.vectors, self.vec) and f.planes.flags.c_contiguous
        assert not f.vectors.flags.writeable

    def test_flo_bytes(self, tmp_path):
        path = tmp_path / "a.flo"
        save_flo(FlowField(5, 3, np.asfortranarray(self.vec)), path)
        assert path.read_bytes() == struct.pack("<fii", FLO_MAGIC, 5, 3) + self.vec.tobytes()
        loaded = load_flo(path)
        assert loaded.vectors.tobytes() == self.vec.tobytes()
        assert loaded.planes.flags.c_contiguous and not loaded.vectors.flags.writeable


def naive_pairs(vectors):
    """(dest, src) from the definition: column-major pixel order, sources
    rounded half away from zero, those outside the image dropped."""
    h, w = vectors.shape[:2]
    dest, src = [], []
    for x in range(w):
        for y in range(h):
            dx, dy = vectors[y, x]
            sx = naive_round_half_away(x + float(dx))
            sy = naive_round_half_away(y + float(dy))
            if 0 <= sx < w and 0 <= sy < h:
                dest.append(x * h + y)
                src.append(sx * h + sy)
    return dest, src


def check_pairs(flow):
    dest, src = source_pairs(flow)
    assert dest.dtype == src.dtype == np.int32
    assert (dest.tolist(), src.tolist()) == naive_pairs(flow.vectors)


class TestSourcePairsEdges:
    @pytest.mark.parametrize("h, w", [(4, 6), (1, 7), (7, 1), (1, 1)])
    def test_half_a_pixel_past_each_border(self, h, w):
        # sample positions at and half a pixel around each border
        xs = np.array([-1.5, -0.5, 0.5, w - 1.5, w - 0.5, w + 0.5], np.float32)
        ys = np.array([-1.5, -0.5, 0.5, h - 1.5, h - 0.5, h + 0.5], np.float32)
        rng = np.random.default_rng(h * 10 + w)
        for _ in range(5):
            vec = np.empty((h, w, 2), np.float32)
            vec[..., 0] = rng.choice(xs, (h, w)) - np.arange(w, dtype=np.float32)
            vec[..., 1] = rng.choice(ys, (h, w)) - np.arange(h, dtype=np.float32)[:, None]
            check_pairs(FlowField(w, h, vec))

    @pytest.mark.parametrize("h, w", [(3, 4), (1, 5), (5, 1)])
    def test_near_the_float32_limit(self, h, w):
        big = [3e38, -3e38, 3.4e38, -3.4e38, float(np.finfo(np.float32).max), 0.0, -1.0, 1.0]
        rng = np.random.default_rng(h + w)
        for _ in range(5):
            vec = rng.choice(np.array(big, np.float32), (h, w, 2))
            check_pairs(FlowField(w, h, vec))

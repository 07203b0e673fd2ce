import os

import numpy as np
import pytest

from trackmerge.errors import TrackmergeError
from trackmerge.labelmap import LabelMap, paint, read_frames, read_pgm, write_frames, write_pgm
from trackmerge.mask import Mask


class TestPgm:
    # the payload starts with the bytes of '#', '\n' and ' ', which must not
    # be read as part of the header
    LABELS = np.array([[35, 10, 32], [0, 1, 255]], np.uint8)

    def test_round_trip(self, tmp_path):
        lm = LabelMap(3, 2, self.LABELS)
        write_pgm(lm, tmp_path / "a.pgm")
        assert read_pgm(tmp_path / "a.pgm") == lm

    def test_header_comments_accepted(self, tmp_path):
        header = b"P5\n# made by hand\n3 # width\n2\n#maxval next\n255\n"
        (tmp_path / "a.pgm").write_bytes(header + self.LABELS.tobytes())
        assert read_pgm(tmp_path / "a.pgm") == LabelMap(3, 2, self.LABELS)

    def test_unterminated_comment_rejected(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5 3 2 # no end")
        with pytest.raises(TrackmergeError, match="P5"):
            read_pgm(tmp_path / "a.pgm")

    @pytest.mark.parametrize("header", [b"P5\n0 0\n255\n", b"P5\n0 3\n255\n", b"P5\n4 0\n255\n"])
    def test_zero_dimension_rejected(self, tmp_path, header):
        (tmp_path / "a.pgm").write_bytes(header)
        with pytest.raises(TrackmergeError, match="dimensions must be positive"):
            read_pgm(tmp_path / "a.pgm")

    def test_zero_dimension_label_map_rejected(self):
        with pytest.raises(TrackmergeError):
            LabelMap(0, 0, np.zeros((0, 0), np.uint8))

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("value", [-1, 256])
    def test_labels_outside_a_byte_rejected(self, dtype, value):
        labels = np.zeros((2, 3), dtype)
        labels[1, 2] = value
        with pytest.raises(TrackmergeError, match=r"\[0, 255\]"):
            LabelMap(3, 2, labels)
        labels[1, 2] = 255
        assert LabelMap(3, 2, labels).labels.tolist() == [[0, 0, 0], [0, 0, 255]]


def bar(x0, x1, width=6, height=2):
    grid = np.zeros((height, width), bool)
    grid[:, x0:x1] = True
    return Mask.from_dense(grid)


class TestPaint:
    def test_highest_priority_wins_overlap(self):
        lm = paint(6, 2, [(1, bar(0, 4), 0.2), (2, bar(2, 6), 0.9)])
        assert lm.labels[0].tolist() == [1, 1, 2, 2, 2, 2]

    def test_priority_tie_goes_to_lowest_id(self):
        for entries in ([(1, bar(0, 4), 0.5), (2, bar(2, 6), 0.5)],
                        [(2, bar(2, 6), 0.5), (1, bar(0, 4), 0.5)]):
            assert paint(6, 2, entries).labels[0].tolist() == [1, 1, 1, 1, 2, 2]

    def test_no_entries_is_background(self):
        assert paint(6, 2, []) == LabelMap.background(6, 2)


class TestFrameDirectory:
    def test_round_trip_and_names(self, tmp_path):
        maps = [LabelMap(3, 2, TestPgm.LABELS), LabelMap.background(3, 2)]
        write_frames(maps, tmp_path / "video")
        assert sorted(os.listdir(tmp_path / "video")) == ["00000.pgm", "00001.pgm"]
        assert read_frames(tmp_path / "video") == maps

    def test_frames_read_in_name_order(self, tmp_path):
        maps = [LabelMap(1, 1, [[t]]) for t in range(12)]
        write_frames(maps, tmp_path)
        (tmp_path / "notes.txt").write_text("not a frame")
        assert read_frames(tmp_path) == maps

    def test_directory_without_frames_rejected(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a frame")
        with pytest.raises(TrackmergeError, match="no .pgm files"):
            read_frames(tmp_path)

    def test_mixed_sizes_rejected(self, tmp_path):
        write_frames([LabelMap.background(3, 2), LabelMap.background(3, 2)], tmp_path)
        write_pgm(LabelMap.background(2, 3), tmp_path / "00001.pgm")
        with pytest.raises(TrackmergeError, match="00001.pgm: label map is 2x3"):
            read_frames(tmp_path)
